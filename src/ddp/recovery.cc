#include "ddp/recovery.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ddp::core {

using net::KeyId;
using net::Message;
using net::MsgType;
using net::NodeId;
using net::Version;

// --- PhiAccrualDetector ----------------------------------------------------

PhiAccrualDetector::PhiAccrualDetector(std::uint32_t num_peers)
    : PhiAccrualDetector(num_peers, Tuning())
{
}

PhiAccrualDetector::PhiAccrualDetector(std::uint32_t num_peers,
                                       Tuning tuning)
    : tuning(tuning), peers(num_peers),
      heartbeatMaySuspect(tuning.suspectPhi <= -std::log10(0.5))
{
    assert(tuning.windowSize > 0);
    assert(tuning.trustPhi < tuning.suspectPhi &&
           "hysteresis needs trustPhi < suspectPhi");
    for (PeerState &p : peers)
        p.ring.assign(tuning.windowSize, 0);
}

void
PhiAccrualDetector::observe(NodeId peer, sim::Tick sample)
{
    assert(peer < peers.size());
    PeerState &p = peers[peer];
    auto s = static_cast<double>(sample);
    if (p.count >= tuning.windowSize) {
        // Evict the sample the cursor is about to overwrite.
        auto old = static_cast<double>(p.ring[p.next]);
        p.sum -= old;
        p.sumSq -= old * old;
    }
    p.ring[p.next] = sample;
    p.next = (p.next + 1) % tuning.windowSize;
    if (p.count < tuning.windowSize)
        ++p.count;
    p.sum += s;
    p.sumSq += s * s;
}

void
PhiAccrualDetector::heartbeat(NodeId peer, sim::Tick now)
{
    assert(peer < peers.size());
    PeerState &p = peers[peer];
    if (p.heard && now >= p.lastHeard)
        observe(peer, now - p.lastHeard);
    p.lastHeard = now;
    p.heard = true;
    // Fresh traffic is the evidence that rehabilitates a suspect. A
    // trusted peer needs no verdict: at elapsed 0 the normal tail is
    // >= 0.5 (z <= 0), so phi <= -log10(0.5) (or NaN for a degenerate
    // all-zero window), which cannot reach a suspectPhi above that.
    if (p.suspectedNow || heartbeatMaySuspect)
        suspected(peer, now);
}

void
PhiAccrualDetector::meanSigma(const PeerState &p, double &mean,
                              double &sigma) const
{
    if (p.count < tuning.minSamples) {
        mean = static_cast<double>(tuning.bootstrapMean);
        sigma = mean * tuning.minSigmaFrac;
        return;
    }
    auto n = static_cast<double>(
        p.count < tuning.windowSize ? p.count : tuning.windowSize);
    mean = p.sum / n;
    double var = p.sumSq / n - mean * mean;
    sigma = var > 0.0 ? std::sqrt(var) : 0.0;
    double floor = mean * tuning.minSigmaFrac;
    if (sigma < floor)
        sigma = floor;
}

double
PhiAccrualDetector::phi(NodeId peer, sim::Tick elapsed) const
{
    assert(peer < peers.size());
    const PeerState &p = peers[peer];
    if (!p.heard)
        return 0.0; // never spoke: no evidence either way
    double mean = 0.0;
    double sigma = 0.0;
    meanSigma(p, mean, sigma);
    double z = (static_cast<double>(elapsed) - mean) /
               (sigma * std::sqrt(2.0));
    // P(sample > elapsed) under the normal fit; erfc underflows to 0
    // for z ≳ 27, so cap phi instead of taking log10(0).
    double tail = 0.5 * std::erfc(z);
    if (tail <= 1e-300)
        return 300.0;
    return -std::log10(tail);
}

bool
PhiAccrualDetector::suspected(NodeId peer, sim::Tick now)
{
    assert(peer < peers.size());
    PeerState &p = peers[peer];
    if (!p.heard)
        return p.suspectedNow;
    sim::Tick elapsed = now >= p.lastHeard ? now - p.lastHeard : 0;
    double level = phi(peer, elapsed);
    // Suspicion needs an established baseline: judging a barely-heard
    // peer against the bootstrap prior would let one long gap condemn
    // it (e.g. the first exchanges over a lossy degraded link).
    // Rehabilitation below has no such gate.
    if (!p.suspectedNow && level >= tuning.suspectPhi &&
        p.count >= tuning.minSamples) {
        p.suspectedNow = true;
        ++suspectCount;
    } else if (p.suspectedNow && level < tuning.trustPhi) {
        p.suspectedNow = false;
        ++trustCount;
    }
    return p.suspectedNow;
}

sim::Tick
PhiAccrualDetector::p99Estimate(NodeId peer) const
{
    assert(peer < peers.size());
    double mean = 0.0;
    double sigma = 0.0;
    meanSigma(peers[peer], mean, sigma);
    return static_cast<sim::Tick>(mean + 2.326 * sigma);
}

sim::Tick
PhiAccrualDetector::meanEstimate(NodeId peer) const
{
    assert(peer < peers.size());
    double mean = 0.0;
    double sigma = 0.0;
    meanSigma(peers[peer], mean, sigma);
    return static_cast<sim::Tick>(mean);
}

// --- RecoveryAgent ---------------------------------------------------------

RecoveryAgent::RecoveryAgent(NodeId self, std::uint32_t num_nodes,
                             Hooks hooks)
    : RecoveryAgent(self, num_nodes, std::move(hooks), Tuning())
{
}

RecoveryAgent::RecoveryAgent(NodeId self, std::uint32_t num_nodes,
                             Hooks hooks, Tuning tuning)
    : self(self),
      numNodes(num_nodes),
      hooks(std::move(hooks)),
      tuning(tuning)
{
}

void
RecoveryAgent::startCoordinator(
    std::uint64_t key_count, std::uint32_t batch,
    std::function<void(const RecoveryReport &)> done)
{
    assert(batch > 0);
    if (active())
        return; // a flapping detector must not double-start recovery
    // Cancel any timers of a previous, aborted coordination.
    for (auto &[id, b] : batches) {
        (void)id;
        if (b.timer != sim::kNoTimer && hooks.cancelTimer)
            hooks.cancelTimer(b.timer);
    }
    coordinator = CoordinatorState{};
    coordinator.keyCount = key_count;
    coordinator.batchSize = batch;
    coordinator.unreachable.assign(numNodes, false);
    coordinator.done = std::move(done);
    coordinator.report.startedAt = hooks.now();
    batches.clear();
    launchBatches();
}

std::uint32_t
RecoveryAgent::reachableOthers() const
{
    std::uint32_t n = 0;
    for (NodeId node = 0; node < numNodes; ++node) {
        if (node != self && !coordinator.unreachable[node])
            ++n;
    }
    return n;
}

Message
RecoveryAgent::makeQuery(const Batch &b, std::uint64_t id) const
{
    Message q;
    q.type = MsgType::RecQuery;
    q.src = self;
    q.key = b.start;
    q.scopeId = b.length; // range length rides in the scope field
    q.opId = id;
    return q;
}

Message
RecoveryAgent::makeInstall(const Batch &b, std::uint64_t id) const
{
    Message inst;
    inst.type = MsgType::RecInstall;
    inst.src = self;
    inst.key = b.start;
    inst.scopeId = b.length;
    inst.opId = id;
    inst.hasData = true; // winners carry data lines, not just versions
    inst.cauhist = b.best;
    return inst;
}

void
RecoveryAgent::armBatchTimer(std::uint64_t batch_id, Batch &b)
{
    if (!hooks.startTimer || !hooks.cancelTimer)
        return; // timeouts disabled: legacy perfectly-reliable mode
    b.timer = hooks.startTimer(
        tuning.batchTimeout,
        [this, batch_id] { onBatchTimeout(batch_id); });
}

void
RecoveryAgent::markUnreachable(NodeId node)
{
    if (coordinator.unreachable[node])
        return;
    coordinator.unreachable[node] = true;
    coordinator.report.unreachable.push_back(node);
    std::sort(coordinator.report.unreachable.begin(),
              coordinator.report.unreachable.end());
}

void
RecoveryAgent::launchBatches()
{
    while (coordinator.inFlight < kWindow &&
           coordinator.nextStart < coordinator.keyCount) {
        KeyId start = coordinator.nextStart;
        auto length = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(coordinator.batchSize,
                                    coordinator.keyCount - start));
        coordinator.nextStart += length;
        std::uint64_t id = coordinator.nextBatchId++;

        Batch b;
        b.start = start;
        b.length = length;
        b.retriesLeft = tuning.maxRetries;
        b.repliedSummary.assign(numNodes, false);
        b.repliedAck.assign(numNodes, false);
        b.best.assign(length, 0);
        b.differ.assign(length, false);
        // Seed with the coordinator's own durable versions.
        for (std::uint32_t i = 0; i < length; ++i)
            b.best[i] = pack(hooks.persistedVersion(start + i));
        b.awaitSummaries = reachableOthers();

        ++coordinator.inFlight;
        ++coordinator.report.batches;

        if (b.awaitSummaries == 0) {
            // Nobody left to ask: decide from local data alone.
            auto [it, ok] = batches.emplace(id, std::move(b));
            (void)ok;
            decideBatch(id, it->second);
            continue;
        }

        Message q = makeQuery(b, id);
        for (NodeId n = 0; n < numNodes; ++n) {
            if (n != self && !coordinator.unreachable[n])
                hooks.send(n, q);
        }
        auto [it, ok] = batches.emplace(id, std::move(b));
        (void)ok;
        armBatchTimer(id, it->second);
    }

    if (coordinator.inFlight == 0 && coordinator.done) {
        coordinator.report.finishedAt = hooks.now();
        auto done = std::move(coordinator.done);
        coordinator.done = nullptr;
        done(coordinator.report);
    }
}

void
RecoveryAgent::onMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::RecQuery:
        handleQuery(msg);
        break;
      case MsgType::RecSummary:
        handleSummary(msg);
        break;
      case MsgType::RecInstall:
        handleInstall(msg);
        break;
      case MsgType::RecAck:
        handleAck(msg);
        break;
      default:
        break;
    }
}

void
RecoveryAgent::handleQuery(const Message &msg)
{
    // Reply with the packed durable versions of the requested range.
    // Re-queries after a timeout land here again; replying afresh is
    // idempotent, so no dedup is needed on the replica side.
    Message reply;
    reply.type = MsgType::RecSummary;
    reply.src = self;
    reply.key = msg.key;
    reply.scopeId = msg.scopeId;
    reply.opId = msg.opId;
    reply.cauhist.reserve(msg.scopeId);
    for (std::uint64_t i = 0; i < msg.scopeId; ++i)
        reply.cauhist.push_back(pack(hooks.persistedVersion(msg.key + i)));
    hooks.send(msg.src, std::move(reply));
}

void
RecoveryAgent::handleSummary(const Message &msg)
{
    auto it = batches.find(msg.opId);
    if (it == batches.end())
        return;
    Batch &b = it->second;
    if (b.decided || msg.src >= numNodes || b.repliedSummary[msg.src])
        return; // late or duplicate reply
    assert(msg.cauhist.size() == b.length);
    b.repliedSummary[msg.src] = true;

    for (std::uint32_t i = 0; i < b.length; ++i) {
        std::uint64_t theirs = msg.cauhist[i];
        if (theirs != b.best[i])
            b.differ[i] = true;
        if (unpack(b.best[i]) < unpack(theirs))
            b.best[i] = theirs;
    }
    ++b.summaries;
    if (b.summaries < b.awaitSummaries)
        return;
    decideBatch(msg.opId, b);
}

void
RecoveryAgent::decideBatch(std::uint64_t batch_id, Batch &b)
{
    if (b.timer != sim::kNoTimer && hooks.cancelTimer) {
        hooks.cancelTimer(b.timer);
        b.timer = sim::kNoTimer;
    }
    b.decided = true;

    // Count results and decide whether anyone needs an install round.
    bool any_diff = false;
    for (std::uint32_t i = 0; i < b.length; ++i) {
        if (unpack(b.best[i]).number > 0)
            ++coordinator.report.keysInstalled;
        if (b.differ[i]) {
            ++coordinator.report.divergentKeys;
            any_diff = true;
        }
    }

    if (!any_diff) {
        finishBatch(batch_id, b);
        return;
    }

    // Install the winners locally and on every reachable replica.
    for (std::uint32_t i = 0; i < b.length; ++i) {
        Version v = unpack(b.best[i]);
        if (v.number > 0)
            hooks.install(b.start + i, v);
    }
    b.installing = true;
    b.retriesLeft = tuning.maxRetries;
    b.awaitAcks = reachableOthers();
    if (b.awaitAcks == 0) {
        finishBatch(batch_id, b);
        return;
    }
    Message inst = makeInstall(b, batch_id);
    for (NodeId n = 0; n < numNodes; ++n) {
        if (n != self && !coordinator.unreachable[n])
            hooks.send(n, inst);
    }
    armBatchTimer(batch_id, b);
}

void
RecoveryAgent::handleInstall(const Message &msg)
{
    // Idempotent: re-installs after a lost ack write the same winners.
    for (std::uint64_t i = 0; i < msg.scopeId; ++i) {
        Version v = unpack(msg.cauhist[i]);
        if (v.number > 0)
            hooks.install(msg.key + i, v);
    }
    Message ack;
    ack.type = MsgType::RecAck;
    ack.src = self;
    ack.key = msg.key;
    ack.opId = msg.opId;
    hooks.send(msg.src, std::move(ack));
}

void
RecoveryAgent::handleAck(const Message &msg)
{
    auto it = batches.find(msg.opId);
    if (it == batches.end())
        return;
    Batch &b = it->second;
    if (!b.installing || msg.src >= numNodes || b.repliedAck[msg.src])
        return; // stray or duplicate ack
    b.repliedAck[msg.src] = true;
    ++b.acks;
    if (b.acks >= b.awaitAcks)
        finishBatch(msg.opId, b);
}

void
RecoveryAgent::onBatchTimeout(std::uint64_t batch_id)
{
    auto it = batches.find(batch_id);
    if (it == batches.end())
        return;
    Batch &b = it->second;
    b.timer = sim::kNoTimer;
    ++coordinator.report.timeouts;

    const std::vector<bool> &replied =
        b.installing ? b.repliedAck : b.repliedSummary;
    std::vector<NodeId> missing;
    for (NodeId n = 0; n < numNodes; ++n) {
        if (n != self && !coordinator.unreachable[n] && !replied[n])
            missing.push_back(n);
    }

    if (missing.empty()) {
        // Every reachable replica answered, but the batch's completion
        // threshold was fixed at launch, before some replica was
        // declared unreachable by a sibling batch. Complete from the
        // answers at hand.
        if (!b.installing) {
            if (1 + b.summaries < quorum())
                ++coordinator.report.quorumFailures;
            decideBatch(batch_id, b);
        } else {
            finishBatch(batch_id, b);
        }
        return;
    }

    // Adaptive fast path: non-repliers the phi-accrual detector already
    // strongly suspects skip their remaining retries — the detector has
    // watched them go silent across all traffic, not just this batch.
    if (hooks.peerSuspected) {
        auto alive_end = std::remove_if(
            missing.begin(), missing.end(), [this](NodeId n) {
                if (!hooks.peerSuspected(n))
                    return false;
                markUnreachable(n);
                return true;
            });
        missing.erase(alive_end, missing.end());
        if (missing.empty()) {
            ++coordinator.report.quorumBatches;
            if (!b.installing) {
                if (1 + b.summaries < quorum())
                    ++coordinator.report.quorumFailures;
                decideBatch(batch_id, b);
                return;
            }
            finishBatch(batch_id, b);
            return;
        }
    }

    if (b.retriesLeft > 0) {
        --b.retriesLeft;
        Message m = b.installing ? makeInstall(b, batch_id)
                                 : makeQuery(b, batch_id);
        for (NodeId n : missing) {
            hooks.send(n, m);
            ++coordinator.report.retries;
        }
        armBatchTimer(batch_id, b);
        return;
    }

    // Retries exhausted: declare the silent replicas unreachable and
    // complete the batch from the answers at hand.
    for (NodeId n : missing)
        markUnreachable(n);
    ++coordinator.report.quorumBatches;

    if (!b.installing) {
        if (1 + b.summaries < quorum())
            ++coordinator.report.quorumFailures;
        decideBatch(batch_id, b);
        return;
    }
    finishBatch(batch_id, b);
}

void
RecoveryAgent::finishBatch(std::uint64_t batch_id, Batch &b)
{
    if (b.timer != sim::kNoTimer && hooks.cancelTimer) {
        hooks.cancelTimer(b.timer);
        b.timer = sim::kNoTimer;
    }
    batches.erase(batch_id);
    assert(coordinator.inFlight > 0);
    --coordinator.inFlight;
    launchBatches();
}

} // namespace ddp::core
