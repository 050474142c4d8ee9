#include "ddp/protocol_node.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ddp::core {

using net::KeyId;
using net::Message;
using net::MsgType;
using net::NodeId;
using net::Version;

ProtocolNode::ProtocolNode(sim::EventQueue &eq, net::Fabric &fabric,
                           NodeId self, const NodeParams &params,
                           stats::CounterRegistry &counters,
                           XactConflictTable *xact_table, KeyRange owned)
    : eq(eq),
      fabric(fabric),
      self(self),
      cfg(params),
      ctr(counters),
      xactTable(xact_table),
      nvmDev(params.nvmParams),
      dramDev(params.dramParams),
      hierarchy(params.cacheParams),
      backend(kv::makeStore(params.storeKind)),
      cores(params.workerCores),
      keys(params.keyCount),
      applied(params.numNodes),
      durableApplied(params.numNodes),
      pendingDurable(params.numNodes),
      causalBuffer(params.numNodes),
      followers(params.numNodes - 1),
      rmap(params.numNodes, params.replicationFactor),
      image(params.keyCount, params.valueLines == 0 ? 1
                                                    : params.valueLines,
            params.commitRecords),
      detector(params.numNodes),
      peerUp(params.numNodes, true)
{
    if (!rmap.full() &&
        (cfg.model.consistency == Consistency::Causal ||
         cfg.model.consistency == Consistency::Transactional)) {
        throw std::invalid_argument(
            "partial replication requires Linearizable, Read-Enforced, "
            "or Eventual consistency");
    }
    if (cfg.valueLines == 0)
        throw std::invalid_argument("valueLines must be >= 1");
    if (cfg.valueLines > 1 && !cfg.persistCoalescing) {
        // The line-by-line persist protocol assumes at most one
        // in-flight NVM write per key, which coalescing guarantees.
        throw std::invalid_argument(
            "valueLines > 1 requires persistCoalescing");
    }

    RecoveryAgent::Hooks hooks;
    hooks.persistedVersion = [this](KeyId key) {
        return persistedVersion(key);
    };
    hooks.install = [this](KeyId key, Version ver) {
        installRecovered(key, ver);
    };
    hooks.send = [this](NodeId dst, Message m) {
        m.src = this->self;
        m.epoch = currentEpoch;
        sendTo(dst, std::move(m));
    };
    hooks.broadcast = [this](Message m) {
        m.src = this->self;
        m.epoch = currentEpoch;
        broadcast(std::move(m));
    };
    hooks.now = [this] { return this->eq.now(); };
    hooks.startTimer = [this](sim::Tick delay,
                              std::function<void()> fire) {
        // Timer continuations from before a crash must not run into
        // the post-crash world: guard with the epoch, like messages.
        std::uint32_t ep = currentEpoch;
        return this->eq.scheduleTimerIn(
            delay, [this, ep, fire = std::move(fire)] {
                if (ep == currentEpoch)
                    fire();
            });
    };
    hooks.cancelTimer = [this](sim::TimerId id) {
        this->eq.cancelTimer(id);
    };
    hooks.peerSuspected = [this](NodeId peer) {
        bool before = detector.lastVerdict(peer);
        bool after = detector.suspected(peer, this->eq.now());
        traceSuspicion(peer, before, after);
        return after;
    };
    recovery = std::make_unique<RecoveryAgent>(self, params.numNodes,
                                               std::move(hooks),
                                               params.recoveryTuning);

    // Provision the owned keys' state now rather than at first touch:
    // the run would otherwise take those page faults instead of setup.
    keys.provision(owned.lo, owned.hi);
    image.provision(owned.lo, owned.hi);

    fabric.attach(self, [this](const Message &m) { handleMessage(m); });
}

// --------------------------------------------------------------------------
// Small helpers
// --------------------------------------------------------------------------

sim::Tick
ProtocolNode::scaledCost(sim::Tick cost) const
{
    if (!coreSlow)
        return cost;
    double f = coreSlow(eq.now());
    if (f <= 1.0)
        return cost;
    return static_cast<sim::Tick>(static_cast<double>(cost) * f);
}

bool
ProtocolNode::admissionShed(bool speculative)
{
    if (!cfg.shedEnabled)
        return false;
    sim::Tick now = eq.now();
    sim::Tick free_at = cores.earliestFree();
    sim::Tick qdelay = free_at > now ? free_at - now : 0;
    if (qdelay <= cfg.shedTarget) {
        // Sojourn dropped under target: disarm (CoDel's reset).
        shedFirstAboveAt = sim::kTickNever;
        if (shedActive && trace)
            trace->instant(tracePid, 0, "shed_off", now);
        shedActive = false;
        return false;
    }
    if (shedFirstAboveAt == sim::kTickNever)
        shedFirstAboveAt = now;
    if (!shedActive && now - shedFirstAboveAt >= cfg.shedInterval) {
        shedActive = true;
        if (trace)
            trace->instant(tracePid, 0, "shed_on", now);
    }
    return shedActive && speculative;
}

void
ProtocolNode::traceSuspicion(NodeId peer, bool before, bool after)
{
    if (!trace || before == after)
        return;
    // Counter series keys must be static literals; clusters larger
    // than the table collapse onto one overflow series.
    static const char *const kPeerSeries[] = {
        "peer0",  "peer1",  "peer2",  "peer3",  "peer4",  "peer5",
        "peer6",  "peer7",  "peer8",  "peer9",  "peer10", "peer11",
        "peer12", "peer13", "peer14", "peer15",
    };
    const char *series =
        peer < 16 ? kPeerSeries[peer] : "peer_other";
    trace->counter(tracePid, "suspicion", eq.now(), series,
                   after ? 1 : 0);
}

std::uint64_t
ProtocolNode::xactLogAddr(std::uint64_t xact_id) const
{
    // The transaction log lives just past the value region. (With
    // valueLines == 1 this is the classic keyCount offset, keeping the
    // default bank mapping — and hence event timing — unchanged.)
    return (cfg.keyCount * cfg.valueLines + (xact_id & 1023)) * 64;
}

std::uint64_t
ProtocolNode::commitAddrOf(KeyId key) const
{
    // Commit records occupy their own region past the transaction log
    // so they never contend with a value's own data lines for a slot.
    return (cfg.keyCount * cfg.valueLines + 1024 + key) * 64;
}

bool
ProtocolNode::isAckRoundConsistency() const
{
    return cfg.model.consistency == Consistency::Linearizable ||
           cfg.model.consistency == Consistency::ReadEnforced;
}

ProtocolNode::KeyReplica &
ProtocolNode::keyState(KeyId key)
{
    assert(key < keys.size());
    return keys[key];
}

const ProtocolNode::KeyReplica &
ProtocolNode::keyState(KeyId key) const
{
    assert(key < keys.size());
    return keys[key];
}

Version
ProtocolNode::allocateVersion(KeyId key)
{
    KeyReplica &kr = keyState(key);
    Version ver{kr.maxSeen.number + 1, self};
    kr.maxSeen = ver;
    return ver;
}

void
ProtocolNode::noteVersion(KeyId key, Version ver)
{
    KeyReplica &kr = keyState(key);
    if (kr.maxSeen < ver)
        kr.maxSeen = ver;
}

bool
ProtocolNode::waiterSatisfied(KeyId key, const KeyReplica &kr,
                              const Waiter &w) const
{
    switch (w.kind) {
      case Waiter::Kind::KeyValid:
        return !kr.transient;
      case Waiter::Kind::WriteSlot:
        return !kr.transient && kr.pendingOpId == 0;
      case Waiter::Kind::GlobalPersist:
        return kr.globalPersistVer >= w.ver;
      case Waiter::Kind::LocalPersist:
        return kr.persistedVer >= w.ver;
      case Waiter::Kind::KeyWarm:
        return !keyCold(key);
    }
    return true;
}

void
ProtocolNode::parkWaiter(KeyId key, Waiter &&w)
{
    KeyReplica &kr = keyState(key);
    std::uint64_t h = waiterSlab.alloc();
    waiterSlab.at(h) = std::move(w);
    if (kr.waiterTail == sim::ChunkedSlab<Waiter>::kNull)
        kr.waiterHead = h;
    else
        waiterSlab.at(kr.waiterTail).next = h;
    kr.waiterTail = h;
}

void
ProtocolNode::wakeWaiters(KeyId key)
{
    KeyReplica &kr = keyState(key);
    // One pass over the key's intrusive list: satisfied waiters are
    // unlinked (next captured before the cell is freed) and their
    // resumes *scheduled*, never run inline — so this unlink is the
    // only mutation of the list during traversal. Nothing here touches
    // the satisfaction inputs (kr's version fields, key temperature),
    // so interleaving the checks with the core charging keeps the wake
    // order and grant times identical to checking everything up front.
    std::uint64_t prev = sim::ChunkedSlab<Waiter>::kNull;
    std::uint64_t h = kr.waiterHead;
    while (h != sim::ChunkedSlab<Waiter>::kNull) {
        Waiter &w = waiterSlab.at(h);
        std::uint64_t next = w.next;
        if (waiterSatisfied(key, kr, w)) {
            // Re-admission of a woken request costs worker-core time;
            // under hot-key contention this wasted work scales with the
            // number of parked requests.
            sim::Tick t = cores.acquire(eq.now(), cfg.stallRetryCost);
            if (w.acc != nullptr) {
                w.acc->add(w.stallPhase, eq.now() - w.parkedAt);
                w.acc->add(sim::Phase::CoreQueue,
                           t - eq.now() - cfg.stallRetryCost);
                w.acc->add(sim::Phase::Service, cfg.stallRetryCost);
            }
            eq.schedule(t, std::move(w.resume));
            if (prev == sim::ChunkedSlab<Waiter>::kNull)
                kr.waiterHead = next;
            else
                waiterSlab.at(prev).next = next;
            if (kr.waiterTail == h)
                kr.waiterTail = prev;
            waiterSlab.free(h);
        } else {
            prev = h;
        }
        h = next;
    }
}

sim::Tick
ProtocolNode::chargeLocalAccess(KeyId key, bool is_write)
{
    (void)is_write;
    std::uint64_t addr = addrOf(key);
    auto [lat, hit] = hierarchy.access(addr);
    sim::Tick extra = lat;
    if (!hit) {
        sim::Tick done = dramDev.read(eq.now(), addr);
        extra += done - eq.now();
    }
    kv::Value tmp;
    backend->get(key, tmp);
    extra += static_cast<sim::Tick>(backend->lastProbes()) * cfg.probeCost;
    return extra;
}

Message
ProtocolNode::makeMsg(MsgType type, KeyId key, Version ver,
                      std::uint64_t op_id) const
{
    Message m;
    m.type = type;
    m.src = self;
    m.key = key;
    m.version = ver;
    m.opId = op_id;
    m.epoch = currentEpoch;
    return m;
}

void
ProtocolNode::sendTo(NodeId dst, Message msg)
{
    msg.dst = dst;
    fabric.send(msg);
}

void
ProtocolNode::broadcast(Message msg)
{
    fabric.broadcast(std::move(msg));
}

void
ProtocolNode::multicast(KeyId key, Message msg)
{
    if (rmap.full()) {
        fabric.broadcast(std::move(msg));
        return;
    }
    for (std::uint32_t i = 0; i < rmap.factor(); ++i) {
        NodeId dst = rmap.replica(key, i);
        if (dst == self)
            continue;
        msg.dst = dst;
        fabric.send(msg);
    }
}

// --------------------------------------------------------------------------
// Persist machinery
// --------------------------------------------------------------------------

namespace {

/** Max-merge or arrival-order overwrite of a persisted version. */
void
advancePersisted(Version &slot, Version ver, bool arrival_order)
{
    if (arrival_order || slot < ver)
        slot = ver;
}

} // namespace

void
ProtocolNode::issuePersist(KeyId key, Version ver, std::uint64_t round_id,
                           bool follower_acks, NodeId ack_dst,
                           std::uint64_t ack_op, bool arrival_order,
                           NodeId causal_origin, std::uint64_t causal_seq,
                           std::function<void()> on_durable)
{
    // Everything that must happen once this version is durable (or
    // superseded by a durable newer version) is captured here and
    // fired by the covering persist's completion.
    PersistObligation obligation =
        [this, key, ver, round_id, follower_acks, ack_dst, ack_op,
         causal_origin, causal_seq,
         on_durable = std::move(on_durable)](Version covered) {
            (void)covered;
            if (round_id != 0) {
                if (Round *r = rounds.get(round_id)) {
                    assert(r->pendingLocalPersists > 0);
                    --r->pendingLocalPersists;
                    checkRound(round_id);
                }
            }
            if (causal_origin != net::kNoNode) {
                // This persist makes one causal update durable locally:
                // advance the durable clock and retry buffered UPDs.
                noteCausalDurable(causal_origin, causal_seq);
                drainCausalBuffer();
            }
            if (follower_acks) {
                MsgType t =
                    (cfg.model.persistency == Persistency::Strict ||
                     cfg.model.persistency == Persistency::Synchronous)
                        ? MsgType::Ack
                        : MsgType::AckP;
                sendTo(ack_dst, makeMsg(t, key, ver, ack_op));
            }
            if (on_durable)
                on_durable();
        };

    KeyReplica &kr = keyState(key);
    if (!kr.persistBusy || !cfg.persistCoalescing) {
        std::vector<PersistObligation> obls;
        obls.push_back(std::move(obligation));
        startKeyPersist(key, ver, arrival_order, std::move(obls));
        return;
    }

    // Coalesce into the pending follow-up write for this line.
    ctr.add("persists_coalesced");
    if (!kr.hasPendingPersist) {
        kr.hasPendingPersist = true;
        kr.pendingPersistVer = ver;
    } else if (arrival_order || kr.pendingPersistVer < ver) {
        kr.pendingPersistVer = ver;
    }
    kr.pendingArrival = arrival_order;
    kr.pendingObligations.push_back(std::move(obligation));
}

void
ProtocolNode::startKeyPersist(KeyId key, Version ver, bool arrival_order,
                              std::vector<PersistObligation> obligations)
{
    ctr.add("persists_issued");
    std::uint32_t ep = currentEpoch;

    if (!cfg.persistCoalescing) {
        // Ablation mode: every persist is independent; obligations ride
        // in the completion closure instead of the per-key slot.
        // (Single-line only; valueLines > 1 is rejected in the ctor.)
        sim::Tick done_at = nvmDev.write(eq.now(), addrOf(key));
        auto obls = std::make_shared<std::vector<PersistObligation>>(
            std::move(obligations));
        eq.schedule(done_at,
                    [this, ep, key, ver, arrival_order, obls] {
            if (ep != currentEpoch)
                return;
            KeyReplica &kr = keyState(key);
            image.atomicPersist(key, ver, arrival_order);
            advancePersisted(kr.persistedVer, ver, arrival_order);
            wakeWaiters(key);
            for (auto &obl : *obls)
                obl(ver);
        });
        return;
    }

    KeyReplica &kr = keyState(key);
    kr.persistBusy = true;
    kr.activePersistVer = ver;
    kr.activeArrival = arrival_order;
    kr.activeObligations = std::move(obligations);

    if (cfg.valueLines == 1) {
        sim::Tick done_at = nvmDev.write(eq.now(), addrOf(key));
        eq.schedule(done_at, [this, ep, key] {
            if (ep != currentEpoch)
                return; // the persist raced a crash; treat it as lost
            onKeyPersistDone(key);
        });
        return;
    }

    // Multi-line value: every 64 B line is its own (atomic) NVM write.
    // A crash between the first line landing and the commit record
    // landing leaves a torn copy in the medium, which recovery must
    // detect. The lines issue in parallel (they map to different
    // banks); the commit record only once all of them are durable.
    //
    // Instant recovery: if the crash froze a persist of this key
    // mid-flight, the verified scan must judge that staging before a
    // new beginWrite overwrites the evidence — otherwise a torn copy
    // would vanish uncounted.
    if (!staleStaging.empty())
        settleStaleStaging(key);
    image.beginWrite(key, ver);
    auto remaining = std::make_shared<std::uint32_t>(cfg.valueLines);
    for (std::uint32_t i = 0; i < cfg.valueLines; ++i) {
        sim::Tick t = nvmDev.write(eq.now(), addrOf(key) + 64ull * i);
        eq.schedule(t, [this, ep, key, remaining] {
            if (ep != currentEpoch)
                return; // this line never reached the medium
            image.lineWritten(key);
            if (--*remaining == 0)
                onDataLinesDurable(key);
        });
    }
}

void
ProtocolNode::onDataLinesDurable(KeyId key)
{
    std::uint32_t ep = currentEpoch;
    if (!cfg.commitRecords) {
        // Ablation: nothing marks the value complete; the last data
        // line doubles as the completion point.
        onKeyPersistDone(key);
        return;
    }
    sim::Tick t = nvmDev.write(eq.now(), commitAddrOf(key));
    ctr.add("commit_records_written");
    eq.schedule(t, [this, ep, key] {
        if (ep != currentEpoch)
            return; // crash before the commit record: torn at recovery
        onKeyPersistDone(key);
    });
}

void
ProtocolNode::onKeyPersistDone(KeyId key)
{
    KeyReplica &kr = keyState(key);
    if (cfg.valueLines == 1) {
        image.atomicPersist(key, kr.activePersistVer, kr.activeArrival);
    } else {
        image.commitWrite(key, kr.activeArrival);
    }
    advancePersisted(kr.persistedVer, kr.activePersistVer,
                     kr.activeArrival);
    wakeWaiters(key);

    Version covered = kr.activePersistVer;
    std::vector<PersistObligation> fired =
        std::move(kr.activeObligations);
    kr.activeObligations.clear();
    kr.persistBusy = false;
    for (auto &obl : fired)
        obl(covered);

    // KeyReplica may have gained new pending work while obligations
    // ran; start the coalesced follow-up write if so.
    KeyReplica &kr2 = keyState(key);
    if (!kr2.persistBusy && kr2.hasPendingPersist) {
        Version next = kr2.pendingPersistVer;
        bool arrival = kr2.pendingArrival;
        std::vector<PersistObligation> obls =
            std::move(kr2.pendingObligations);
        kr2.pendingObligations.clear();
        kr2.hasPendingPersist = false;
        startKeyPersist(key, next, arrival, std::move(obls));
    }
}

// --------------------------------------------------------------------------
// Client reads
// --------------------------------------------------------------------------

struct ProtocolNode::ReadCtx
{
    sim::Tick issued = 0;
    OpCompletion done;
    OpContext octx;
    bool charged = false;
    bool countedVisibility = false;
    bool countedPersist = false;
    std::uint32_t conflictAttempts = 0;
    /** Phase attribution; sums to completedAt - issued at completion. */
    sim::PhaseAccum acc{};
};

void
ProtocolNode::clientRead(KeyId key, OpContext ctx, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    if (admissionShed(ctx.speculative)) {
        // Overloaded: reject the hedge at the door, before it costs a
        // core slot. The client treats the aborted result as a lost
        // race, never as the operation's outcome.
        ctr.add("shed_requests");
        OpResult res;
        res.kind = OpKind::Read;
        res.key = key;
        res.node = self;
        res.issuedAt = eq.now();
        res.completedAt = eq.now();
        res.aborted = true;
        done(res);
        return;
    }
    auto rc = std::make_shared<ReadCtx>();
    rc->issued = eq.now();
    rc->done = std::move(done);
    rc->octx = ctx;
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    rc->acc.add(sim::Phase::CoreQueue, admitted - eq.now() - op_cost);
    rc->acc.add(sim::Phase::Service, op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, key, rc] {
        if (ep == currentEpoch)
            execRead(key, rc);
    });
}

void
ProtocolNode::execRead(KeyId key, std::shared_ptr<ReadCtx> rc)
{
    if (!rc->charged) {
        rc->charged = true;
        sim::Tick extra = chargeLocalAccess(key, false);
        if (extra > 0) {
            rc->acc.add(sim::Phase::MemAccess, extra);
            std::uint32_t ep = currentEpoch;
            eq.scheduleIn(extra, [this, ep, key, rc] {
                if (ep == currentEpoch)
                    execRead(key, std::move(rc));
            });
            return;
        }
    }

    KeyReplica &kr = keyState(key);

    // Instant recovery: the durable image of this key has not been
    // scanned yet. Park until the on-demand fault-in warms it — a torn
    // or lost-suffix value must never be served.
    if (keyCold(key)) {
        ctr.add("reads_stalled_recovery");
        parkWaiter(key, {Waiter::Kind::KeyWarm, Version{},
                         [this, key, rc] { execRead(key, rc); },
                         eq.now(), &rc->acc,
                         sim::Phase::RecoveryStall});
        if (keyTemp[key] == KeyTemp::Cold)
            startFaultIn(key);
        return;
    }

    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;

    // Transactional bookkeeping and conflict detection (reads inside a
    // transaction never stall; conflicts squash the transaction).
    bool xact_read =
        c == Consistency::Transactional && rc->octx.xactId != 0;
    if (xact_read) {
        auto it = xactRecs.find(rc->octx.xactId);
        if (it == xactRecs.end() || it->second.aborted) {
            OpResult res;
            res.kind = OpKind::Read;
            res.key = key;
            res.node = self;
            res.issuedAt = rc->issued;
            res.completedAt = eq.now();
            res.aborted = true;
            res.phases = rc->acc;
            rc->done(res);
            return;
        }
        if (xactTable &&
            xactTable->accessConflicts(rc->octx.xactId, key, false,
                                       eq.now(), cfg.xactConflictWindow)) {
            ctr.add("xact_conflicts");
            if (!it->second.hadConflict) {
                it->second.hadConflict = true;
                ctr.add("xact_conflicted");
            }
            if (rc->conflictAttempts < cfg.xactConflictRetries) {
                // Stall flavor: wait for the conflicting transaction to
                // drain, then retry (wasting core time on re-admission).
                ++rc->conflictAttempts;
                ctr.add("xact_conflict_stalls");
                std::uint32_t ep = currentEpoch;
                sim::Tick t = cores.acquire(
                    eq.now() + cfg.xactConflictRetryDelay,
                    cfg.stallRetryCost);
                rc->acc.add(sim::Phase::ConflictRetry,
                            cfg.xactConflictRetryDelay);
                rc->acc.add(sim::Phase::CoreQueue,
                            t - eq.now() - cfg.xactConflictRetryDelay -
                                cfg.stallRetryCost);
                rc->acc.add(sim::Phase::Service, cfg.stallRetryCost);
                if (trace)
                    trace->instant(tracePid, 0, "conflict_retry",
                                   eq.now(), "key", key);
                eq.schedule(t, [this, ep, key, rc] {
                    if (ep == currentEpoch)
                        execRead(key, rc);
                });
                return;
            }
            // Squash flavor: retries exhausted.
            it->second.aborted = true;
            OpResult res;
            res.kind = OpKind::Read;
            res.key = key;
            res.node = self;
            res.issuedAt = rc->issued;
            res.completedAt = eq.now();
            res.aborted = true;
            res.phases = rc->acc;
            rc->done(res);
            return;
        }
        // Read-your-own-writes: the latest uncommitted write of this
        // transaction to the key wins over committed state.
        for (auto w = it->second.writes.rbegin();
             w != it->second.writes.rend(); ++w) {
            if (w->key == key) {
                OpResult res;
                res.kind = OpKind::Read;
                res.key = key;
                res.node = self;
                res.issuedAt = rc->issued;
                res.completedAt = eq.now();
                res.version = w->ver;
                res.phases = rc->acc;
                ctr.add("reads_completed");
                rc->done(res);
                return;
            }
        }
    }

    // Visibility stall: Linearizable and Read-Enforced consistency may
    // not serve a key with an in-flight update.
    if ((c == Consistency::Linearizable ||
         c == Consistency::ReadEnforced) &&
        kr.transient) {
        if (!rc->countedVisibility) {
            rc->countedVisibility = true;
            ctr.add("reads_stalled_visibility");
        }
        if (trace)
            trace->instant(tracePid, 0, "visibility_stall", eq.now(),
                           "key", key);
        parkWaiter(key, {Waiter::Kind::KeyValid, Version{},
                         [this, key, rc] { execRead(key, rc); },
                         eq.now(), &rc->acc,
                         sim::Phase::VisibilityStall});
        return;
    }

    // Durability stall: Read-Enforced persistency requires the latest
    // visible version to be durable before it may be read. Protocols
    // with ACK rounds prove global durability via VAL_p; the others
    // wait for the local persist (paper Fig. 3(c)-(d)).
    if (p == Persistency::ReadEnforced) {
        bool global = isAckRoundConsistency();
        bool must_wait = global ? kr.volatileVer > kr.globalPersistVer
                                : kr.volatileVer > kr.persistedVer;
        if (must_wait) {
            if (!rc->countedPersist) {
                rc->countedPersist = true;
                ctr.add("reads_stalled_persist");
            }
            if (trace)
                trace->instant(tracePid, 0, "persist_stall", eq.now(),
                               "key", key);
            parkWaiter(key, {global ? Waiter::Kind::GlobalPersist
                                    : Waiter::Kind::LocalPersist,
                             kr.volatileVer,
                             [this, key, rc] { execRead(key, rc); },
                             eq.now(), &rc->acc,
                             sim::Phase::PersistStall});
            return;
        }
    }

    finishRead(key, rc);
}

void
ProtocolNode::finishRead(KeyId key, const std::shared_ptr<ReadCtx> &rc)
{
    KeyReplica &kr = keyState(key);
    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;

    // Synchronous persistency bound to a consistency model without ACK
    // rounds serves the latest *persisted* version so that every value
    // returned is recoverable (paper Fig. 2(f)).
    Version ver = kr.volatileVer;
    if (p == Persistency::Synchronous &&
        (c == Consistency::Causal || c == Consistency::Eventual)) {
        ver = kr.persistedVer;
    }

    OpResult res;
    res.kind = OpKind::Read;
    res.key = key;
    res.node = self;
    res.issuedAt = rc->issued;
    res.completedAt = eq.now();
    res.version = ver;
    res.phases = rc->acc;
    ctr.add("reads_completed");
    if (sink)
        sink->onRead(cfg.observerIdOffset + self, key, ver, rc->issued,
                     eq.now());
    if (trace)
        trace->async(tracePid, "read", ++traceSpanId, rc->issued,
                     eq.now());
    rc->done(res);
}

// --------------------------------------------------------------------------
// Client scans (YCSB-E)
// --------------------------------------------------------------------------

struct ProtocolNode::ScanCtx
{
    sim::Tick issued = 0;
    OpCompletion done;
    OpContext octx;
    KeyId lo = 0;
    KeyId hi = 0;     ///< inclusive upper bound (clamped to key space)
    KeyId cursor = 0; ///< next key awaiting semantic clearance
    bool charged = false;
    bool walked = false;
    std::uint64_t visited = 0;
    /** Phase attribution; sums to completedAt - issued at completion. */
    sim::PhaseAccum acc{};
};

void
ProtocolNode::clientScan(KeyId key, std::uint32_t len, OpContext ctx,
                         OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    // Scans are primary (never speculative) work, so they are never
    // shed; the call still feeds the controller's sojourn estimate.
    admissionShed(false);
    auto sc = std::make_shared<ScanCtx>();
    sc->issued = eq.now();
    sc->done = std::move(done);
    sc->octx = ctx;
    sc->lo = key < cfg.keyCount ? key : cfg.keyCount - 1;
    std::uint64_t span = len > 0 ? len : 1;
    sc->hi = sc->lo + span - 1 >= cfg.keyCount ? cfg.keyCount - 1
                                               : sc->lo + span - 1;
    sc->cursor = sc->lo;
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    sc->acc.add(sim::Phase::CoreQueue, admitted - eq.now() - op_cost);
    sc->acc.add(sim::Phase::Service, op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, sc] {
        if (ep == currentEpoch)
            execScan(sc);
    });
}

void
ProtocolNode::execScan(std::shared_ptr<ScanCtx> sc)
{
    if (!sc->charged) {
        sc->charged = true;
        sim::Tick extra = chargeLocalAccess(sc->lo, false);
        if (extra > 0) {
            sc->acc.add(sim::Phase::MemAccess, extra);
            std::uint32_t ep = currentEpoch;
            eq.scheduleIn(extra, [this, ep, sc] {
                if (ep == currentEpoch)
                    execScan(std::move(sc));
            });
            return;
        }
    }

    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;

    // Semantic clearance, key by key: a scan may not leak a version a
    // point read of the same key would have stalled on. The cursor
    // survives parks, so each key is cleared at most once per pass.
    while (sc->cursor <= sc->hi) {
        KeyId k = sc->cursor;
        if (keyCold(k)) {
            ctr.add("scans_stalled_recovery");
            parkWaiter(k, {Waiter::Kind::KeyWarm, Version{},
                           [this, sc] { execScan(sc); }, eq.now(),
                           &sc->acc, sim::Phase::RecoveryStall});
            if (keyTemp[k] == KeyTemp::Cold)
                startFaultIn(k);
            return;
        }
        KeyReplica &kr = keyState(k);
        if ((c == Consistency::Linearizable ||
             c == Consistency::ReadEnforced) &&
            kr.transient) {
            ctr.add("scans_stalled_visibility");
            if (trace)
                trace->instant(tracePid, 0, "scan_visibility_stall",
                               eq.now(), "key", k);
            parkWaiter(k, {Waiter::Kind::KeyValid, Version{},
                           [this, sc] { execScan(sc); }, eq.now(),
                           &sc->acc, sim::Phase::VisibilityStall});
            return;
        }
        if (p == Persistency::ReadEnforced) {
            bool global = isAckRoundConsistency();
            bool must_wait = global
                                 ? kr.volatileVer > kr.globalPersistVer
                                 : kr.volatileVer > kr.persistedVer;
            if (must_wait) {
                ctr.add("scans_stalled_persist");
                if (trace)
                    trace->instant(tracePid, 0, "scan_persist_stall",
                                   eq.now(), "key", k);
                parkWaiter(k, {global ? Waiter::Kind::GlobalPersist
                                      : Waiter::Kind::LocalPersist,
                               kr.volatileVer,
                               [this, sc] { execScan(sc); }, eq.now(),
                               &sc->acc, sim::Phase::PersistStall});
                return;
            }
        }
        ++sc->cursor;
    }

    finishScan(sc);
}

void
ProtocolNode::finishScan(const std::shared_ptr<ScanCtx> &sc)
{
    if (!sc->walked) {
        // Every key in range is cleared; now walk the ordered
        // structure once and charge the traversal like a point op's
        // probe cost (skip-list descent or B+-tree leaf chain — the
        // backend reports what it actually touched).
        sc->walked = true;
        sc->visited = backend->rangeScan(sc->lo, sc->hi,
                                         [](kv::KeyId, kv::Value) {});
        sim::Tick extra = scaledCost(
            static_cast<sim::Tick>(backend->lastProbes()) *
            cfg.probeCost);
        if (extra > 0) {
            sc->acc.add(sim::Phase::MemAccess, extra);
            std::uint32_t ep = currentEpoch;
            eq.scheduleIn(extra, [this, ep, sc] {
                if (ep == currentEpoch)
                    finishScan(sc);
            });
            return;
        }
    }

    // The binding that serves persisted versions on point reads does so
    // for scans too (paper Fig. 2(f)): report the recoverable version
    // of the first key as the scan's version tag.
    KeyReplica &kr = keyState(sc->lo);
    Version ver = kr.volatileVer;
    if (cfg.model.persistency == Persistency::Synchronous &&
        (cfg.model.consistency == Consistency::Causal ||
         cfg.model.consistency == Consistency::Eventual)) {
        ver = kr.persistedVer;
    }

    OpResult res;
    res.kind = OpKind::Scan;
    res.key = sc->lo;
    res.node = self;
    res.issuedAt = sc->issued;
    res.completedAt = eq.now();
    res.version = ver;
    res.phases = sc->acc;
    ctr.add("scans_completed");
    ctr.add("scan_keys_visited", sc->visited);
    if (trace)
        trace->async(tracePid, "scan", ++traceSpanId, sc->issued,
                     eq.now());
    sc->done(res);
}

// --------------------------------------------------------------------------
// Client writes
// --------------------------------------------------------------------------

struct ProtocolNode::WriteCtx
{
    sim::Tick issued = 0;
    OpCompletion done;
    OpContext octx;
    bool charged = false;
    std::uint32_t conflictAttempts = 0;
    /** Phase attribution; sums to completedAt - issued at completion. */
    sim::PhaseAccum acc{};
};

void
ProtocolNode::clientWrite(KeyId key, OpContext ctx, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    admissionShed(false); // writes are never shed; still track sojourn
    auto wc = std::make_shared<WriteCtx>();
    wc->issued = eq.now();
    wc->done = std::move(done);
    wc->octx = ctx;
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    wc->acc.add(sim::Phase::CoreQueue, admitted - eq.now() - op_cost);
    wc->acc.add(sim::Phase::Service, op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, key, wc] {
        if (ep == currentEpoch)
            execWrite(key, wc);
    });
}

void
ProtocolNode::execWrite(KeyId key, std::shared_ptr<WriteCtx> wc)
{
    // Exactly-once retransmits: a failed-over client re-sends a write
    // under its original (clientId, clientSeq); if any surviving
    // replica already applied it, acknowledge instead of re-executing.
    if (wc->octx.clientSeq != 0) {
        auto seen = clientSeqSeen.find(wc->octx.clientId);
        if (seen != clientSeqSeen.end() &&
            wc->octx.clientSeq <= seen->second) {
            ctr.add("client_retransmits_deduped");
            OpResult res;
            res.kind = OpKind::Write;
            res.key = key;
            res.node = self;
            res.issuedAt = wc->issued;
            res.completedAt = eq.now();
            res.version = keyState(key).volatileVer;
            res.phases = wc->acc;
            wc->done(res);
            return;
        }
    }

    if (!wc->charged) {
        wc->charged = true;
        sim::Tick extra = chargeLocalAccess(key, true);
        if (extra > 0) {
            wc->acc.add(sim::Phase::MemAccess, extra);
            std::uint32_t ep = currentEpoch;
            eq.scheduleIn(extra, [this, ep, key, wc] {
                if (ep == currentEpoch)
                    execWrite(key, std::move(wc));
            });
            return;
        }
    }

    // Instant recovery: a cold key's durable baseline (and any
    // fresher version the live peers hold) is unknown until fault-in
    // — admit the write only after it lands, so the new version is
    // ordered against what actually survived the crash.
    if (keyCold(key)) {
        ctr.add("writes_stalled_recovery");
        parkWaiter(key, {Waiter::Kind::KeyWarm, Version{},
                         [this, key, wc] { execWrite(key, wc); },
                         eq.now(), &wc->acc,
                         sim::Phase::RecoveryStall});
        if (keyTemp[key] == KeyTemp::Cold)
            startFaultIn(key);
        return;
    }

    switch (cfg.model.consistency) {
      case Consistency::Linearizable:
      case Consistency::ReadEnforced:
        startAckRoundWrite(key, wc);
        break;
      case Consistency::Transactional:
        if (wc->octx.xactId != 0) {
            startXactWrite(key, wc);
        } else {
            // A write outside any transaction degenerates to a strict
            // invalidation round.
            startAckRoundWrite(key, wc);
        }
        break;
      case Consistency::Causal:
      case Consistency::Eventual:
        startPropagatedWrite(key, wc);
        break;
    }
}

void
ProtocolNode::startAckRoundWrite(KeyId key,
                                 const std::shared_ptr<WriteCtx> &wc)
{
    KeyReplica &kr = keyState(key);
    // One in-flight invalidation round per key per coordinator; later
    // writes (and rounds racing a remote INV) queue.
    if (kr.transient || kr.pendingOpId != 0) {
        if (trace)
            trace->instant(tracePid, 0, "write_slot", eq.now(), "key",
                           key);
        parkWaiter(key, {Waiter::Kind::WriteSlot, Version{},
                         [this, key, wc] { execWrite(key, wc); },
                         eq.now(), &wc->acc,
                         sim::Phase::VisibilityStall});
        return;
    }

    const Persistency p = cfg.model.persistency;
    Version ver = allocateVersion(key);
    // The round id IS the slab handle: deterministic (LIFO free list),
    // and echoed acks for freed rounds go stale instead of aliasing.
    std::uint64_t round_id = rounds.alloc();
    Round &round = rounds.at(round_id);
    round.kind = Round::Kind::Write;
    round.key = key;
    round.ver = ver;
    round.scopeId = wc->octx.scopeId;
    round.followersNeeded = liveFollowerCount(key);
    round.issuedAt = wc->issued;
    round.clientId = wc->octx.clientId;
    round.clientSeq = wc->octx.clientSeq;
    round.done = wc->done;
    round.phases = wc->acc;
    round.startedAt = eq.now();
    round.waitPhase = sim::Phase::Replication;

    kr.pendingOpId = round_id;
    kr.transient = true;
    kr.transientVer = ver;
    if (wc->octx.clientSeq != 0)
        noteClientSeq(wc->octx.clientId, wc->octx.clientSeq);

    // Local durability per the persistency model.
    if (p == Persistency::Strict || p == Persistency::Synchronous ||
        p == Persistency::ReadEnforced) {
        round.pendingLocalPersists = 1;
        issuePersist(key, ver, round_id, false, 0, 0, false);
    } else if (p == Persistency::Scope) {
        scopeBuffers[wc->octx.scopeId].emplace_back(key, ver);
    } else { // Eventual persistency: lazy background persist
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }

    Message inv = makeMsg(MsgType::Inv, key, ver, round_id);
    inv.hasData = true;
    inv.dataLines = cfg.valueLines;
    inv.scopeId = wc->octx.scopeId;
    inv.clientId = wc->octx.clientId;
    inv.clientSeq = wc->octx.clientSeq;
    multicast(key, inv);
    ctr.add("inv_sent", rmap.followerCount(key));

    // Read-Enforced consistency acknowledges the client immediately
    // (unless Strict persistency also demands global durability first).
    if (cfg.model.consistency == Consistency::ReadEnforced &&
        p != Persistency::Strict) {
        completeWriteToClient(rounds.at(round_id));
    }
    checkRound(round_id);
}

void
ProtocolNode::startXactWrite(KeyId key,
                             const std::shared_ptr<WriteCtx> &wc)
{
    auto it = xactRecs.find(wc->octx.xactId);
    OpResult res;
    res.kind = OpKind::Write;
    res.key = key;
    res.node = self;
    res.issuedAt = wc->issued;

    if (it == xactRecs.end() || it->second.aborted) {
        res.completedAt = eq.now();
        res.aborted = true;
        res.phases = wc->acc;
        wc->done(res);
        return;
    }
    XactRecord &xr = it->second;

    if (xactTable &&
        xactTable->accessConflicts(xr.id, key, true, eq.now(),
                                   cfg.xactConflictWindow)) {
        ctr.add("xact_conflicts");
        if (!xr.hadConflict) {
            xr.hadConflict = true;
            ctr.add("xact_conflicted");
        }
        if (wc->conflictAttempts < cfg.xactConflictRetries) {
            ++wc->conflictAttempts;
            ctr.add("xact_conflict_stalls");
            std::uint32_t ep = currentEpoch;
            sim::Tick t = cores.acquire(
                eq.now() + cfg.xactConflictRetryDelay,
                cfg.stallRetryCost);
            wc->acc.add(sim::Phase::ConflictRetry,
                        cfg.xactConflictRetryDelay);
            wc->acc.add(sim::Phase::CoreQueue,
                        t - eq.now() - cfg.xactConflictRetryDelay -
                            cfg.stallRetryCost);
            wc->acc.add(sim::Phase::Service, cfg.stallRetryCost);
            if (trace)
                trace->instant(tracePid, 0, "conflict_retry", eq.now(),
                               "key", key);
            eq.schedule(t, [this, ep, key, wc] {
                if (ep == currentEpoch)
                    execWrite(key, wc);
            });
            return;
        }
        xr.aborted = true;
        res.completedAt = eq.now();
        res.aborted = true;
        res.phases = wc->acc;
        wc->done(res);
        return;
    }

    const Persistency p = cfg.model.persistency;
    Version ver = allocateVersion(key);

    // The write stays private to the transaction until ENDX: reads of
    // other clients keep seeing committed state (no dirty reads), and
    // an abort has nothing to roll back. The transaction reads its own
    // writes through its write set.
    xr.writes.push_back({key, ver, wc->octx.scopeId});

    std::uint64_t round_id = 0;
    if (p == Persistency::Strict) {
        // Strict: the write itself stalls until durable on all nodes.
        round_id = rounds.alloc();
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::Write;
        round.key = key;
        round.ver = ver;
        round.xactId = xr.id;
        round.followersNeeded = liveFollowerCount(key);
        round.issuedAt = wc->issued;
        round.done = wc->done;
        round.phases = wc->acc;
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::Replication;
        round.pendingLocalPersists = 1;
        issuePersist(key, ver, round_id, false, 0, 0, false);
    } else if (p == Persistency::ReadEnforced) {
        issuePersist(key, ver, 0, false, 0, 0, false);
    } else if (p == Persistency::Eventual) {
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }
    // Synchronous: persists are deferred to ENDX (VP of the update).

    Message inv = makeMsg(MsgType::Inv, key, ver, round_id);
    inv.hasData = true;
    inv.dataLines = cfg.valueLines;
    inv.xactId = xr.id;
    inv.scopeId = wc->octx.scopeId;
    multicast(key, inv);
    ctr.add("inv_sent", rmap.followerCount(key));

    if (p != Persistency::Strict) {
        res.completedAt = eq.now();
        res.version = ver;
        res.phases = wc->acc;
        ctr.add("writes_completed");
        if (trace)
            trace->async(tracePid, "write", ++traceSpanId, wc->issued,
                         eq.now());
        wc->done(res);
    } else {
        checkRound(round_id);
    }
}

void
ProtocolNode::startPropagatedWrite(KeyId key,
                                   const std::shared_ptr<WriteCtx> &wc)
{
    const Consistency c = cfg.model.consistency;
    const Persistency p = cfg.model.persistency;
    KeyReplica &kr = keyState(key);
    Version ver = allocateVersion(key);

    kr.volatileVer = ver;
    backend->put(key, ver.number);

    if (wc->octx.clientSeq != 0)
        noteClientSeq(wc->octx.clientId, wc->octx.clientSeq);

    Message upd = makeMsg(MsgType::Upd, key, ver, 0);
    upd.hasData = true;
    upd.dataLines = cfg.valueLines;
    upd.scopeId = wc->octx.scopeId;
    upd.clientId = wc->octx.clientId;
    upd.clientSeq = wc->octx.clientSeq;
    if (c == Consistency::Causal) {
        upd.cauhist = applied.raw();
        applied[self] += 1;
    }

    // Under durable causal gating the coordinator's own sequence
    // number must also advance durably, or UPDs from peers that depend
    // on this write would buffer here forever.
    bool durable_gated =
        c == Consistency::Causal && (p == Persistency::Strict ||
                                     p == Persistency::Synchronous);
    NodeId causal_origin = durable_gated ? self : net::kNoNode;
    std::uint64_t own_seq = durable_gated ? applied[self] : 0;

    std::uint64_t round_id = 0;
    if (p == Persistency::Strict) {
        round_id = rounds.alloc();
        upd.opId = round_id;
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::Write;
        round.key = key;
        round.ver = ver;
        round.followersNeeded = liveFollowerCount(key);
        round.issuedAt = wc->issued;
        round.done = wc->done;
        round.phases = wc->acc;
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::Replication;
        round.pendingLocalPersists = 1;
        issuePersist(key, ver, round_id, false, 0, 0, false,
                     causal_origin, own_seq);
    } else if (p == Persistency::Synchronous ||
               p == Persistency::ReadEnforced) {
        issuePersist(key, ver, 0, false, 0, 0, false, causal_origin,
                     own_seq);
    } else if (p == Persistency::Scope) {
        scopeBuffers[wc->octx.scopeId].emplace_back(key, ver);
    } else { // Eventual persistency
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }

    if (c == Consistency::Eventual && p != Persistency::Strict) {
        enqueueLazyUpd(std::move(upd));
    } else {
        multicast(key, std::move(upd));
        ctr.add("upd_sent", rmap.followerCount(key));
    }

    if (p != Persistency::Strict) {
        OpResult res;
        res.kind = OpKind::Write;
        res.key = key;
        res.node = self;
        res.issuedAt = wc->issued;
        res.completedAt = eq.now();
        res.version = ver;
        res.phases = wc->acc;
        ctr.add("writes_completed");
        if (sink)
            sink->onWriteComplete(key, ver, eq.now());
        if (trace)
            trace->async(tracePid, "write", ++traceSpanId, wc->issued,
                         eq.now());
        wc->done(res);
    } else {
        checkRound(round_id);
    }
}

// --------------------------------------------------------------------------
// Transactions
// --------------------------------------------------------------------------

void
ProtocolNode::clientInitXact(std::uint64_t xact_id, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    sim::Tick issued = eq.now();
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, xact_id, issued, op_cost,
                           done = std::move(done)] {
        if (ep != currentEpoch)
            return;
        XactRecord xr;
        xr.id = xact_id;
        xr.coordinator = self;
        xactRecs.emplace(xact_id, std::move(xr));
        if (xactTable)
            xactTable->begin(xact_id);
        ctr.add("xact_started");

        std::uint64_t round_id = rounds.alloc();
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::InitXact;
        round.xactId = xact_id;
        round.followersNeeded = liveFollowers();
        round.issuedAt = issued;
        round.done = done;
        round.phases.add(sim::Phase::CoreQueue,
                         eq.now() - issued - op_cost);
        round.phases.add(sim::Phase::Service, op_cost);
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::Replication;

        const Persistency p = cfg.model.persistency;
        bool log_persist = p == Persistency::Strict ||
                           p == Persistency::Synchronous;
        if (log_persist) {
            round.pendingLocalPersists = 1;
            sim::Tick done_at =
                nvmDev.write(eq.now(), xactLogAddr(xact_id));
            std::uint32_t ep2 = currentEpoch;
            eq.schedule(done_at, [this, ep2, round_id] {
                if (ep2 != currentEpoch)
                    return;
                if (Round *r = rounds.get(round_id)) {
                    --r->pendingLocalPersists;
                    checkRound(round_id);
                }
            });
        }

        Message m = makeMsg(MsgType::InitX, 0, Version{}, round_id);
        m.xactId = xact_id;
        broadcast(m);
        checkRound(round_id);
    });
}

void
ProtocolNode::clientEndXact(std::uint64_t xact_id, bool commit,
                            OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    sim::Tick issued = eq.now();
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, xact_id, commit, issued, op_cost,
                           done = std::move(done)] {
        if (ep != currentEpoch)
            return;
        sim::PhaseAccum acc;
        acc.add(sim::Phase::CoreQueue, eq.now() - issued - op_cost);
        acc.add(sim::Phase::Service, op_cost);
        auto it = xactRecs.find(xact_id);
        if (it == xactRecs.end()) {
            OpResult res;
            res.kind = OpKind::EndXact;
            res.node = self;
            res.issuedAt = issued;
            res.completedAt = eq.now();
            res.aborted = true;
            res.phases = acc;
            done(res);
            return;
        }
        XactRecord &xr = it->second;

        if (!commit || xr.aborted) {
            // Coordinator writes were buffered in the write set, so
            // an abort simply discards them.
            Message m = makeMsg(MsgType::EndX, 0, Version{}, 0);
            m.xactId = xact_id;
            m.commit = false;
            broadcast(m);
            if (xactTable)
                xactTable->end(xact_id);
            xactRecs.erase(it);
            ctr.add("xact_aborted");
            OpResult res;
            res.kind = OpKind::EndXact;
            res.node = self;
            res.issuedAt = issued;
            res.completedAt = eq.now();
            res.aborted = true;
            res.phases = acc;
            done(res);
            return;
        }

        std::uint64_t round_id = rounds.alloc();
        xr.endRoundId = round_id;
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::EndXact;
        round.xactId = xact_id;
        round.followersNeeded = liveFollowers();
        round.issuedAt = issued;
        round.done = done;
        round.phases = acc;
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::XactCommit;

        // Synchronous persistency: the transaction's VP is ENDX, so the
        // coordinator persists all its writes here. Scope persistency
        // hands the committed writes to their scopes' barrier.
        if (cfg.model.persistency == Persistency::Synchronous) {
            round.pendingLocalPersists =
                static_cast<std::uint32_t>(xr.writes.size());
            for (const auto &w : xr.writes)
                issuePersist(w.key, w.ver, round_id, false, 0, 0,
                             false);
        } else if (cfg.model.persistency == Persistency::Scope) {
            for (const auto &w : xr.writes)
                scopeBuffers[w.scopeId].emplace_back(w.key, w.ver);
        }

        Message m = makeMsg(MsgType::EndX, 0, Version{}, round_id);
        m.xactId = xact_id;
        m.commit = true;
        broadcast(m);
        checkRound(round_id);
    });
}

// --------------------------------------------------------------------------
// Scope persists
// --------------------------------------------------------------------------

void
ProtocolNode::clientPersistScope(std::uint64_t scope_id, OpCompletion done)
{
    if (downFlag)
        return; // dead coordinator: the client's request timeout fires
    sim::Tick issued = eq.now();
    sim::Tick op_cost = scaledCost(cfg.opProcessing);
    sim::Tick admitted = cores.acquire(eq.now(), op_cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, scope_id, issued, op_cost,
                           done = std::move(done)] {
        if (ep != currentEpoch)
            return;
        // Under Eventual consistency the scope's UPDs may still be
        // queued; push them out so followers hold the writes the
        // PERSIST refers to (per-QP ordering delivers them first).
        if (cfg.model.consistency == Consistency::Eventual)
            flushLazyUpds();

        std::uint64_t round_id = rounds.alloc();
        Round &round = rounds.at(round_id);
        round.kind = Round::Kind::ScopePersist;
        round.scopeId = scope_id;
        round.followersNeeded = liveFollowers();
        round.issuedAt = issued;
        round.done = done;
        round.phases.add(sim::Phase::CoreQueue,
                         eq.now() - issued - op_cost);
        round.phases.add(sim::Phase::Service, op_cost);
        round.startedAt = eq.now();
        round.waitPhase = sim::Phase::PersistStall;

        auto buf = scopeBuffers.find(scope_id);
        if (buf != scopeBuffers.end()) {
            round.pendingLocalPersists =
                static_cast<std::uint32_t>(buf->second.size());
            for (const auto &[key, ver] : buf->second)
                issuePersist(key, ver, round_id, false, 0, 0, false);
            scopeBuffers.erase(buf);
        }

        Message m = makeMsg(MsgType::Persist, 0, Version{}, round_id);
        m.scopeId = scope_id;
        broadcast(m);
        checkRound(round_id);
    });
}

// --------------------------------------------------------------------------
// Coordinator round progress
// --------------------------------------------------------------------------

void
ProtocolNode::completeWriteToClient(Round &round)
{
    if (round.clientNotified)
        return;
    round.clientNotified = true;
    OpResult res;
    res.kind = OpKind::Write;
    res.key = round.key;
    res.node = self;
    res.issuedAt = round.issuedAt;
    res.completedAt = eq.now();
    res.version = round.ver;
    res.phases = round.phases;
    res.phases.add(round.waitPhase, eq.now() - round.startedAt);
    ctr.add("writes_completed");
    if (trace)
        trace->async(tracePid, "write", ++traceSpanId, round.issuedAt,
                     eq.now());
    // Writes inside transactions report to the checker sink only when
    // the whole transaction commits.
    if (sink && round.xactId == 0)
        sink->onWriteComplete(round.key, round.ver, eq.now());
    if (round.done)
        round.done(res);
}

void
ProtocolNode::checkRound(std::uint64_t round_id)
{
    Round *rp = rounds.get(round_id);
    if (rp == nullptr)
        return;
    Round &r = *rp;
    const Persistency p = cfg.model.persistency;

    switch (r.kind) {
      case Round::Kind::Write: {
        bool xact_or_propagated = !isAckRoundConsistency();
        if (xact_or_propagated) {
            // Only Strict persistency creates write rounds here: the
            // write completes when durable everywhere.
            if (r.acksP >= r.followersNeeded &&
                r.pendingLocalPersists == 0) {
                KeyReplica &kr = keyState(r.key);
                if (kr.globalPersistVer < r.ver)
                    kr.globalPersistVer = r.ver;
                wakeWaiters(r.key);
                completeWriteToClient(r);
                rounds.free(round_id);
            }
            return;
        }

        bool combined = p == Persistency::Strict ||
                        p == Persistency::Synchronous;
        if (combined) {
            if (!r.consistencyDone && r.acksC >= r.followersNeeded &&
                r.pendingLocalPersists == 0) {
                r.consistencyDone = true;
                r.persistencyDone = true;
                Message val = makeMsg(MsgType::Val, r.key, r.ver, 0);
                val.scopeId = r.scopeId;
                val.clientId = r.clientId;
                val.clientSeq = r.clientSeq;
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.volatileVer < r.ver) {
                    // A concurrent round for a newer version may have
                    // already validated; never regress visibility.
                    kr.volatileVer = r.ver;
                    backend->put(r.key, r.ver.number);
                }
                // A concurrent remote INV with higher precedence
                // (same number, higher writer) may have raised
                // transientVer past this round's version while it was
                // collecting acks; the key must stay transient until
                // that winning write's VAL lands, or reads here would
                // serve the losing version after the winner completed.
                if (r.ver >= kr.transientVer)
                    kr.transient = false;
                kr.pendingOpId = 0;
                if (kr.globalPersistVer < r.ver)
                    kr.globalPersistVer = r.ver;
                completeWriteToClient(r);
                wakeWaiters(r.key);
            }
        } else if (p == Persistency::ReadEnforced) {
            if (!r.consistencyDone && r.acksC >= r.followersNeeded) {
                r.consistencyDone = true;
                Message val = makeMsg(MsgType::ValC, r.key, r.ver, 0);
                val.clientId = r.clientId;
                val.clientSeq = r.clientSeq;
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.volatileVer < r.ver) {
                    kr.volatileVer = r.ver;
                    backend->put(r.key, r.ver.number);
                }
                // A concurrent remote INV with higher precedence
                // (same number, higher writer) may have raised
                // transientVer past this round's version while it was
                // collecting acks; the key must stay transient until
                // that winning write's VAL lands, or reads here would
                // serve the losing version after the winner completed.
                if (r.ver >= kr.transientVer)
                    kr.transient = false;
                kr.pendingOpId = 0;
                completeWriteToClient(r);
                wakeWaiters(r.key);
            }
            if (!r.persistencyDone && r.acksP >= r.followersNeeded &&
                r.pendingLocalPersists == 0) {
                r.persistencyDone = true;
                Message val = makeMsg(MsgType::ValP, r.key, r.ver, 0);
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.globalPersistVer < r.ver)
                    kr.globalPersistVer = r.ver;
                wakeWaiters(r.key);
            }
        } else { // Scope / Eventual persistency: consistency round only
            if (!r.consistencyDone && r.acksC >= r.followersNeeded) {
                r.consistencyDone = true;
                r.persistencyDone = true;
                Message val = makeMsg(MsgType::ValC, r.key, r.ver, 0);
                val.scopeId = r.scopeId;
                val.clientId = r.clientId;
                val.clientSeq = r.clientSeq;
                multicast(r.key, val);
                KeyReplica &kr = keyState(r.key);
                if (kr.volatileVer < r.ver) {
                    kr.volatileVer = r.ver;
                    backend->put(r.key, r.ver.number);
                }
                // A concurrent remote INV with higher precedence
                // (same number, higher writer) may have raised
                // transientVer past this round's version while it was
                // collecting acks; the key must stay transient until
                // that winning write's VAL lands, or reads here would
                // serve the losing version after the winner completed.
                if (r.ver >= kr.transientVer)
                    kr.transient = false;
                kr.pendingOpId = 0;
                completeWriteToClient(r);
                wakeWaiters(r.key);
            }
        }
        if (r.consistencyDone && r.persistencyDone && r.clientNotified)
            rounds.free(round_id);
        return;
      }

      case Round::Kind::InitXact: {
        if (r.acksC >= r.followersNeeded &&
            r.pendingLocalPersists == 0) {
            OpResult res;
            res.kind = OpKind::InitXact;
            res.node = self;
            res.issuedAt = r.issuedAt;
            res.completedAt = eq.now();
            res.phases = r.phases;
            res.phases.add(r.waitPhase, eq.now() - r.startedAt);
            if (r.done)
                r.done(res);
            rounds.free(round_id);
        }
        return;
      }

      case Round::Kind::EndXact: {
        if (r.acksC >= r.followersNeeded &&
            r.pendingLocalPersists == 0) {
            auto xit = xactRecs.find(r.xactId);
            if (xit != xactRecs.end()) {
                // Commit point at the coordinator: the buffered writes
                // become visible (their local persists, if any, have
                // already completed as part of this round).
                for (const auto &w : xit->second.writes) {
                    KeyReplica &kr = keyState(w.key);
                    noteVersion(w.key, w.ver);
                    if (kr.volatileVer < w.ver) {
                        kr.volatileVer = w.ver;
                        backend->put(w.key, w.ver.number);
                    }
                    wakeWaiters(w.key);
                    if (sink)
                        sink->onWriteComplete(w.key, w.ver, eq.now());
                }
                xactRecs.erase(xit);
            }
            if (xactTable)
                xactTable->end(r.xactId);
            ctr.add("xact_committed");

            Message val = makeMsg(MsgType::Val, 0, Version{}, 0);
            val.xactId = r.xactId;
            broadcast(val);

            OpResult res;
            res.kind = OpKind::EndXact;
            res.node = self;
            res.issuedAt = r.issuedAt;
            res.completedAt = eq.now();
            res.phases = r.phases;
            res.phases.add(r.waitPhase, eq.now() - r.startedAt);
            if (r.done)
                r.done(res);
            rounds.free(round_id);
        }
        return;
      }

      case Round::Kind::ScopePersist: {
        if (r.acksP >= r.followersNeeded &&
            r.pendingLocalPersists == 0) {
            Message val = makeMsg(MsgType::ValP, 0, Version{}, 0);
            val.scopeId = r.scopeId;
            broadcast(val);
            OpResult res;
            res.kind = OpKind::PersistScope;
            res.node = self;
            res.issuedAt = r.issuedAt;
            res.completedAt = eq.now();
            res.phases = r.phases;
            res.phases.add(r.waitPhase, eq.now() - r.startedAt);
            if (r.done)
                r.done(res);
            rounds.free(round_id);
        }
        return;
      }
    }
}

// --------------------------------------------------------------------------
// Message handling
// --------------------------------------------------------------------------

void
ProtocolNode::handleMessage(const Message &msg)
{
    if (downFlag) {
        // Crashed and not yet restarted: the NIC is dark.
        ctr.add("msgs_dropped_node_down");
        return;
    }
    if (msg.epoch != currentEpoch)
        return; // stale traffic from before a crash
    // Every live arrival is evidence for the failure detector; the
    // inter-arrival gap is what the phi estimate is fit to.
    if (msg.src != self && msg.src < cfg.numNodes) {
        bool before = detector.lastVerdict(msg.src);
        detector.heartbeat(msg.src, eq.now());
        traceSuspicion(msg.src, before, detector.lastVerdict(msg.src));
    }
    sim::Tick cost = cfg.msgProcessing;
    if (msg.type == MsgType::Upd &&
        cfg.model.consistency == Consistency::Causal) {
        cost += cfg.causalUpdOverhead;
    }
    cost = scaledCost(cost);
    sim::Tick admitted = cores.acquire(eq.now(), cost);
    std::uint32_t ep = currentEpoch;
    eq.schedule(admitted, [this, ep, msg] {
        if (ep == currentEpoch)
            processMessage(msg);
    });
}

void
ProtocolNode::processMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::Ack:
      case MsgType::AckC:
      case MsgType::AckP:
        handleAck(msg);
        break;
      case MsgType::Val:
      case MsgType::ValC:
      case MsgType::ValP:
        handleVal(msg);
        break;
      case MsgType::Upd:
        handleUpd(msg);
        break;
      case MsgType::InitX:
        handleInitX(msg);
        break;
      case MsgType::EndX:
        handleEndX(msg);
        break;
      case MsgType::Persist:
        handlePersistScope(msg);
        break;
      case MsgType::RecQuery:
      case MsgType::RecSummary:
      case MsgType::RecInstall:
      case MsgType::RecAck:
        recovery->onMessage(msg);
        break;
      case MsgType::NetAck:
        // Link-level traffic is consumed by the fabric's reliability
        // layer and never reaches protocol handlers.
        break;
    }
}

void
ProtocolNode::handleInv(const Message &msg)
{
    const Persistency p = cfg.model.persistency;
    noteVersion(msg.key, msg.version);
    hierarchy.deliverDdio(addrOf(msg.key));

    if (msg.xactId != 0) {
        // Transactional write: buffer until ENDX; acknowledge per the
        // persistency model (Fig. 4: no persist wait except Strict).
        XactRecord &xr = xactRecs[msg.xactId];
        xr.id = msg.xactId;
        xr.coordinator = msg.src;
        xr.writes.push_back({msg.key, msg.version, msg.scopeId});
        if (p == Persistency::Strict) {
            issuePersist(msg.key, msg.version, 0, true, msg.src,
                         msg.opId, false);
        } else {
            sendTo(msg.src,
                   makeMsg(MsgType::AckC, msg.key, msg.version,
                           msg.opId));
        }
        return;
    }

    KeyReplica &kr = keyState(msg.key);
    // Invalidation is idempotent: a retransmitted or late INV whose
    // version is not newer than what this replica already validated
    // must not re-mark the key transient — the matching VAL has been
    // consumed and will never come again, so the key would stall
    // reads forever. It is still acknowledged below (the coordinator
    // may be waiting on the ack), it just cannot regress visibility.
    if (kr.volatileVer < msg.version) {
        kr.transient = true;
        if (kr.transientVer < msg.version)
            kr.transientVer = msg.version;
    }

    switch (p) {
      case Persistency::Strict:
      case Persistency::Synchronous:
        // Persist before acknowledging: the combined ACK certifies both
        // the volatile update and its durability.
        issuePersist(msg.key, msg.version, 0, true, msg.src, msg.opId,
                     false);
        break;
      case Persistency::ReadEnforced:
        sendTo(msg.src,
               makeMsg(MsgType::AckC, msg.key, msg.version, msg.opId));
        issuePersist(msg.key, msg.version, 0, true, msg.src, msg.opId,
                     false);
        break;
      case Persistency::Scope:
        sendTo(msg.src,
               makeMsg(MsgType::AckC, msg.key, msg.version, msg.opId));
        scopeBuffers[msg.scopeId].emplace_back(msg.key, msg.version);
        break;
      case Persistency::Eventual: {
        sendTo(msg.src,
               makeMsg(MsgType::AckC, msg.key, msg.version, msg.opId));
        std::uint32_t ep = currentEpoch;
        KeyId key = msg.key;
        Version ver = msg.version;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
        break;
      }
    }
}

void
ProtocolNode::handleAck(const Message &msg)
{
    // The opId echoed in the ack is a generation-tagged slab handle: a
    // late ack for an already-freed round (or for a pre-crash round —
    // clear() bumped every generation) dereferences to null here.
    Round *rp = rounds.get(msg.opId);
    if (rp == nullptr) {
        ctr.add("acks_unmatched");
        return;
    }
    Round &r = *rp;
    switch (msg.type) {
      case MsgType::Ack:
        ++r.acksC;
        ++r.acksP;
        break;
      case MsgType::AckC:
        ++r.acksC;
        break;
      case MsgType::AckP:
        ++r.acksP;
        break;
      default:
        break;
    }
    checkRound(msg.opId);
}

void
ProtocolNode::handleVal(const Message &msg)
{
    if (msg.xactId != 0 || (msg.key == 0 && msg.scopeId != 0 &&
                            msg.type == MsgType::ValP)) {
        // Transaction/scope completion markers carry no per-key state.
        return;
    }
    noteVersion(msg.key, msg.version);
    KeyReplica &kr = keyState(msg.key);

    if (msg.type == MsgType::Val || msg.type == MsgType::ValC) {
        // The write is applied here: remember its client sequence so a
        // failed-over client's retransmit of it is deduped.
        if (msg.clientSeq != 0)
            noteClientSeq(msg.clientId, msg.clientSeq);
        if (kr.volatileVer < msg.version) {
            kr.volatileVer = msg.version;
            backend->put(msg.key, msg.version.number);
        }
        if (kr.transient && msg.version >= kr.transientVer)
            kr.transient = false;
        if (msg.type == MsgType::Val &&
            kr.globalPersistVer < msg.version) {
            // A combined VAL certifies durability everywhere.
            kr.globalPersistVer = msg.version;
        }
    } else { // ValP
        if (kr.globalPersistVer < msg.version)
            kr.globalPersistVer = msg.version;
    }
    wakeWaiters(msg.key);
}

bool
ProtocolNode::causalDepsSatisfied(const VectorClock &deps) const
{
    // Strict and Synchronous persistency bind durability to the VP:
    // an update may only become visible (and be persisted) after its
    // entire happens-before history is durable on this node. Weaker
    // persistency models only require volatile causal order.
    const Persistency p = cfg.model.persistency;
    if (cfg.causalDurableGating &&
        (p == Persistency::Strict || p == Persistency::Synchronous))
        return durableApplied.dominates(deps);
    return applied.dominates(deps);
}

void
ProtocolNode::noteCausalDurable(NodeId origin, std::uint64_t seq)
{
    // Persists can complete out of order across NVM banks; advance the
    // durable clock contiguously.
    pendingDurable[origin].insert(seq);
    auto &set = pendingDurable[origin];
    while (!set.empty() && *set.begin() == durableApplied[origin] + 1) {
        durableApplied[origin] = *set.begin();
        set.erase(set.begin());
    }
}

void
ProtocolNode::handleUpd(const Message &msg)
{
    if (cfg.model.consistency == Consistency::Causal) {
        VectorClock deps = VectorClock::fromRaw(msg.cauhist);
        // Per-origin FIFO order must be preserved: if earlier UPDs
        // from this origin are still buffered, this one queues behind
        // them even if its own dependencies happen to be satisfied.
        if (causalBuffer[msg.src].empty() && causalDepsSatisfied(deps)) {
            applyCausalUpd(msg);
            drainCausalBuffer();
        } else {
            causalBuffer[msg.src].push_back(msg);
            ++causalBuffered;
            ctr.add("causal_buffered");
            if (causalBuffered > causalPeak)
                causalPeak = causalBuffered;
        }
        return;
    }

    // Eventual consistency: apply in arrival order, no version check —
    // this is what costs the model its monotonic reads (Table 4 row 5).
    if (msg.clientSeq != 0)
        noteClientSeq(msg.clientId, msg.clientSeq);
    KeyReplica &kr = keyState(msg.key);
    noteVersion(msg.key, msg.version);
    kr.volatileVer = msg.version;
    backend->put(msg.key, msg.version.number);
    hierarchy.deliverDdio(addrOf(msg.key));

    const Persistency p = cfg.model.persistency;
    if (p == Persistency::Strict) {
        issuePersist(msg.key, msg.version, 0, true, msg.src, msg.opId,
                     true);
    } else if (p == Persistency::Synchronous ||
               p == Persistency::ReadEnforced) {
        issuePersist(msg.key, msg.version, 0, false, 0, 0, true);
    } else if (p == Persistency::Scope) {
        scopeBuffers[msg.scopeId].emplace_back(msg.key, msg.version);
    } else {
        std::uint32_t ep = currentEpoch;
        KeyId key = msg.key;
        Version ver = msg.version;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, true);
        });
    }
    wakeWaiters(msg.key);
}

void
ProtocolNode::applyCausalUpd(const Message &msg)
{
    VectorClock deps = VectorClock::fromRaw(msg.cauhist);
    NodeId origin = msg.src;
    std::uint64_t seq = deps[origin] + 1;
    if (applied[origin] < seq)
        applied[origin] = seq;
    if (msg.clientSeq != 0)
        noteClientSeq(msg.clientId, msg.clientSeq);

    KeyReplica &kr = keyState(msg.key);
    noteVersion(msg.key, msg.version);
    if (kr.volatileVer < msg.version) {
        kr.volatileVer = msg.version;
        backend->put(msg.key, msg.version.number);
        hierarchy.deliverDdio(addrOf(msg.key));
    }

    const Persistency p = cfg.model.persistency;
    if (p == Persistency::Strict || p == Persistency::Synchronous) {
        // The durable clock only advances once this update's own
        // persist completes, which in turn unblocks buffered UPDs that
        // depend on it.
        issuePersist(msg.key, msg.version, 0,
                     /*follower_acks=*/p == Persistency::Strict, msg.src,
                     msg.opId, false, origin, seq);
    } else if (p == Persistency::ReadEnforced) {
        issuePersist(msg.key, msg.version, 0, false, 0, 0, false);
    } else if (p == Persistency::Scope) {
        scopeBuffers[msg.scopeId].emplace_back(msg.key, msg.version);
    } else {
        std::uint32_t ep = currentEpoch;
        KeyId key = msg.key;
        Version ver = msg.version;
        eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, key, ver] {
            if (ep == currentEpoch)
                issuePersist(key, ver, 0, false, 0, 0, false);
        });
    }
    wakeWaiters(msg.key);
}

void
ProtocolNode::drainCausalBuffer()
{
    // Only queue heads can become applicable; an apply may unblock
    // other origins' heads, so loop until a full pass makes no
    // progress.
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &queue : causalBuffer) {
            while (!queue.empty()) {
                VectorClock deps =
                    VectorClock::fromRaw(queue.front().cauhist);
                if (!causalDepsSatisfied(deps))
                    break;
                Message m = std::move(queue.front());
                queue.pop_front();
                --causalBuffered;
                applyCausalUpd(m);
                progress = true;
            }
        }
    }
}

void
ProtocolNode::adoptCausalProgress(const VectorClock &clock)
{
    applied.mergeFrom(clock);
    durableApplied.mergeFrom(clock);
    drainCausalBuffer();
}

void
ProtocolNode::adoptVisible(KeyId key, Version version)
{
    noteVersion(key, version);
    KeyReplica &kr = keyState(key);
    if (kr.volatileVer < version) {
        kr.volatileVer = version;
        backend->put(key, version.number);
        ctr.add("view_reconciled_keys");
    }
}

void
ProtocolNode::handleInitX(const Message &msg)
{
    XactRecord &xr = xactRecs[msg.xactId];
    xr.id = msg.xactId;
    xr.coordinator = msg.src;

    const Persistency p = cfg.model.persistency;
    if (p == Persistency::Strict || p == Persistency::Synchronous) {
        // Persist the transaction-begin event before acknowledging.
        sim::Tick done_at = nvmDev.write(eq.now(), xactLogAddr(msg.xactId));
        std::uint32_t ep = currentEpoch;
        NodeId dst = msg.src;
        std::uint64_t op = msg.opId;
        eq.schedule(done_at, [this, ep, dst, op] {
            if (ep == currentEpoch)
                sendTo(dst, makeMsg(MsgType::Ack, 0, Version{}, op));
        });
    } else {
        sendTo(msg.src, makeMsg(MsgType::Ack, 0, Version{}, msg.opId));
    }
}

void
ProtocolNode::handleEndX(const Message &msg)
{
    auto it = xactRecs.find(msg.xactId);
    if (!msg.commit) {
        if (it != xactRecs.end())
            xactRecs.erase(it);
        return;
    }

    // Collect the transaction's buffered writes in version order.
    std::vector<XactWrite> writes;
    if (it != xactRecs.end()) {
        writes = std::move(it->second.writes);
        xactRecs.erase(it);
    }
    std::sort(writes.begin(), writes.end(),
              [](const XactWrite &a, const XactWrite &b) {
                  return a.ver < b.ver;
              });

    auto apply_all = [this, writes] {
        for (const auto &w : writes) {
            KeyReplica &kr = keyState(w.key);
            noteVersion(w.key, w.ver);
            if (kr.volatileVer < w.ver) {
                kr.volatileVer = w.ver;
                backend->put(w.key, w.ver.number);
            }
            wakeWaiters(w.key);
        }
    };

    const Persistency p = cfg.model.persistency;
    NodeId dst = msg.src;
    std::uint64_t op = msg.opId;

    if (p == Persistency::Synchronous && !writes.empty()) {
        // Persist first, make visible second, ACK last: reads must
        // never observe a transaction that could still be wiped out
        // (this is what keeps Table 4's monotonic-reads "yes").
        auto remaining = std::make_shared<std::size_t>(writes.size());
        for (const auto &w : writes) {
            issuePersist(w.key, w.ver, 0, false, 0, 0, false,
                         net::kNoNode, 0,
                         [this, remaining, apply_all, dst, op] {
                if (--*remaining == 0) {
                    apply_all();
                    sendTo(dst,
                           makeMsg(MsgType::Ack, 0, Version{}, op));
                }
            });
        }
        return;
    }
    apply_all();

    if (p == Persistency::ReadEnforced) {
        for (const auto &w : writes)
            issuePersist(w.key, w.ver, 0, false, 0, 0, false);
    } else if (p == Persistency::Scope) {
        // Each committed write joins its own scope's barrier.
        for (const auto &w : writes)
            scopeBuffers[w.scopeId].emplace_back(w.key, w.ver);
    } else if (p == Persistency::Eventual) {
        for (const auto &w : writes) {
            std::uint32_t ep = currentEpoch;
            KeyId k = w.key;
            Version v = w.ver;
            eq.scheduleIn(cfg.lazyPersistDelay, [this, ep, k, v] {
                if (ep == currentEpoch)
                    issuePersist(k, v, 0, false, 0, 0, false);
            });
        }
    }
    // Strict: the writes were persisted at INV time.
    sendTo(dst, makeMsg(MsgType::Ack, 0, Version{}, op));
}

void
ProtocolNode::handlePersistScope(const Message &msg)
{
    auto it = scopeBuffers.find(msg.scopeId);
    NodeId dst = msg.src;
    std::uint64_t op = msg.opId;

    if (it == scopeBuffers.end() || it->second.empty()) {
        if (it != scopeBuffers.end())
            scopeBuffers.erase(it);
        sendTo(dst, makeMsg(MsgType::AckP, 0, Version{}, op));
        return;
    }

    auto remaining = std::make_shared<std::size_t>(it->second.size());
    std::vector<std::pair<KeyId, Version>> entries =
        std::move(it->second);
    scopeBuffers.erase(it);
    for (const auto &[key, ver] : entries) {
        issuePersist(key, ver, 0, false, 0, 0, false, net::kNoNode, 0,
                     [this, remaining, dst, op] {
            if (--*remaining == 0)
                sendTo(dst, makeMsg(MsgType::AckP, 0, Version{}, op));
        });
    }
}

// --------------------------------------------------------------------------
// Eventual-consistency lazy propagation
// --------------------------------------------------------------------------

void
ProtocolNode::enqueueLazyUpd(Message msg)
{
    lazyQueue.push_back(std::move(msg));
    if (!lazyFlushScheduled) {
        lazyFlushScheduled = true;
        std::uint32_t ep = currentEpoch;
        eq.scheduleIn(cfg.lazyUpdDelay, [this, ep] {
            if (ep == currentEpoch)
                flushLazyUpds();
        });
    }
}

void
ProtocolNode::flushLazyUpds()
{
    lazyFlushScheduled = false;
    std::vector<Message> pending = std::move(lazyQueue);
    lazyQueue.clear();
    for (auto &m : pending) {
        KeyId key = m.key;
        ctr.add("upd_sent", rmap.followerCount(key));
        multicast(key, std::move(m));
    }
}

// --------------------------------------------------------------------------
// Failure and recovery
// --------------------------------------------------------------------------

void
ProtocolNode::abortInFlight()
{
    ++currentEpoch;
    rounds.clear();
    xactRecs.clear();
    scopeBuffers.clear();
    causalBuffer.assign(cfg.numNodes, {});
    causalBuffered = 0;
    lazyQueue.clear();
    lazyFlushScheduled = false;
    applied = VectorClock(cfg.numNodes);
    durableApplied = VectorClock(cfg.numNodes);
    pendingDurable.assign(cfg.numNodes, {});
    // One slab clear() retires every parked request (all outstanding
    // waiter handles go stale); the per-key list heads reset below.
    waiterSlab.clear();
    // Only resident pages can hold anything to reset: a key whose page
    // is absent was never written and is already in this state.
    keys.forEachResident([](KeyId, KeyReplica &kr) {
        kr.transient = false;
        kr.transientVer = Version{};
        kr.pendingOpId = 0;
        kr.waiterHead = sim::ChunkedSlab<Waiter>::kNull;
        kr.waiterTail = sim::ChunkedSlab<Waiter>::kNull;
        kr.persistBusy = false;
        kr.activeObligations.clear();
        kr.hasPendingPersist = false;
        kr.pendingObligations.clear();
    });

    // A survivor still backfilling when another node crashes: the
    // epoch bump just killed its in-flight fault-in completions and
    // the backfill timer. Demote Faulting keys back to Cold (their
    // NVM reads are dead) and re-arm the backfill under the new epoch;
    // coldRemaining is unchanged since Faulting still counted as cold.
    if (instantActive) {
        bool demoted = false;
        for (KeyId key = 0; key < keyTemp.size(); ++key) {
            if (keyTemp[key] == KeyTemp::Faulting) {
                keyTemp[key] = KeyTemp::Cold;
                demoted = true;
            }
        }
        if (demoted)
            backfillCursor = 0; // demoted keys may lie behind it
        scheduleBackfill(cfg.instantBackfillInterval);
    }
}

void
ProtocolNode::crashVolatile(bool defer_scan)
{
    // A crash cancels any in-flight instant recovery or shard range
    // acquire: drop its state before abortInFlight() so it cannot re-arm
    // the backfill timer. The cluster's migration bookkeeping (which
    // sees the crash) re-sources an interrupted range from the still-
    // live team.
    instantActive = false;
    rangeAcquireActive = false;
    recoveryDoneFn = nullptr;
    freshestFn = nullptr;
    keyTemp.clear();
    staleStaging.clear();
    coldRemaining = 0;

    abortInFlight();
    hierarchy.crash();
    image.crash();
    clientSeqSeen.clear();

    if (defer_scan) {
        // Instant recovery's lazy scan leans on commit records: the
        // intact version a cold-aware getter reports must be exactly
        // what a full recover() would settle on, which only holds when
        // recovery never installs a staged (possibly torn) copy. The
        // ablation is rejected at the CLI; keep the invariant visible
        // here too.
        assert((cfg.commitRecords || cfg.valueLines == 1) &&
               "instant recovery requires commit records");

        // Defer the durable-image scan (MM-DIRECT): remember which keys
        // had a persist frozen mid-flight and mark the whole key space
        // cold. The per-key verified scan (recoverOnDemand) runs lazily
        // at the first post-crash touch — request fault-in, backfill,
        // or a new persist of the same key.
        std::vector<KeyId> frozen = image.inflightKeys();
        staleStaging.insert(frozen.begin(), frozen.end());
        keyTemp.assign(keys.size(), KeyTemp::Cold);
        coldRemaining = keys.size();
        backfillCursor = 0;
        instantActive = true;

        // The volatile copies are gone; until a key is faulted in the
        // cold-aware getters substitute the durable image's intact
        // version. maxSeen survives as the version allocator's seed,
        // as it does across an eager scan.
        keys.forEachResident([](KeyId, KeyReplica &kr) {
            kr.volatileVer = Version{};
            kr.persistedVer = Version{};
            kr.globalPersistVer = Version{};
        });
        backend->clear();
        return;
    }

    // Rebuild volatile state from what recovery actually finds in the
    // medium — NOT from the in-memory persistedVer bookkeeping, which
    // a real crash wipes out along with everything else volatile. For
    // single-line values the two agree by construction; for multi-line
    // values recovery must verify each key's commit record and roll
    // torn in-flight copies back to the last intact version (or, with
    // commit records ablated, install the torn copy and pay for it).
    //
    // A key whose state page is absent was never written here, and
    // every write to the persist image first touches the key's state,
    // so the image holds nothing for it either: recover() would settle
    // on the zero version and the rebuild would reset default state to
    // itself. Such keys skip everything but the backend erase, which
    // stays in key order: a B-tree erase rebalances along its search
    // path even when the key is absent.
    for (KeyId key = 0; key < keys.size(); ++key) {
        if (!keys.pageResident(key / kKeyPageSize)) {
            assert(!image.writing(key) &&
                   image.intactVersion(key) == Version{});
            backend->erase(key);
            continue;
        }
        KeyReplica &kr = keys[key];
        mem::PersistImage::Recovered rec = image.recover(key);
        if (rec.tornDetected) {
            ctr.add("torn_persists_detected");
            if (sink)
                sink->onTornDetected(cfg.observerIdOffset + self, key, rec.version);
        }
        if (rec.uncommittedRollback)
            ctr.add("uncommitted_persists_rolled_back");
        if (rec.tornInstalled) {
            ctr.add("torn_values_installed");
            if (sink)
                sink->onTornInstall(cfg.observerIdOffset + self, key, rec.version);
        }
        kr.persistedVer = rec.version;
        kr.volatileVer = kr.persistedVer;
        if (kr.globalPersistVer > kr.persistedVer)
            kr.globalPersistVer = kr.persistedVer;
        if (kr.persistedVer.number > 0)
            backend->put(key, kr.persistedVer.number);
        else
            backend->erase(key);
    }
}

void
ProtocolNode::beginInstantRecovery(
    std::function<Version(KeyId)> freshest, std::function<void()> done)
{
    assert(instantActive &&
           "beginInstantRecovery needs crashVolatile(true) first");
    freshestFn = std::move(freshest);
    recoveryDoneFn = std::move(done);
    ctr.add("instant_recoveries_started");
    if (coldRemaining == 0) {
        finishInstantRecovery();
        return;
    }
    scheduleBackfill(cfg.instantBackfillInterval);
}

void
ProtocolNode::beginRangeAcquire(
    KeyId lo, KeyId hi, std::function<Version(KeyId)> freshest,
    std::function<void()> done)
{
    assert(lo < hi && hi <= keys.size());
    assert(!instantActive &&
           "range acquire cannot overlap an active recovery/acquire");
    keys.provision(lo, hi);
    image.provision(lo, hi);

    // Unlike a crash, the node keeps everything it has: only the
    // incoming range goes cold, no epoch bump, no volatile wipe, and
    // staleStaging is untouched (the durable image here never froze —
    // this node did not crash). Requests touching [lo, hi) park on the
    // cold key and fault it in on demand, exactly the instant-recovery
    // path; each fault-in merges the freshest version the source
    // team's live replicas hold. The background backfill's existing
    // flow control paces the transfer behind foreground traffic.
    keyTemp.assign(keys.size(), KeyTemp::Warm);
    for (KeyId key = lo; key < hi; ++key)
        keyTemp[key] = KeyTemp::Cold;
    coldRemaining = hi - lo;
    backfillCursor = lo;
    instantActive = true;
    rangeAcquireActive = true;
    freshestFn = std::move(freshest);
    recoveryDoneFn = std::move(done);
    ctr.add("shard_range_acquires_started");
    scheduleBackfill(cfg.instantBackfillInterval);
}

Version
ProtocolNode::settleStaleStaging(KeyId key)
{
    auto it = staleStaging.find(key);
    if (it == staleStaging.end())
        return image.intactVersion(key);
    staleStaging.erase(it);
    mem::PersistImage::Recovered rec = image.recoverOnDemand(key);
    if (rec.tornDetected) {
        ctr.add("torn_persists_detected");
        if (sink)
            sink->onTornDetected(cfg.observerIdOffset + self, key, rec.version);
    }
    if (rec.uncommittedRollback)
        ctr.add("uncommitted_persists_rolled_back");
    if (rec.tornInstalled) {
        ctr.add("torn_values_installed");
        if (sink)
            sink->onTornInstall(cfg.observerIdOffset + self, key, rec.version);
    }
    return rec.version;
}

sim::Tick
ProtocolNode::startFaultIn(KeyId key)
{
    assert(instantActive && keyTemp[key] == KeyTemp::Cold);
    keyTemp[key] = KeyTemp::Faulting;
    ctr.add(rangeAcquireActive ? "shard_acquire_fault_ins"
                               : "recovery_fault_ins");
    // Pull every line of the value from NVM; the commit record rides
    // the same scan. Lines map to different banks and read in
    // parallel, so the fault-in completes when the slowest one does.
    sim::Tick done_at = eq.now();
    for (std::uint32_t i = 0; i < cfg.valueLines; ++i) {
        sim::Tick t = nvmDev.read(eq.now(), addrOf(key) + 64ull * i);
        if (t > done_at)
            done_at = t;
    }
    std::uint32_t ep = currentEpoch;
    eq.schedule(done_at, [this, ep, key] {
        if (ep != currentEpoch)
            return; // raced another crash; abortInFlight demoted us
        completeFaultIn(key);
    });
    return done_at;
}

void
ProtocolNode::completeFaultIn(KeyId key)
{
    assert(instantActive && keyTemp[key] == KeyTemp::Faulting);
    // Checksum-verified local load (rolls torn staging back to the
    // last intact copy), then merge in the freshest version the live
    // peers hold — the per-key slice of recovery state transfer.
    Version best = settleStaleStaging(key);
    if (freshestFn) {
        Version peer = freshestFn(key);
        if (best < peer)
            best = peer;
    }
    installFaulted(key, best);
    keyTemp[key] = KeyTemp::Warm;
    assert(coldRemaining > 0);
    --coldRemaining;
    wakeWaiters(key);
    if (coldRemaining == 0)
        finishInstantRecovery();
}

void
ProtocolNode::installFaulted(KeyId key, Version ver)
{
    // Monotone install: catch-up INVs/VALs/UPDs may already have
    // advanced the cold key past its durable baseline — the fault-in
    // must never regress what post-restart traffic established.
    KeyReplica &kr = keyState(key);
    noteVersion(key, ver);
    if (kr.volatileVer < ver) {
        kr.volatileVer = ver;
        if (ver.number > 0)
            backend->put(key, ver.number);
    }
    if (kr.persistedVer < ver)
        kr.persistedVer = ver;
    if (kr.globalPersistVer < ver)
        kr.globalPersistVer = ver;
    if (image.intactVersion(key) < ver)
        image.installCommitted(key, ver);
}

void
ProtocolNode::scheduleBackfill(sim::Tick delay)
{
    if (!instantActive || coldRemaining == 0 ||
        backfillCursor >= keys.size())
        return;
    std::uint32_t ep = currentEpoch;
    eq.scheduleIn(delay, [this, ep] {
        if (ep != currentEpoch || !instantActive)
            return;
        // Fault in the next batch of still-cold keys. Keys the request
        // stream already touched are Faulting or Warm and skip for
        // free — on-demand traffic effectively prioritizes hot keys
        // ahead of this cursor.
        std::uint32_t batch = 0;
        sim::Tick batch_done = eq.now();
        while (batch < cfg.instantBackfillBatch &&
               backfillCursor < keys.size()) {
            KeyId key = backfillCursor++;
            if (keyTemp[key] != KeyTemp::Cold)
                continue;
            sim::Tick t = startFaultIn(key);
            if (t > batch_done)
                batch_done = t;
            ++batch;
        }
        // Flow control: the next round waits for this batch's NVM
        // reads to drain plus the configured pause. Without it a
        // multi-line backfill can outrun the device's service rate,
        // and demand fault-ins queue behind an ever-growing backlog.
        scheduleBackfill(batch_done - eq.now() +
                         cfg.instantBackfillInterval);
    });
}

void
ProtocolNode::finishInstantRecovery()
{
    if (!instantActive)
        return;
    instantActive = false;
    keyTemp.clear();
    keyTemp.shrink_to_fit();
    staleStaging.clear();
    freshestFn = nullptr;
    ctr.add(rangeAcquireActive ? "shard_range_acquires_completed"
                               : "instant_recoveries_completed");
    rangeAcquireActive = false;
    auto done = std::move(recoveryDoneFn);
    recoveryDoneFn = nullptr;
    if (done)
        done();
}

void
ProtocolNode::installRecovered(KeyId key, Version version)
{
    KeyReplica &kr = keyState(key);
    kr.volatileVer = version;
    kr.persistedVer = version;
    kr.globalPersistVer = version;
    noteVersion(key, version);
    image.installCommitted(key, version);
    if (version.number > 0)
        backend->put(key, version.number);
}

void
ProtocolNode::setDown(bool down)
{
    if (downFlag == down)
        return;
    downFlag = down;
    peerUp[self] = !down;
    ctr.add(down ? "node_down" : "node_restarted");
}

void
ProtocolNode::setPeerDown(NodeId peer, bool down)
{
    assert(peer < peerUp.size());
    bool came_back = !down && !peerUp[peer];
    peerUp[peer] = !down;
    if (!came_back || peer == self || downFlag)
        return;

    // Re-join catch-up: write rounds issued during the peer's downtime
    // never reached it, so without help the returning replica would
    // keep serving the superseded version after those writes complete
    // — a linearizability hole on re-join. Rounds still invalidating
    // get their INV re-sent with the ack set widened (the round now
    // waits for the returning replica too); rounds already validated
    // get the winning value pushed directly.
    rounds.forEach([&](std::uint64_t id, Round &r) {
        if (r.kind != Round::Kind::Write)
            return;
        if (!rmap.isReplica(r.key, peer))
            return;
        if (isAckRoundConsistency() && !r.consistencyDone) {
            Message inv = makeMsg(MsgType::Inv, r.key, r.ver, id);
            inv.hasData = true;
            inv.dataLines = cfg.valueLines;
            inv.xactId = r.xactId;
            inv.scopeId = r.scopeId;
            inv.clientId = r.clientId;
            inv.clientSeq = r.clientSeq;
            sendTo(peer, std::move(inv));
            ++r.followersNeeded;
            ctr.add("rejoin_round_invs");
        } else if (r.consistencyDone) {
            Message val = makeMsg(MsgType::ValC, r.key, r.ver, 0);
            val.clientId = r.clientId;
            val.clientSeq = r.clientSeq;
            sendTo(peer, std::move(val));
            ctr.add("rejoin_round_vals");
        }
    });
}

std::uint32_t
ProtocolNode::liveFollowers() const
{
    std::uint32_t n = 0;
    for (NodeId i = 0; i < cfg.numNodes; ++i) {
        if (i != self && peerUp[i])
            ++n;
    }
    return n;
}

std::uint32_t
ProtocolNode::liveFollowerCount(KeyId key) const
{
    if (rmap.full())
        return liveFollowers();
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < rmap.factor(); ++i) {
        NodeId r = rmap.replica(key, i);
        if (r != self && peerUp[r])
            ++n;
    }
    return n;
}

void
ProtocolNode::noteClientSeq(std::uint32_t client, std::uint64_t seq)
{
    std::uint64_t &seen = clientSeqSeen[client];
    if (seen < seq)
        seen = seq;
}

Version
ProtocolNode::visibleVersion(KeyId key) const
{
    // A cold key's volatile copy was wiped by the instant crash but
    // its durable intact version is recoverable on demand; report the
    // stronger of the two so recovery hooks and durability audits see
    // what a fault-in would establish.
    const KeyReplica &kr = keyState(key);
    if (keyCold(key)) {
        Version intact = image.intactVersion(key);
        return kr.volatileVer < intact ? intact : kr.volatileVer;
    }
    return kr.volatileVer;
}

Version
ProtocolNode::persistedVersion(KeyId key) const
{
    const KeyReplica &kr = keyState(key);
    if (keyCold(key)) {
        Version intact = image.intactVersion(key);
        return kr.persistedVer < intact ? intact : kr.persistedVer;
    }
    return kr.persistedVer;
}

Version
ProtocolNode::pendingInvalidation(KeyId key) const
{
    const KeyReplica &kr = keyState(key);
    return kr.transient ? kr.transientVer : Version{};
}

} // namespace ddp::core
