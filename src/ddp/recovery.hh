/**
 * @file
 * Message-driven crash recovery (paper Sec. 9).
 *
 * "Irrespective of the DDP model, a recovery algorithm is invoked on a
 * crash. The complexity of the recovery is higher in the weaker models
 * ... weaker DDP models may need an advanced recovery algorithm, such
 * as a voting-based one."
 *
 * RecoveryAgent implements that voting algorithm as an actual protocol
 * over the simulated fabric, so recovery time emerges from network and
 * processing timing instead of a closed-form estimate:
 *
 *   1. The recovery coordinator walks the key space in batches and
 *      sends REC_QUERY(range) to every reachable replica.
 *   2. Every replica answers REC_SUMMARY with its packed persisted
 *      versions for the range (8 B per key on the wire).
 *   3. The coordinator takes the per-key maximum. If the replicas
 *      disagree (the divergence weak models accumulate), it sends
 *      REC_INSTALL with the winners; replicas install and REC_ACK.
 *   4. When every batch completes, the report is delivered and clients
 *      may resume.
 *
 * The protocol is failure-tolerant: each batch phase is guarded by a
 * cancellable timeout. On expiry the coordinator re-queries (or
 * re-installs to) exactly the replicas that have not answered, up to
 * Tuning::maxRetries; after that the missing replicas are declared
 * unreachable and the batch completes as long as a majority quorum of
 * ⌈(N+1)/2⌉ summaries (the coordinator's own included) was collected.
 * Batches that complete without a full replica set are counted as
 * quorum batches; batches that fall below even the quorum complete
 * from the data at hand and are counted as quorum failures, so the
 * coordinator always terminates and reports instead of hanging. All
 * handlers are idempotent: retransmitted or duplicated REC_* traffic
 * (a lossy fabric delivers both) is filtered per (batch, replica).
 *
 * Versions are packed as (number << 8 | writer) in the summary payload:
 * 56 bits of version number and 8 bits of writer id (see pack()).
 */

#ifndef DDP_CORE_RECOVERY_HH
#define DDP_CORE_RECOVERY_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/message.hh"
#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace ddp::core {

/**
 * Phi-accrual-style adaptive failure detector (Hayashibara et al.,
 * SRDS'04), the alternative to fixed timeouts that SST-style membership
 * services use: instead of a boolean "peer timed out", it maintains a
 * per-peer window of observed samples (inter-arrival gaps of any
 * traffic from the peer, or response latencies) and reports a
 * continuous suspicion level
 *
 *     phi(t) = -log10( P(sample > elapsed) )
 *
 * under a normal approximation of the sample distribution. phi = 1
 * means a 10% chance the peer is merely slow, phi = 8 a 10^-8 chance.
 * Suspicion converts to a verdict through *hysteresis*: a peer becomes
 * suspected when phi crosses Tuning::suspectPhi and is trusted again
 * only when phi falls below Tuning::trustPhi, so a flapping peer (gray
 * NIC, periodic stall) cannot thrash membership decisions on every
 * sample.
 *
 * The same machinery doubles as the hedged-read latency estimator:
 * observe() response latencies and p99Estimate() gives the adaptive
 * hedge-trigger threshold (mean + 2.326 sigma).
 *
 * Deterministic: pure arithmetic over observed simulated timestamps,
 * no RNG, no wall clock.
 */
class PhiAccrualDetector
{
  public:
    struct Tuning
    {
        /** Ring-buffer window of samples kept per peer. */
        std::uint32_t windowSize = 64;
        /** Samples needed before the estimate replaces the bootstrap
         *  prior. */
        std::uint32_t minSamples = 8;
        /** Prior mean sample used until minSamples accumulate. */
        sim::Tick bootstrapMean = 50 * sim::kMicrosecond;
        /** phi threshold to enter suspicion. */
        double suspectPhi = 8.0;
        /** phi threshold to leave suspicion (hysteresis: < suspectPhi). */
        double trustPhi = 1.0;
        /** Standard-deviation floor as a fraction of the mean (a
         *  perfectly regular heartbeat otherwise yields sigma = 0 and
         *  an infinite phi one tick past the mean). */
        double minSigmaFrac = 0.1;
    };

    explicit PhiAccrualDetector(std::uint32_t num_peers);
    PhiAccrualDetector(std::uint32_t num_peers, Tuning tuning);

    /** Record a raw sample (interval or latency) for @p peer. */
    void observe(net::NodeId peer, sim::Tick sample);

    /**
     * Record traffic from @p peer at @p now: observes the gap since
     * the previous heartbeat (the first arrival only starts the
     * clock). Re-evaluates hysteresis — fresh traffic is what turns a
     * suspected peer back into a trusted one.
     */
    void heartbeat(net::NodeId peer, sim::Tick now);

    /**
     * Suspicion level given the last heartbeat was @p elapsed ago.
     * 0 when nothing was ever heard from the peer (no evidence).
     */
    double phi(net::NodeId peer, sim::Tick elapsed) const;

    /**
     * Hysteresis verdict at @p now: enters suspicion at suspectPhi,
     * leaves below trustPhi. Mutates the per-peer state and the
     * transition counters.
     */
    bool suspected(net::NodeId peer, sim::Tick now);

    /** Last hysteresis verdict without re-evaluating. */
    bool
    lastVerdict(net::NodeId peer) const
    {
        return peers[peer].suspectedNow;
    }

    /** True once @p peer has minSamples real samples. */
    bool
    hasEstimate(net::NodeId peer) const
    {
        return peers[peer].count >= tuning.minSamples;
    }

    /**
     * Adaptive p99 sample estimate: mean + 2.326 sigma under the
     * normal approximation; the bootstrap prior before minSamples.
     */
    sim::Tick p99Estimate(net::NodeId peer) const;

    /** Mean of the current window (bootstrap prior when empty). */
    sim::Tick meanEstimate(net::NodeId peer) const;

    /** trusted->suspected transitions across all peers. */
    std::uint64_t suspectTransitions() const { return suspectCount; }
    /** suspected->trusted transitions across all peers. */
    std::uint64_t trustTransitions() const { return trustCount; }

  private:
    struct PeerState
    {
        std::vector<sim::Tick> ring;
        std::uint32_t count = 0; ///< samples ever observed
        std::uint32_t next = 0;  ///< ring write cursor
        double sum = 0.0;        ///< over the ring window
        double sumSq = 0.0;
        sim::Tick lastHeard = 0;
        bool heard = false;
        bool suspectedNow = false;
    };

    void meanSigma(const PeerState &p, double &mean,
                   double &sigma) const;

    Tuning tuning;
    std::vector<PeerState> peers;
    /** suspectPhi is at or below the largest phi a heartbeat can see
     *  (-log10(0.5), at elapsed 0), so heartbeats must judge trusted
     *  peers too. False at the default suspectPhi of 8.0. */
    bool heartbeatMaySuspect;
    std::uint64_t suspectCount = 0;
    std::uint64_t trustCount = 0;
};

/** Outcome of a simulated recovery run. */
struct RecoveryReport
{
    std::uint64_t keysInstalled = 0;  ///< keys with a non-null winner
    std::uint64_t divergentKeys = 0;  ///< keys whose replicas disagreed
    std::uint64_t batches = 0;        ///< query rounds executed
    sim::Tick startedAt = 0;
    sim::Tick finishedAt = 0;

    // --- Degraded-mode accounting ------------------------------------------
    std::uint64_t timeouts = 0;      ///< batch-phase timeouts fired
    std::uint64_t retries = 0;       ///< targeted re-queries/re-installs
    std::uint64_t quorumBatches = 0; ///< batches short of a full replica set
    /** Batches that fell below even the majority quorum (completed
     *  from the coordinator's own data; treat results as suspect). */
    std::uint64_t quorumFailures = 0;
    /** Replicas that never answered after all retries (sorted). */
    std::vector<net::NodeId> unreachable;

    sim::Tick duration() const { return finishedAt - startedAt; }
    bool degraded() const { return quorumBatches > 0 || quorumFailures > 0; }
};

/**
 * Per-node recovery participant. One node runs the coordinator role
 * (startCoordinator); every node answers queries and installs winners.
 * The agent is wired to its owning ProtocolNode through callbacks so it
 * stays independent of the protocol engine's internals.
 */
class RecoveryAgent
{
  public:
    struct Hooks
    {
        /** Read the locally durable version of a key. */
        std::function<net::Version(net::KeyId)> persistedVersion;
        /** Install a recovered version (volatile + durable). */
        std::function<void(net::KeyId, net::Version)> install;
        /** Send a message through the node's fabric attachment. */
        std::function<void(net::NodeId, net::Message)> send;
        /** Broadcast to every other node. */
        std::function<void(net::Message)> broadcast;
        /** Current simulated time. */
        std::function<sim::Tick()> now;
        /** Arm a cancellable timeout @p delay ticks from now. */
        std::function<sim::TimerId(sim::Tick, std::function<void()>)>
            startTimer;
        /** Cancel a timeout armed with startTimer. */
        std::function<void(sim::TimerId)> cancelTimer;
        /**
         * Optional adaptive-detector verdict: is @p peer strongly
         * suspected dead right now? When set, the coordinator skips
         * the remaining targeted retries for suspected non-repliers
         * and declares them unreachable on the first batch timeout —
         * the detector has already accumulated the evidence the
         * retries exist to gather. Empty = fixed-timeout behaviour.
         */
        std::function<bool(net::NodeId)> peerSuspected;
    };

    /** Failure-handling knobs of the coordinator role. */
    struct Tuning
    {
        /** Per-batch-phase timeout before missing replicas are
         *  re-queried (and eventually declared unreachable). */
        sim::Tick batchTimeout = 100 * sim::kMicrosecond;
        /** Targeted retry rounds per batch phase before giving a
         *  replica up as unreachable. */
        std::uint32_t maxRetries = 3;
    };

    RecoveryAgent(net::NodeId self, std::uint32_t num_nodes, Hooks hooks);
    RecoveryAgent(net::NodeId self, std::uint32_t num_nodes, Hooks hooks,
                  Tuning tuning);

    /**
     * Run the voting recovery over [0, key_count) in batches of
     * @p batch keys, reporting to @p done when every batch finished.
     * Call on exactly one node, after all nodes lost volatile state.
     * Terminates even if replicas are unreachable (see file header).
     * A no-op while a coordination is already in flight: a flapping
     * failure detector re-suspecting a peer must not double-start
     * recovery and orphan the first run's in-flight batches.
     */
    void startCoordinator(std::uint64_t key_count, std::uint32_t batch,
                          std::function<void(const RecoveryReport &)>
                              done);

    /** Route REC_* traffic here from the protocol engine. */
    void onMessage(const net::Message &msg);

    /** True while a coordinated recovery is in flight. */
    bool active() const { return coordinator.inFlight > 0; }

    /**
     * Majority quorum of summaries (coordinator's own included) a
     * batch needs to complete once its retries are exhausted.
     */
    std::uint32_t quorum() const { return numNodes / 2 + 1; }

    // --- Version packing (exposed for tests) ---------------------------------
    /** Largest version number that survives pack() unchanged. */
    static constexpr std::uint64_t kMaxPackableNumber =
        (std::uint64_t{1} << 56) - 1;

    /**
     * Pack (number, writer) into one 64-bit summary word: the low 8
     * bits carry the writer id, the high 56 bits the version number.
     * Version numbers beyond 2^56-1 saturate to kMaxPackableNumber
     * (they cannot occur in practice: at one write per nanosecond a
     * key needs two years to get there) — saturation keeps the packed
     * ordering monotonic instead of silently wrapping into the writer
     * bits. Writer ids must fit in 8 bits, which the <=255-node
     * clusters we simulate always satisfy.
     */
    static std::uint64_t
    pack(net::Version v)
    {
        std::uint64_t n = v.number <= kMaxPackableNumber
                              ? v.number
                              : kMaxPackableNumber;
        return (n << 8) | (v.writer & 0xff);
    }
    static net::Version
    unpack(std::uint64_t raw)
    {
        return net::Version{raw >> 8,
                            static_cast<net::NodeId>(raw & 0xff)};
    }

  private:
    struct Batch
    {
        net::KeyId start = 0;
        std::uint32_t length = 0;
        std::uint32_t summaries = 0; ///< distinct remote summaries
        std::uint32_t acks = 0;      ///< distinct install acks
        /** Remote summaries / acks outstanding for full completion. */
        std::uint32_t awaitSummaries = 0;
        std::uint32_t awaitAcks = 0;
        std::uint32_t retriesLeft = 0;
        bool installing = false;
        bool decided = false;
        sim::TimerId timer = sim::kNoTimer;
        /** Which replica already answered this phase (dedup). */
        std::vector<bool> repliedSummary;
        std::vector<bool> repliedAck;
        /** Per-key running maximum over the replies (packed). */
        std::vector<std::uint64_t> best;
        /** Whether any reply disagreed per key. */
        std::vector<bool> differ;
    };

    struct CoordinatorState
    {
        std::uint64_t keyCount = 0;
        std::uint32_t batchSize = 0;
        net::KeyId nextStart = 0;
        std::uint32_t inFlight = 0;
        std::uint64_t nextBatchId = 1;
        /** Replicas declared unreachable (size numNodes). */
        std::vector<bool> unreachable;
        RecoveryReport report;
        std::function<void(const RecoveryReport &)> done;
    };

    void launchBatches();
    void handleQuery(const net::Message &msg);
    void handleSummary(const net::Message &msg);
    void handleInstall(const net::Message &msg);
    void handleAck(const net::Message &msg);
    /** All (or a quorum of) summaries in: count, maybe install. */
    void decideBatch(std::uint64_t batch_id, Batch &b);
    void finishBatch(std::uint64_t batch_id, Batch &b);
    void onBatchTimeout(std::uint64_t batch_id);
    void armBatchTimer(std::uint64_t batch_id, Batch &b);
    void markUnreachable(net::NodeId node);
    /** Count of replicas currently presumed reachable (self excluded). */
    std::uint32_t reachableOthers() const;
    net::Message makeQuery(const Batch &b, std::uint64_t id) const;
    net::Message makeInstall(const Batch &b, std::uint64_t id) const;

    net::NodeId self;
    std::uint32_t numNodes;
    Hooks hooks;
    Tuning tuning;
    CoordinatorState coordinator;
    std::unordered_map<std::uint64_t, Batch> batches;

    /** Pipelined query window (batches in flight at once). */
    static constexpr std::uint32_t kWindow = 4;
};

} // namespace ddp::core

#endif // DDP_CORE_RECOVERY_HH
