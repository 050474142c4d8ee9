/**
 * @file
 * The benchmark's workloads, per-unit correctness rules, fingerprint
 * and pass runner.
 */

#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>

#include "bench.hh"
#include "ddp/checkers.hh"
#include "ddp/models.hh"

namespace perfbench {

namespace {

// --- Workload sizes ----------------------------------------------------------
// Chosen so every workload's pass is dominated by Cluster::run() host
// time and stays within the run budget; README.md records the spreads
// these sizes gave.

/** sweep25: the paper setup (5 servers x 20 clients, YCSB-A over 100k
 *  zipfian keys, hash store) for each of the 25 bindings. */
constexpr sim::Tick kSweepWarmup = 100 * sim::kMicrosecond;
constexpr sim::Tick kSweepMeasure = 1300 * sim::kMicrosecond;

/** shard-hot: 100 servers in 20 teams, 2,000 clients, a B+-tree over
 *  20k keys, 95% reads (a share of them range scans), 5% writes. */
constexpr std::uint32_t kShardServers = 100;
constexpr std::uint32_t kShardTeams = 20;
constexpr std::uint64_t kShardKeys = 20000;
constexpr sim::Tick kShardWarmup = 100 * sim::kMicrosecond;
constexpr sim::Tick kShardMeasure = 2400 * sim::kMicrosecond;

/** torture-w: YCSB-W on the 5-server setup, evenly spaced crash
 *  points per case. */
constexpr std::uint32_t kTorturePoints = 4;
constexpr sim::Tick kTortureWarmup = 100 * sim::kMicrosecond;
constexpr sim::Tick kTortureMeasure = 800 * sim::kMicrosecond;

cluster::ClusterConfig
paperSetup(std::uint64_t seed, bool tiny)
{
    cluster::ClusterConfig cfg;
    cfg.seed = seed;
    if (tiny) {
        cfg.numServers = 3;
        cfg.clientsPerServer = 2;
        cfg.keyCount = 2000;
        cfg.warmup = 50 * sim::kMicrosecond;
        cfg.measure = 150 * sim::kMicrosecond;
    }
    cfg.workload = workload::WorkloadSpec::ycsbA(cfg.keyCount);
    return cfg;
}

void
sweep25(std::uint64_t seed, bool tiny, Workload &w)
{
    for (const core::DdpModel &m : core::allModels()) {
        UnitSpec u;
        u.cfg = paperSetup(seed, tiny);
        u.cfg.model = m;
        if (!tiny) {
            u.cfg.warmup = kSweepWarmup;
            u.cfg.measure = kSweepMeasure;
        }
        w.units.push_back(std::move(u));
    }
    w.pendingDepth = 206;
}

void
shardHot(std::uint64_t seed, bool tiny, Workload &w)
{
    UnitSpec u;
    cluster::ClusterConfig &cfg = u.cfg;
    cfg.seed = seed;
    cfg.model = {core::Consistency::Linearizable,
                 core::Persistency::Strict};
    cfg.numServers = tiny ? 25 : kShardServers;
    cfg.numShards = tiny ? 5 : kShardTeams;
    cfg.clientsPerServer = tiny ? 2 : 20;
    cfg.keyCount = tiny ? 5000 : kShardKeys;
    cfg.node.storeKind = kv::StoreKind::BPlusTree;
    cfg.workload = workload::WorkloadSpec::ycsbB(cfg.keyCount);
    cfg.workload.name = "ycsb-b+scan";
    // Scans are carved from the read share: 90% point reads, 5% range
    // scans of up to 16 keys, 5% writes.
    cfg.workload.scanFraction = 0.05;
    cfg.workload.maxScanLen = 16;
    cfg.shardSplitThreshold = tiny ? 1500 : 8000;
    cfg.shardMaxOps = tiny ? 400 : 3000;
    cfg.warmup = kShardWarmup;
    cfg.measure = kShardMeasure;
    u.expectRebalance = true;
    w.units.push_back(std::move(u));
    w.pendingDepth = 3240;
}

void
tortureW(std::uint64_t seed, bool tiny, Workload &w)
{
    // Case 1: a zero-loss binding; node 1 crashes, restarts 200 us
    // later and re-joins while its clients fail over.
    // Case 2: a weak binding under a full-cluster crash.
    struct Case
    {
        core::DdpModel model;
        UnitSpec::Crash crash;
    };
    const Case cases[] = {
        {{core::Consistency::Linearizable, core::Persistency::Synchronous},
         UnitSpec::Crash::Staged},
        {{core::Consistency::Linearizable, core::Persistency::Eventual},
         UnitSpec::Crash::Full},
    };
    std::uint32_t points = tiny ? 2 : kTorturePoints;
    for (const Case &c : cases) {
        for (std::uint32_t i = 0; i < points; ++i) {
            UnitSpec u;
            u.cfg = paperSetup(seed, tiny);
            u.cfg.model = c.model;
            if (!tiny) {
                u.cfg.warmup = kTortureWarmup;
                u.cfg.measure = kTortureMeasure;
            }
            u.cfg.workload = workload::WorkloadSpec::ycsbW(u.cfg.keyCount);
            u.cfg.node.valueLines = 4;
            u.cfg.node.persistCoalescing = true;
            u.cfg.node.commitRecords = true;
            u.cfg.recovery = cluster::RecoveryPolicy::Instant;
            u.crash = c.crash;
            u.crashAt = u.cfg.warmup +
                        u.cfg.measure * (i + 1) / (points + 1);
            if (c.crash == UnitSpec::Crash::Staged) {
                u.victims = {1};
                u.restartAfter = 200 * sim::kMicrosecond;
                u.cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
            }
            u.checker = true;
            w.units.push_back(std::move(u));
        }
    }
    w.pendingDepth = 206;
}

// --- FNV-1a over deterministic RunResult fields -----------------------------

struct Fnv
{
    std::uint64_t h;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    void u(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u(bits);
    }
    void
    s(const std::string &v)
    {
        u(v.size());
        bytes(v.data(), v.size());
    }
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep25", "shard-hot",
                                                   "torture-w"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny,
             Workload &out)
{
    out = Workload{};
    out.name = name;
    if (name == "sweep25")
        sweep25(seed, tiny, out);
    else if (name == "shard-hot")
        shardHot(seed, tiny, out);
    else if (name == "torture-w")
        tortureW(seed, tiny, out);
    else
        return false;
    return true;
}

std::vector<std::string>
checkUnit(const UnitSpec &u, const cluster::RunResult &r)
{
    std::vector<std::string> why;
    if (r.reads + r.writes == 0)
        why.push_back("no read or write completed");

    // Every read/write charges its whole latency to exactly one phase
    // at each instant, so the phase means sum to the mean latency.
    double phase_sum = 0.0;
    for (const auto &p : r.phaseBreakdown)
        phase_sum += p.meanNs;
    if (std::fabs(phase_sum - r.meanNs) > 1e-6 * (1.0 + r.meanNs))
        why.push_back("phase means do not sum to the mean latency");

    if (r.sharded) {
        if (r.shardRangesFinal != r.shardTeams + r.shardSplits)
            why.push_back("shard ranges != teams + splits");
        std::uint64_t served = 0;
        for (std::uint64_t s : r.shardTeamServed)
            served += s;
        if (served != r.shardServedOps)
            why.push_back("team served counts do not sum to the total");
    }
    if (u.expectRebalance && (r.shardSplits == 0 || r.shardMigrations == 0))
        why.push_back("distributor did not both split and migrate");

    // Table 4 taxonomy, as ddpsim --torture judges it.
    if (u.crash != UnitSpec::Crash::None && u.checker) {
        if (core::writesDurableAtCompletion(u.cfg.model) &&
            r.lostAckedWrites > 0)
            why.push_back("zero-loss binding lost an acked write");
        if (r.tornReadsServed > 0)
            why.push_back("a torn value was served");
        if (u.cfg.node.commitRecords && r.tornValuesInstalled > 0)
            why.push_back("a torn value was installed with commit records");
        if (r.convergenceFailures > 0)
            why.push_back("a restarted node did not converge");
        if (r.crashEpochs == 0)
            why.push_back("no crash epoch was audited");
    }
    return why;
}

std::uint64_t
fingerprint(const cluster::RunResult &r, std::uint64_t h)
{
    Fnv f{h};
    for (double v : {r.throughput, r.meanReadNs, r.meanWriteNs, r.meanNs,
                     r.p50ReadNs, r.p95ReadNs, r.p99ReadNs, r.p50WriteNs,
                     r.p95WriteNs, r.p99WriteNs, r.recoveryTimeToSloUs,
                     r.offeredLoadOpsPerSec})
        f.d(v);
    for (const auto &p : r.phaseBreakdown) {
        f.d(p.meanNs);
        f.d(p.p95Ns);
    }
    for (std::uint64_t v :
         {r.reads, r.writes, r.scans, r.scanKeysVisited, r.messages,
          r.networkBytes, r.persistsIssued, r.readsStalledVisibility,
          r.readsStalledPersist, r.xactStarted, r.xactCommitted,
          r.xactAborted, r.xactConflicts, r.causalBufferPeak,
          r.monotonicViolations, r.staleReads, r.lostAckedWriteKeys,
          r.lostAckedWrites, r.crashEpochs, r.tornPersistsDetected,
          r.tornValuesInstalled, r.tornReadsServed, r.nodeRestarts,
          r.convergenceFailures, r.clientFailovers, r.clientRetransmits,
          r.clientRetransmitsDeduped, r.xactAbandoned, r.shedRequests,
          r.hedgesSent, r.hedgesWon, r.hedgesCancelled, r.netDropped,
          r.netDuplicated, r.netDelayed, r.netReordered,
          r.netPartitionDrops, r.netRetransmits, r.netRtoTimeouts,
          r.netGiveUps, r.netAcks, r.netDuplicateArrivals,
          r.netOutOfOrderArrivals, r.tracerDropped, r.recoveryTimeouts,
          r.recoveryRetries, r.recoveryQuorumBatches,
          r.recoveryQuorumFailures, r.timelineBucket,
          r.servedDuringRecovery, r.recoveryFaultIns,
          std::uint64_t{r.sharded}, std::uint64_t{r.shardTeams},
          std::uint64_t{r.shardRangesFinal}, r.shardSplits,
          r.shardMigrations, r.shardKeysMigrated, r.shardStrayWrites,
          r.shardAcquireFaultIns, r.shardServedOps,
          std::uint64_t{r.openLoop}, r.doorbellDrains, r.drainedMessages,
          r.eventsExecuted})
        f.u(v);
    for (net::NodeId n : r.unreachableNodes)
        f.u(n);
    for (double v : r.timelineRate)
        f.d(v);
    for (std::uint64_t v : r.shardTeamServed)
        f.u(v);
    for (const auto &t : r.tenants) {
        f.s(t.name);
        for (std::uint64_t v :
             {t.offered, t.issued, t.served, t.shed, t.timedOut})
            f.u(v);
        f.d(t.p50Ns);
        f.d(t.p99Ns);
    }
    f.s(r.queueImpl);
    for (const auto &[name, v] : r.counters) {
        f.s(name);
        f.u(v);
    }
    return f.h;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    sim::TraceRecorder::writeFile(os, {rec.serialize()});
    return static_cast<bool>(os);
}

void
recordUnit(Pass &p, const UnitSpec &u, cluster::RunResult r)
{
    std::vector<std::string> why = checkUnit(u, r);
    p.fingerprint = fingerprint(r, p.fingerprint);
    ++p.units;
    if (!why.empty()) {
        ++p.failed;
        for (const std::string &s : why)
            p.failures.push_back(core::modelName(u.cfg.model) + ": " + s);
    }
    p.results.push_back(std::move(r));
}

Pass
runPass(const Workload &w, Spans *spans, bool with_checker)
{
    Pass p;
    Clock::time_point pass_t0 = Clock::now();
    for (const UnitSpec &spec : w.units) {
        UnitSpec u = spec;
        u.checker = u.checker && with_checker;
        Clock::time_point t0 = Clock::now();
        core::PropertyChecker checker;
        auto c = std::make_unique<cluster::Cluster>(u.cfg);
        Clock::time_point t1 = Clock::now();
        if (u.checker)
            c->setChecker(&checker);
        if (u.crash == UnitSpec::Crash::Full)
            c->scheduleCrash(u.crashAt);
        else if (u.crash == UnitSpec::Crash::Staged)
            c->schedulePartialCrash(u.crashAt, u.victims, u.restartAfter);
        Clock::time_point t2 = Clock::now();
        cluster::RunResult r = c->run();
        Clock::time_point t3 = Clock::now();
        if (&spec == &w.units.back())
            p.lastLayout = c->shardLayout();
        Clock::time_point t4 = Clock::now();
        c.reset();
        Clock::time_point t5 = Clock::now();

        p.setupS += secondsBetween(t0, t1);
        p.runS += secondsBetween(t2, t3);
        p.teardownS += secondsBetween(t4, t5);
        recordUnit(p, u, std::move(r));
        Clock::time_point t6 = Clock::now();
        if (spans) {
            spans->add("Cluster::Cluster", t0, t1);
            spans->add("Cluster::run", t2, t3, "events",
                       p.results.back().eventsExecuted);
            spans->add("~Cluster", t4, t5);
            spans->add("unit", t0, t6);
        }
    }
    Clock::time_point pass_t1 = Clock::now();
    p.wallS = secondsBetween(pass_t0, pass_t1);
    if (spans)
        spans->add("pass", pass_t0, pass_t1, "units", p.units);
    return p;
}

} // namespace perfbench
