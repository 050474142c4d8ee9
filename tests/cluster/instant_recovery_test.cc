/**
 * @file
 * Instant-recovery cluster tests: MM-DIRECT-style immediate re-admission
 * with on-demand fault-in, versus the staged replay-before-serve path.
 *
 * Covers the tentpole guarantees: traffic is served while recovery is
 * still draining (servedDuringRecovery > 0), the durability audit is
 * unchanged from the staged path (no torn value served, zero-loss
 * bindings lose nothing), and the cluster-owned throughput timeline
 * shows instant regaining the SLO measurably earlier than a full
 * replay, with downtime appearing as explicit zero buckets.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster.hh"

using namespace ddp;
using namespace ddp::cluster;
using core::Consistency;
using core::DdpModel;
using core::Persistency;

namespace {

ClusterConfig
baseConfig(DdpModel model)
{
    ClusterConfig cfg;
    cfg.model = model;
    cfg.numServers = 3;
    cfg.clientsPerServer = 4;
    cfg.keyCount = 2000;
    cfg.workload = workload::WorkloadSpec::ycsbA(2000);
    cfg.warmup = 200 * sim::kMicrosecond;
    cfg.measure = 600 * sim::kMicrosecond;
    cfg.seed = 11;
    return cfg;
}

TEST(InstantRecovery, StagedRestartServesTrafficWhileRecovering)
{
    ClusterConfig cfg =
        baseConfig({Consistency::Linearizable, Persistency::Strict});
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    cfg.node.valueLines = 4;
    cfg.recovery = RecoveryPolicy::Instant;

    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 3, {1},
                                 200 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.crashEpochs, 1u);
    EXPECT_EQ(r.nodeRestarts, 1u);
    EXPECT_GT(r.servedDuringRecovery, 0u)
        << "requests must complete while the victim is still cold";
    EXPECT_GT(r.recoveryFaultIns, 0u);
    EXPECT_EQ(r.lostAckedWrites, 0u)
        << "Strict persistency promises zero acked-write loss";
    EXPECT_EQ(r.convergenceFailures, 0u);
    EXPECT_EQ(r.tornValuesInstalled, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
}

TEST(InstantRecovery, WeakBindingAuditUnchangedUnderInstant)
{
    // Causal/Eventual may lose an unpersisted suffix — but instant
    // recovery must never make it worse: no torn value served, no
    // torn install, and the restarted node converges.
    ClusterConfig cfg =
        baseConfig({Consistency::Causal, Persistency::Eventual});
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    cfg.node.valueLines = 4;
    cfg.recovery = RecoveryPolicy::Instant;

    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 3, {2},
                                 200 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.nodeRestarts, 1u);
    EXPECT_EQ(r.convergenceFailures, 0u);
    EXPECT_EQ(r.tornValuesInstalled, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
}

TEST(InstantRecovery, MultiCrashEpochsAuditClean)
{
    // Two staged crash epochs back to back: the second crash lands
    // while some keys may still be cold from the first recovery —
    // the cold-aware audit and re-armed backfill must both hold up.
    ClusterConfig cfg =
        baseConfig({Consistency::Linearizable, Persistency::Strict});
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    cfg.node.valueLines = 4;
    cfg.recovery = RecoveryPolicy::Instant;

    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 4, {1},
                                 100 * sim::kMicrosecond);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 2, {1},
                                 100 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.crashEpochs, 2u);
    EXPECT_EQ(r.nodeRestarts, 2u);
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.convergenceFailures, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
}

TEST(InstantRecovery, OverlappingCrashesEndTheRecoveryWindow)
{
    // A crash that lands on a node still in instant recovery cancels
    // that recovery. The node must stop counting as recovering then,
    // or servedDuringRecovery would count every later op. Two shapes:
    // a second full crash 20us after the first, and a second staged
    // crash 1us into the victim's backfill. Each recovery window is a
    // small slice of the run.
    auto run = [](bool full) {
        ClusterConfig cfg =
            baseConfig({Consistency::Linearizable, Persistency::Strict});
        cfg.keyCount = 300;
        cfg.workload = workload::WorkloadSpec::ycsbA(300);
        cfg.measure = 1000 * sim::kMicrosecond;
        cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
        cfg.node.valueLines = 4;
        cfg.recovery = RecoveryPolicy::Instant;
        Cluster cluster(cfg);
        sim::Tick at = cfg.warmup + cfg.measure / 4;
        if (full) {
            cluster.scheduleCrash(at);
            cluster.scheduleCrash(at + 20 * sim::kMicrosecond);
        } else {
            sim::Tick down = 100 * sim::kMicrosecond;
            cluster.schedulePartialCrash(at, {1}, down);
            cluster.schedulePartialCrash(at + down + sim::kMicrosecond,
                                         {1}, down);
        }
        return cluster.run();
    };
    for (bool full : {true, false}) {
        RunResult r = run(full);
        ASSERT_GT(r.reads + r.writes, 500u);
        EXPECT_GT(r.servedDuringRecovery, 0u) << "full=" << full;
        EXPECT_LT(r.servedDuringRecovery, (r.reads + r.writes) / 4)
            << "full=" << full
            << ": a re-crashed node must leave the recovering count";
    }
}

/** Full-crash run with a timeline; returns the RunResult. */
RunResult
fullCrashRun(RecoveryPolicy policy)
{
    ClusterConfig cfg =
        baseConfig({Consistency::Linearizable, Persistency::Strict});
    cfg.keyCount = 20000;
    cfg.workload = workload::WorkloadSpec::ycsbA(20000);
    cfg.measure = 800 * sim::kMicrosecond;
    cfg.node.valueLines = 4;
    cfg.recovery = policy;
    cfg.timelineBucket = 25 * sim::kMicrosecond;
    // Half the pre-crash baseline: instant recovery's proposition is
    // restoring *degraded* service immediately (fault-ins and the
    // background backfill still tax the NVM until the key space is
    // warm), while the replay policy serves nothing at all and then
    // jumps straight back to 100%.
    cfg.recoverySloFrac = 0.5;

    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.scheduleCrash(cfg.warmup + cfg.measure / 4);
    return cluster.run();
}

TEST(InstantRecovery, InstantReachesSloEarlierThanReplay)
{
    RunResult replay = fullCrashRun(RecoveryPolicy::LocalOnly);
    RunResult instant = fullCrashRun(RecoveryPolicy::Instant);

    // Both timelines cover the whole run in explicit buckets —
    // downtime is zero samples, not missing ones.
    std::size_t expect_buckets =
        (200 + 800) / 25; // (warmup + measure) / bucket width
    EXPECT_EQ(replay.timelineRate.size(), expect_buckets);
    EXPECT_EQ(instant.timelineRate.size(), expect_buckets);

    // The replay policy blocks all clients while every key is read
    // back from NVM (20000 keys * 140 ns / 16 banks = 175 us), so its
    // timeline must contain at least one true zero bucket after the
    // crash; instant re-admits after only the index scan (5 us).
    bool replay_has_zero = false;
    for (std::size_t i = 8; i < replay.timelineRate.size(); ++i)
        replay_has_zero |= replay.timelineRate[i] == 0.0;
    EXPECT_TRUE(replay_has_zero)
        << "replay downtime must show as explicit zero samples";

    ASSERT_FALSE(std::isnan(replay.recoveryTimeToSloUs));
    ASSERT_FALSE(std::isnan(instant.recoveryTimeToSloUs));
    EXPECT_LT(instant.recoveryTimeToSloUs, replay.recoveryTimeToSloUs)
        << "instant recovery must regain the throughput SLO earlier";
    EXPECT_GT(instant.servedDuringRecovery, 0u);

    // Durability verdicts identical across the two policies.
    EXPECT_EQ(replay.lostAckedWrites, 0u);
    EXPECT_EQ(instant.lostAckedWrites, 0u);
    EXPECT_EQ(instant.tornReadsServed, 0u);
    EXPECT_EQ(instant.tornValuesInstalled, 0u);
}

} // namespace

TEST(InstantRecovery, CrashWithWaitersParkedOnFaultingColdKeys)
{
    // Regression for the slab-backed waiter lists: requests that hit a
    // cold key on the recovering node park as KeyWarm waiters until
    // the on-demand fault-in lands. Crashing that node again while
    // those waiters sit parked runs abortInFlight() over a populated
    // waiter slab — the bulk clear() plus per-key list reset must not
    // leave dangling handles, and the wake path triggered by fault-ins
    // racing the crash must survive mid-iteration unlinks. A small,
    // contended key space pins cold-key traffic (and thus parked
    // waiters) at the second crash point.
    ClusterConfig cfg =
        baseConfig({Consistency::Linearizable, Persistency::Strict});
    cfg.keyCount = 300;
    cfg.workload = workload::WorkloadSpec::ycsbA(300);
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    cfg.node.valueLines = 4;
    cfg.recovery = RecoveryPolicy::Instant;

    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    // First crash: node 1 drops out and rejoins cold 100us later.
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 4, {1},
                                 100 * sim::kMicrosecond);
    // Second crash lands 50us after the rejoin, mid-backfill, while
    // reads are still faulting keys in and parking waiters on them.
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 4 +
                                     150 * sim::kMicrosecond,
                                 {1}, 100 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.crashEpochs, 2u);
    EXPECT_EQ(r.nodeRestarts, 2u);
    EXPECT_GT(r.recoveryFaultIns, 0u)
        << "cold keys must have faulted in (waiters parked and woken)";
    EXPECT_GT(r.servedDuringRecovery, 0u);
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.convergenceFailures, 0u);
    EXPECT_EQ(r.tornValuesInstalled, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
}
