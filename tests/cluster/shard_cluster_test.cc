/**
 * @file
 * Sharded multi-group cluster tests: N key-range shards of R-node
 * replica teams behind a router, with the data distributor splitting
 * hot ranges and migrating them between teams mid-run. Every run is a
 * deterministic discrete-event simulation, so the assertions are
 * exact-repeatable.
 */

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/cluster.hh"

using namespace ddp;
using namespace ddp::cluster;
using core::Consistency;
using core::DdpModel;
using core::Persistency;

namespace {

ClusterConfig
shardConfig(DdpModel model, std::uint32_t servers,
            std::uint32_t shards)
{
    ClusterConfig cfg;
    cfg.model = model;
    cfg.numServers = servers;
    cfg.numShards = shards;
    cfg.clientsPerServer = 4;
    cfg.keyCount = 2000;
    cfg.workload = workload::WorkloadSpec::ycsbA(2000);
    cfg.warmup = 200 * sim::kMicrosecond;
    cfg.measure = 800 * sim::kMicrosecond;
    cfg.seed = 13;
    return cfg;
}

/**
 * Knobs tuned so the zipfian head (key 0 is hottest under the
 * unscrambled generator) forces both a split and a migration, and the
 * migration's backfill finishes inside the run: the split threshold is
 * high enough that splitting converges after a couple of rounds (a
 * round that splits re-zeroes the load vector and skips migration), so
 * the migration starts early.
 */
void
armRebalancing(ClusterConfig &cfg)
{
    cfg.shardRebalanceInterval = 100 * sim::kMicrosecond;
    cfg.shardSplitThreshold = 400;
    cfg.shardMaxOps = 250;
    cfg.measure = 1500 * sim::kMicrosecond;
}

} // namespace

// --------------------------------------------------------------------------
// Static sharded topology (no rebalancing)
// --------------------------------------------------------------------------

TEST(ShardCluster, StaticTopologyServesAndAccountsPerTeam)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    Cluster cluster(cfg);
    RunResult r = cluster.run();

    EXPECT_TRUE(r.sharded);
    EXPECT_EQ(r.shardTeams, 3u);
    EXPECT_EQ(r.shardRangesFinal, 3u);
    EXPECT_EQ(r.shardSplits, 0u);
    EXPECT_EQ(r.shardMigrations, 0u);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.reads, 100u);
    EXPECT_GT(r.writes, 100u);

    // Every measured op landed at exactly one team.
    ASSERT_EQ(r.shardTeamServed.size(), 3u);
    std::uint64_t sum = std::accumulate(r.shardTeamServed.begin(),
                                        r.shardTeamServed.end(),
                                        std::uint64_t{0});
    EXPECT_EQ(sum, r.shardServedOps);
    EXPECT_EQ(r.shardServedOps, r.reads + r.writes);
    // Zipfian head keys all live in team 0's initial range, so it
    // serves the most.
    EXPECT_GT(r.shardTeamServed[0], r.shardTeamServed[2]);
    // Every request crossed the router once.
    EXPECT_GT(r.phase(sim::Phase::Router).meanNs, 0.0);
}

TEST(ShardCluster, AllConsistencyModelsRunSharded)
{
    for (Consistency c :
         {Consistency::Eventual, Consistency::Causal,
          Consistency::Linearizable}) {
        ClusterConfig cfg =
            shardConfig({c, Persistency::Synchronous}, 4, 2);
        Cluster cluster(cfg);
        RunResult r = cluster.run();
        EXPECT_GT(r.reads + r.writes, 500u)
            << "consistency " << static_cast<int>(c);
        EXPECT_EQ(r.shardServedOps, r.reads + r.writes);
    }
}

TEST(ShardCluster, ScansFanOutAcrossShardBoundaries)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    cfg.workload = workload::WorkloadSpec::ycsbE(2000);
    cfg.node.storeKind = kv::StoreKind::SkipList; // scans need order
    Cluster cluster(cfg);
    RunResult r = cluster.run();

    EXPECT_GT(r.scans, 100u);
    EXPECT_GT(r.scanKeysVisited, r.scans);
    // Scan sub-ops are routed per overlapping team, so the routed-op
    // tally exceeds the plain reads+writes+scans cycle count.
    EXPECT_GT(r.shardServedOps, r.reads + r.writes);
}

TEST(ShardCluster, CrossShardTransactionsCommit)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Transactional, Persistency::Synchronous}, 4, 2);
    Cluster cluster(cfg);
    RunResult r = cluster.run();

    EXPECT_GT(r.xactStarted, 0u);
    EXPECT_GT(r.xactCommitted, 100u);
    // Batches span shards: per-team enrollment means more InitX than
    // client-level batches would need on one group.
    EXPECT_GT(r.reads + r.writes, 500u);
}

// --------------------------------------------------------------------------
// Data distribution: splits + migrations under a hot range
// --------------------------------------------------------------------------

TEST(ShardCluster, HotRangeSplitsAndMigrates)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    armRebalancing(cfg);
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    RunResult r = cluster.run();

    EXPECT_GE(r.shardSplits, 1u) << "hot range must split";
    EXPECT_GE(r.shardMigrations, 1u) << "hot range must migrate";
    EXPECT_EQ(r.shardRangesFinal, r.shardTeams + r.shardSplits);
    EXPECT_GT(r.shardKeysMigrated, 0u);
    // The backfill rode the fault-in path.
    EXPECT_GT(r.shardAcquireFaultIns, 0u);
    // Rebalancing must not cost durability: no acked write lost, no
    // torn value served. (Hand-off staleness is a separate, accepted
    // property — see PROTOCOLS.md.)
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
    std::uint64_t sum = std::accumulate(r.shardTeamServed.begin(),
                                        r.shardTeamServed.end(),
                                        std::uint64_t{0});
    EXPECT_EQ(sum, r.shardServedOps);
}

TEST(ShardCluster, RebalancedRunIsSeedDeterministic)
{
    auto once = [] {
        ClusterConfig cfg = shardConfig(
            {Consistency::Causal, Persistency::Synchronous}, 6, 3);
        armRebalancing(cfg);
        Cluster cluster(cfg);
        return cluster.run();
    };
    RunResult a = once();
    RunResult b = once();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.shardSplits, b.shardSplits);
    EXPECT_EQ(a.shardMigrations, b.shardMigrations);
    EXPECT_EQ(a.shardTeamServed, b.shardTeamServed);
    EXPECT_EQ(a.messages, b.messages);
}

// --------------------------------------------------------------------------
// Per-node state sized by ownership
// --------------------------------------------------------------------------

TEST(ShardCluster, KeyPagesCoverOnlyOwnedAndAcquiredRanges)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    armRebalancing(cfg);
    Cluster cluster(cfg);
    const std::uint32_t team_size = cfg.numServers / cfg.numShards;

    // Every range each team ever owned: its initial range, plus each
    // range it acquired, seen by a read-only probe of the layout far
    // more often than the distributor can move a range again.
    std::vector<std::vector<shard::Range>> owned(cfg.numShards);
    const sim::Tick end = cfg.warmup + cfg.measure;
    std::function<void()> probe = [&] {
        const shard::ShardLayout &l = cluster.shardLayout();
        for (std::size_t i = 0; i < l.numRanges(); ++i)
            owned[l.range(i).team].push_back(l.range(i));
        if (cluster.now() < end)
            cluster.queue().scheduleIn(5 * sim::kMicrosecond, probe);
    };
    cluster.queue().schedule(0, probe);
    RunResult r = cluster.run();
    ASSERT_GE(r.shardMigrations, 1u);

    const std::uint64_t page = core::ProtocolNode::kKeyPageSize;
    for (std::size_t n = 0; n < cluster.numNodes(); ++n) {
        const shard::TeamId team =
            static_cast<shard::TeamId>(n / team_size);
        core::ProtocolNode &node = cluster.node(n);
        std::size_t resident = 0;
        for (std::size_t p = 0; p * page < cfg.keyCount; ++p) {
            if (!node.keyPageResident(p))
                continue;
            ++resident;
            // A resident page overlaps an owned range: pages inside
            // it, or the one partial page at either end.
            bool overlaps = false;
            for (const shard::Range &a : owned[team])
                overlaps |= p * page < a.hi && a.lo < (p + 1) * page;
            EXPECT_TRUE(overlaps) << "node " << n << " page " << p;
        }
        EXPECT_EQ(resident, node.residentKeyPages());
        // Everything the team owned from the start was provisioned.
        const shard::Range &own = owned[team].front();
        for (std::uint64_t k = own.lo; k < own.hi; k += page)
            EXPECT_TRUE(node.keyPageResident(k / page))
                << "node " << n << " key " << k;
    }
}

TEST(ShardCluster, ConstReadOfUnownedKeyAllocatesNothing)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 3);
    Cluster cluster(cfg);
    // Team 0 owns [0, 667); key 1999 lies in team 2's range.
    core::ProtocolNode &node = cluster.node(0);
    const std::size_t before = node.residentKeyPages();
    const net::KeyId foreign = cfg.keyCount - 1;
    ASSERT_NE(cluster.shardLayout().teamFor(foreign), 0u);
    ASSERT_FALSE(node.keyPageResident(
        foreign / core::ProtocolNode::kKeyPageSize));
    EXPECT_EQ(node.visibleVersion(foreign), net::Version{});
    EXPECT_EQ(node.persistedVersion(foreign), net::Version{});
    EXPECT_EQ(node.pendingInvalidation(foreign), net::Version{});
    EXPECT_EQ(node.residentKeyPages(), before);
    // A write does materialize the page.
    node.installRecovered(foreign, net::Version{7, 0});
    EXPECT_EQ(node.residentKeyPages(), before + 1);
    EXPECT_EQ(node.visibleVersion(foreign), (net::Version{7, 0}));
}

// --------------------------------------------------------------------------
// Crashes on the sharded topology
// --------------------------------------------------------------------------

TEST(ShardCluster, CrashMidMigrationKeepsAckedWritesDurable)
{
    // Crash one destination-team member early enough that a migration
    // backfill is likely in flight; the residual-source bookkeeping
    // must keep every acked write durable somewhere the audit looks.
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Strict}, 6, 3);
    armRebalancing(cfg);
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    cfg.recovery = RecoveryPolicy::Instant;
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 2, {3},
                                 200 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.crashEpochs, 1u);
    EXPECT_EQ(r.nodeRestarts, 1u);
    EXPECT_GE(r.shardMigrations + r.shardSplits, 1u);
    EXPECT_EQ(r.lostAckedWrites, 0u)
        << "Strict persistency promises zero acked-write loss";
    EXPECT_EQ(r.tornReadsServed, 0u);
    EXPECT_EQ(r.convergenceFailures, 0u);
}

TEST(ShardCluster, MultiTeamRestartRecoversPerShard)
{
    // Crash one member each of teams 1 and 2 (staged), leaving a
    // survivor per team; recovery and state transfer stay team-local.
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Strict}, 6, 3);
    cfg.clientRequestTimeout = 50 * sim::kMicrosecond;
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    cluster.schedulePartialCrash(cfg.warmup + cfg.measure / 3, {2, 4},
                                 200 * sim::kMicrosecond);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_EQ(r.nodeRestarts, 2u);
    EXPECT_EQ(r.lostAckedWrites, 0u);
    EXPECT_EQ(r.tornReadsServed, 0u);
}

/** One crash kind on the sharded topology. */
struct ShardCrashCase
{
    const char *name;
    RecoveryPolicy policy;
    /** Partial-crash victims; empty = full-cluster crash. */
    std::vector<net::NodeId> victims;
};

/** Name the case in test listings (the struct holds pointers). */
void
PrintTo(const ShardCrashCase &c, std::ostream *os)
{
    *os << c.name;
}

class ShardCrashKinds : public ::testing::TestWithParam<ShardCrashCase>
{
};

TEST_P(ShardCrashKinds, StrictCrashLosesNoAckedWrite)
{
    // Full crashes recover per policy over every team at once; an
    // unstaged partial crash (one victim in each team) reconciles each
    // team in place from its survivor.
    const ShardCrashCase &c = GetParam();
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Strict}, 4, 2);
    armRebalancing(cfg);
    cfg.recovery = c.policy;
    core::PropertyChecker checker;
    Cluster cluster(cfg);
    cluster.setChecker(&checker);
    sim::Tick at = cfg.warmup + cfg.measure / 2;
    if (c.victims.empty())
        cluster.scheduleCrash(at);
    else
        cluster.schedulePartialCrash(at, c.victims);
    RunResult r = cluster.run();

    ASSERT_GT(r.reads + r.writes, 500u);
    EXPECT_GE(r.shardMigrations + r.shardSplits, 1u);
    EXPECT_EQ(cluster.recoveries().size(), 1u);
    EXPECT_EQ(r.crashEpochs, 1u);
    EXPECT_EQ(r.lostAckedWrites, 0u)
        << "Strict persistency promises zero acked-write loss";
    EXPECT_EQ(r.tornReadsServed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShardCluster, ShardCrashKinds,
    ::testing::Values(
        ShardCrashCase{"FullVoting", RecoveryPolicy::Voting, {}},
        ShardCrashCase{"FullLocalOnly", RecoveryPolicy::LocalOnly, {}},
        ShardCrashCase{"FullInstant", RecoveryPolicy::Instant, {}},
        ShardCrashCase{"PartialUnstaged", RecoveryPolicy::Voting, {1, 2}}),
    [](const ::testing::TestParamInfo<ShardCrashCase> &info) {
        return std::string(info.param.name);
    });

// --------------------------------------------------------------------------
// Construction-time validation
// --------------------------------------------------------------------------

TEST(ShardCluster, LegacyModeIsUntouched)
{
    ClusterConfig cfg = shardConfig(
        {Consistency::Linearizable, Persistency::Synchronous}, 6, 0);
    cfg.numShards = 0;
    Cluster cluster(cfg);
    RunResult r = cluster.run();
    EXPECT_FALSE(r.sharded);
    EXPECT_EQ(r.shardTeams, 0u);
    EXPECT_TRUE(r.shardTeamServed.empty());
    EXPECT_EQ(r.phase(sim::Phase::Router).meanNs, 0.0);
}
