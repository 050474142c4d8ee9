/**
 * @file
 * Peak-memory gate for the scale-out reference configuration: 100
 * servers in 20 shard teams over 100k keys. Per-node state is sized by
 * what the node owns and touches (its team's key range, the cache sets
 * it installed into), so the whole process stays far below what dense
 * per-node arrays would take (about 3.4 GB for this configuration).
 *
 * The gate reads the process's own peak RSS, so it lives in its own
 * executable: ctest starts one process per test, and no other test's
 * allocations can count against it.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "cluster/cluster.hh"

using namespace ddp;
using namespace ddp::cluster;

TEST(MemoryGate, HundredServerShardedClusterStaysUnderOneGigabyte)
{
    ClusterConfig cfg;
    cfg.model = {core::Consistency::Linearizable,
                 core::Persistency::Strict};
    cfg.numServers = 100;
    cfg.numShards = 20;
    cfg.clientsPerServer = 20;
    cfg.keyCount = 100000;
    cfg.workload = workload::WorkloadSpec::ycsbA(cfg.keyCount);
    cfg.warmup = 50 * sim::kMicrosecond;
    cfg.measure = 150 * sim::kMicrosecond;
    cfg.seed = 42;
    {
        Cluster cluster(cfg);
        RunResult r = cluster.run();
        ASSERT_GT(r.reads + r.writes, 0u);
    }

    rusage usage{};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
    // ru_maxrss is in KiB on Linux.
    const double peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    RecordProperty("peak_rss_mb", static_cast<int>(peak_mb));
    EXPECT_LT(peak_mb, 1024.0)
        << "peak RSS " << peak_mb << " MB for 100 servers / 20 shards / "
           "100k keys";
}
