/**
 * @file
 * Bit-reproducibility of parallel sweeps: running the same set of
 * cluster experiments through SweepRunner with 1 job and with 4 jobs
 * must produce identical results field for field. Each run owns its
 * EventQueue and RNG streams, so thread placement cannot perturb any
 * simulated metric (DESIGN.md, "Parallel sweeps stay deterministic").
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hh"
#include "sim/sweep_runner.hh"

using namespace ddp;

namespace {

cluster::RunResult
runItem(std::size_t i)
{
    const core::DdpModel models[] = {
        {core::Consistency::Linearizable,
         core::Persistency::Synchronous},
        {core::Consistency::Causal, core::Persistency::Eventual},
        {core::Consistency::Transactional,
         core::Persistency::Synchronous},
        {core::Consistency::Eventual, core::Persistency::Strict},
    };
    cluster::ClusterConfig cfg;
    cfg.model = models[i % 4];
    cfg.numServers = 2;
    cfg.clientsPerServer = 2;
    cfg.keyCount = 500;
    cfg.workload = workload::WorkloadSpec::ycsbA(cfg.keyCount);
    cfg.warmup = 20 * sim::kMicrosecond;
    cfg.measure = 80 * sim::kMicrosecond;
    cfg.seed = sim::sweepSeed(42, i);
    cluster::Cluster c(cfg);
    return c.run();
}

} // namespace

TEST(SweepDeterminism, ParallelSweepMatchesSerialBitForBit)
{
    std::vector<cluster::RunResult> serial =
        sim::SweepRunner(1).map(8, runItem);
    std::vector<cluster::RunResult> parallel =
        sim::SweepRunner(4).map(8, runItem);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("item " + std::to_string(i));
        const cluster::RunResult &a = serial[i];
        const cluster::RunResult &b = parallel[i];
        // Exact equality, doubles included: the simulated metrics are
        // pure functions of (config, seed). Host-timing fields
        // (wallSeconds, setupSeconds) are the only nondeterministic ones.
        EXPECT_EQ(a.throughput, b.throughput);
        EXPECT_EQ(a.meanReadNs, b.meanReadNs);
        EXPECT_EQ(a.meanWriteNs, b.meanWriteNs);
        EXPECT_EQ(a.p50ReadNs, b.p50ReadNs);
        EXPECT_EQ(a.p99ReadNs, b.p99ReadNs);
        EXPECT_EQ(a.p50WriteNs, b.p50WriteNs);
        EXPECT_EQ(a.p99WriteNs, b.p99WriteNs);
        EXPECT_EQ(a.reads, b.reads);
        EXPECT_EQ(a.writes, b.writes);
        EXPECT_EQ(a.messages, b.messages);
        EXPECT_EQ(a.networkBytes, b.networkBytes);
        EXPECT_EQ(a.persistsIssued, b.persistsIssued);
        EXPECT_EQ(a.xactStarted, b.xactStarted);
        EXPECT_EQ(a.xactAborted, b.xactAborted);
        EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
        EXPECT_EQ(a.counters, b.counters);
    }
}

TEST(SweepDeterminism, RepeatedParallelSweepsAgree)
{
    std::vector<cluster::RunResult> first =
        sim::SweepRunner(4).map(4, runItem);
    std::vector<cluster::RunResult> second =
        sim::SweepRunner(4).map(4, runItem);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].throughput, second[i].throughput);
        EXPECT_EQ(first[i].eventsExecuted, second[i].eventsExecuted);
        EXPECT_EQ(first[i].counters, second[i].counters);
    }
}
