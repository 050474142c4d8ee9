/**
 * @file
 * DDPSim benchmark driver: runs one named workload in a single thread
 * of this process, checks every unit's output, and prints the metrics
 * as the last line of stdout:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 *   perfbench_driver --workload sweep25|shard-hot|torture-w
 *                    [--seed N] [--seconds S] [--trace 0|1]
 *                    [--size full|tiny] [--trace-out FILE]
 *   perfbench_driver --check-synthetic
 *
 * --trace 0 repeats whole passes for about --seconds and reports the
 * end-to-end metrics as medians over passes. --trace 1 runs one plain
 * and one spanned pass (plus, on torture-w, one pass without the
 * checker), drives each layer standalone, and reports the per-layer
 * metrics; it writes the spans as a Chrome trace to --trace-out.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "ddp/models.hh"

using namespace perfbench;

namespace {

/** Upper bound on passes per untraced run, whatever --seconds says. */
constexpr std::size_t kMaxPasses = 64;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    bool tiny = false;
    std::string traceOut;
    bool checkSynthetic = false;
};

int
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--size full|tiny] "
                 "[--trace-out FILE]\n"
                 "       perfbench_driver --check-synthetic\n"
                 "workloads:";
    for (const std::string &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--check-synthetic") {
            a.checkSynthetic = true;
            continue;
        }
        if (i + 1 >= argc) {
            err = flag + " needs a value";
            return false;
        }
        std::string val = argv[++i];
        char *end = nullptr;
        bool ok = true;
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            ok = !val.empty() && *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            ok = *end == '\0' && a.seconds > 0.0;
        } else if (flag == "--trace") {
            ok = val == "0" || val == "1";
            a.trace = val == "1";
        } else if (flag == "--size") {
            ok = val == "full" || val == "tiny";
            a.tiny = val == "tiny";
        } else if (flag == "--trace-out") {
            a.traceOut = val;
        } else {
            err = "unknown flag " + flag;
            return false;
        }
        if (!ok) {
            err = "bad value for " + flag + ": " + val;
            return false;
        }
    }
    if (!a.checkSynthetic && a.workload.empty()) {
        err = "--workload is required";
        return false;
    }
    return true;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
reportFailures(const Pass &p)
{
    for (const std::string &f : p.failures)
        std::cout << "FAILED unit: " << f << "\n";
}

/** Sum of @p field over every unit of @p p. */
template <typename Fn>
double
total(const Pass &p, Fn &&field)
{
    double s = 0.0;
    for (const cluster::RunResult &r : p.results)
        s += static_cast<double>(field(r));
    return s;
}

/** Mean over units of one simulated phase's mean latency. */
double
phaseMean(const Pass &p, sim::Phase ph)
{
    return ratio(total(p, [ph](const cluster::RunResult &r) {
                     return r.phase(ph).meanNs;
                 }),
                 static_cast<double>(p.results.size()));
}

int
runUntraced(const Args &a, const Workload &w)
{
    std::vector<Pass> passes;
    Clock::time_point t0 = Clock::now();
    do {
        passes.push_back(runPass(w, nullptr));
        std::cerr << w.name << ": pass " << passes.size() << " "
                  << passes.back().wallS << " s\n";
    } while (passes.size() < kMaxPasses &&
             secondsBetween(t0, Clock::now()) + passes.back().wallS <=
                 a.seconds);

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> wall, setup, run;
    for (const Pass &p : passes) {
        attempted += p.units;
        failed += p.failed;
        // Every pass simulates the same inputs, so any difference in
        // the simulated output is a determinism bug.
        correct = correct && p.failed == 0 &&
                  p.fingerprint == passes.front().fingerprint;
        wall.push_back(p.wallS);
        setup.push_back(p.setupS);
        run.push_back(p.runS);
    }
    reportFailures(passes.front());
    std::cout << "workload " << w.name << " seed " << a.seed << " passes "
              << passes.size() << " units/pass " << w.units.size()
              << " events/pass "
              << static_cast<std::uint64_t>(
                     total(passes.front(), [](const cluster::RunResult &r) {
                         return r.eventsExecuted;
                     }))
              << "\nfingerprint " << w.name << " "
              << hex(passes.front().fingerprint) << "\n";
    printResult(correct, attempted, failed,
                {{"wall_s", median(wall), "s"},
                 {"setup_s", median(setup), "s"},
                 {"run_s", median(run), "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"}});
    return 0;
}

int
runTraced(const Args &a, const Workload &w)
{
    Spans spans;
    Pass plain = runPass(w, nullptr);
    std::cerr << w.name << ": plain pass " << plain.wallS << " s\n";
    Pass traced;
    {
        Span s(&spans, "workload");
        traced = runPass(w, &spans);
    }
    std::cerr << w.name << ": traced pass " << traced.wallS << " s\n";

    bool has_checker = std::any_of(w.units.begin(), w.units.end(),
                                   [](const UnitSpec &u) {
                                       return u.checker;
                                   });
    double checker_s = 0.0;
    if (has_checker) {
        Span s(&spans, "pass without checker");
        Pass bare = runPass(w, nullptr, false);
        checker_s = plain.runS - bare.runS;
    }

    using R = cluster::RunResult;
    using sim::Phase;
    const Pass &p = traced;
    double events = total(p, [](const R &r) { return r.eventsExecuted; });
    double counter_adds = 0.0;
    for (const R &r : p.results)
        for (const auto &kv : r.counters)
            counter_adds += static_cast<double>(kv.second);
    double ops = total(p, [](const R &r) {
        return r.reads + r.writes + r.scans;
    });
    double messages = total(p, [](const R &r) { return r.messages; });
    double persists = total(p, [](const R &r) { return r.persistsIssued; });
    double coalesced = 0.0;
    for (const R &r : p.results) {
        auto it = r.counters.find("persists_coalesced");
        if (it != r.counters.end())
            coalesced += static_cast<double>(it->second);
    }
    double imbalance = 0.0;
    for (const R &r : p.results) {
        if (r.shardTeamServed.empty())
            continue;
        double max = 0.0, sum = 0.0;
        for (std::uint64_t s : r.shardTeamServed) {
            max = std::max(max, static_cast<double>(s));
            sum += static_cast<double>(s);
        }
        imbalance += ratio(max * r.shardTeamServed.size(), sum) /
                     static_cast<double>(p.results.size());
    }

    std::vector<Metric> m = {
        {"sim.events", events, "count"},
        {"sim.host_ns_per_event", ratio(plain.runS * 1e9, events), "ns"},
    };
    std::vector<Metric> iso;
    isolatedLayerMetrics(w, traced, &spans, iso);
    auto isoValue = [&iso](const std::string &name) {
        for (const Metric &x : iso)
            if (x.name == name)
                return x.value;
        return 0.0;
    };
    auto takeIso = [&](const char *name) {
        for (const Metric &x : iso)
            if (x.name == name)
                m.push_back(x);
    };

    takeIso("sim.queue_op_ns");
    m.push_back({"stats.counter_adds", counter_adds, "count"});
    takeIso("stats.counter_add_ns");
    takeIso("stats.hist_record_ns");
    takeIso("workload.setup_ms");
    takeIso("workload.next_ns");
    takeIso("ddp.setup_ms");
    m.push_back({"ddp.core_queue_sim_ns", phaseMean(p, Phase::CoreQueue),
                 "ns"});
    m.push_back({"ddp.service_sim_ns", phaseMean(p, Phase::Service), "ns"});
    m.push_back({"ddp.visibility_stall_sim_ns",
                 phaseMean(p, Phase::VisibilityStall), "ns"});
    m.push_back({"ddp.conflict_retry_sim_ns",
                 phaseMean(p, Phase::ConflictRetry), "ns"});
    m.push_back({"ddp.xact_commit_sim_ns", phaseMean(p, Phase::XactCommit),
                 "ns"});
    m.push_back({"ddp.recovery_stall_sim_ns",
                 phaseMean(p, Phase::RecoveryStall), "ns"});
    m.push_back({"ddp.reads_stalled", total(p, [](const R &r) {
                     return r.readsStalledVisibility + r.readsStalledPersist;
                 }),
                 "count"});
    m.push_back({"ddp.recovery_fault_ins",
                 total(p, [](const R &r) { return r.recoveryFaultIns; }),
                 "count"});
    m.push_back({"ddp.served_during_recovery",
                 total(p, [](const R &r) { return r.servedDuringRecovery; }),
                 "count"});
    m.push_back({"ddp.client_failovers",
                 total(p, [](const R &r) { return r.clientFailovers; }),
                 "count"});
    m.push_back({"ddp.xact_commit_ratio",
                 ratio(total(p, [](const R &r) { return r.xactCommitted; }),
                       total(p, [](const R &r) { return r.xactStarted; })),
                 "ratio"});
    m.push_back({"ddp.checker_s", checker_s, "s"});
    takeIso("mem.setup_ms");
    takeIso("mem.access_ns");
    takeIso("mem.recover_ms");
    m.push_back({"mem.persists", persists, "count"});
    m.push_back({"mem.coalesce_ratio", ratio(coalesced, persists), "ratio"});
    m.push_back({"mem.mem_access_sim_ns", phaseMean(p, Phase::MemAccess),
                 "ns"});
    m.push_back({"mem.persist_stall_sim_ns",
                 phaseMean(p, Phase::PersistStall), "ns"});
    takeIso("kv.setup_ms");
    takeIso("kv.get_ns");
    takeIso("kv.put_ns");
    takeIso("kv.scan_key_ns");
    double scan_keys =
        total(p, [](const R &r) { return r.scanKeysVisited; });
    m.push_back({"kv.scan_keys", scan_keys, "count"});
    takeIso("net.setup_ms");
    takeIso("net.send_ns");
    m.push_back({"net.messages", messages, "count"});
    m.push_back({"net.bytes",
                 total(p, [](const R &r) { return r.networkBytes; }),
                 "bytes"});
    m.push_back({"net.msgs_per_op", ratio(messages, ops), "ratio"});
    m.push_back({"net.drain_msgs_mean",
                 ratio(total(p, [](const R &r) { return r.drainedMessages; }),
                       total(p, [](const R &r) { return r.doorbellDrains; })),
                 "ratio"});
    m.push_back({"net.replication_sim_ns", phaseMean(p, Phase::Replication),
                 "ns"});
    m.push_back({"shard.splits",
                 total(p, [](const R &r) { return r.shardSplits; }),
                 "count"});
    m.push_back({"shard.migrations",
                 total(p, [](const R &r) { return r.shardMigrations; }),
                 "count"});
    m.push_back({"shard.keys_migrated",
                 total(p, [](const R &r) { return r.shardKeysMigrated; }),
                 "count"});
    m.push_back({"shard.acquire_fault_ins",
                 total(p, [](const R &r) { return r.shardAcquireFaultIns; }),
                 "count"});
    m.push_back({"shard.stray_writes",
                 total(p, [](const R &r) { return r.shardStrayWrites; }),
                 "count"});
    m.push_back({"shard.team_imbalance", imbalance, "ratio"});
    takeIso("shard.lookup_ns");
    m.push_back({"shard.router_sim_ns", phaseMean(p, Phase::Router), "ns"});
    m.push_back({"cluster.teardown_s", plain.teardownS, "s"});
    m.push_back({"cluster.sim_ops", ops, "count"});

    // What the isolated per-call costs explain of Cluster::run(); the
    // rest is protocol logic and glue no single layer drive covers.
    double reads = total(p, [](const R &r) { return r.reads; });
    double writes = total(p, [](const R &r) { return r.writes; });
    double explained_ns =
        events * isoValue("sim.queue_op_ns") +
        counter_adds * isoValue("stats.counter_add_ns") +
        ops * (isoValue("workload.next_ns") +
               isoValue("stats.hist_record_ns") +
               isoValue("mem.access_ns")) +
        reads * isoValue("kv.get_ns") + writes * isoValue("kv.put_ns") +
        scan_keys * isoValue("kv.scan_key_ns") +
        messages * isoValue("net.send_ns");
    if (!p.results.empty() && p.results.front().sharded)
        explained_ns += ops * isoValue("shard.lookup_ns");
    m.push_back(
        {"cluster.unattributed_run_s", plain.runS - explained_ns * 1e-9,
         "s"});
    m.push_back({"bench.trace_overhead_s", traced.wallS - plain.wallS, "s"});

    if (!a.traceOut.empty() && !spans.write(a.traceOut))
        std::cerr << "perfbench_driver: cannot write " << a.traceOut
                  << "\n";

    bool same = plain.fingerprint == traced.fingerprint;
    bool correct = same && plain.failed == 0 && traced.failed == 0;
    reportFailures(traced);
    std::cout << "workload " << w.name << " seed " << a.seed
              << " traced, units/pass " << w.units.size() << ", "
              << spans.count() << " spans\n"
              << "fingerprint " << w.name << " " << hex(traced.fingerprint)
              << (same ? " (equals the untraced pass)"
                       : " (DIFFERS from untraced " +
                             hex(plain.fingerprint) + ")")
              << "\n";
    printResult(correct, plain.units + traced.units,
                plain.failed + traced.failed, m);
    return 0;
}

/**
 * Feed a fabricated torture unit through the real accounting: a
 * zero-loss binding that lost an acked write must count as a failed
 * unit, and the same run without the loss must not.
 */
int
checkSynthetic()
{
    UnitSpec u;
    u.cfg.model = {core::Consistency::Linearizable,
                   core::Persistency::Strict};
    u.crash = UnitSpec::Crash::Staged;
    u.checker = true;
    cluster::RunResult r;
    r.reads = r.writes = 10;
    r.crashEpochs = 1;

    Pass clean;
    recordUnit(clean, u, r);
    r.lostAckedWrites = 1;
    r.lostAckedWriteKeys = 1;
    Pass lossy;
    recordUnit(lossy, u, r);
    bool ok = clean.failed == 0 && lossy.failed == 1 &&
              lossy.units == 1 && !lossy.failures.empty();
    for (const std::string &f : lossy.failures)
        std::cout << "synthetic unit flagged: " << f << "\n";
    std::cout << (ok ? "synthetic check passed" : "synthetic check FAILED")
              << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string err;
    if (!parseArgs(argc, argv, a, err))
        return usage(err);
    if (a.checkSynthetic)
        return checkSynthetic();
    // Keep freed heap memory mapped, so a unit reuses the pages the
    // previous unit touched instead of returning them to the kernel and
    // faulting them in again. First-touch faults are the noisiest host
    // cost on a virtual machine; with this only the first unit of a
    // process pays them, and peak_rss_mb still reports the footprint.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    Workload w;
    if (!makeWorkload(a.workload, a.seed, a.tiny, w))
        return usage("unknown workload " + a.workload);
    return a.trace ? runTraced(a, w) : runUntraced(a, w);
}
