/**
 * @file
 * Shared declarations of the DDPSim benchmark driver: workload
 * definitions, per-unit outcomes and checks, the simulated-output
 * fingerprint, host-clock spans and the isolated layer drives.
 *
 * A *unit* is one Cluster construction, run and teardown; a *pass*
 * runs every unit of a workload once, in order, on the calling thread.
 */

#ifndef DDP_PERFBENCH_BENCH_HH
#define DDP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "shard/keymap.hh"
#include "sim/trace.hh"

namespace perfbench {

using namespace ddp;
using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Default workload seed (README.md names the held-out seed). */
constexpr std::uint64_t kDefaultSeed = 42;

/** One cluster construction + run + teardown, and what it must meet. */
struct UnitSpec
{
    enum class Crash
    {
        None,
        Full,   ///< Cluster::scheduleCrash
        Staged, ///< Cluster::schedulePartialCrash with restart
    };

    cluster::ClusterConfig cfg;
    Crash crash = Crash::None;
    sim::Tick crashAt = 0;
    std::vector<net::NodeId> victims;
    sim::Tick restartAfter = 0;
    /** Attach a PropertyChecker (durability audits per crash epoch). */
    bool checker = false;
    /** The data distributor must split and migrate at least once. */
    bool expectRebalance = false;
};

struct Workload
{
    std::string name;
    std::vector<UnitSpec> units;
    /** Pending events the topology holds in steady state (ROADMAP
     *  baseline); sets the depth of the isolated queue drive. */
    std::size_t pendingDepth = 0;
};

/** Build @p name's units from @p seed; false for an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed, bool tiny,
                  Workload &out);
const std::vector<std::string> &workloadNames();

/** Why @p r fails @p u's correctness rules; empty when it passes. */
std::vector<std::string> checkUnit(const UnitSpec &u,
                                   const cluster::RunResult &r);

/** Fold every deterministic RunResult field into FNV-1a @p h. */
std::uint64_t fingerprint(const cluster::RunResult &r, std::uint64_t h);
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/**
 * Host-clock spans of the benchmark's own calls, kept in memory and
 * written as a Chrome trace at exit. Nested spans share one track, so
 * Perfetto shows workload -> unit -> setup/run/teardown and each
 * isolated layer drive.
 */
class Spans
{
  public:
    Spans() : t0(Clock::now()) {}

    sim::Tick
    at(Clock::time_point t) const
    {
        return static_cast<sim::Tick>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t - t0)
                       .count()) *
               sim::kNanosecond;
    }

    void
    add(const char *name, Clock::time_point a, Clock::time_point b,
        const char *arg_key = nullptr, std::uint64_t arg = 0)
    {
        rec.complete(0, 0, name, at(a), at(b), arg_key, arg);
    }

    std::size_t count() const { return rec.eventCount(); }

    bool write(const std::string &path) const;

  private:
    Clock::time_point t0;
    sim::TraceRecorder rec;
};

/** RAII span; a no-op when @p spans is null. */
class Span
{
  public:
    Span(Spans *spans, const char *name)
        : spans(spans), name(name), start(Clock::now())
    {
    }
    ~Span()
    {
        if (spans)
            spans->add(name, start, Clock::now());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Spans *spans;
    const char *name;
    Clock::time_point start;
};

/** Outcome of one pass over a workload's units. */
struct Pass
{
    double wallS = 0.0;
    double setupS = 0.0;
    double runS = 0.0;
    double teardownS = 0.0;
    std::uint64_t units = 0;
    std::uint64_t failed = 0;
    std::uint64_t fingerprint = kFnvBasis;
    std::vector<cluster::RunResult> results;
    std::vector<std::string> failures;
    /** Key layout of the last unit at the end of its run. */
    shard::ShardLayout lastLayout;
};

/** Judge @p r against @p u's rules, fold it into @p p's fingerprint
 *  and count it as attempted, and as failed when a rule fails. */
void recordUnit(Pass &p, const UnitSpec &u, cluster::RunResult r);

/**
 * Run every unit of @p w once. @p with_checker = false drops the
 * PropertyChecker from units that attach one (the ddp.checker_s
 * baseline); their durability rules are then not judged.
 */
Pass runPass(const Workload &w, Spans *spans, bool with_checker = true);

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/**
 * Drive each layer's public API standalone with @p w's inputs and
 * append the isolated host-time metrics (ns per call, ms per
 * construction batch). @p traced supplies the run's counter names and
 * final key layout.
 */
void isolatedLayerMetrics(const Workload &w, const Pass &traced,
                          Spans *spans, std::vector<Metric> &out);

} // namespace perfbench

#endif // DDP_PERFBENCH_BENCH_HH
