/**
 * @file
 * A/B microbenchmarks of the event-loop hot path, quantifying the
 * kernel overhaul (inline small-buffer callbacks, explicit 4-ary
 * heap, generation-tagged timer slots) against a faithful replica of
 * the previous kernel (std::function callbacks, std::priority_queue,
 * unordered_set timer bookkeeping). The `legacy_` / `current_`
 * benchmark pairs run the same workload; compare items_per_second
 * (events/sec) between them:
 *
 *   bench/bench_sim_hotpath --benchmark_filter='ScheduleRun|TimerChurn'
 *
 * BM_Current_ClusterEventsPerSec reports end-to-end simulator
 * throughput (simulated events per host second) for a small
 * paper-configuration run — the number the sweep summaries print.
 *
 * The `Hold` benchmarks A/B the two scheduler structures behind
 * sim::EventQueue (4-ary heap vs Brown calendar queue) under the
 * classic hold model — steady state at a fixed pending-event count —
 * across occupancies of 1k/10k/100k. The same sweep is reproducible
 * without google-benchmark's harness from this one binary:
 *
 *   bench/bench_sim_hotpath --occupancy-sweep
 *
 * which prints a median events/s table per (structure, occupancy),
 * reports the calendar/heap ratio at each occupancy, and writes a
 * ddp-bench-v1 BENCH_sim_hotpath_occupancy.json record set into
 * $DDP_BENCH_JSON_DIR (falling back to the working directory).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.hh"
#include "cluster/cluster.hh"
#include "sim/event_queue.hh"

using namespace ddp;

namespace legacy {

/**
 * Replica of the pre-overhaul event kernel: heap-allocating
 * std::function events, std::priority_queue storage (with the
 * const_cast-from-top move), and hash-set timer liveness tracking.
 * Kept here solely as the A/B baseline for the benchmarks below.
 */
class EventQueue
{
  public:
    using EventFn = std::function<void()>;
    using TimerId = std::uint64_t;

    void
    schedule(sim::Tick when, EventFn fn)
    {
        events.push(Entry{when, seq++, 0, std::move(fn)});
    }

    TimerId
    scheduleTimer(sim::Tick when, EventFn fn)
    {
        TimerId id = nextTimer++;
        liveTimers.insert(id);
        events.push(Entry{when, seq++, id, std::move(fn)});
        return id;
    }

    void
    cancelTimer(TimerId id)
    {
        if (liveTimers.erase(id) > 0)
            cancelledTimers.insert(id);
    }

    bool
    step()
    {
        while (!events.empty() && events.top().timer != 0 &&
               cancelledTimers.count(events.top().timer) > 0) {
            cancelledTimers.erase(events.top().timer);
            events.pop();
        }
        if (events.empty())
            return false;
        Entry &top = const_cast<Entry &>(events.top());
        nowTick = top.when;
        EventFn fn = std::move(top.fn);
        TimerId timer = top.timer;
        events.pop();
        if (timer != 0)
            liveTimers.erase(timer);
        ++executed;
        fn();
        return true;
    }

    void
    run()
    {
        while (step()) {
        }
    }

    std::uint64_t executedEvents() const { return executed; }

  private:
    struct Entry
    {
        sim::Tick when;
        std::uint64_t seq;
        TimerId timer;
        EventFn fn;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        events;
    std::unordered_set<TimerId> liveTimers;
    std::unordered_set<TimerId> cancelledTimers;
    sim::Tick nowTick = 0;
    std::uint64_t seq = 0;
    TimerId nextTimer = 1;
    std::uint64_t executed = 0;
};

} // namespace legacy

namespace {

constexpr int kEvents = 4096;

/** Capture the size of a typical delivery event: this + a slab index
 *  plus a little payload state — fits the 48-byte inline buffer. */
struct Payload
{
    std::uint64_t a, b, c;
    std::uint32_t idx;
};

template <typename Queue>
void
scheduleRunWorkload(Queue &eq, std::uint64_t &sink)
{
    Payload p{1, 2, 3, 4};
    for (int i = 0; i < kEvents; ++i) {
        p.idx = static_cast<std::uint32_t>(i);
        // Spread-out deadlines keep the heap realistically mixed.
        eq.schedule(static_cast<sim::Tick>(i * 7 % 911),
                    [p, &sink] { sink += p.a + p.idx; });
    }
    eq.run();
}

template <typename Queue>
void
timerChurnWorkload(Queue &eq, std::uint64_t &sink)
{
    std::vector<std::uint64_t> ids; // both kernels' TimerId is uint64
    ids.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        ids.push_back(eq.scheduleTimer(
            static_cast<sim::Tick>(1000 + i * 13 % 977),
            [&sink] { ++sink; }));
    }
    // Cancel every other timer — the retransmit-timer pattern: most
    // timers are cancelled by an ack before they fire.
    for (int i = 0; i < kEvents; i += 2)
        eq.cancelTimer(ids[i]);
    eq.run();
}

void
BM_Legacy_ScheduleRun(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        legacy::EventQueue eq;
        scheduleRunWorkload(eq, sink);
        benchmark::DoNotOptimize(eq.executedEvents());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_Legacy_ScheduleRun);

void
BM_Current_ScheduleRun(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        scheduleRunWorkload(eq, sink);
        benchmark::DoNotOptimize(eq.executedEvents());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_Current_ScheduleRun);

void
BM_Legacy_TimerChurn(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        legacy::EventQueue eq;
        timerChurnWorkload(eq, sink);
        benchmark::DoNotOptimize(eq.executedEvents());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_Legacy_TimerChurn);

void
BM_Current_TimerChurn(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        timerChurnWorkload(eq, sink);
        benchmark::DoNotOptimize(eq.executedEvents());
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_Current_TimerChurn);

/**
 * Hold-model workload: prime the queue to @p occupancy pending
 * events, then run steady state — each event reschedules exactly one
 * successor a pseudo-random (deterministic LCG) increment ahead of
 * its own deadline — until @p total events have been scheduled, then
 * drain. Pop-one-push-one at constant occupancy is the classic
 * priority-queue stressor: it exposes the O(log n) heap sift cost the
 * calendar queue's O(1) amortised bucket ops are meant to beat.
 *
 * Successors are scheduled relative to the running event's own
 * deadline (passed through the callback) rather than Queue::now(), so
 * the identical workload runs against the legacy replica too.
 */
template <typename Queue>
std::uint64_t
holdWorkload(Queue &eq, std::size_t occupancy, std::uint64_t total)
{
    struct St
    {
        Queue *q;
        std::uint64_t scheduled = 0;
        std::uint64_t total = 0;
        std::uint64_t lcg = 0x9e3779b97f4a7c15ull;

        sim::Tick
        incr()
        {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            // 1..4096 ticks: spacing varied enough to churn calendar
            // buckets, never zero (deadlines strictly advance).
            return static_cast<sim::Tick>(1 + ((lcg >> 33) & 0xfff));
        }
    };
    struct Ev
    {
        St *st;
        sim::Tick when;

        void
        operator()()
        {
            if (st->scheduled >= st->total)
                return;
            ++st->scheduled;
            sim::Tick next = when + st->incr();
            st->q->schedule(next, Ev{st, next});
        }
    };
    St st{&eq, 0, total};
    for (std::size_t i = 0; i < occupancy && st.scheduled < total; ++i) {
        ++st.scheduled;
        sim::Tick when = st.incr();
        eq.schedule(when, Ev{&st, when});
    }
    eq.run();
    return eq.executedEvents();
}

/** Events to execute per hold run: enough steady-state pops past the
 *  priming phase that per-run setup cost (including the calendar's
 *  grow-by-doubling resizes while filling to occupancy) is noise. */
constexpr std::uint64_t
holdTotal(std::size_t occupancy)
{
    return static_cast<std::uint64_t>(occupancy) * 32;
}

void
BM_Legacy_Hold(benchmark::State &state)
{
    const auto occ = static_cast<std::size_t>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        legacy::EventQueue eq;
        events += holdWorkload(eq, occ, holdTotal(occ));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Legacy_Hold)->Arg(1000)->Arg(10000)->Arg(100000);

/** range(0) = occupancy, range(1) = 0 for BinaryHeap / 1 for
 *  CalendarQueue — the tentpole A/B. */
void
BM_Current_Hold(benchmark::State &state)
{
    const auto occ = static_cast<std::size_t>(state.range(0));
    const sim::QueueImpl impl = state.range(1) == 0
        ? sim::QueueImpl::BinaryHeap
        : sim::QueueImpl::CalendarQueue;
    std::uint64_t events = 0;
    for (auto _ : state) {
        sim::EventQueue eq(impl);
        events += holdWorkload(eq, occ, holdTotal(occ));
    }
    state.SetLabel(sim::queueImplName(impl));
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Current_Hold)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}});

/** End-to-end simulator throughput: simulated events per host second
 *  for a small paper-configuration cluster run. */
void
BM_Current_ClusterEventsPerSec(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        cluster::ClusterConfig cfg;
        cfg.model = {core::Consistency::Causal,
                     core::Persistency::Synchronous};
        cfg.numServers = 5;
        cfg.clientsPerServer = 20;
        cfg.keyCount = 10000;
        cfg.workload = workload::WorkloadSpec::ycsbA(cfg.keyCount);
        cfg.warmup = 100 * sim::kMicrosecond;
        cfg.measure = 400 * sim::kMicrosecond;
        cfg.seed = 42;
        cluster::Cluster c(cfg);
        cluster::RunResult r = c.run();
        events += r.eventsExecuted;
        benchmark::DoNotOptimize(r.throughput);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Current_ClusterEventsPerSec)
    ->Unit(benchmark::kMillisecond);

/**
 * One-binary occupancy sweep (satellite of the calendar-queue A/B):
 * for each occupancy × {heap, calendar}, run the hold workload
 * `reps` times, take the median events/s, print a table with the
 * calendar/heap ratio, and append ddp-bench-v1 records to
 * BENCH_sim_hotpath_occupancy.json under $DDP_BENCH_JSON_DIR (or the
 * working directory when unset). The workload itself is fully
 * deterministic; only the wall-clock fields vary run to run.
 */
int
occupancySweep()
{
    constexpr int reps = 5;
    const std::size_t occupancies[] = {1000, 10000, 100000};
    const sim::QueueImpl impls[] = {sim::QueueImpl::BinaryHeap,
                                    sim::QueueImpl::CalendarQueue};

    const char *dir = std::getenv("DDP_BENCH_JSON_DIR");
    std::string path =
        std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
        "/BENCH_sim_hotpath_occupancy.json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    bench::JsonArrayWriter w(out);

    std::printf("%-10s %14s %14s %9s\n", "occupancy", "heap ev/s",
                "calendar ev/s", "cal/heap");
    for (std::size_t occ : occupancies) {
        double median[2] = {0, 0};
        for (int qi = 0; qi < 2; ++qi) {
            std::vector<double> rates;
            std::uint64_t events = holdTotal(occ);
            for (int rep = 0; rep < reps; ++rep) {
                sim::EventQueue eq(impls[qi]);
                auto t0 = std::chrono::steady_clock::now();
                std::uint64_t executed =
                    holdWorkload(eq, occ, events);
                auto t1 = std::chrono::steady_clock::now();
                double wall =
                    std::chrono::duration<double>(t1 - t0).count();
                if (executed != events) {
                    std::fprintf(stderr,
                                 "occupancy sweep: executed %llu "
                                 "!= scheduled %llu\n",
                                 (unsigned long long)executed,
                                 (unsigned long long)events);
                    return 1;
                }
                rates.push_back(wall > 0 ? double(events) / wall : 0);
            }
            std::sort(rates.begin(), rates.end());
            median[qi] = rates[rates.size() / 2];

            w.beginRecord();
            w.field("schema", "ddp-bench-v1");
            w.field("bench", "sim_hotpath_occupancy");
            w.field("queue_impl", sim::queueImplName(impls[qi]));
            w.field("occupancy", std::uint64_t(occ));
            w.field("events_executed", events);
            w.field("reps", std::uint64_t(reps));
            // Host-timing fields stay last so deterministic prefixes
            // can be compared by stripping the timing tail.
            w.field("events_per_sec", median[qi]);
            w.endRecord();
        }
        std::printf("%-10zu %14.0f %14.0f %8.2fx\n", occ, median[0],
                    median[1],
                    median[0] > 0 ? median[1] / median[0] : 0);
    }
    w.finish();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--occupancy-sweep") == 0)
            return occupancySweep();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
