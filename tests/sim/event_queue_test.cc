/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sweep_runner.hh" // splitmix64

using namespace ddp::sim;

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(123, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 123u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, ScheduleInUsesCurrentTime)
{
    EventQueue eq;
    Tick inner = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { inner = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(inner, 150u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2); // events at t<=20 run
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pendingEvents(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, ClearDropsPending)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.clear();
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, ExecutedEventsCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 7u);
}

TEST(EventQueue, PeakPendingEventsIsTheHighWaterMark)
{
    for (QueueImpl impl : {QueueImpl::BinaryHeap, QueueImpl::CalendarQueue}) {
        EventQueue eq(impl);
        EXPECT_EQ(eq.peakPendingEvents(), 0u);
        TimerId t = eq.scheduleTimer(50, [] {});
        eq.schedule(10, [] {});
        eq.schedule(20, [] {});
        EXPECT_EQ(eq.peakPendingEvents(), 3u);
        // A cancelled timer no longer counts as pending.
        eq.cancelTimer(t);
        eq.schedule(30, [] {});
        EXPECT_EQ(eq.peakPendingEvents(), 3u);
        eq.run();
        EXPECT_EQ(eq.pendingEvents(), 0u);
        EXPECT_EQ(eq.peakPendingEvents(), 3u) << "a high-water mark";
    }
}

namespace {

/** Closure that counts its move constructions. */
struct MoveCounter
{
    int *moves;
    int *calls;

    MoveCounter(int *m, int *c) : moves(m), calls(c) {}
    MoveCounter(MoveCounter &&o) noexcept : moves(o.moves), calls(o.calls)
    {
        ++*moves;
    }
    void operator()() { ++*calls; }
};

} // namespace

TEST(EventQueue, ScheduleAndStepMoveTheClosureOnce)
{
    // One move builds the InlineFn argument; the kernel then moves it
    // into its slot and runs it from there.
    for (QueueImpl impl : {QueueImpl::BinaryHeap, QueueImpl::CalendarQueue}) {
        EventQueue eq(impl);
        int moves = 0;
        int calls = 0;
        // A fresh cell, then a recycled one.
        for (int round = 1; round <= 2; ++round) {
            moves = 0;
            eq.schedule(5 * round, MoveCounter(&moves, &calls));
            EXPECT_TRUE(eq.step());
            EXPECT_EQ(calls, round);
            EXPECT_EQ(moves - 1, 1) << "relocations after construction";
        }
    }
}

TEST(Timers, FireLikeEvents)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimerIn(100, [&] { ++fired; });
    EXPECT_NE(id, kNoTimer);
    EXPECT_TRUE(eq.timerPending(id));
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.timerPending(id));
}

TEST(Timers, CancelledTimerNeverFires)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(100, [&] { ++fired; });
    EXPECT_TRUE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.timerPending(id));
    EXPECT_EQ(eq.pendingEvents(), 0u);
    eq.run();
    EXPECT_EQ(fired, 0);
    // Cancelled entries are purged without advancing time.
    EXPECT_EQ(eq.now(), 0u);
}

TEST(Timers, CancelIsIdempotentAndRejectsUnknownIds)
{
    EventQueue eq;
    TimerId id = eq.scheduleTimer(100, [] {});
    EXPECT_TRUE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.cancelTimer(kNoTimer));
    EXPECT_FALSE(eq.cancelTimer(987654));
}

TEST(Timers, CancellingOneLeavesOthersTicking)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleTimer(10, [&] { order.push_back(1); });
    TimerId victim = eq.scheduleTimer(20, [&] { order.push_back(2); });
    eq.scheduleTimer(30, [&] { order.push_back(3); });
    eq.cancelTimer(victim);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Timers, FiredTimerCannotBeCancelled)
{
    EventQueue eq;
    TimerId id = eq.scheduleTimer(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancelTimer(id));
}

TEST(Timers, EventsAndTimersInterleaveFifoPerTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.scheduleTimer(10, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timers, CancelFromInsideAnEarlierEvent)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(50, [&] { ++fired; });
    eq.schedule(20, [&] { eq.cancelTimer(id); });
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(Timers, RunUntilIgnoresCancelledHead)
{
    EventQueue eq;
    int fired = 0;
    TimerId id = eq.scheduleTimer(100, [&] { ++fired; });
    eq.schedule(300, [&] { ++fired; });
    eq.cancelTimer(id);
    eq.runUntil(200);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 200u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(Timers, ClearResetsTimerState)
{
    EventQueue eq;
    TimerId id = eq.scheduleTimer(100, [] {});
    eq.clear();
    EXPECT_FALSE(eq.timerPending(id));
    EXPECT_FALSE(eq.cancelTimer(id));
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(Ticks, UnitConversions)
{
    EXPECT_EQ(kNanosecond, 1000u);
    EXPECT_EQ(kMicrosecond, 1000u * 1000u);
    EXPECT_DOUBLE_EQ(ticksToNs(1500), 1.5);
    EXPECT_DOUBLE_EQ(ticksToUs(2 * kMicrosecond), 2.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSecond), 1.0);
    // A 2 GHz core cycle is 500 ps.
    EXPECT_EQ(cyclePeriod(2'000'000'000ull), 500u);
}

TEST(Timers, StaleHandleAfterSlotReuseIsRejected)
{
    EventQueue eq;
    int fired = 0;
    TimerId a = eq.scheduleTimer(10, [&] { ++fired; });
    eq.run(); // a fires; its slot is recycled with a bumped generation
    TimerId b = eq.scheduleTimer(20, [&] { ++fired; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(eq.timerPending(a));
    EXPECT_FALSE(eq.cancelTimer(a)); // must not hit b's slot
    EXPECT_TRUE(eq.timerPending(b));
    eq.run();
    EXPECT_EQ(fired, 2);
}

namespace {

/** Self-driving churn: every tick schedules fresh timers and cancels a
 *  random pending one, exercising slot reuse and generation tags under
 *  thousands of cancel/reschedule cycles. */
struct TimerChurn
{
    explicit TimerChurn(EventQueue &q) : eq(q) {}

    void
    step()
    {
        if (++rounds > kRounds)
            return;
        for (int k = 0; k < 2; ++k) {
            ++scheduled;
            live.push_back(eq.scheduleTimerIn(
                1 + state() % 50, [this] { ++fired; }));
        }
        if (!live.empty() && state() % 2 == 0) {
            std::size_t j = state() % live.size();
            if (eq.cancelTimer(live[j]))
                ++cancelledOk;
            live.erase(live.begin() + j);
        }
        eq.scheduleIn(1, [this] { step(); });
    }

    /** Deterministic splitmix-driven choice stream. */
    std::uint64_t state() { return rngState = splitmix64(rngState); }

    static constexpr int kRounds = 3000;
    EventQueue &eq;
    std::vector<TimerId> live;
    std::uint64_t rngState = 0x1234;
    std::uint64_t scheduled = 0, cancelledOk = 0, fired = 0;
    int rounds = 0;
};

} // namespace

TEST(Timers, CancelRescheduleStress)
{
    EventQueue eq;
    TimerChurn churn(eq);
    eq.scheduleIn(0, [&churn] { churn.step(); });
    eq.run();
    EXPECT_EQ(churn.scheduled, 2u * TimerChurn::kRounds);
    // Every scheduled timer either fired or was successfully cancelled
    // while still pending — never both, never neither.
    EXPECT_EQ(churn.fired + churn.cancelledOk, churn.scheduled);
    EXPECT_GT(churn.cancelledOk, 0u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

// --------------------------------------------------------------------------
// Calendar-queue structure: same interface, same observable order.
// --------------------------------------------------------------------------

namespace {

/**
 * Independent reference scheduler: a std::set of (when, seq) keys and
 * a map from key to payload, with the EventQueue's seq allocation,
 * timer-cancel and consumeIfNext() rules restated in the plainest
 * form. It shares no code with either backend.
 */
class RefQueue
{
  public:
    Tick now() const { return _now; }
    std::uint64_t executedEvents() const { return executed; }
    std::uint64_t allocSeq() { return nextSeq++; }

    void
    schedule(Tick when, std::function<void()> fn)
    {
        schedulePinned(when, nextSeq++, std::move(fn));
    }

    void
    schedulePinned(Tick when, std::uint64_t seq, std::function<void()> fn)
    {
        keys.emplace(when, seq);
        payload[{when, seq}] = {std::move(fn), 0};
    }

    TimerId
    scheduleTimer(Tick when, std::function<void()> fn)
    {
        live.push_back(true);
        std::pair<Tick, std::uint64_t> key{when, nextSeq++};
        keys.insert(key);
        payload[key] = {std::move(fn), live.size()};
        return live.size();
    }

    bool
    cancelTimer(TimerId id)
    {
        bool was = live[id - 1];
        live[id - 1] = false;
        return was;
    }

    bool
    consumeIfNext(Tick when, std::uint64_t seq)
    {
        dropCancelledHead();
        if (!keys.empty() &&
            !(std::make_pair(when, seq) < *keys.begin()))
            return false;
        _now = when;
        ++executed;
        return true;
    }

    void
    run()
    {
        for (dropCancelledHead(); !keys.empty(); dropCancelledHead()) {
            auto key = *keys.begin();
            keys.erase(keys.begin());
            Entry e = std::move(payload[key]);
            payload.erase(key);
            if (e.timer != 0)
                live[e.timer - 1] = false;
            _now = key.first;
            ++executed;
            e.fn();
        }
    }

  private:
    struct Entry
    {
        std::function<void()> fn;
        std::size_t timer; ///< 1-based index into live; 0 = plain
    };

    void
    dropCancelledHead()
    {
        while (!keys.empty()) {
            const Entry &e = payload[*keys.begin()];
            if (e.timer == 0 || live[e.timer - 1])
                return;
            payload.erase(*keys.begin());
            keys.erase(keys.begin());
        }
    }

    std::set<std::pair<Tick, std::uint64_t>> keys;
    std::map<std::pair<Tick, std::uint64_t>, Entry> payload;
    std::vector<bool> live;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
};

/**
 * Self-driving random workload over any queue with the EventQueue
 * interface: every fired event may schedule plain events (often on the
 * same tick), timers, cancels of earlier timers, pinned events under
 * seqs reserved before other schedules, and doorbell-style
 * consumeIfNext() attempts. All choices come from one splitmix stream,
 * so two queues that pop in the same order produce the same log.
 */
template <typename Q>
struct RandomDriver
{
    /** (now, event id, what): 0 fired, 1 consumed inline, 2/3 a
     *  cancel that failed/succeeded. */
    using Log = std::vector<std::tuple<Tick, int, int>>;

    Q q;
    Log log;
    std::vector<TimerId> timers;
    std::uint64_t rng;
    int budget;
    int nextId = 0;

    RandomDriver(std::uint64_t seed, int initial)
        : rng(seed), budget(2 * initial + 200)
    {
        for (int i = 0; i < initial; ++i)
            q.schedule(1 + draw(997), event());
    }

    std::uint64_t draw(std::uint64_t n) { return (rng = splitmix64(rng)) % n; }

    /** Mostly short gaps so same-tick FIFO ties are common. */
    Tick
    gap()
    {
        switch (draw(4)) {
          case 0: return 0;
          case 1: return draw(4);
          default: return draw(500);
        }
    }

    std::function<void()>
    event()
    {
        int id = nextId++;
        return [this, id] {
            log.emplace_back(q.now(), id, 0);
            act();
        };
    }

    void
    act()
    {
        for (std::uint64_t k = draw(3); k > 0 && budget > 0; --k, --budget) {
            Tick when = q.now() + gap();
            switch (draw(8)) {
              case 4:
                timers.push_back(q.scheduleTimer(when, event()));
                break;
              case 5:
                if (!timers.empty()) {
                    bool ok = q.cancelTimer(timers[draw(timers.size())]);
                    log.emplace_back(q.now(), -1, ok ? 3 : 2);
                }
                break;
              case 6: {
                // Reserve, let a later seq in first, then materialize.
                std::uint64_t seq = q.allocSeq();
                q.schedule(when, event());
                q.schedulePinned(when, seq, event());
                break;
              }
              case 7: {
                std::uint64_t seq = q.allocSeq();
                if (q.consumeIfNext(when, seq)) {
                    log.emplace_back(q.now(), nextId++, 1);
                    act();
                } else {
                    q.schedulePinned(when, seq, event());
                }
                break;
              }
              default:
                q.schedule(when, event());
            }
        }
    }
};

template <typename Q>
std::pair<typename RandomDriver<Q>::Log, std::uint64_t>
driveRandom(std::uint64_t seed, int initial)
{
    RandomDriver<Q> d(seed, initial);
    d.q.run();
    return {d.log, d.q.executedEvents()};
}

struct HeapBackend : EventQueue
{
    HeapBackend() : EventQueue(QueueImpl::BinaryHeap) {}
};

struct CalendarBackend : EventQueue
{
    CalendarBackend() : EventQueue(QueueImpl::CalendarQueue) {}
};

} // namespace

TEST(CalendarQueue, MatchesHeapOrderRandomized)
{
    // Drive both structures with an identical deterministic schedule —
    // clustered deadlines, same-tick collisions, events scheduling
    // events — and require the execution orders to match exactly.
    auto trace = [](QueueImpl impl) {
        EventQueue eq(impl);
        std::vector<std::pair<Tick, int>> order;
        std::uint64_t rng = 0xddf0;
        for (int i = 0; i < 500; ++i) {
            rng = splitmix64(rng);
            Tick when = 1 + rng % 997;
            eq.schedule(when, [&order, &eq, i] {
                order.emplace_back(eq.now(), i);
            });
        }
        // A second wave scheduled from inside events, landing relative
        // to the running event's time (exercises mid-run inserts after
        // the service position has advanced).
        eq.schedule(500, [&eq, &order, &rng] {
            for (int i = 1000; i < 1100; ++i) {
                rng = splitmix64(rng);
                eq.scheduleIn(1 + rng % 800, [&order, &eq, i] {
                    order.emplace_back(eq.now(), i);
                });
            }
        });
        eq.run();
        return order;
    };
    auto heap = trace(QueueImpl::BinaryHeap);
    auto cal = trace(QueueImpl::CalendarQueue);
    ASSERT_EQ(heap.size(), cal.size());
    EXPECT_EQ(heap, cal);

    // Both backends against the std::set reference. Starting sizes
    // cover every residue mod 4 (the heap's partial bottom family)
    // and runs that grow past five 4-ary levels (1 + 4 + 16 + 64 +
    // 256 = 341 entries); each run drains through every smaller size.
    for (int initial : {1, 2, 3, 4, 5, 6, 7, 8, 85, 86, 87, 88, 342, 2000}) {
        SCOPED_TRACE("initial " + std::to_string(initial));
        std::uint64_t seed = 0x5eed0000u + static_cast<unsigned>(initial);
        auto ref = driveRandom<RefQueue>(seed, initial);
        ASSERT_GE(ref.first.size(), static_cast<std::size_t>(initial));
        EXPECT_TRUE(driveRandom<HeapBackend>(seed, initial) == ref);
        EXPECT_TRUE(driveRandom<CalendarBackend>(seed, initial) == ref);
    }
}

TEST(CalendarQueue, TimerChurnStress)
{
    // The same self-driving cancel/reschedule stress the heap runs,
    // on the calendar structure: cancelled timers must never fire and
    // slot generations must stay coherent across bucket resizes.
    EventQueue eq(QueueImpl::CalendarQueue);
    TimerChurn churn(eq);
    eq.scheduleIn(0, [&churn] { churn.step(); });
    eq.run();
    EXPECT_EQ(churn.scheduled, 2u * TimerChurn::kRounds);
    EXPECT_EQ(churn.fired + churn.cancelledOk, churn.scheduled);
    EXPECT_GT(churn.cancelledOk, 0u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(CalendarQueue, GrowShrinkKeepsOrder)
{
    // Fill far past the initial 16 buckets (several grow resizes),
    // then drain to empty (shrink resizes); order must stay
    // non-decreasing and nothing may be lost.
    EventQueue eq(QueueImpl::CalendarQueue);
    std::uint64_t rng = 7;
    int fired = 0;
    Tick last = 0;
    for (int i = 0; i < 5000; ++i) {
        rng = splitmix64(rng);
        eq.schedule(1 + rng % 100000, [&] {
            EXPECT_GE(eq.now(), last);
            last = eq.now();
            ++fired;
        });
    }
    eq.run();
    EXPECT_EQ(fired, 5000);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(CalendarQueue, ClearResetsAndStaysUsable)
{
    EventQueue eq(QueueImpl::CalendarQueue);
    for (int i = 0; i < 100; ++i)
        eq.schedule(10 + i, [] { FAIL() << "cleared event fired"; });
    eq.clear();
    EXPECT_EQ(eq.pendingEvents(), 0u);
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(CalendarQueue, RunUntilStopsAtLimit)
{
    EventQueue eq(QueueImpl::CalendarQueue);
    std::vector<Tick> seen;
    for (Tick t : {10u, 20u, 30u, 40u})
        eq.schedule(t, [&] { seen.push_back(eq.now()); });
    eq.runUntil(25);
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.now(), 25u);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20, 30, 40}));
}

// --------------------------------------------------------------------------
// Pinned scheduling + consumeIfNext: the doorbell-ring contract.
// --------------------------------------------------------------------------

TEST(PinnedSchedule, ReservedSeqKeepsFifoPosition)
{
    // Reserve a same-tick FIFO slot early, materialize it late: the
    // pinned event must still run in its reserved position.
    EventQueue eq;
    std::vector<int> order;
    std::uint64_t s = eq.allocSeq();
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedulePinned(10, s, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ConsumeIfNext, AcceptsWhenReservedKeyIsNext)
{
    EventQueue eq;
    bool accepted = false;
    std::uint64_t s = eq.allocSeq();
    eq.schedule(10, [&] {
        // Nothing else pending: the reserved (12, s) key is the front
        // of simulated time, so the caller may run it inline.
        accepted = eq.consumeIfNext(12, s);
        EXPECT_EQ(eq.now(), 12u);
    });
    eq.run();
    EXPECT_TRUE(accepted);
    // The consumed slot counts as an executed event (parity with the
    // unbatched schedule-then-pop path).
    EXPECT_EQ(eq.executedEvents(), 2u);
}

TEST(ConsumeIfNext, RefusesWhenAnotherEventIsEarlier)
{
    EventQueue eq;
    int laterFired = 0;
    eq.schedule(15, [&] { ++laterFired; });
    std::uint64_t s = eq.allocSeq();
    eq.schedule(10, [&] {
        // An event at 15 with an older seq beats both candidate keys.
        EXPECT_FALSE(eq.consumeIfNext(20, s));
        EXPECT_FALSE(eq.consumeIfNext(15, s));
        EXPECT_EQ(eq.now(), 10u);
        // ...but a strictly earlier candidate wins.
        EXPECT_TRUE(eq.consumeIfNext(14, s));
        EXPECT_EQ(eq.now(), 14u);
    });
    eq.run();
    EXPECT_EQ(laterFired, 1);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(ConsumeIfNext, RefusesBeyondRunUntilHorizon)
{
    // A drain loop must not swallow a message past the runUntil()
    // limit: the measurement window boundary has to preempt it just
    // as it preempts a scheduled event.
    EventQueue eq;
    std::uint64_t s = eq.allocSeq();
    bool consumed = true;
    eq.schedule(10, [&] { consumed = eq.consumeIfNext(12, s); });
    eq.runUntil(11);
    EXPECT_FALSE(consumed);
    EXPECT_EQ(eq.now(), 11u);
    EXPECT_EQ(eq.executedEvents(), 1u);
    // Outside runUntil() the same key is consumable again.
    eq.schedule(11, [&] { consumed = eq.consumeIfNext(12, s); });
    eq.run();
    EXPECT_TRUE(consumed);
}

TEST(ConsumeIfNext, CancelledHeadTimerDoesNotBlock)
{
    EventQueue eq;
    TimerId t = eq.scheduleTimer(12, [] { FAIL() << "cancelled"; });
    std::uint64_t s = eq.allocSeq();
    bool accepted = false;
    eq.schedule(10, [&] {
        eq.cancelTimer(t);
        // The cancelled timer at 12 never fires and never advances
        // time, so it must not veto a candidate behind it.
        accepted = eq.consumeIfNext(13, s);
    });
    eq.run();
    EXPECT_TRUE(accepted);
}

TEST(ConsumeIfNext, WorksOnCalendarQueue)
{
    EventQueue eq(QueueImpl::CalendarQueue);
    int laterFired = 0;
    eq.schedule(15, [&] { ++laterFired; });
    std::uint64_t s = eq.allocSeq();
    eq.schedule(10, [&] {
        EXPECT_FALSE(eq.consumeIfNext(15, s));
        EXPECT_TRUE(eq.consumeIfNext(14, s));
        EXPECT_EQ(eq.now(), 14u);
    });
    eq.run();
    EXPECT_EQ(laterFired, 1);
}
