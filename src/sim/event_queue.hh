/**
 * @file
 * Deterministic discrete-event queue.
 *
 * All simulation activity in DDPSim is driven by a single EventQueue.
 * Events scheduled for the same tick are executed in the order they were
 * scheduled (FIFO tie-break via a monotonically increasing sequence
 * number), which makes entire cluster simulations bit-reproducible for a
 * given RNG seed.
 *
 * Hot-path design notes:
 *  - callbacks are InlineFn, so typical closures (this + a few scalars)
 *    live inside the event slab instead of costing a malloc per event;
 *  - the priority queue is indirect: callbacks are parked in a
 *    free-listed slab and the scheduler structure sifts only trivially
 *    copyable 24-byte (when, seq, slot) keys. The slab is chunked, so
 *    cells never move: a callback is moved once, into its cell, and
 *    runs there;
 *  - two interchangeable scheduler structures sit behind the same
 *    interface, chosen at construction time (QueueImpl):
 *      * a hand-written 4-ary min-heap over a std::vector — O(log n)
 *        with half the levels of a binary heap, a branch-free key
 *        compare and hole-based sifts (DESIGN.md decision 19); best at
 *        the low-thousands occupancy cluster runs see;
 *      * a Brown calendar queue — O(1) amortized enqueue/dequeue, best
 *        once tens of thousands of events are pending (see DESIGN.md
 *        decision 15 for the measured crossover). Both structures order
 *        strictly by the unique (when, seq) key, so which one runs is
 *        unobservable to the simulation: identical seeds give identical
 *        results under either.
 *  - cancellable timers use generation-tagged slots — cancel, fire and
 *    pending-checks are O(1) array lookups, with no per-event hash-set
 *    traffic.
 *
 * For batched delivery (net/fabric's doorbell rings), allocSeq() +
 * schedulePinned() let a caller reserve an event's FIFO position at
 * enqueue time and materialize the event later under that exact
 * (when, seq) key — the mechanism that keeps coalesced drains
 * bit-identical to one-event-per-message scheduling.
 */

#ifndef DDP_SIM_EVENT_QUEUE_HH
#define DDP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/ticks.hh"

namespace ddp::sim {

/** Callback type executed when an event fires. */
using EventFn = InlineFn;

/**
 * Handle of a cancellable timer; 0 is "no timer". Packs a slot index
 * (low 32 bits, biased by 1) and that slot's generation (high 32 bits),
 * so stale handles from fired or cancelled timers are rejected in O(1).
 */
using TimerId = std::uint64_t;

/** The null TimerId. */
constexpr TimerId kNoTimer = 0;

/** Scheduler structure behind the EventQueue interface. */
enum class QueueImpl : std::uint8_t
{
    /** Indirect 4-ary min-heap. The enumerator (and its JSON name
     *  "binary_heap") predates the switch from a binary to a 4-ary
     *  heap and is kept so configs and records stay comparable. */
    BinaryHeap,
    /** Brown calendar queue: O(1) amortized at high occupancy. */
    CalendarQueue,
};

/** Stable lowercase name, e.g. for JSON fields ("binary_heap"). */
const char *queueImplName(QueueImpl impl);

/**
 * A deterministic discrete-event queue.
 *
 * Usage: schedule callbacks at absolute ticks (or with scheduleIn() at an
 * offset from now()), then drive the simulation with run(), runUntil(),
 * or step().
 */
class EventQueue
{
  public:
    explicit EventQueue(QueueImpl impl = QueueImpl::BinaryHeap);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Scheduler structure selected at construction. */
    QueueImpl impl() const { return _impl; }

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events waiting to fire (cancelled timers excluded). */
    std::size_t pendingEvents() const
    {
        return storedEvents() - cancelledPending;
    }

    /** Total number of events executed so far. */
    std::uint64_t executedEvents() const { return executed; }

    /** High-water mark of pendingEvents(), sampled at every push. */
    std::size_t peakPendingEvents() const { return peakPending; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * Scheduling in the past is a programming error and asserts.
     */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void scheduleIn(Tick delay, EventFn fn) { schedule(_now + delay, std::move(fn)); }

    /**
     * Reserve the FIFO position the *next* schedule() call would get,
     * without scheduling anything. The returned sequence number can be
     * handed to schedulePinned() later — possibly after other events
     * were scheduled — to enqueue an event that fires exactly where a
     * schedule() call at reservation time would have.
     */
    std::uint64_t allocSeq() { return nextSeq++; }

    /**
     * Schedule @p fn under the exact key (@p when, @p seq), where
     * @p seq came from allocSeq(). The caller must not schedule two
     * pending events under the same sequence number; @p when must obey
     * the same not-in-the-past rule as schedule().
     */
    void schedulePinned(Tick when, std::uint64_t seq, EventFn fn);

    /**
     * Batched-execution hook, callable only from inside a running
     * event: if the reserved key (@p when, @p seq) sorts before every
     * pending event — i.e. it is exactly what the scheduler would pop
     * next — consume it: advance now() to @p when, count one executed
     * event, and return true so the caller performs the corresponding
     * work inline. Returns false (and changes nothing) otherwise, or
     * when @p when lies beyond the active runUntil() limit.
     *
     * This is what keeps doorbell-coalesced delivery bit-identical to
     * one-event-per-message scheduling: a drain may only swallow its
     * ring's next entry when no other event could have interleaved.
     * The caller must guarantee any *other* not-yet-materialized work
     * is bounded below by some pending event (net/fabric: every ring's
     * head is always materialized as its armed drain).
     */
    bool consumeIfNext(Tick when, std::uint64_t seq);

    /**
     * Schedule a *cancellable* timer firing at absolute time @p when.
     * The returned handle can be passed to cancelTimer() any time
     * before the timer fires. Timers obey the same deterministic
     * FIFO-per-tick ordering as plain events; cancellation leaves the
     * stored entry in place but skips it (and does not advance time for
     * it) when it reaches the front.
     */
    TimerId scheduleTimer(Tick when, EventFn fn);

    /** Schedule a cancellable timer @p delay ticks from now. */
    TimerId
    scheduleTimerIn(Tick delay, EventFn fn)
    {
        return scheduleTimer(_now + delay, std::move(fn));
    }

    /**
     * Cancel a pending timer.
     * @return true if the timer was still pending and is now cancelled;
     *         false if it already fired, was already cancelled, or the
     *         handle is kNoTimer / unknown.
     */
    bool cancelTimer(TimerId id);

    /** True while @p id names a timer that has not fired or been
     *  cancelled. */
    bool
    timerPending(TimerId id) const
    {
        if (id == kNoTimer)
            return false;
        std::uint32_t slot = slotOf(id);
        return slot < timerSlots.size() &&
               timerSlots[slot].gen == genOf(id) && timerSlots[slot].live;
    }

    /**
     * Execute the next event, advancing time to its timestamp.
     * @return true if an event was executed, false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run until simulated time would exceed @p limit or the queue drains.
     * Events scheduled exactly at @p limit are executed. Afterwards, if
     * the queue is non-empty, now() is clamped to @p limit.
     */
    void runUntil(Tick limit);

    /** Drop every pending event (used to tear down experiments). Not
     *  callable from inside a running event. */
    void clear();

  private:
    /** Scheduler key: trivially copyable, so sifting never touches the
     *  callback slab. @c slot indexes the event slab. */
    struct HeapItem
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Slab cell holding one pending event's payload. It stays at the
     *  same address from schedule until its callback has returned. */
    struct EventSlot
    {
        TimerId timer = kNoTimer;
        EventFn fn;
    };

    /**
     * One cancellable timer's bookkeeping. The slot is allocated when
     * the timer is scheduled and retired (generation bumped, index
     * recycled) when its stored entry surfaces — whether it fires or
     * was cancelled in the meantime.
     */
    struct TimerSlot
    {
        std::uint32_t gen = 0;
        bool live = false;
    };

    /**
     * Strict total event order: (when, seq), seqs unique. Evaluated
     * without short-circuiting, so heapPop() can fold the result into
     * index arithmetic instead of a data-dependent branch.
     */
    static bool
    keyBefore(const HeapItem &a, const HeapItem &b)
    {
        return (a.when < b.when) |
               ((a.when == b.when) & (a.seq < b.seq));
    }

    static std::uint32_t
    slotOf(TimerId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
    }

    static std::uint32_t
    genOf(TimerId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    void pushEvent(Tick when, std::uint64_t seq, TimerId timer,
                   EventFn &&fn);
    /** Earliest pending entry, or nullptr when empty. Stable until the
     *  next push/pop. */
    const HeapItem *peekItem();
    HeapItem popItem();
    /** Pop the front entry, which must be live, and run it. */
    void fireNext();
    EventSlot &
    slotAt(std::uint32_t slot)
    {
        return slotChunks[slot >> kSlotChunkLg][slot & (kSlotChunk - 1)];
    }
    std::size_t
    storedEvents() const
    {
        return _impl == QueueImpl::BinaryHeap ? events.size() : calSize;
    }
    /** Bump the slot's generation and recycle its index. */
    void retireTimer(TimerId id);
    /** Pop cancelled timer entries off the front of the queue. */
    void purgeCancelled();

    // --- 4-ary heap backend (QueueImpl::BinaryHeap) -----------------------
    void heapPush(const HeapItem &item);
    HeapItem heapPop();

    // --- Calendar-queue backend (QueueImpl::CalendarQueue) -----------------
    std::size_t calBucketOf(Tick when) const;
    void calInsert(const HeapItem &item, bool may_resize);
    /** Locate the minimum entry's bucket into calCachedBucket. */
    void calFindMin();
    void calResize(std::size_t nbuckets);
    /** New bucket width from the spacing of the soonest entries. */
    Tick calNewWidth(std::vector<HeapItem> &all) const;
    /** Re-anchor the service position at or before every stored key. */
    void calAnchor();

    QueueImpl _impl;
    /** 4-ary heap storage: the children of index i are 4i+1 .. 4i+4. */
    std::vector<HeapItem> events;
    /** Event slab: fixed-size chunks, so cells never relocate. */
    std::vector<std::unique_ptr<EventSlot[]>> slotChunks;
    std::uint32_t slotCount = 0;
    std::vector<std::uint32_t> freeEventSlots;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    std::size_t peakPending = 0;
    /** Horizon of the active runUntil() (kTickNever outside one):
     *  consumeIfNext() must not advance time past it, or batched
     *  drains would overrun a measurement-window boundary that
     *  one-event-per-message scheduling respects. */
    Tick runLimit = kTickNever;

    std::vector<TimerSlot> timerSlots;
    std::vector<std::uint32_t> freeTimerSlots;
    std::size_t cancelledPending = 0;

    /**
     * Calendar storage: bucket b holds keys with (when / calWidth) mod
     * nbuckets == b, each bucket sorted *descending* by (when, seq) so
     * the bucket minimum is back() and removal is pop_back(). The
     * service position (calLast, calTop) advances day by day exactly as
     * in Brown's algorithm, but only commits on pops; peeks cache the
     * found minimum in calCachedBucket instead, so inserting an
     * earlier event between a peek and its pop can never strand the
     * scan past it.
     */
    std::vector<std::vector<HeapItem>> calBuckets;
    std::size_t calSize = 0;
    Tick calWidth = 0;
    std::size_t calLast = 0;
    Tick calTop = 0;
    /** Bucket whose back() is the current minimum; SIZE_MAX = unknown. */
    std::size_t calCachedBucket = kNoBucket;

    static constexpr std::uint32_t kSlotChunkLg = 8;
    static constexpr std::uint32_t kSlotChunk = 1u << kSlotChunkLg;
    static constexpr std::size_t kNoBucket = ~std::size_t(0);
    static constexpr std::size_t kMinBuckets = 16;
    static constexpr Tick kInitialWidth = 4 * kNanosecond;
};

} // namespace ddp::sim

#endif // DDP_SIM_EVENT_QUEUE_HH
