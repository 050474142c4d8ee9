#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ddp::sim {

const char *
queueImplName(QueueImpl impl)
{
    switch (impl) {
      case QueueImpl::BinaryHeap: return "binary_heap";
      case QueueImpl::CalendarQueue: return "calendar";
    }
    return "unknown";
}

EventQueue::EventQueue(QueueImpl impl) : _impl(impl)
{
    if (_impl == QueueImpl::CalendarQueue) {
        calWidth = kInitialWidth;
        calBuckets.resize(kMinBuckets);
        calTop = calWidth;
    }
}

// --------------------------------------------------------------------------
// Calendar-queue backend
// --------------------------------------------------------------------------

std::size_t
EventQueue::calBucketOf(Tick when) const
{
    return static_cast<std::size_t>((when / calWidth) %
                                    calBuckets.size());
}

void
EventQueue::calInsert(const HeapItem &item, bool may_resize)
{
    std::size_t idx = calBucketOf(item.when);
    std::vector<HeapItem> &b = calBuckets[idx];
    // Descending by (when, seq): the bucket minimum stays at back().
    auto pos = std::lower_bound(
        b.begin(), b.end(), item,
        [](const HeapItem &x, const HeapItem &y) {
            return keyBefore(y, x);
        });
    b.insert(pos, item);
    ++calSize;
    if (calCachedBucket != kNoBucket &&
        keyBefore(item, calBuckets[calCachedBucket].back()))
        calCachedBucket = idx;
    if (may_resize && calSize > 2 * calBuckets.size())
        calResize(calBuckets.size() * 2);
}

void
EventQueue::calFindMin()
{
    assert(calSize > 0);
    // Brown's dequeue scan: walk buckets from the service position, one
    // simulated "day" (bucket width) per step. The first bucket whose
    // minimum falls inside its current day holds the global minimum —
    // any smaller key would share that day and therefore that bucket.
    std::size_t n = calBuckets.size();
    std::size_t i = calLast;
    Tick top = calTop;
    for (std::size_t steps = 0; steps < n; ++steps) {
        const std::vector<HeapItem> &b = calBuckets[i];
        if (!b.empty() && b.back().when < top) {
            calCachedBucket = i;
            return;
        }
        i = i + 1 < n ? i + 1 : 0;
        top += calWidth;
    }
    // Nothing within a full year: direct search over the bucket minima
    // (each bucket's minimum is its back(), so this is O(nbuckets)).
    std::size_t best = kNoBucket;
    for (std::size_t j = 0; j < n; ++j) {
        if (calBuckets[j].empty())
            continue;
        if (best == kNoBucket ||
            keyBefore(calBuckets[j].back(), calBuckets[best].back()))
            best = j;
    }
    assert(best != kNoBucket);
    calCachedBucket = best;
}

Tick
EventQueue::calNewWidth(std::vector<HeapItem> &all) const
{
    if (all.size() < 2)
        return calWidth;
    // Brown's width estimate: average spacing of the soonest entries,
    // times a small factor so a day holds a couple of events. Sampling
    // only the head makes one far-future outlier (a recovery timer, a
    // runUntil sentinel) unable to blow the width up. The factor was
    // tuned on the hold-model sweep (bench_sim_hotpath
    // --occupancy-sweep): 2x beats 4x at every occupancy — narrower
    // days keep the sorted-bucket insert scans shorter, and the
    // dequeue walk over the extra empty days is cheaper than those
    // scans.
    std::size_t sample = std::min<std::size_t>(all.size(), 32);
    std::partial_sort(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(sample),
                      all.end(), keyBefore);
    Tick span = all[sample - 1].when - all[0].when;
    Tick avg = span / static_cast<Tick>(sample - 1);
    Tick width = 2 * avg;
    return width > 0 ? width : Tick(1);
}

void
EventQueue::calAnchor()
{
    if (calSize == 0) {
        calLast = calBucketOf(_now);
        calTop = (_now / calWidth + 1) * calWidth;
        calCachedBucket = kNoBucket;
        return;
    }
    // Anchor on the stored minimum so the scan invariant — every stored
    // key lies at or beyond the service day — holds by construction.
    std::size_t best = kNoBucket;
    for (std::size_t j = 0; j < calBuckets.size(); ++j) {
        if (calBuckets[j].empty())
            continue;
        if (best == kNoBucket ||
            keyBefore(calBuckets[j].back(), calBuckets[best].back()))
            best = j;
    }
    assert(best != kNoBucket);
    calLast = best;
    calTop = (calBuckets[best].back().when / calWidth + 1) * calWidth;
    calCachedBucket = best;
}

void
EventQueue::calResize(std::size_t nbuckets)
{
    std::vector<HeapItem> all;
    all.reserve(calSize);
    for (std::vector<HeapItem> &b : calBuckets)
        for (const HeapItem &it : b)
            all.push_back(it);
    calWidth = calNewWidth(all);
    calBuckets.assign(nbuckets, {});
    calSize = 0;
    calCachedBucket = kNoBucket;
    for (const HeapItem &it : all)
        calInsert(it, /*may_resize=*/false);
    calAnchor();
}

// --------------------------------------------------------------------------
// 4-ary heap backend
// --------------------------------------------------------------------------
//
// Both sifts move a "hole" instead of swapping: each level costs one
// 24-byte copy, and the sifted key is written once at the end.

void
EventQueue::heapPush(const HeapItem &item)
{
    std::size_t hole = events.size();
    events.push_back(item);
    HeapItem *h = events.data();
    while (hole > 0) {
        std::size_t parent = (hole - 1) / 4;
        if (!keyBefore(item, h[parent]))
            break;
        h[hole] = h[parent];
        hole = parent;
    }
    h[hole] = item;
}

EventQueue::HeapItem
EventQueue::heapPop()
{
    HeapItem *h = events.data();
    HeapItem top = h[0];
    HeapItem last = events.back();
    events.pop_back();
    std::size_t n = events.size();
    if (n == 0)
        return top;
    std::size_t hole = 0;
    for (;;) {
        std::size_t c = 4 * hole + 1;
        std::size_t m;
        if (c + 3 < n) {
            // Full family: the smallest of four as a min of two pairs.
            // Each pick is index arithmetic on a compare result, never
            // a jump: which child wins is a coin flip to a predictor.
            std::size_t a = c + keyBefore(h[c + 1], h[c]);
            std::size_t b = c + 2 + keyBefore(h[c + 3], h[c + 2]);
            m = a + ((b - a) & (std::size_t(0) - keyBefore(h[b], h[a])));
        } else if (c < n) {
            // The one partial family at the bottom edge.
            m = c;
            for (std::size_t k = c + 1; k < n; ++k)
                if (keyBefore(h[k], h[m]))
                    m = k;
        } else {
            break;
        }
        if (!keyBefore(h[m], last))
            break;
        h[hole] = h[m];
        hole = m;
    }
    h[hole] = last;
    return top;
}

// --------------------------------------------------------------------------
// Common scheduling paths
// --------------------------------------------------------------------------

void
EventQueue::pushEvent(Tick when, std::uint64_t seq, TimerId timer,
                      EventFn &&fn)
{
    std::uint32_t slot;
    if (!freeEventSlots.empty()) {
        slot = freeEventSlots.back();
        freeEventSlots.pop_back();
    } else {
        slot = slotCount++;
        if ((slot >> kSlotChunkLg) == slotChunks.size())
            slotChunks.push_back(std::make_unique<EventSlot[]>(kSlotChunk));
    }
    EventSlot &cell = slotAt(slot);
    cell.timer = timer;
    cell.fn = std::move(fn);
    HeapItem item{when, seq, slot};
    if (_impl == QueueImpl::BinaryHeap)
        heapPush(item);
    else
        calInsert(item, /*may_resize=*/true);
    peakPending = std::max(peakPending, pendingEvents());
}

const EventQueue::HeapItem *
EventQueue::peekItem()
{
    if (_impl == QueueImpl::BinaryHeap)
        return events.empty() ? nullptr : &events.front();
    if (calSize == 0)
        return nullptr;
    if (calCachedBucket == kNoBucket)
        calFindMin();
    return &calBuckets[calCachedBucket].back();
}

EventQueue::HeapItem
EventQueue::popItem()
{
    if (_impl == QueueImpl::BinaryHeap)
        return heapPop();
    if (calCachedBucket == kNoBucket)
        calFindMin();
    std::vector<HeapItem> &b = calBuckets[calCachedBucket];
    HeapItem item = b.back();
    b.pop_back();
    --calSize;
    // Commit the service position: the next scan starts at the day this
    // key fired in. Inserts can never land before it (no scheduling in
    // the past), so the scan never needs to move backwards.
    calLast = calCachedBucket;
    calTop = (item.when / calWidth + 1) * calWidth;
    calCachedBucket = kNoBucket;
    if (calBuckets.size() > kMinBuckets &&
        calSize < calBuckets.size() / 2)
        calResize(calBuckets.size() / 2);
    return item;
}

void
EventQueue::schedule(Tick when, EventFn fn)
{
    assert(when >= _now && "cannot schedule an event in the past");
    pushEvent(when, nextSeq++, kNoTimer, std::move(fn));
}

void
EventQueue::schedulePinned(Tick when, std::uint64_t seq, EventFn fn)
{
    assert(when >= _now && "cannot schedule an event in the past");
    assert(seq < nextSeq && "pinned seq must come from allocSeq()");
    pushEvent(when, seq, kNoTimer, std::move(fn));
}

bool
EventQueue::consumeIfNext(Tick when, std::uint64_t seq)
{
    if (when > runLimit)
        return false;
    // Cancelled timers at the front never fire and never advance time,
    // so they must not block the comparison against the true next event.
    purgeCancelled();
    const HeapItem *top = peekItem();
    if (top != nullptr) {
        HeapItem probe{when, seq, 0};
        if (!keyBefore(probe, *top))
            return false;
    }
    assert(when >= _now);
    _now = when;
    ++executed;
    return true;
}

TimerId
EventQueue::scheduleTimer(Tick when, EventFn fn)
{
    assert(when >= _now && "cannot schedule a timer in the past");
    std::uint32_t slot;
    if (!freeTimerSlots.empty()) {
        slot = freeTimerSlots.back();
        freeTimerSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(timerSlots.size());
        timerSlots.emplace_back();
    }
    timerSlots[slot].live = true;
    TimerId id = (static_cast<TimerId>(timerSlots[slot].gen) << 32) |
                 (slot + 1);
    pushEvent(when, nextSeq++, id, std::move(fn));
    return id;
}

bool
EventQueue::cancelTimer(TimerId id)
{
    if (!timerPending(id))
        return false;
    timerSlots[slotOf(id)].live = false;
    ++cancelledPending;
    return true;
}

void
EventQueue::retireTimer(TimerId id)
{
    std::uint32_t slot = slotOf(id);
    assert(slot < timerSlots.size() && timerSlots[slot].gen == genOf(id));
    ++timerSlots[slot].gen;
    timerSlots[slot].live = false;
    freeTimerSlots.push_back(slot);
}

void
EventQueue::purgeCancelled()
{
    if (cancelledPending == 0)
        return;
    for (const HeapItem *top = peekItem(); top != nullptr;
         top = peekItem()) {
        TimerId timer = slotAt(top->slot).timer;
        if (timer == kNoTimer || timerPending(timer))
            return;
        HeapItem item = popItem();
        slotAt(item.slot).fn = EventFn(); // drop the callback
        freeEventSlots.push_back(item.slot);
        retireTimer(timer);
        assert(cancelledPending > 0);
        --cancelledPending;
    }
}

void
EventQueue::fireNext()
{
    HeapItem item = popItem();
    assert(item.when >= _now);
    _now = item.when;
    ++executed;
    EventSlot &cell = slotAt(item.slot);
    if (cell.timer != kNoTimer)
        retireTimer(cell.timer);
    // Run the callback in place. Its cell cannot move (chunked slab)
    // or be recycled (it joins the free list only afterwards), however
    // many events fn schedules.
    cell.fn();
    cell.fn = EventFn();
    freeEventSlots.push_back(item.slot);
}

bool
EventQueue::step()
{
    purgeCancelled();
    if (storedEvents() == 0)
        return false;
    fireNext();
    return true;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

void
EventQueue::runUntil(Tick limit)
{
    runLimit = limit;
    for (;;) {
        purgeCancelled();
        const HeapItem *top = peekItem();
        if (top == nullptr || top->when > limit)
            break;
        fireNext();
    }
    runLimit = kTickNever;
    if (_now < limit)
        _now = limit;
}

void
EventQueue::clear()
{
    events.clear();
    slotChunks.clear();
    slotCount = 0;
    freeEventSlots.clear();
    timerSlots.clear();
    freeTimerSlots.clear();
    cancelledPending = 0;
    if (_impl == QueueImpl::CalendarQueue) {
        calBuckets.assign(kMinBuckets, {});
        calSize = 0;
        calWidth = kInitialWidth;
        calCachedBucket = kNoBucket;
        calLast = calBucketOf(_now);
        calTop = (_now / calWidth + 1) * calWidth;
    }
}

} // namespace ddp::sim
