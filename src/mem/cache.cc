#include "mem/cache.hh"

#include <algorithm>
#include <cassert>

namespace ddp::mem {

namespace {

std::uint32_t
computeSets(std::uint64_t capacity, std::uint32_t ways, std::uint32_t line)
{
    std::uint64_t s = capacity / (static_cast<std::uint64_t>(ways) * line);
    assert(s > 0);
    return static_cast<std::uint32_t>(s);
}

} // namespace

SetAssocCache::SetAssocCache(std::uint64_t capacity_bytes,
                             std::uint32_t ways, std::uint32_t line_bytes,
                             std::uint32_t ddio_ways)
    : sets(computeSets(capacity_bytes, ways, line_bytes)),
      waysPerSet(ways),
      lineBytes(line_bytes),
      ddioWays(ddio_ways),
      setsMagic(~std::uint64_t{0} / sets + 1),
      setWays(sets, nullptr),
      chunkSets(std::min(kChunkSets, sets))
{
    assert(ddio_ways <= ways);
}

std::uint64_t
SetAssocCache::lineAddr(std::uint64_t addr) const
{
    return addr / lineBytes;
}

std::uint32_t
SetAssocCache::setOf(std::uint64_t line) const
{
    // Multiplicative hash so strided key layouts spread over sets.
    std::uint64_t h = line * 0x9e3779b97f4a7c15ULL;
    // (h >> 32) % sets without a division: Lemire's fastmod, exact for
    // every 32-bit dividend and divisor. The LLC's 40,960 sets are not
    // a power of two, so a mask would not do.
    std::uint64_t low = setsMagic * (h >> 32);
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(low) * sets) >> 64);
}

SetAssocCache::Lookup
SetAssocCache::locate(std::uint64_t addr) const
{
    std::uint64_t line = lineAddr(addr);
    return {line, setOf(line)};
}

SetAssocCache::Line *
SetAssocCache::find(const Lookup &at) const
{
    Line *base = setWays[at.set];
    if (base == nullptr)
        return nullptr; // untouched set: nothing to scan
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (base[w].valid() && base[w].tag == at.line)
            return &base[w];
    }
    return nullptr;
}

SetAssocCache::Line *
SetAssocCache::waysOf(std::uint32_t set)
{
    Line *base = setWays[set];
    if (base == nullptr) [[unlikely]]
        base = materialize(set);
    return base;
}

[[gnu::noinline]] SetAssocCache::Line *
SetAssocCache::materialize(std::uint32_t set)
{
    std::size_t chunk = setsInUse / chunkSets;
    if (chunk == chunks.size())
        chunks.push_back(std::make_unique<Line[]>(
            static_cast<std::size_t>(chunkSets) * waysPerSet));
    Line *block = chunks[chunk].get() +
                  (setsInUse % chunkSets) * static_cast<std::size_t>(waysPerSet);
    // A block reused after clear() still holds its old lines.
    std::fill(block, block + waysPerSet, Line{});
    ++setsInUse;
    setWays[set] = block;
    return block;
}

bool
SetAssocCache::access(std::uint64_t addr, Lookup &at)
{
    at = locate(addr);
    if (Line *l = find(at)) {
        l->lruStamp = ++stamp;
        ++hitCount;
        return true;
    }
    ++missCount;
    return false;
}

bool
SetAssocCache::access(std::uint64_t addr)
{
    Lookup at;
    return access(addr, at);
}

bool
SetAssocCache::contains(std::uint64_t addr) const
{
    return find(locate(addr)) != nullptr;
}

void
SetAssocCache::fill(const Lookup &at, std::uint32_t way_begin,
                    std::uint32_t way_end)
{
    Line *base = waysOf(at.set);
    // Prefer an invalid way in the allowed range, else evict LRU.
    Line *victim = nullptr;
    for (std::uint32_t w = way_begin; w < way_end; ++w) {
        if (!base[w].valid()) {
            victim = &base[w];
            break;
        }
        if (!victim || base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    assert(victim);
    victim->tag = at.line;
    victim->lruStamp = ++stamp;
}

void
SetAssocCache::fillMiss(const Lookup &at)
{
    fill(at, 0, waysPerSet);
}

void
SetAssocCache::installInRange(std::uint64_t addr, std::uint32_t way_begin,
                              std::uint32_t way_end)
{
    Lookup at = locate(addr);
    // Already present anywhere in the set: refresh LRU.
    if (Line *l = find(at)) {
        l->lruStamp = ++stamp;
        return;
    }
    fill(at, way_begin, way_end);
}

void
SetAssocCache::insert(std::uint64_t addr)
{
    installInRange(addr, 0, waysPerSet);
}

void
SetAssocCache::insertDdio(std::uint64_t addr)
{
    if (ddioWays == 0) {
        insert(addr);
        return;
    }
    // DDIO fills are confined to the last ddioWays ways of each set.
    installInRange(addr, waysPerSet - ddioWays, waysPerSet);
}

void
SetAssocCache::invalidate(std::uint64_t addr)
{
    if (Line *l = find(locate(addr)))
        l->lruStamp = 0;
}

void
SetAssocCache::clear()
{
    // Every set goes back to untouched; the chunks stay allocated and
    // their blocks are handed out again (re-zeroed) as sets refill.
    if (setsInUse == 0)
        return;
    std::fill(setWays.begin(), setWays.end(), nullptr);
    setsInUse = 0;
}

CacheHierarchyParams
CacheHierarchyParams::paperDefault()
{
    CacheHierarchyParams p;
    // 2 GHz core: 1 cycle = 500 ps. Table 5: 2 / 12 / 38 cycles RT.
    p.l1Latency = 2 * 500 * sim::kPicosecond;
    p.l2Latency = 12 * 500 * sim::kPicosecond;
    p.llcLatency = 38 * 500 * sim::kPicosecond;
    return p;
}

CacheHierarchy::CacheHierarchy(const CacheHierarchyParams &params)
    : cfg(params),
      l1Cache(params.l1Bytes, params.l1Ways),
      l2Cache(params.l2Bytes, params.l2Ways),
      llcCache(params.llcBytes, params.llcWays, 64, params.llcDdioWays)
{
}

CacheHierarchy::AccessResult
CacheHierarchy::access(std::uint64_t addr)
{
    // Each level locates and scans its set once. A level that missed is
    // filled from its own lookup: the levels below touch other caches,
    // so the missed set is unchanged and the line is still absent.
    SetAssocCache::Lookup a1, a2, a3;
    if (l1Cache.access(addr, a1))
        return {cfg.l1Latency, true};
    if (l2Cache.access(addr, a2)) {
        l1Cache.fillMiss(a1);
        return {cfg.l2Latency, true};
    }
    if (llcCache.access(addr, a3)) {
        l2Cache.fillMiss(a2);
        l1Cache.fillMiss(a1);
        return {cfg.llcLatency, true};
    }
    // Full miss: fill all levels; memory latency charged by caller.
    llcCache.fillMiss(a3);
    l2Cache.fillMiss(a2);
    l1Cache.fillMiss(a1);
    return {cfg.llcLatency, false};
}

sim::Tick
CacheHierarchy::deliverDdio(std::uint64_t addr)
{
    llcCache.insertDdio(addr);
    return cfg.llcLatency;
}

void
CacheHierarchy::invalidate(std::uint64_t addr)
{
    l1Cache.invalidate(addr);
    l2Cache.invalidate(addr);
    llcCache.invalidate(addr);
}

void
CacheHierarchy::crash()
{
    l1Cache.clear();
    l2Cache.clear();
    llcCache.clear();
}

} // namespace ddp::mem
