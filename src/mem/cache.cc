#include "mem/cache.hh"

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
      lines(static_cast<std::size_t>(sets) * ways)
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
    return static_cast<std::uint32_t>((h >> 32) % sets);
}

SetAssocCache::Line *
SetAssocCache::find(std::uint64_t addr)
{
    std::uint64_t line = lineAddr(addr);
    std::uint32_t set = setOf(line);
    Line *base = &lines[static_cast<std::size_t>(set) * waysPerSet];
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (base[w].valid() && base[w].tag == line)
            return &base[w];
    }
    return nullptr;
}

const SetAssocCache::Line *
SetAssocCache::find(std::uint64_t addr) const
{
    return const_cast<SetAssocCache *>(this)->find(addr);
}

bool
SetAssocCache::access(std::uint64_t addr)
{
    if (Line *l = find(addr)) {
        l->lruStamp = ++stamp;
        ++hitCount;
        return true;
    }
    ++missCount;
    return false;
}

bool
SetAssocCache::contains(std::uint64_t addr) const
{
    return find(addr) != nullptr;
}

void
SetAssocCache::installInRange(std::uint64_t addr, std::uint32_t way_begin,
                              std::uint32_t way_end)
{
    std::uint64_t line = lineAddr(addr);
    std::uint32_t set = setOf(line);
    Line *base = &lines[static_cast<std::size_t>(set) * waysPerSet];

    // Already present anywhere in the set: refresh LRU.
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (base[w].valid() && base[w].tag == line) {
            base[w].lruStamp = ++stamp;
            return;
        }
    }

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
    victim->tag = line;
    victim->lruStamp = ++stamp;
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
    if (Line *l = find(addr))
        l->lruStamp = 0;
}

void
SetAssocCache::clear()
{
    for (auto &l : lines)
        l.lruStamp = 0;
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
    if (l1Cache.access(addr))
        return {cfg.l1Latency, true};
    if (l2Cache.access(addr)) {
        l1Cache.insert(addr);
        return {cfg.l2Latency, true};
    }
    if (llcCache.access(addr)) {
        l2Cache.insert(addr);
        l1Cache.insert(addr);
        return {cfg.llcLatency, true};
    }
    // Full miss: fill all levels; memory latency charged by caller.
    llcCache.insert(addr);
    l2Cache.insert(addr);
    l1Cache.insert(addr);
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
