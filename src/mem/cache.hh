/**
 * @file
 * Set-associative cache model and three-level hierarchy timing.
 *
 * The protocol engine charges local volatile accesses with the latency
 * of the cache level that hits. The LLC reserves a DDIO partition (10%
 * of the ways by default, per the paper's Table 5) into which NIC
 * deliveries are installed, mirroring Intel Data Direct I/O behaviour:
 * replica updates arriving from the network land directly in the LLC.
 */

#ifndef DDP_MEM_CACHE_HH
#define DDP_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/ticks.hh"

namespace ddp::mem {

/**
 * A set-associative cache directory with LRU replacement. Tracks
 * presence only (no data), which is all the timing model needs.
 *
 * A set's ways are materialized on its first install: until then the
 * set-table entry is null and every lookup in the set is a miss with
 * no scan. Way blocks are handed out from fixed-size chunks allocated
 * on demand, so a node's directory costs memory in proportion to the
 * sets it touched, not to the cache's capacity. A fresh block is
 * all-invalid, exactly like an untouched set of a dense directory, so
 * LRU and victim order do not depend on when a set was materialized.
 */
class SetAssocCache
{
  public:
    /**
     * @param capacity_bytes total capacity
     * @param ways associativity
     * @param line_bytes line size
     * @param ddio_ways ways per set reserved for DDIO fills
     *        (0 = no partition; DDIO fills may use only these ways)
     */
    SetAssocCache(std::uint64_t capacity_bytes, std::uint32_t ways,
                  std::uint32_t line_bytes = 64, std::uint32_t ddio_ways = 0);

    /**
     * Where a lookup landed: the line address and its set. A miss
     * passes it to fillMiss(), which installs without scanning the set
     * again.
     */
    struct Lookup
    {
        std::uint64_t line = 0;
        std::uint32_t set = 0;
    };

    /** Look up @p addr; updates LRU on hit. @return true on hit. */
    bool access(std::uint64_t addr);

    /** access() that also reports the lookup for a later fillMiss(). */
    bool access(std::uint64_t addr, Lookup &at);

    /**
     * Install the line that access(addr, @p at) just missed, using any
     * way. The set must not have changed since that access: the line
     * is known to be absent, so the presence scan of insert() is
     * skipped.
     */
    void fillMiss(const Lookup &at);

    /** Non-mutating presence probe. */
    bool contains(std::uint64_t addr) const;

    /**
     * Install the line containing @p addr (CPU-side fill; may use any
     * way). Evicts the LRU line if the set is full.
     */
    void insert(std::uint64_t addr);

    /**
     * Install via DDIO (NIC delivery): restricted to the DDIO partition
     * of the set, evicting the LRU line of that partition.
     */
    void insertDdio(std::uint64_t addr);

    /** Remove the line if present (protocol invalidation). */
    void invalidate(std::uint64_t addr);

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return waysPerSet; }
    /** Sets whose ways are materialized (installed into since the
     *  last clear()). */
    std::size_t residentSets() const { return setsInUse; }

    /** Drop all lines (crash of volatile state). */
    void clear();

  private:
    /**
     * One way. lruStamp == 0 marks an invalid way: every install and
     * refresh stamps ++stamp >= 1, and invalidate/clear reset it to 0.
     * Folding the valid bit into the stamp keeps a line at 16 bytes,
     * so a 16-way set scan touches 4 host cache lines instead of 6.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;

        bool valid() const { return lruStamp != 0; }
    };
    static_assert(sizeof(Line) == 16);

    /** Sets per way-block chunk. */
    static constexpr std::uint32_t kChunkSets = 256;

    std::uint64_t lineAddr(std::uint64_t addr) const;
    std::uint32_t setOf(std::uint64_t line) const;
    Lookup locate(std::uint64_t addr) const;
    Line *find(const Lookup &at) const;
    /** The set's ways, materializing an all-invalid block if absent. */
    Line *waysOf(std::uint32_t set);
    Line *materialize(std::uint32_t set);
    /** Stamp @p at's line into the first invalid (else LRU) way of
     *  [way_begin, way_end) of its set. */
    void fill(const Lookup &at, std::uint32_t way_begin,
              std::uint32_t way_end);
    void installInRange(std::uint64_t addr, std::uint32_t way_begin,
                        std::uint32_t way_end);

    std::uint32_t sets;
    std::uint32_t waysPerSet;
    std::uint32_t lineBytes;
    std::uint32_t ddioWays;
    /** Exact 32-bit fastmod constant for sets: 2^64 / sets, rounded up. */
    std::uint64_t setsMagic;
    /** Per set: its ways, or nullptr while the set is untouched. */
    std::vector<Line *> setWays;
    /** Way blocks, kChunkSets sets per chunk, allocated on demand and
     *  reused after clear(). */
    std::vector<std::unique_ptr<Line[]>> chunks;
    std::uint32_t chunkSets;
    /** Blocks handed out; the next one comes from chunk
     *  setsInUse / chunkSets. */
    std::size_t setsInUse = 0;
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

/** Latencies of the three-level hierarchy (round-trip, in ticks). */
struct CacheHierarchyParams
{
    sim::Tick l1Latency;
    sim::Tick l2Latency;
    sim::Tick llcLatency;
    std::uint64_t l1Bytes = 64ULL << 10;
    std::uint64_t l2Bytes = 512ULL << 10;
    std::uint64_t llcBytes = 40ULL << 20; // 2 MB/core x 20 cores
    std::uint32_t l1Ways = 8;
    std::uint32_t l2Ways = 8;
    std::uint32_t llcWays = 16;
    /** Fraction of LLC ways reserved for DDIO (paper: 10% of LLC). */
    std::uint32_t llcDdioWays = 2;

    /** Paper Table 5 values at 2 GHz (2 / 12 / 38 cycles RT). */
    static CacheHierarchyParams paperDefault();
};

/**
 * Three-level cache hierarchy for one server. Returns the access
 * latency of the first level that hits; a full miss additionally costs
 * the caller a DRAM access (charged by the protocol engine via the
 * MemoryDevice model).
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const CacheHierarchyParams &params);

    /** Result of a hierarchy lookup. */
    struct AccessResult
    {
        sim::Tick latency; ///< hierarchy traversal latency
        bool hit;          ///< true if some level hit
    };

    /** CPU-side access to @p addr; fills on miss. */
    AccessResult access(std::uint64_t addr);

    /** NIC delivery: install into the LLC DDIO partition. */
    sim::Tick deliverDdio(std::uint64_t addr);

    /** Protocol invalidation of a line in all levels. */
    void invalidate(std::uint64_t addr);

    /** Wipe all volatile contents (crash). */
    void crash();

    const SetAssocCache &l1() const { return l1Cache; }
    const SetAssocCache &l2() const { return l2Cache; }
    const SetAssocCache &llc() const { return llcCache; }

  private:
    CacheHierarchyParams cfg;
    SetAssocCache l1Cache;
    SetAssocCache l2Cache;
    SetAssocCache llcCache;
};

} // namespace ddp::mem

#endif // DDP_MEM_CACHE_HH
