/**
 * @file
 * Torn-persist NVM image model: per-key double-buffered value slots
 * with a per-value commit record (checksum + version tag).
 *
 * NVM gives atomicity only at 64 B line granularity. A value spanning
 * several lines persists line by line, so a crash mid-persist leaves a
 * *torn* value: some lines carry the new version's bytes, the rest the
 * old ones. PMDK-style systems defend against this with redo/undo
 * logging or double buffering plus a commit record that is itself a
 * single-line (atomic) write. This module models that defense at the
 * fidelity the simulator needs: it tracks, per key, which durable
 * version the commit record points at and how far an in-flight
 * multi-line persist had progressed when power was lost, so recovery
 * can detect the tear by checksum mismatch and roll back to the last
 * intact version — or, with commit records disabled (ablation), trust
 * the newest version tag found in the lines and install the torn value.
 *
 * The protocol engine drives it from its NVM-write completion events:
 *
 *   beginWrite(key, v)        persist of v starts (staging slot chosen)
 *   lineWritten(key)          one data line of v became durable
 *   commitWrite(key, ...)     the commit record's single-line write
 *                             became durable; v is now the intact copy
 *
 * Single-line values bypass the protocol via atomicPersist(). A crash
 * freezes every in-flight write where it stands; recover(key) then
 * reports what post-crash recovery code would find in the medium.
 */

#ifndef DDP_MEM_PERSIST_IMAGE_HH
#define DDP_MEM_PERSIST_IMAGE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/message.hh"
#include "sim/arena.hh"

namespace ddp::mem {

class PersistImage
{
  public:
    /**
     * @param key_count      number of keys the image covers
     * @param lines_per_value 64 B lines a value spans (>= 1)
     * @param commit_records  model per-value commit records; when
     *                        false, recovery trusts the newest version
     *                        tag found in the lines (torn installs)
     *
     * Per-key records are paged: a page holds storage once provision()
     * covers it or a write lands in it. A key whose page is absent
     * reads as never written (zero intact version, nothing in flight).
     */
    PersistImage(std::uint64_t key_count, std::uint32_t lines_per_value,
                 bool commit_records);

    /** Give the records of keys [lo, hi) storage now. */
    void provision(net::KeyId lo, net::KeyId hi) { keys.provision(lo, hi); }

    std::uint32_t linesPerValue() const { return linesTotal; }
    bool commitRecords() const { return useCommitRecords; }

    // --- Multi-line persist protocol -----------------------------------

    /** Persist of @p ver starts staging into the non-intact slot. */
    void beginWrite(net::KeyId key, net::Version ver);

    /** One 64 B data line of the staged value became durable. */
    void lineWritten(net::KeyId key);

    /**
     * The commit record's atomic single-line write became durable: the
     * staged version becomes the intact copy. @p arrival_order mirrors
     * the engine's advancePersisted() semantics: when true the staged
     * version replaces the intact one unconditionally (eventual
     * consistency applies updates in arrival order); when false only a
     * newer version wins.
     */
    void commitWrite(net::KeyId key, bool arrival_order = false);

    // --- Single-line fast path -----------------------------------------

    /** A value that fits one line persisted atomically. */
    void atomicPersist(net::KeyId key, net::Version ver,
                       bool arrival_order = false);

    // --- Recovery --------------------------------------------------------

    /**
     * Recovery (anti-entropy / voting install) writes a whole value it
     * fetched from a peer; modeled as an intact installation. Does not
     * disturb an in-flight multi-line persist of the same key — that
     * write continues in the staging buffer (relevant on survivors
     * answering a restarting peer's install).
     */
    void installCommitted(net::KeyId key, net::Version ver);

    /** Power loss: every in-flight write freezes where it stands. */
    void crash();

    /** What post-crash recovery finds for @p key. */
    struct Recovered
    {
        /** Version recovery settles on for this key. */
        net::Version version{};
        /** A torn (partially persisted) value was detected and rolled
         *  back to the last intact version via checksum mismatch. */
        bool tornDetected = false;
        /** Commit records disabled: the torn value's version tag was
         *  trusted and the torn value installed as current. */
        bool tornInstalled = false;
        /** All data lines were durable but the commit record was not:
         *  rolled back a fully written yet uncommitted value. */
        bool uncommittedRollback = false;
    };

    /**
     * Scan @p key after crash(): verify the staged slot against the
     * commit record and settle on a version. Consumes the in-flight
     * state (a second call reports the settled version, not torn).
     */
    Recovered recover(net::KeyId key);

    /**
     * Instant recovery's single-key verified load: identical scan and
     * rollback semantics to recover(), but tallied separately so a run
     * can report how much of the image was faulted in on demand rather
     * than replayed up front.
     */
    Recovered recoverOnDemand(net::KeyId key);

    /**
     * Keys whose multi-line persist was in flight (frozen by crash()),
     * sorted ascending so instant recovery's snapshot of suspect keys
     * is deterministic regardless of hash-map iteration order.
     */
    std::vector<net::KeyId> inflightKeys() const;

    /** Version the commit record points at (last intact copy). */
    net::Version intactVersion(net::KeyId key) const;

    /** True while a multi-line persist of @p key is in flight. */
    bool writing(net::KeyId key) const;

    /**
     * Checksum recovery computes over the staged slot's line tags; a
     * mismatch against checksumOf(staged version) reveals the tear.
     * Exposed for tests.
     */
    std::uint64_t scanChecksum(net::KeyId key) const;
    /** Checksum a fully persisted copy of @p ver would carry. */
    std::uint64_t checksumOf(net::Version ver) const;

    // --- Tallies (cumulative over the image's lifetime) -----------------

    std::uint64_t tornDetected() const { return tornDetectedCount; }
    std::uint64_t tornInstalls() const { return tornInstallCount; }
    std::uint64_t uncommittedRollbacks() const { return uncommittedCount; }
    std::uint64_t onDemandLoads() const { return onDemandCount; }

  private:
    struct Staging
    {
        net::Version ver{};                 ///< version being persisted
        std::vector<net::Version> lineTags; ///< per-line version tag
        std::uint32_t written = 0;          ///< lines durable so far
    };

    struct KeyImage
    {
        net::Version intact{};  ///< version the commit record points at
        bool everWritten = false;
    };

    static std::uint64_t mix(std::uint64_t x);

    std::uint32_t linesTotal;
    bool useCommitRecords;
    sim::PagedArray<KeyImage> keys;
    /** Only keys with an in-flight multi-line persist have an entry. */
    std::unordered_map<net::KeyId, Staging> inflight;

    std::uint64_t tornDetectedCount = 0;
    std::uint64_t tornInstallCount = 0;
    std::uint64_t uncommittedCount = 0;
    std::uint64_t onDemandCount = 0;
};

} // namespace ddp::mem

#endif // DDP_MEM_PERSIST_IMAGE_HH
