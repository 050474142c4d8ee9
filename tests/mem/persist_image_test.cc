/**
 * @file
 * PersistImage unit tests: torn-write detection via checksum mismatch,
 * uncommitted-value rollback, the commit-record ablation (torn
 * installs), and the single-line fast path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/persist_image.hh"

using ddp::mem::PersistImage;
using ddp::net::Version;

namespace {

Version
v(std::uint64_t number, std::uint32_t writer = 0)
{
    return Version{number, writer};
}

TEST(PersistImage, CommittedWriteSurvivesCrash)
{
    PersistImage img(4, 4, true);
    img.beginWrite(1, v(7));
    for (int i = 0; i < 4; ++i)
        img.lineWritten(1);
    img.commitWrite(1);

    img.crash();
    PersistImage::Recovered rec = img.recover(1);
    EXPECT_EQ(rec.version, v(7));
    EXPECT_FALSE(rec.tornDetected);
    EXPECT_FALSE(rec.tornInstalled);
    EXPECT_FALSE(rec.uncommittedRollback);
}

TEST(PersistImage, TornPersistRollsBackToLastIntactVersion)
{
    PersistImage img(4, 4, true);
    img.atomicPersist(2, v(3));

    // Crash after 2 of 4 lines of version 9 became durable.
    img.beginWrite(2, v(9));
    img.lineWritten(2);
    img.lineWritten(2);
    img.crash();

    // The staged slot's checksum cannot match a full copy of v9.
    EXPECT_NE(img.scanChecksum(2), img.checksumOf(v(9)));

    PersistImage::Recovered rec = img.recover(2);
    EXPECT_TRUE(rec.tornDetected);
    EXPECT_EQ(rec.version, v(3)) << "must roll back, not trust v9";
    EXPECT_EQ(img.tornDetected(), 1u);
    EXPECT_EQ(img.intactVersion(2), v(3));
}

TEST(PersistImage, CrashBeforeAnyLineIsClean)
{
    PersistImage img(4, 4, true);
    img.atomicPersist(0, v(5));
    img.beginWrite(0, v(6)); // persist scheduled, nothing durable yet
    img.crash();

    PersistImage::Recovered rec = img.recover(0);
    EXPECT_FALSE(rec.tornDetected);
    EXPECT_FALSE(rec.uncommittedRollback);
    EXPECT_EQ(rec.version, v(5));
}

TEST(PersistImage, AllLinesDurableButUncommittedRollsBack)
{
    // Every data line of v8 landed but the crash beat the commit
    // record's write: the value is bit-complete in the staging slot yet
    // recovery must still discard it — the commit record is the only
    // authority on what is durable.
    PersistImage img(4, 4, true);
    img.atomicPersist(1, v(4));
    img.beginWrite(1, v(8));
    for (int i = 0; i < 4; ++i)
        img.lineWritten(1);
    img.crash();

    PersistImage::Recovered rec = img.recover(1);
    EXPECT_TRUE(rec.uncommittedRollback);
    EXPECT_FALSE(rec.tornDetected);
    EXPECT_EQ(rec.version, v(4));
    EXPECT_EQ(img.uncommittedRollbacks(), 1u);
}

TEST(PersistImage, AblationInstallsTornValue)
{
    // Without commit records recovery trusts the newest version tag it
    // finds in the lines — a half-written v9 beats the intact v3.
    PersistImage img(4, 4, false);
    img.atomicPersist(2, v(3));
    img.beginWrite(2, v(9));
    img.lineWritten(2);
    img.crash();

    PersistImage::Recovered rec = img.recover(2);
    EXPECT_TRUE(rec.tornInstalled);
    EXPECT_EQ(rec.version, v(9)) << "ablation trusts the torn copy";
    EXPECT_EQ(img.tornInstalls(), 1u);
}

TEST(PersistImage, AblationFullyWrittenValueIsNotTorn)
{
    // The ablation only mis-installs when the value is actually torn;
    // a fully written value is simply an early (correct) install.
    PersistImage img(4, 4, false);
    img.beginWrite(0, v(2));
    for (int i = 0; i < 4; ++i)
        img.lineWritten(0);
    img.crash();

    PersistImage::Recovered rec = img.recover(0);
    EXPECT_FALSE(rec.tornInstalled);
    EXPECT_EQ(rec.version, v(2));
    EXPECT_EQ(img.tornInstalls(), 0u);
}

TEST(PersistImage, RecoverConsumesInflightState)
{
    PersistImage img(2, 4, true);
    img.atomicPersist(0, v(1));
    img.beginWrite(0, v(2));
    img.lineWritten(0);
    img.crash();

    EXPECT_TRUE(img.recover(0).tornDetected);
    // The tear was already resolved; a second scan is clean.
    EXPECT_FALSE(img.recover(0).tornDetected);
    EXPECT_EQ(img.tornDetected(), 1u);
}

TEST(PersistImage, SingleLineValuesNeverTear)
{
    PersistImage img(8, 1, true);
    img.atomicPersist(3, v(11));
    img.crash();
    PersistImage::Recovered rec = img.recover(3);
    EXPECT_FALSE(rec.tornDetected);
    EXPECT_EQ(rec.version, v(11));
}

TEST(PersistImage, ArrivalOrderCommitOverwritesNewerVersion)
{
    // Eventual consistency persists in arrival order: an older version
    // arriving late replaces a newer intact one.
    PersistImage img(2, 4, true);
    img.atomicPersist(0, v(9), /*arrival_order=*/true);
    img.beginWrite(0, v(5));
    for (int i = 0; i < 4; ++i)
        img.lineWritten(0);
    img.commitWrite(0, /*arrival_order=*/true);
    EXPECT_EQ(img.intactVersion(0), v(5));

    // Version-ordered commit keeps the newer copy instead.
    img.atomicPersist(1, v(9));
    img.beginWrite(1, v(5));
    for (int i = 0; i < 4; ++i)
        img.lineWritten(1);
    img.commitWrite(1);
    EXPECT_EQ(img.intactVersion(1), v(9));
}

TEST(PersistImage, OverlappingBeginWriteAbandonsOlderStaging)
{
    // A new beginWrite for the same key supersedes the abandoned one;
    // recovery judges only the newest staging attempt.
    PersistImage img(2, 4, true);
    img.atomicPersist(0, v(1));
    img.beginWrite(0, v(2));
    img.lineWritten(0);
    img.beginWrite(0, v(3));
    img.crash();

    PersistImage::Recovered rec = img.recover(0);
    EXPECT_FALSE(rec.tornDetected) << "v3 never wrote a line";
    EXPECT_EQ(rec.version, v(1));
}

TEST(PersistImage, InstallCommittedBypassesStaging)
{
    PersistImage img(2, 4, true);
    img.beginWrite(1, v(4));
    img.lineWritten(1);
    // Recovery state transfer lands a whole value from a peer.
    img.installCommitted(1, v(6));
    EXPECT_EQ(img.intactVersion(1), v(6));
    img.crash();
    // The stale in-flight persist of v4 must not tear v6: its staged
    // version is older than the intact copy, so rollback keeps v6.
    PersistImage::Recovered rec = img.recover(1);
    EXPECT_EQ(rec.version, v(6));
}

TEST(PersistImage, InstallDoesNotCancelInflightStaging)
{
    // A survivor answering a restarting peer's recovery install still
    // has its own multi-line persist in flight; the install must land
    // in the intact slot without stranding the staged write's pending
    // line completions.
    PersistImage img(2, 4, true);
    img.beginWrite(0, v(9));
    img.lineWritten(0);
    img.lineWritten(0);
    img.installCommitted(0, v(5));
    EXPECT_EQ(img.intactVersion(0), v(5));
    EXPECT_TRUE(img.writing(0)) << "the staged persist of v9 continues";
    img.lineWritten(0);
    img.lineWritten(0);
    img.commitWrite(0);
    EXPECT_EQ(img.intactVersion(0), v(9));
    EXPECT_FALSE(img.writing(0));
}

TEST(PersistImage, OnDemandRecoveryMatchesFullReplay)
{
    // Instant recovery's on-demand fault-in must judge a torn staging
    // slot exactly as an eager full replay would: same version, same
    // torn verdict, byte-for-byte identical rollback target. Build two
    // identical images — one recovered eagerly, one on demand.
    auto build = [] {
        PersistImage img(4, 4, true);
        // Committed predecessor, then a crash mid-persist of v9: two
        // of four lines durable.
        img.atomicPersist(2, v(3));
        img.beginWrite(2, v(9));
        img.lineWritten(2);
        img.lineWritten(2);
        img.crash();
        return img;
    };

    PersistImage eager = build();
    PersistImage lazy = build();

    PersistImage::Recovered full = eager.recover(2);
    PersistImage::Recovered demand = lazy.recoverOnDemand(2);

    EXPECT_EQ(demand.version, full.version);
    EXPECT_EQ(demand.version, v(3)) << "both must roll back to v3";
    EXPECT_EQ(demand.tornDetected, full.tornDetected);
    EXPECT_TRUE(demand.tornDetected);
    EXPECT_EQ(demand.uncommittedRollback, full.uncommittedRollback);
    EXPECT_EQ(demand.tornInstalled, full.tornInstalled);

    // The post-rollback durable state is identical: same intact
    // version, same checksum over the intact slot.
    EXPECT_EQ(lazy.intactVersion(2), eager.intactVersion(2));
    EXPECT_EQ(lazy.checksumOf(lazy.intactVersion(2)),
              eager.checksumOf(eager.intactVersion(2)));
    EXPECT_EQ(lazy.tornDetected(), eager.tornDetected());

    // On-demand loads are tallied separately (instant-recovery stat);
    // the eager path leaves the counter untouched.
    EXPECT_EQ(lazy.onDemandLoads(), 1u);
    EXPECT_EQ(eager.onDemandLoads(), 0u);
}

TEST(PersistImage, InflightKeysSnapshotsStagingSortedWithoutConsuming)
{
    // crashVolatile(true) snapshots the crash-frozen staging set to
    // judge lazily; the listing must be sorted (determinism) and must
    // not consume the staging evidence.
    PersistImage img(8, 4, true);
    img.beginWrite(5, v(2));
    img.lineWritten(5);
    img.beginWrite(1, v(3));
    img.lineWritten(1);
    img.crash();

    std::vector<ddp::net::KeyId> keys = img.inflightKeys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], 1u);
    EXPECT_EQ(keys[1], 5u);
    // Evidence intact: both tears are still detected afterwards.
    EXPECT_TRUE(img.recoverOnDemand(1).tornDetected);
    EXPECT_TRUE(img.recoverOnDemand(5).tornDetected);
}

TEST(PersistImage, ChecksumMatchesOnlyFullCopies)
{
    PersistImage img(2, 4, true);
    img.beginWrite(0, v(7));
    img.lineWritten(0);
    img.lineWritten(0);
    EXPECT_NE(img.scanChecksum(0), img.checksumOf(v(7)));
    img.lineWritten(0);
    img.lineWritten(0);
    EXPECT_EQ(img.scanChecksum(0), img.checksumOf(v(7)));
}

} // namespace
