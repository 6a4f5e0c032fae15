/**
 * @file
 * Unit tests for the NVRAM black-box flight recorder.
 *
 * The recorder is exercised against a synthetic byte-array backing so
 * every publication step is observable: codec round-trips, the
 * write-record-then-publish-header discipline, staging while the
 * backing is unwritable (and the tail-gap bookkeeping when staging
 * overflows), volatile-phase contiguity breaks, and — the acceptance
 * sweep — a decode at every 64-byte tear position over the recorder
 * region, which must never report a torn slot inside the published
 * window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "crashsim/invariants.h"
#include "nvram/nvram_image.h"
#include "sim/event_queue.h"
#include "trace/flight_recorder.h"

namespace wsp::trace {
namespace {

class FlightRecorderTest : public ::testing::Test
{
  protected:
    static constexpr size_t kCap = 16;        ///< ring records
    static constexpr uint64_t kBase = 4096;   ///< slot 0 address

    void
    SetUp() override
    {
        auto &recorder = FlightRecorder::instance();
        recorder.clearForTest();
        nvram_.assign(kBase + (kCap + 1) * kFrRecordBytes, 0);
        writable_ = true;

        FlightRecorder::Backing backing;
        backing.base = kBase;
        backing.capacityRecords = kCap;
        backing.writeLine = [this](uint64_t addr,
                                   std::span<const uint8_t> bytes) {
            ASSERT_LE(addr + bytes.size(), nvram_.size());
            std::memcpy(nvram_.data() + addr, bytes.data(),
                        bytes.size());
        };
        backing.writable = [this] { return writable_; };
        recorder.setMode(FrMode::Nvram);
        recorder.attach(this, std::move(backing), 7);
    }

    void
    TearDown() override
    {
        auto &recorder = FlightRecorder::instance();
        recorder.setMode(FrMode::Off);
        recorder.detach(this);
        recorder.clearForTest();
    }

    uint64_t
    headerAddr() const
    {
        return kBase + kCap * kFrRecordBytes;
    }

    /** Reader over the synthetic NVRAM, refusing below @p floor. */
    FrByteReader
    reader(uint64_t floor = 0) const
    {
        return [this, floor](uint64_t addr,
                             std::span<uint8_t> out) -> size_t {
            if (addr + out.size() > nvram_.size())
                return out.size();
            const size_t refused = static_cast<size_t>(
                std::min<uint64_t>(out.size(), floor - std::min(floor, addr)));
            std::memcpy(out.data() + refused, nvram_.data() + addr + refused,
                        out.size() - refused);
            return refused;
        };
    }

    FrDecodeResult
    decode() const
    {
        return frDecode(reader(), headerAddr());
    }

    void
    emitN(unsigned n, FrEvent event = FrEvent::KvBatch)
    {
        for (unsigned i = 0; i < n; ++i)
            frEmit(event, Category::Apps, i, i * 10);
    }

    std::vector<uint8_t> nvram_;
    bool writable_ = true;
};

TEST_F(FlightRecorderTest, RecordCodecRoundTrip)
{
    FrRecord record;
    record.seq = 0x1122334455667788ull;
    record.generation = 3;
    record.simTick = 1234567;
    record.wallNs = 987654321;
    record.a0 = 42;
    record.a1 = ~0ull;
    record.event = FrEvent::SaveMarkerStamp;
    record.category = Category::Nvram;

    uint8_t line[kFrRecordBytes];
    frEncodeRecord(record, line);
    FrRecord back;
    ASSERT_TRUE(frDecodeRecord(line, &back));
    EXPECT_EQ(back.seq, record.seq);
    EXPECT_EQ(back.generation, record.generation);
    EXPECT_EQ(back.simTick, record.simTick);
    EXPECT_EQ(back.wallNs, record.wallNs);
    EXPECT_EQ(back.a0, record.a0);
    EXPECT_EQ(back.a1, record.a1);
    EXPECT_EQ(back.event, record.event);
    EXPECT_EQ(back.category, record.category);

    // Any flipped payload byte must fail the CRC.
    line[17] ^= 0x40;
    EXPECT_FALSE(frDecodeRecord(line, &back));
}

TEST_F(FlightRecorderTest, PublishedRecordsDecodeInOrder)
{
    emitN(5);
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerFound);
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    EXPECT_EQ(result.generation, 7u);
    EXPECT_EQ(result.capacity, kCap);
    ASSERT_EQ(result.records.size(), 5u);
    for (size_t i = 1; i < result.records.size(); ++i)
        EXPECT_EQ(result.records[i].seq,
                  result.records[i - 1].seq + 1);
    for (size_t i = 0; i < result.records.size(); ++i) {
        EXPECT_EQ(result.records[i].event, FrEvent::KvBatch);
        EXPECT_EQ(result.records[i].a0, i);
        EXPECT_EQ(result.records[i].a1, i * 10);
    }
    EXPECT_EQ(result.headSeq - result.tailSeq, 5u);
    EXPECT_EQ(result.tornSlots, 0u);
    EXPECT_EQ(result.unsavedSlots, 0u);
}

TEST_F(FlightRecorderTest, WrapKeepsNewestCapacityRecords)
{
    emitN(static_cast<unsigned>(2 * kCap + 3));
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    ASSERT_EQ(result.records.size(), kCap);
    EXPECT_EQ(result.records.back().seq + 1, result.headSeq);
    // The mirror tracks the same window.
    const auto mirrored = FlightRecorder::instance().mirror();
    ASSERT_EQ(mirrored.size(), kCap);
    EXPECT_EQ(mirrored.back().seq, result.records.back().seq);
}

TEST_F(FlightRecorderTest, InFlightTailSlotIsAcceptable)
{
    emitN(static_cast<unsigned>(kCap + 2));
    FrDecodeResult result = decode();
    ASSERT_TRUE(result.sound());

    // A crash between the slot write and the header publish: the next
    // record reached its slot, the header still vouches only for the
    // previous head.
    FrRecord inflight;
    inflight.seq = result.headSeq;
    inflight.event = FrEvent::SaveHalt;
    inflight.category = Category::Core;
    uint8_t line[kFrRecordBytes];
    frEncodeRecord(inflight, line);
    const uint64_t slot = inflight.seq % kCap;
    std::memcpy(nvram_.data() + kBase + slot * kFrRecordBytes, line,
                kFrRecordBytes);

    result = decode();
    EXPECT_TRUE(result.sound());
    EXPECT_TRUE(result.unpublishedTail);
    EXPECT_EQ(result.tornSlots, 0u);

    // The same slot holding torn garbage is equally acceptable.
    std::memset(nvram_.data() + kBase + slot * kFrRecordBytes + 20, 0xa5,
                16);
    result = decode();
    EXPECT_TRUE(result.sound());
}

TEST_F(FlightRecorderTest, TornSlotInsideWindowIsUnsound)
{
    emitN(static_cast<unsigned>(kCap + 2));
    FrDecodeResult before = decode();
    ASSERT_TRUE(before.sound());

    // Corrupt a *published* slot (two behind the head).
    const uint64_t victim = (before.headSeq - 2) % kCap;
    nvram_[kBase + victim * kFrRecordBytes + 33] ^= 0xff;

    const FrDecodeResult result = decode();
    EXPECT_FALSE(result.sound());
    EXPECT_GE(result.tornSlots, 1u);
    EXPECT_FALSE(result.notes.empty());
}

TEST_F(FlightRecorderTest, HeaderAheadOfSlotIsUnsound)
{
    // The planted-bug shape: a header that vouches for a record whose
    // slot line never reached NVRAM (publish before write). Forge it
    // by zeroing the newest record's slot.
    emitN(static_cast<unsigned>(kCap + 1));
    const FrDecodeResult before = decode();
    const uint64_t newest = (before.headSeq - 1) % kCap;
    std::memset(nvram_.data() + kBase + newest * kFrRecordBytes, 0,
                kFrRecordBytes);

    const FrDecodeResult result = decode();
    EXPECT_FALSE(result.sound());
    EXPECT_GE(result.tornSlots, 1u);
}

TEST_F(FlightRecorderTest, StagedWhileUnwritableDrainsOnFlush)
{
    writable_ = false;
    emitN(3, FrEvent::NvdimmSaveStart);

    // Nothing was published: the region is still all zeros.
    FrDecodeResult result = decode();
    EXPECT_FALSE(result.headerFound);
    EXPECT_TRUE(result.sound()); // nothing provable, nothing violated

    writable_ = true;
    FlightRecorder::instance().flushStaged();
    result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    ASSERT_EQ(result.records.size(), 3u);
    for (const FrRecord &record : result.records)
        EXPECT_EQ(record.event, FrEvent::NvdimmSaveStart);
}

TEST_F(FlightRecorderTest, StagedOverflowDropsOldestAndStaysSound)
{
    auto &recorder = FlightRecorder::instance();
    const uint64_t dropped_before = recorder.stagedDropped();

    writable_ = false;
    emitN(static_cast<unsigned>(kCap + 5));
    EXPECT_EQ(recorder.stagedDropped() - dropped_before, 5u);

    writable_ = true;
    recorder.flushStaged();
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    // The dropped records leave a gap below the published window; the
    // header's tail must exclude them so the decode stays sound.
    EXPECT_TRUE(result.sound());
    EXPECT_EQ(result.records.size(), kCap);
    EXPECT_EQ(result.headSeq - result.tailSeq, kCap);
}

TEST_F(FlightRecorderTest, VolatileEmissionsBreakContiguityCleanly)
{
    auto &recorder = FlightRecorder::instance();
    emitN(2);
    recorder.setMode(FrMode::Volatile);
    emitN(4); // mirror-only: their slots are never written
    recorder.setMode(FrMode::Nvram);
    emitN(3);

    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    // Only the post-volatile records are vouched for; the two early
    // NVRAM records sit below the tail as unclaimed residue.
    ASSERT_EQ(result.records.size(), 3u);
    EXPECT_EQ(result.headSeq - result.tailSeq, 3u);
    EXPECT_GE(result.staleSlots, 1u);
}

TEST_F(FlightRecorderTest, OffModeEmitsNothing)
{
    auto &recorder = FlightRecorder::instance();
    recorder.setMode(FrMode::Off);
    const uint64_t before = recorder.totalEmitted();
    emitN(10);
    EXPECT_EQ(recorder.totalEmitted(), before);
    EXPECT_FALSE(decode().headerFound);
}

TEST_F(FlightRecorderTest, GenerationStampsFollowSetGeneration)
{
    emitN(1);
    FlightRecorder::instance().setGeneration(this, 8);
    emitN(1);
    const FrDecodeResult result = decode();
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.records[0].generation, 7u);
    EXPECT_EQ(result.records[1].generation, 8u);
    EXPECT_EQ(result.generation, 8u);
}

TEST_F(FlightRecorderTest, HeaderScanFindsRingBelowOtherStructures)
{
    emitN(4);
    // Scan from the top of the synthetic NVRAM, as a tool would scan
    // an image without layout knowledge.
    const auto found =
        frFindHeader(reader(), nvram_.size(), nvram_.size());
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, headerAddr());
    const FrDecodeResult result = frDecode(reader(), *found);
    EXPECT_TRUE(result.sound());
    EXPECT_EQ(result.records.size(), 4u);
}

/**
 * The acceptance sweep: simulate a save torn at every 64-byte
 * boundary of the recorder region. Top-down flash programming means a
 * partial save persists a *suffix* [tear, top); the byte reader
 * refuses everything below the tear, exactly like the image reader
 * refuses bytes outside a module's programmed suffix. No tear
 * position may yield a torn slot inside the published window.
 */
TEST_F(FlightRecorderTest, TearPositionSweepNeverUnsound)
{
    emitN(static_cast<unsigned>(kCap + 7)); // wrapped, full window
    size_t decoded_at_zero = 0;
    for (uint64_t tear = 0; tear <= nvram_.size();
         tear += kFrRecordBytes) {
        const FrDecodeResult result =
            frDecode(reader(tear), headerAddr());
        EXPECT_TRUE(result.sound())
            << "torn decode at tear position " << tear;
        if (tear == 0) {
            decoded_at_zero = result.records.size();
        } else if (result.headerFound) {
            // Slots below the tear are refused, never misread.
            EXPECT_EQ(result.records.size() + result.unsavedSlots,
                      decoded_at_zero)
                << "at tear position " << tear;
        } else {
            // The header line itself is below the tear: nothing is
            // provable and nothing may be claimed.
            EXPECT_TRUE(result.records.empty());
        }
    }
    // The sweep must actually exercise both regimes.
    EXPECT_EQ(decoded_at_zero, kCap);
}

TEST_F(FlightRecorderTest, RestartContiguityAfterColdBoot)
{
    // A cold/fallback boot loses the DRAM the published records lived
    // in; the next save programs their zeroed slots. Without the
    // contiguity restart the old header would vouch for them — torn.
    emitN(6);
    const FrDecodeResult before = decode();
    ASSERT_TRUE(before.sound());
    std::fill(nvram_.begin() + static_cast<ptrdiff_t>(kBase),
              nvram_.begin() +
                  static_cast<ptrdiff_t>(kBase + kCap * kFrRecordBytes),
              uint8_t{0});

    FlightRecorder::instance().restartContiguity(this);
    emitN(2);
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.headSeq - result.tailSeq, 2u);
}

TEST_F(FlightRecorderTest, MirrorCapBoundsMemory)
{
    // Several wraps: the mirror keeps exactly the newest kCap records,
    // oldest first, with their payloads intact.
    const unsigned emitted = static_cast<unsigned>(4 * kCap + 5);
    emitN(emitted);
    const auto mirrored = FlightRecorder::instance().mirror();
    ASSERT_EQ(mirrored.size(), kCap);
    EXPECT_EQ(mirrored.back().seq + 1,
              FlightRecorder::instance().totalEmitted());
    for (size_t k = 0; k < mirrored.size(); ++k) {
        const uint64_t i = emitted - kCap + k;
        EXPECT_EQ(mirrored[k].seq, mirrored.front().seq + k);
        EXPECT_EQ(mirrored[k].event, FrEvent::KvBatch);
        EXPECT_EQ(mirrored[k].a0, i);
        EXPECT_EQ(mirrored[k].a1, i * 10);
    }
}

TEST_F(FlightRecorderTest, DecodeClassifiesEverySlotKind)
{
    // One ring holding every slot kind at once:
    //   slots 0..5   stale residue of generation 7 (seqs s..s+5)
    //   slots 6..8   the published window, generation 8; slot 7 torn
    //   slot  9      the in-flight tail (seq == head, unpublished)
    //   slots 10..15 never written (all zero)
    auto &recorder = FlightRecorder::instance();
    // Sequence numbers are process-wide: burn volatile-only ones until
    // the next record lands in slot 0.
    recorder.setMode(FrMode::Volatile);
    emitN(static_cast<unsigned>((kCap - recorder.totalEmitted() % kCap) %
                                kCap));
    recorder.setMode(FrMode::Nvram);
    emitN(6);
    recorder.setGeneration(this, 8);
    recorder.restartContiguity(this);
    emitN(3);
    const FrDecodeResult clean = decode();
    ASSERT_TRUE(clean.sound());
    const uint64_t head = clean.headSeq;
    ASSERT_EQ(head % kCap, 9u);
    ASSERT_EQ(head - clean.tailSeq, 3u);

    FrRecord inflight;
    inflight.seq = head;
    inflight.generation = 8;
    inflight.event = FrEvent::SaveHalt;
    uint8_t line[kFrRecordBytes];
    frEncodeRecord(inflight, line);
    std::memcpy(nvram_.data() + kBase + 9 * kFrRecordBytes, line,
                kFrRecordBytes);
    nvram_[kBase + 7 * kFrRecordBytes + 40] ^= 0x01;

    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_FALSE(result.sound());
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.records[0].seq, head - 3);
    EXPECT_EQ(result.records[0].a0, 0u);
    EXPECT_EQ(result.records[0].generation, 8u);
    EXPECT_EQ(result.records[1].seq, head - 1);
    EXPECT_EQ(result.records[1].a0, 2u);
    EXPECT_EQ(result.tornSlots, 1u);
    EXPECT_EQ(result.staleSlots, 6u); // zero slots count as neither
    EXPECT_EQ(result.unsavedSlots, 0u);
    EXPECT_TRUE(result.unpublishedTail);

    // A save torn at slot 8 refuses everything below it: the window's
    // lower two slots become unsaved, not torn, and the residue is
    // unreadable rather than stale.
    const FrDecodeResult partial =
        frDecode(reader(kBase + 8 * kFrRecordBytes), headerAddr());
    EXPECT_TRUE(partial.sound());
    ASSERT_EQ(partial.records.size(), 1u);
    EXPECT_EQ(partial.records[0].seq, head - 1);
    EXPECT_EQ(partial.tornSlots, 0u);
    EXPECT_EQ(partial.staleSlots, 0u);
    EXPECT_EQ(partial.unsavedSlots, 2u);
    EXPECT_TRUE(partial.unpublishedTail);
}

/**
 * The reference for the one-read ring decode: the decoder's access
 * pattern before it, one reader call per 64-byte line, each line read
 * only when it lies wholly inside the module's programmed suffix. A
 * ring-sized request is answered with the refused prefix those
 * per-line reads imply.
 */
FrByteReader
perLineImageReader(const NvramImage &image)
{
    return [&image](uint64_t addr, std::span<uint8_t> out) -> size_t {
        const NvramImage::ModuleImage &module = image.module(0);
        const uint64_t claimed_from =
            module.flash.capacity() - module.savedBytes;
        size_t refused = 0;
        for (size_t off = 0; off < out.size(); off += kFrRecordBytes) {
            if (addr + off < claimed_from)
                refused = off + kFrRecordBytes;
            else
                module.flash.read(addr + off,
                                  out.subspan(off, kFrRecordBytes));
        }
        return refused;
    };
}

void
expectSameDecode(const FrDecodeResult &got, const FrDecodeResult &want)
{
    EXPECT_EQ(got.headerValid, want.headerValid);
    EXPECT_EQ(got.tornSlots, want.tornSlots);
    EXPECT_EQ(got.unsavedSlots, want.unsavedSlots);
    EXPECT_EQ(got.staleSlots, want.staleSlots);
    EXPECT_EQ(got.unpublishedTail, want.unpublishedTail);
    EXPECT_EQ(got.notes, want.notes);
    ASSERT_EQ(got.records.size(), want.records.size());
    for (size_t i = 0; i < got.records.size(); ++i) {
        EXPECT_EQ(got.records[i].seq, want.records[i].seq);
        EXPECT_EQ(got.records[i].a0, want.records[i].a0);
        EXPECT_EQ(got.records[i].a1, want.records[i].a1);
    }
}

TEST_F(FlightRecorderTest, ImageDecodeReadsTheRingOnceLikePerLineReads)
{
    emitN(static_cast<unsigned>(kCap + 5)); // wrapped, full window

    // Socket the synthetic NVRAM into a module whose last save
    // programmed only the top of the ring: the claimed suffix starts
    // at slot kFloorSlot, so the slots below it are unsaved.
    constexpr uint64_t kFloorSlot = 6;
    EventQueue queue;
    NvdimmConfig config;
    config.capacityBytes = 64 * kKiB;
    config.flashChannels = 1;
    NvdimmModule dimm(queue, "bb", config);
    NvramSpace space;
    space.addModule(dimm);
    SparseMemory flash(config.capacityBytes);
    flash.write(0, nvram_);
    const uint64_t claimed_from = kBase + kFloorSlot * kFrRecordBytes;
    dimm.adoptFlashImage(flash, true, 0, 0,
                         config.capacityBytes - claimed_from);

    const NvramImage clean_image = NvramImage::capture(space);
    const FrDecodeResult clean = frDecode(
        crashsim::imageByteReader(clean_image), headerAddr());
    ASSERT_TRUE(clean.headerValid);
    EXPECT_TRUE(clean.sound());
    EXPECT_EQ(clean.unsavedSlots, kFloorSlot);
    EXPECT_EQ(clean.records.size(), kCap - kFloorSlot);
    expectSameDecode(clean, frDecode(perLineImageReader(clean_image),
                                     headerAddr()));

    // Plant a torn slot inside the window, above the floor and off
    // the in-flight slot (which may legitimately be mid-overwrite).
    uint64_t torn_slot = kFloorSlot;
    while (torn_slot == clean.headSeq % kCap)
        ++torn_slot;
    uint8_t byte[1];
    const uint64_t torn_at = kBase + torn_slot * kFrRecordBytes + 40;
    flash.read(torn_at, byte);
    byte[0] ^= 0x01;
    flash.write(torn_at, byte);
    dimm.adoptFlashImage(flash, true, 0, 0,
                         config.capacityBytes - claimed_from);
    const NvramImage torn_image = NvramImage::capture(space);
    const FrDecodeResult torn = frDecode(
        crashsim::imageByteReader(torn_image), headerAddr());
    EXPECT_FALSE(torn.sound());
    EXPECT_EQ(torn.tornSlots, 1u);
    EXPECT_EQ(torn.unsavedSlots, kFloorSlot);
    EXPECT_EQ(torn.records.size(), kCap - kFloorSlot - 1);
    expectSameDecode(torn, frDecode(perLineImageReader(torn_image),
                                    headerAddr()));
}

} // namespace
} // namespace wsp::trace
