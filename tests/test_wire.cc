/** @file Wire-format hardening tests: header validation, CRC framing,
 *  truncation-tolerant recovery, legacy v1 rejection, short frames in
 *  every payload codec, and the deterministic fault injector's aim. */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/policy.h"
#include "fault/injector.h"
#include "obs/flight_recorder.h"
#include "obs/forensic.h"
#include "replay/checkpoint.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "replay/ckpt_store/page_pool.h"
#include "rnr/log_io.h"
#include "rnr/wire.h"

namespace rsafe {
namespace {

namespace wire = rnr::wire;
using rnr::InputLog;
using rnr::LogRecord;
using rnr::RecordType;

LogRecord
sample_record(RecordType type, InstrCount icount)
{
    LogRecord record;
    record.type = type;
    record.icount = icount;
    // Canonical field values only: irq vectors and detector ids are u8,
    // io-in ports are u16, mmio addresses live in the 0xF0000000 device
    // window. Values outside those ranges would not survive a decode
    // round trip.
    record.value = type == RecordType::kIrqInject ||
                           type == RecordType::kDetectorAlarm
                       ? 0xef
                       : 0xfeedbeef;
    record.addr = type == RecordType::kIoIn ? 0x10 : 0xF0000008ULL;
    record.tid = 3;
    record.alarm.kind = cpu::RasAlarmKind::kUnderflow;
    record.alarm.ret_pc = 0x2048;
    record.alarm.predicted = 0x2050;
    record.alarm.actual = 0x6000;
    record.alarm.sp_after = 0x21000;
    record.alarm.kernel_mode = true;
    if (type == RecordType::kNicDma)
        record.payload = {1, 2, 3, 4, 5};
    return record;
}

/** Append @p records sample records to @p log, cycling through every
 *  record type. */
void
append_records(InputLog* log, std::size_t records)
{
    const int num_types = static_cast<int>(RecordType::kDetectorAlarm) + 1;
    for (std::size_t i = 0; i < records; ++i)
        log->append(sample_record(
            static_cast<RecordType>(i % num_types), 1000 + 13 * i));
}

/** The wire image of a log of @p records sample records. */
std::vector<std::uint8_t>
log_image(std::size_t records)
{
    InputLog log;
    append_records(&log, records);
    return log.serialize();
}

// ---------------------------------------------------------------------
// CRC32C and the raw frame walker.
// ---------------------------------------------------------------------

TEST(Crc32c, KnownAnswer)
{
    // The canonical CRC32C check value (RFC 3720 appendix, "123456789").
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5',
                                   '6', '7', '8', '9'};
    EXPECT_EQ(wire::crc32c(digits, sizeof(digits)), 0xE3069283u);
    EXPECT_EQ(wire::crc32c(nullptr, 0), 0u);
    EXPECT_EQ(wire::crc32c_sw(digits, sizeof(digits)), 0xE3069283u);
    if (wire::crc32c_hw_supported()) {
        EXPECT_EQ(wire::crc32c_hw(digits, sizeof(digits)), 0xE3069283u);
    }
}

TEST(Crc32c, HardwarePathMatchesTablesAtEveryLengthAndAlignment)
{
    if (!wire::crc32c_hw_supported())
        GTEST_SKIP() << "host has no SSE4.2 crc32";
    // Lengths straddle the 8-byte fold and a whole page; alignments
    // cover every offset of the unaligned 8-byte loads.
    constexpr std::size_t kMaxLen = 4100;
    std::vector<std::uint8_t> buffer(kMaxLen + 8);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& byte : buffer) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        byte = static_cast<std::uint8_t>(x);
    }
    for (std::size_t align = 0; align < 8; ++align) {
        const std::uint8_t* data = buffer.data() + align;
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::uint32_t sw = wire::crc32c_sw(data, len);
            const std::uint32_t hw = wire::crc32c_hw(data, len);
            if (sw != hw) {
                ADD_FAILURE() << "len " << len << " align " << align;
                return;
            }
        }
    }
}

TEST(WireHeader, RoundTrip)
{
    wire::Header in;
    in.kind = wire::PayloadKind::kCheckpointDelta;
    in.frame_count = 42;
    std::vector<std::uint8_t> bytes;
    wire::encode_header(in, &bytes);
    ASSERT_EQ(bytes.size(), wire::kHeaderSize);

    wire::Header out;
    ASSERT_TRUE(wire::decode_header(bytes, &out).ok());
    EXPECT_EQ(out.magic, wire::kMagic);
    EXPECT_EQ(out.version, wire::kVersion);
    EXPECT_EQ(out.kind, wire::PayloadKind::kCheckpointDelta);
    EXPECT_EQ(out.frame_count, 42u);
}

TEST(WireHeader, FailureTaxonomyInCheckOrder)
{
    wire::Header header;
    std::vector<std::uint8_t> intact;
    wire::encode_header(header, &intact);

    // Too short for any header at all.
    {
        std::vector<std::uint8_t> bytes(intact.begin(), intact.begin() + 7);
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kTruncated);
    }
    // Foreign magic wins over everything else.
    {
        auto bytes = intact;
        bytes[0] ^= 0xff;
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kBadMagic);
    }
    // A future version is a version error even though the CRC (sealed
    // over the new version) would also mismatch the old bytes.
    {
        auto bytes = intact;
        ASSERT_TRUE(wire::set_header_version(&bytes, 9).ok());
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kBadVersion);
    }
    // Same magic and version, damaged elsewhere: header corruption.
    {
        auto bytes = intact;
        bytes[17] ^= 0x40;  // inside frame_count
        wire::Header out;
        EXPECT_EQ(wire::decode_header(bytes, &out).code(),
                  StatusCode::kHeaderCorrupt);
    }
}

TEST(WireFrames, RejectsCrossFeedingPayloadKinds)
{
    const auto bytes = log_image(3);
    const auto report = wire::read_frames(
        bytes, wire::PayloadKind::kCheckpointDelta,
        [](std::uint64_t, std::size_t, std::size_t) {
            return Status();
        });
    EXPECT_FALSE(report.intact());
    EXPECT_EQ(report.status.code(), StatusCode::kMalformedRecord);
}

TEST(WireFrames, TrailingGarbageIsDetected)
{
    auto bytes = log_image(2);
    bytes.push_back(0xab);
    InputLog out;
    const auto report = InputLog::deserialize_tolerant(bytes, &out);
    EXPECT_EQ(report.status.code(), StatusCode::kTrailingBytes);
    // Everything before the garbage was still recovered.
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(report.frames_recovered, 2u);
}

// ---------------------------------------------------------------------
// Input-log strict and tolerant parsing.
// ---------------------------------------------------------------------

TEST(LogWire, ZeroLengthImage)
{
    InputLog out;
    const Status status = InputLog::deserialize({}, &out);
    EXPECT_EQ(status.code(), StatusCode::kTruncated);
    EXPECT_EQ(out.size(), 0u);
}

TEST(LogWire, EmptyLogRoundTrips)
{
    const auto bytes = InputLog().serialize();
    EXPECT_EQ(bytes.size(), wire::kHeaderSize);
    InputLog out;
    EXPECT_TRUE(InputLog::deserialize(bytes, &out).ok());
    EXPECT_EQ(out.size(), 0u);
}

TEST(LogWire, EveryTruncationPointRecoversAPrefix)
{
    InputLog log;
    append_records(&log, 6);
    const auto bytes = log.serialize();

    for (std::size_t cut = wire::kHeaderSize; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> trunc(bytes.begin(),
                                              bytes.begin() + cut);
        InputLog out;
        const auto report = InputLog::deserialize_tolerant(trunc, &out);
        ASSERT_FALSE(report.intact());
        ASSERT_EQ(report.status.code(), StatusCode::kTruncated);
        // The recovered prefix is exact: every whole frame before the
        // cut, nothing after it, nothing half-parsed.
        ASSERT_EQ(out.size(), report.frames_recovered);
        ASSERT_LT(report.frames_recovered, log.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out.at(i).to_string(), log.at(i).to_string());
        // Strict parsing refuses the same bytes outright.
        InputLog strict;
        ASSERT_FALSE(InputLog::deserialize(trunc, &strict).ok());
        ASSERT_EQ(strict.size(), 0u);
    }
}

TEST(LogWire, SingleBitFlipNeverGoesUnnoticed)
{
    InputLog log;
    append_records(&log, 4);
    const auto bytes = log.serialize();

    // Flip one bit at every byte offset in turn: no position may yield
    // an "intact" verdict over different bytes (zero silent corruption).
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        auto mutated = bytes;
        mutated[pos] ^= 0x10;
        InputLog out;
        const auto report = InputLog::deserialize_tolerant(mutated, &out);
        ASSERT_FALSE(report.intact()) << "flip at byte " << pos;
    }
}

TEST(LogWire, ForensicReportLocatesTheDamage)
{
    InputLog log;
    append_records(&log, 5);
    auto bytes = log.serialize();

    std::vector<wire::FrameSpan> frames;
    ASSERT_TRUE(wire::index_frames(bytes, &frames).ok());
    ASSERT_EQ(frames.size(), 5u);

    // Damage record #3's payload.
    bytes[frames[3].offset + wire::kFrameHeaderSize] ^= 0xff;
    InputLog out;
    const auto report = InputLog::deserialize_tolerant(bytes, &out);
    EXPECT_EQ(report.status.code(), StatusCode::kChecksumMismatch);
    EXPECT_EQ(report.frames_recovered, 3u);
    EXPECT_EQ(report.frames_declared, 5u);
    EXPECT_EQ(report.corrupt_offset, frames[3].offset);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_NE(report.to_string().find("record #3"), std::string::npos);
}

TEST(LogWire, LegacyV1ImagesFailWithBadMagic)
{
    // A v1 image (bare magic + count + records) written by a retired
    // format revision: rejected at the header with a named status.
    InputLog log;
    append_records(&log, 3);
    std::vector<std::uint8_t> v1;
    constexpr std::uint64_t kLogMagicV1 = 0x52534146454C4F47ULL;
    for (int i = 0; i < 8; ++i)
        v1.push_back(
            static_cast<std::uint8_t>((kLogMagicV1 >> (8 * i)) & 0xff));
    const std::uint64_t count = log.size();
    for (int i = 0; i < 8; ++i)
        v1.push_back(static_cast<std::uint8_t>((count >> (8 * i)) & 0xff));
    for (std::size_t i = 0; i < log.size(); ++i)
        log.at(i).serialize(&v1);

    ASSERT_GT(v1.size(), wire::kHeaderSize);

    // Whole, and cut anywhere at or past the wire header: kBadMagic, no
    // records, never an abort.
    for (std::size_t len = wire::kHeaderSize; len <= v1.size(); ++len) {
        const std::vector<std::uint8_t> prefix(v1.begin(), v1.begin() + len);
        InputLog out;
        append_records(&out, 1);  // stale content must be cleared
        const auto report = InputLog::deserialize_tolerant(prefix, &out);
        EXPECT_EQ(report.status.code(), StatusCode::kBadMagic) << len;
        EXPECT_EQ(report.frames_recovered, 0u) << len;
        EXPECT_EQ(out.size(), 0u) << len;
        EXPECT_EQ(InputLog::deserialize(prefix, &out).code(),
                  StatusCode::kBadMagic);
    }

    // Shorter than a wire header: a named truncation, still no records.
    const std::vector<std::uint8_t> stub(v1.begin(), v1.begin() + 16);
    InputLog out;
    EXPECT_EQ(InputLog::deserialize_tolerant(stub, &out).status.code(),
              StatusCode::kTruncated);
    EXPECT_EQ(out.size(), 0u);
}

TEST(LogWire, FutureVersionIsAnExplicitVersionError)
{
    auto bytes = log_image(2);
    ASSERT_TRUE(wire::set_header_version(&bytes, wire::kVersion + 1).ok());
    InputLog out;
    const auto report = InputLog::deserialize_tolerant(bytes, &out);
    EXPECT_EQ(report.status.code(), StatusCode::kBadVersion);
    EXPECT_EQ(report.version, wire::kVersion + 1);
    EXPECT_NE(report.status.message().find("version"), std::string::npos);
}

TEST(LogRecordDecode, ErrorsNameFieldAndOffset)
{
    LogRecord in = sample_record(RecordType::kNicDma, 777);
    std::vector<std::uint8_t> bytes;
    in.serialize(&bytes);

    // Truncated mid-payload: the status says what was being read.
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.end() - 2);
    std::size_t pos = 0;
    LogRecord out;
    const Status status = LogRecord::decode(trunc, &pos, &out);
    EXPECT_EQ(status.code(), StatusCode::kTruncated);
    EXPECT_FALSE(status.message().empty());

    // Unknown record type: malformed, not truncated.
    auto bad_type = bytes;
    bad_type[0] = 0x7f;
    pos = 0;
    EXPECT_EQ(LogRecord::decode(bad_type, &pos, &out).code(),
              StatusCode::kMalformedRecord);
}

// ---------------------------------------------------------------------
// Short frames under valid CRCs: only the in-frame decoder can notice.
// ---------------------------------------------------------------------

/** @p image with frame @p index's payload one byte shorter and every
 *  frame re-sealed, so the envelope itself is intact. */
std::vector<std::uint8_t>
shorten_frame(const std::vector<std::uint8_t>& image, std::size_t index)
{
    wire::Header header;
    std::vector<std::vector<std::uint8_t>> frames;
    EXPECT_TRUE(wire::decode_header(image, &header).ok());
    EXPECT_TRUE(wire::read_frames(image, header.kind,
                                  [&](std::uint64_t, std::size_t offset,
                                      std::size_t length) {
                                      frames.emplace_back(
                                          image.begin() + offset,
                                          image.begin() + offset + length);
                                      return Status();
                                  })
                    .intact());
    frames.at(index).pop_back();
    std::vector<std::uint8_t> out;
    wire::encode_header(header, &out);
    for (std::size_t i = 0; i < frames.size(); ++i)
        wire::append_frame(static_cast<std::uint32_t>(i), frames[i].data(),
                           frames[i].size(), &out);
    return out;
}

TEST(WireCodecs, ShortFrameUnderValidCrcIsANamedDecodeError)
{
    using replay::ckpt::StoredPage;
    replay::ckpt::PagePool pool;
    std::vector<std::uint8_t> page(kPageSize, 0);
    const auto zero = pool.intern(page.data());
    for (std::size_t i = 0; i < kPageSize; ++i)
        page[i] = static_cast<std::uint8_t>(7 * i + 13);
    const auto raw = pool.intern(page.data());

    replay::Checkpoint ck;
    ck.id = 4;
    ck.blockdev.write_payload = {1, 2, 3};
    ck.ras.entries.push_back(cpu::RasEntry{0x2050, true});
    ck.backras[2].entries.push_back(cpu::RasEntry{0x3000, false});
    auto& pages = ck.stores[replay::ckpt::kRamStore];
    auto& blocks = ck.stores[replay::ckpt::kDiskStore];
    pages = replay::ckpt::StoredPageTable(3);
    pages.set(0, zero);
    pages.set(1, raw);
    blocks = replay::ckpt::StoredPageTable(1);
    blocks.set(0, raw);

    replay::ckpt::CheckpointDelta delta;
    delta.geometry = {3, 1};
    delta.retired = {5};
    delta.runs = {{0, 2, 7}, {3, 1, 0}};
    delta.carried = {std::make_shared<const StoredPage>(
        replay::ckpt::PageEncoding::kRaw,
        std::vector<std::uint8_t>(page.begin(), page.end()), 7,
        wire::crc32c(page))};

    analysis::StaticPolicy policy;
    policy.fallback = {0x1000, 0x2000};
    policy.code = {{0x1000, 0x3000}};
    policy.jit = {{0x8000, 0x9000}};
    analysis::IndirectSite site;
    site.site = 0x1100;
    site.resolved = true;
    site.targets = {0x1200, 0x1300};
    policy.sites.push_back(site);
    site.site = 0x1400;
    site.resolved = false;
    site.targets.clear();
    policy.sites.push_back(site);

    obs::ForensicReport report;
    report.cause = "attack";
    report.faulting_function = "k_vulnerable";
    report.gadgets.push_back(
        obs::GadgetInfo{0x6000, obs::GadgetClass::kLoad, "ld", "f"});

    obs::FlightBox box;
    box.reason = "dump";
    obs::FlightEntry entry;
    entry.tenant = "t";
    entry.label = "l";
    box.entries.push_back(entry);

    using Decode = std::function<Status(const std::vector<std::uint8_t>&)>;
    const struct {
        const char* kind;
        std::vector<std::uint8_t> image;
        Decode decode;
    } cases[] = {
        {"input log", log_image(12),
         [](const auto& bytes) {
             InputLog out;
             return InputLog::deserialize(bytes, &out);
         }},
        {"checkpoint image", replay::ckpt::serialize_checkpoint(ck),
         [](const auto& bytes) {
             replay::Checkpoint out;
             return replay::ckpt::deserialize_checkpoint(bytes, &out);
         }},
        {"checkpoint delta", replay::ckpt::serialize_delta(ck, delta),
         [](const auto& bytes) {
             replay::Checkpoint machine;
             replay::ckpt::CheckpointDelta out;
             return replay::ckpt::deserialize_delta(bytes, &machine, &out);
         }},
        {"policy table", policy.serialize(),
         [](const auto& bytes) {
             analysis::StaticPolicy out;
             return analysis::StaticPolicy::deserialize(bytes, &out);
         }},
        {"forensic report", report.serialize(),
         [](const auto& bytes) {
             obs::ForensicReport out;
             return obs::ForensicReport::deserialize(bytes, &out);
         }},
        {"flight box", box.serialize(),
         [](const auto& bytes) {
             obs::FlightBox out;
             return obs::FlightBox::deserialize(bytes, &out);
         }},
    };
    for (const auto& c : cases) {
        ASSERT_TRUE(c.decode(c.image).ok()) << c.kind;
        std::vector<wire::FrameSpan> spans;
        ASSERT_TRUE(wire::index_frames(c.image, &spans).ok()) << c.kind;
        std::size_t cut = 0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].size == wire::kFrameHeaderSize)
                continue;  // an empty frame has nothing to cut
            const std::vector<std::uint8_t> damaged =
                shorten_frame(c.image, i);
            const Status status = c.decode(damaged);
            EXPECT_TRUE(status.code() == StatusCode::kTruncated ||
                        status.code() == StatusCode::kMalformedRecord)
                << c.kind << " frame " << i << ": " << status.to_string();
            EXPECT_FALSE(status.message().empty()) << c.kind;
            ++cut;
        }
        EXPECT_GT(cut, 0u) << c.kind;
    }
}

// ---------------------------------------------------------------------
// The fault injector itself.
// ---------------------------------------------------------------------

TEST(Injector, SameSeedSameMutation)
{
    const auto image = log_image(5);
    for (const fault::FaultKind kind : fault::kAllFaultKinds) {
        fault::Injector a(42), b(42);
        auto image_a = image, image_b = image;
        fault::FaultReport ra, rb;
        ASSERT_TRUE(a.inject(kind, &image_a, &ra).ok());
        ASSERT_TRUE(b.inject(kind, &image_b, &rb).ok());
        EXPECT_EQ(image_a, image_b) << fault_kind_name(kind);
        EXPECT_EQ(ra.detail, rb.detail);
        EXPECT_FALSE(ra.detail.empty());
    }
}

TEST(Injector, DifferentSeedsDiverge)
{
    const auto image = log_image(16);
    auto image_a = image, image_b = image;
    fault::Injector a(1), b(2);
    fault::FaultReport report;
    ASSERT_TRUE(a.inject(fault::FaultKind::kBitFlip, &image_a, &report)
                    .ok());
    ASSERT_TRUE(b.inject(fault::FaultKind::kBitFlip, &image_b, &report)
                    .ok());
    EXPECT_NE(image_a, image_b);
}

TEST(Injector, RefusesImagesTooSmallForTheFault)
{
    const auto one_frame = log_image(1);
    fault::Injector injector(7);
    fault::FaultReport report;
    auto copy = one_frame;
    EXPECT_EQ(injector
                  .inject(fault::FaultKind::kDuplicateRecord, &copy,
                          &report)
                  .code(),
              StatusCode::kInvalidArgument);
    copy = one_frame;
    EXPECT_EQ(injector
                  .inject(fault::FaultKind::kReorderRecords, &copy,
                          &report)
                  .code(),
              StatusCode::kInvalidArgument);

    std::vector<std::uint8_t> garbage = {1, 2, 3};
    EXPECT_EQ(injector.inject(fault::FaultKind::kBitFlip, &garbage,
                              &report)
                  .code(),
              StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rsafe
