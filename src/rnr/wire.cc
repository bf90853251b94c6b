#include "rnr/wire.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/bytes.h"
#include "common/log.h"

namespace rsafe::rnr::wire {

namespace {

/** Castagnoli polynomial, bit-reflected. */
constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;

/** Slice-by-8 tables: t[k][b] is the CRC step of byte b followed by k
 *  zero bytes, so eight input bytes fold in with eight lookups. */
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

const Crc32cTables&
crc32c_tables()
{
    static const Crc32cTables tables = [] {
        Crc32cTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
            t[0][i] = crc;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
        return t;
    }();
    return tables;
}

/** Raw (no init/final XOR) slice-by-8 CRC update, for incremental use. */
std::uint32_t
crc32c_update_sw(std::uint32_t crc, const std::uint8_t* data,
                 std::size_t len)
{
    const auto& t = crc32c_tables();
    // Bytes are assembled explicitly (load_le32), so the result does not
    // depend on host endianness.
    for (; len >= 8; data += 8, len -= 8) {
        const std::uint32_t lo = crc ^ load_le32(data);
        const std::uint32_t hi = load_le32(data + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
              t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^
              t[0][hi >> 24];
    }
    for (; len != 0; ++data, --len)
        crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
    return crc;
}

#if defined(__x86_64__)
/** The same update on the SSE4.2 crc32 instruction (x86 is little-endian,
 *  so an unaligned 8-byte load folds in the same bytes in the same order
 *  as the table walk). */
__attribute__((target("sse4.2"))) std::uint32_t
crc32c_update_hw(std::uint32_t crc, const std::uint8_t* data,
                 std::size_t len)
{
    std::uint64_t wide = crc;
    for (; len >= 8; data += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, data, sizeof(word));
        wide = _mm_crc32_u64(wide, word);
    }
    crc = static_cast<std::uint32_t>(wide);
    for (; len != 0; ++data, --len)
        crc = _mm_crc32_u8(crc, *data);
    return crc;
}

bool
crc32c_hw_supported_now()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}
#else
std::uint32_t
crc32c_update_hw(std::uint32_t crc, const std::uint8_t* data,
                 std::size_t len)
{
    return crc32c_update_sw(crc, data, len);
}

bool
crc32c_hw_supported_now()
{
    return false;
}
#endif

/** Raw CRC update on the fastest path this host has (chosen once). */
std::uint32_t
crc32c_update(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    static const auto update =
        crc32c_hw_supported_now() ? &crc32c_update_hw : &crc32c_update_sw;
    return update(crc, data, len);
}

/** CRC32C of (seq ++ length ++ payload), the per-frame checksum, over
 *  the frame starting at @p frame. */
std::uint32_t
frame_crc(const std::uint8_t* frame, std::size_t length)
{
    const std::uint32_t crc = crc32c_update(0xffffffffu, frame, 8);
    return crc32c_update(crc, frame + kFrameHeaderSize, length) ^
           0xffffffffu;
}

}  // namespace

std::uint32_t
crc32c(const std::uint8_t* data, std::size_t len)
{
    return crc32c_update(0xffffffffu, data, len) ^ 0xffffffffu;
}

std::uint32_t
crc32c(const std::vector<std::uint8_t>& data)
{
    return crc32c(data.data(), data.size());
}

bool
crc32c_hw_supported()
{
    static const bool supported = crc32c_hw_supported_now();
    return supported;
}

std::uint32_t
crc32c_sw(const std::uint8_t* data, std::size_t len)
{
    return crc32c_update_sw(0xffffffffu, data, len) ^ 0xffffffffu;
}

std::uint32_t
crc32c_hw(const std::uint8_t* data, std::size_t len)
{
    if (!crc32c_hw_supported())
        panic("crc32c_hw: host lacks SSE4.2");
    return crc32c_update_hw(0xffffffffu, data, len) ^ 0xffffffffu;
}

std::uint64_t
fnv1a64(const std::uint8_t* data, std::size_t len, std::uint64_t seed)
{
    return fnv1a64_update(seed, data, len);
}

std::uint64_t
fnv1a64_u64(std::uint64_t value, std::uint64_t seed)
{
    std::uint8_t bytes[8];
    store_le(bytes, value, sizeof(bytes));
    return fnv1a64(bytes, sizeof(bytes), seed);
}

void
encode_header(const Header& header, std::vector<std::uint8_t>* out)
{
    const std::size_t base = out->size();
    out->resize(base + kHeaderSize);
    std::uint8_t* at = out->data() + base;
    store_le(at, header.magic, 8);
    store_le(at + 8, header.version, 2);
    store_le(at + 10, static_cast<std::uint16_t>(header.kind), 2);
    store_le(at + 12, header.flags, 4);
    store_le(at + 16, header.frame_count, 8);
    store_le(at + 24, 0, 4);  // reserved
    store_le(at + 28, crc32c(at, kHeaderSize - 4), 4);
}

Status
decode_header(const std::vector<std::uint8_t>& bytes, Header* out)
{
    if (bytes.size() < kHeaderSize) {
        return Status(StatusCode::kTruncated,
                      strcat_args("image is ", bytes.size(),
                                  " bytes, wire header needs ", kHeaderSize));
    }
    ByteReader in(bytes.data(), kHeaderSize, "wire header");
    out->magic = in.u64();
    if (out->magic != kMagic) {
        return Status(StatusCode::kBadMagic,
                      strcat_args("bad magic 0x", std::hex, out->magic,
                                  ", expected 0x", kMagic, std::dec));
    }
    out->version = in.u16();
    if (out->version != kVersion) {
        return Status(StatusCode::kBadVersion,
                      strcat_args("image is wire version ", out->version,
                                  "; this build reads version ", kVersion));
    }
    out->kind = static_cast<PayloadKind>(in.u16());
    out->flags = in.u32();
    out->frame_count = in.u64();
    (void)in.u32();  // reserved
    const std::uint32_t stored_crc = in.u32();
    const std::uint32_t actual_crc = crc32c(bytes.data(), kHeaderSize - 4);
    if (stored_crc != actual_crc) {
        return Status(StatusCode::kHeaderCorrupt,
                      strcat_args("header CRC 0x", std::hex, stored_crc,
                                  ", computed 0x", actual_crc, std::dec));
    }
    return Status();
}

std::size_t
begin_frame(std::uint32_t seq, std::vector<std::uint8_t>* image)
{
    const std::size_t frame = image->size();
    image->resize(frame + kFrameHeaderSize);
    store_le(image->data() + frame, seq, 4);
    return frame;
}

void
end_frame(std::size_t frame, std::vector<std::uint8_t>* image)
{
    const std::size_t len = image->size() - frame - kFrameHeaderSize;
    if (len > kMaxFrameLength)
        panic(strcat_args("wire frame payload of ", len, " bytes exceeds ",
                          kMaxFrameLength));
    std::uint8_t* p = image->data() + frame;
    store_le(p + 4, len, 4);
    store_le(p + 8, frame_crc(p, len), 4);
}

void
append_frame(std::uint32_t seq, const std::uint8_t* payload, std::size_t len,
             std::vector<std::uint8_t>* out)
{
    const std::size_t frame = begin_frame(seq, out);
    out->insert(out->end(), payload, payload + len);
    end_frame(frame, out);
}

Status
set_header_version(std::vector<std::uint8_t>* image, std::uint16_t version)
{
    if (image->size() < kHeaderSize)
        return Status(StatusCode::kInvalidArgument,
                      "image too short to carry a wire header");
    store_le(image->data() + 8, version, 2);
    store_le(image->data() + kHeaderSize - 4,
             crc32c(image->data(), kHeaderSize - 4), 4);
    return Status();
}

std::string
LoadReport::to_string() const
{
    if (intact()) {
        return strcat_args("intact wire v", version, " image: ",
                           frames_recovered, " records, ", bytes_total,
                           " bytes");
    }
    return strcat_args(status.to_string(), " [v", version, ", recovered ",
                       frames_recovered, "/", frames_declared,
                       " records, stopped at byte ", corrupt_offset, "/",
                       bytes_total, "]");
}

LoadReport
read_frames(const std::vector<std::uint8_t>& bytes, PayloadKind expected_kind,
            const FrameSink& sink)
{
    LoadReport report;
    report.bytes_total = bytes.size();

    Header header;
    report.status = decode_header(bytes, &header);
    if (!report.status.ok()) {
        // The version is only meaningful once the magic matched.
        if (report.status.code() == StatusCode::kBadVersion ||
            report.status.code() == StatusCode::kHeaderCorrupt) {
            report.version = header.version;
        }
        return report;
    }
    report.version = header.version;
    report.frames_declared = header.frame_count;
    if (header.kind != expected_kind) {
        report.status = Status(
            StatusCode::kMalformedRecord,
            strcat_args("payload kind ",
                        static_cast<unsigned>(header.kind), ", expected ",
                        static_cast<unsigned>(expected_kind)));
        return report;
    }

    std::size_t pos = kHeaderSize;
    for (std::uint64_t i = 0; i < header.frame_count; ++i) {
        report.corrupt_offset = pos;
        if (pos + kFrameHeaderSize > bytes.size()) {
            report.status = Status(
                StatusCode::kTruncated,
                strcat_args("record #", i, ": frame header truncated at byte ",
                            pos, " of ", bytes.size()));
            return report;
        }
        const std::uint8_t* p = bytes.data() + pos;
        const std::uint32_t seq = load_le32(p);
        const std::uint32_t length = load_le32(p + 4);
        const std::uint32_t stored_crc = load_le32(p + 8);
        if (length > kMaxFrameLength) {
            report.status = Status(
                StatusCode::kMalformedRecord,
                strcat_args("record #", i, ": implausible frame length ",
                            length));
            return report;
        }
        if (pos + kFrameHeaderSize + length > bytes.size()) {
            report.status = Status(
                StatusCode::kTruncated,
                strcat_args("record #", i, ": frame wants ", length,
                            " payload bytes, only ",
                            bytes.size() - pos - kFrameHeaderSize, " left"));
            return report;
        }
        const std::uint32_t actual_crc = frame_crc(p, length);
        if (stored_crc != actual_crc) {
            report.status = Status(
                StatusCode::kChecksumMismatch,
                strcat_args("record #", i, ": frame CRC 0x", std::hex,
                            stored_crc, ", computed 0x", actual_crc,
                            std::dec));
            return report;
        }
        // The frame is internally consistent; now check its ordering.
        if (seq != i) {
            const auto code = seq < i ? StatusCode::kDuplicateRecord
                                      : StatusCode::kReorderedRecord;
            report.status = Status(
                code, strcat_args("record #", i,
                                  ": frame carries sequence number ", seq));
            return report;
        }
        const Status sink_status =
            sink(seq, pos + kFrameHeaderSize, length);
        if (!sink_status.ok()) {
            report.status = sink_status;
            return report;
        }
        pos += kFrameHeaderSize + length;
        ++report.frames_recovered;
    }
    report.corrupt_offset = pos;
    if (pos != bytes.size()) {
        report.status = Status(
            StatusCode::kTrailingBytes,
            strcat_args(bytes.size() - pos,
                        " bytes of trailing garbage after the last record"));
        return report;
    }
    return report;
}

Status
index_frames(const std::vector<std::uint8_t>& bytes,
             std::vector<FrameSpan>* out)
{
    out->clear();
    Header header;
    const Status header_status = decode_header(bytes, &header);
    if (!header_status.ok())
        return header_status;
    const LoadReport report = read_frames(
        bytes, header.kind,
        [&](std::uint64_t, std::size_t offset, std::size_t length) {
            out->push_back(FrameSpan{offset - kFrameHeaderSize,
                                     kFrameHeaderSize + length});
            return Status();
        });
    return report.status;
}

}  // namespace rsafe::rnr::wire
