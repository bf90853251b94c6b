#ifndef RSAFE_RNR_WIRE_H_
#define RSAFE_RNR_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/status.h"

/**
 * @file
 * The hardened wire format shared by every serialized artifact that
 * crosses a machine boundary (the input log shipped from the recorded VM
 * to the replayers, checkpoint state digests).
 *
 * The log is the only channel between the recorded VM and the two
 * replayers (Figure 1); a corrupted or truncated log silently breaks the
 * determinism the alarm-replay verdicts depend on. Version 2 therefore
 * wraps every payload in a checksummed, versioned envelope:
 *
 *   Header (32 bytes):
 *     [ 0..8)   u64  magic       "RSAFEWIR"
 *     [ 8..10)  u16  version     (2)
 *     [10..12)  u16  payload kind (PayloadKind)
 *     [12..16)  u32  flags       (0, reserved)
 *     [16..24)  u64  frame count
 *     [24..28)  u32  reserved    (0)
 *     [28..32)  u32  CRC32C of bytes [0..28)
 *
 *   Frame (one record / one digest), repeated `frame count` times:
 *     [0..4)    u32  sequence number (0-based, consecutive)
 *     [4..8)    u32  payload length
 *     [8..12)   u32  CRC32C of (sequence ++ length ++ payload)
 *     [12..12+length)  payload bytes
 *
 * The frame CRC detects bit rot anywhere in the frame; the sequence
 * number detects record duplication and reordering even when every
 * individual frame is internally consistent. Decoding is
 * truncation-tolerant: read_frames() recovers every intact frame before
 * the first defect and reports exactly where and why decoding stopped
 * (LoadReport), so a replayer can run up to the corruption boundary
 * instead of aborting.
 */

namespace rsafe::rnr::wire {

/**
 * CRC32C (Castagnoli), bit-reflected, init/final XOR 0xffffffff. Runs on
 * the SSE4.2 crc32 instruction when the host has it (chosen once at
 * first use), else on portable slice-by-8 tables; both give identical
 * output.
 */
std::uint32_t crc32c(const std::uint8_t* data, std::size_t len);
std::uint32_t crc32c(const std::vector<std::uint8_t>& data);

/** The two CRC32C paths, for testing them against each other. @{ */
bool crc32c_hw_supported();
std::uint32_t crc32c_sw(const std::uint8_t* data, std::size_t len);
/** Panics when !crc32c_hw_supported(). */
std::uint32_t crc32c_hw(const std::uint8_t* data, std::size_t len);
/** @} */

/** FNV-1a 64-bit over raw bytes (state digests). @{ */
using rsafe::kFnvOffset;
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t len,
                      std::uint64_t seed = kFnvOffset);
std::uint64_t fnv1a64_u64(std::uint64_t value, std::uint64_t seed);
/** @} */

/** "RSAFEWIR", little-endian. */
inline constexpr std::uint64_t kMagic = 0x5249574546415352ULL;

/** The wire version this build writes and reads. */
inline constexpr std::uint16_t kVersion = 2;

inline constexpr std::size_t kHeaderSize = 32;
inline constexpr std::size_t kFrameHeaderSize = 12;

/** Upper bound on a single frame payload (sanity check on length). */
inline constexpr std::uint32_t kMaxFrameLength = 1u << 26;

/**
 * What the framed payload is (guards cross-feeding artifacts). Values 2
 * and 5 named retired checkpoint payloads (a state digest and a
 * slot-map image); they stay reserved and are never reused, so an old
 * file is rejected as a kind mismatch rather than misread.
 */
enum class PayloadKind : std::uint16_t {
    kInputLog = 1,
    kForensicReport = 3,
    kPolicyTable = 4,
    kFlightBox = 6,
    kCheckpointDelta = 7,
};

/** Decoded wire header. */
struct Header {
    std::uint64_t magic = kMagic;
    std::uint16_t version = kVersion;
    PayloadKind kind = PayloadKind::kInputLog;
    std::uint32_t flags = 0;
    std::uint64_t frame_count = 0;
};

/** Append the 32-byte encoding of @p header (CRC computed here). */
void encode_header(const Header& header, std::vector<std::uint8_t>* out);

/**
 * Decode and validate the header at the front of @p bytes.
 * Checks length, magic, version, and the header CRC — in that order, so
 * a legacy or foreign file reports kBadMagic/kBadVersion, not a
 * checksum error.
 */
Status decode_header(const std::vector<std::uint8_t>& bytes, Header* out);

/**
 * Frames written in place: begin_frame() appends frame @p seq's header
 * with its length and CRC blank and returns the frame's offset; the
 * caller appends the payload; end_frame() seals it, taking the payload
 * to end at the end of @p image. @{
 */
std::size_t begin_frame(std::uint32_t seq, std::vector<std::uint8_t>* image);
void end_frame(std::size_t frame, std::vector<std::uint8_t>* image);
/** @} */

/** Append one frame (sequence + length + CRC + payload) to @p out. */
void append_frame(std::uint32_t seq, const std::uint8_t* payload,
                  std::size_t len, std::vector<std::uint8_t>* out);

/**
 * Rewrite the version field of an encoded image in place and re-seal the
 * header CRC (fault injection / forward-compatibility tests).
 */
Status set_header_version(std::vector<std::uint8_t>* image,
                          std::uint16_t version);

/** Where and why a decode stopped (the forensic record). */
struct LoadReport {
    Status status;  ///< kOk iff the whole image decoded intact
    std::uint16_t version = 0;
    std::uint64_t frames_declared = 0;
    std::uint64_t frames_recovered = 0;
    std::uint64_t bytes_total = 0;
    /** Byte offset at which decoding stopped (== bytes_total if intact). */
    std::uint64_t corrupt_offset = 0;

    bool intact() const { return status.ok(); }

    /** One-line forensic summary. */
    std::string to_string() const;
};

/**
 * Consumer of one decoded frame: (sequence, payload offset into the
 * image, payload length). Returning an error stops the walk there; the
 * frame then does not count as recovered.
 */
using FrameSink =
    std::function<Status(std::uint64_t seq, std::size_t offset,
                         std::size_t length)>;

/**
 * Walk every frame of @p bytes, feeding intact frames to @p sink in
 * order. Never throws on malformed input: decoding stops at the first
 * defect (truncation, checksum mismatch, duplicate/reordered sequence,
 * sink rejection, trailing garbage) and the report says what was
 * recovered and what was lost.
 */
LoadReport read_frames(const std::vector<std::uint8_t>& bytes,
                       PayloadKind expected_kind, const FrameSink& sink);

/**
 * Index the frame extents of an intact image (offset and total size,
 * header included, of every frame). Fault injectors use this to aim
 * mutations at specific records.
 */
struct FrameSpan {
    std::size_t offset = 0;  ///< first byte of the frame header
    std::size_t size = 0;    ///< frame header + payload bytes
};
Status index_frames(const std::vector<std::uint8_t>& bytes,
                    std::vector<FrameSpan>* out);

}  // namespace rsafe::rnr::wire

#endif  // RSAFE_RNR_WIRE_H_
