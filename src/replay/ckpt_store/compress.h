#ifndef RSAFE_REPLAY_CKPT_STORE_COMPRESS_H_
#define RSAFE_REPLAY_CKPT_STORE_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

/**
 * @file
 * Byte-run-length page codec for checkpoint storage.
 *
 * Guest pages are mostly zeros (and disk blocks mostly repeat), so a
 * byte-oriented RLE gets order-of-magnitude reductions without pulling in
 * a real compressor. The stream is a sequence of tokens:
 *
 *   control c in [0x00, 0x7f]: literal run — the next c+1 bytes are
 *       copied verbatim;
 *   control c in [0x80, 0xff]: repeat run — the next byte is repeated
 *       (c - 0x80) + kMinRun times, i.e. runs of 4..131 bytes.
 *
 * Runs shorter than kMinRun are cheaper as literals, so the encoder never
 * emits them and the format never needs a run length below 4. Decoding is
 * fully bounds-checked and must produce exactly the advertised output
 * length: a stream that overruns its input, overflows the output, or
 * stops short is malformed, never UB — these bytes arrive over the wire
 * (PayloadKind::kCheckpointDelta) and are fuzzed.
 */

namespace rsafe::replay::ckpt {

/** Shortest run worth a repeat token (and the repeat-length bias). */
inline constexpr std::size_t kMinRun = 4;

/** Longest run one repeat token can carry. */
inline constexpr std::size_t kMaxRun = kMinRun + 0x7f;

/**
 * RLE-encode @p len bytes at @p data. The encoding round-trips exactly
 * (rle_decompress(rle_compress(x)) == x) and is canonical: the encoder is
 * deterministic, so equal inputs produce equal streams.
 */
std::vector<std::uint8_t> rle_compress(const std::uint8_t* data,
                                       std::size_t len);

/**
 * Decode @p len bytes at @p data into exactly @p out_len bytes at @p out.
 * Any defect — truncated token, output overflow, trailing input, or a
 * stream producing fewer than @p out_len bytes — is kMalformedRecord.
 */
Status rle_decompress(const std::uint8_t* data, std::size_t len,
                      std::uint8_t* out, std::size_t out_len);

}  // namespace rsafe::replay::ckpt

#endif  // RSAFE_REPLAY_CKPT_STORE_COMPRESS_H_
