#ifndef RSAFE_COMMON_FNV_H_
#define RSAFE_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"

/**
 * @file
 * FNV-1a 64, the simulator's content hash (the record-vs-replay
 * determinism oracle and checkpoint state digests).
 *
 * XOR with a zero byte is a no-op, so FNV-1a over n zero bytes is a single
 * multiplication by kFnvPrime^n. Guest memory that was never written is
 * all zeros, which lets a content hash step over untouched pages without
 * reading them and still equal the byte-loop result.
 */

namespace rsafe {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Continue FNV-1a @p hash over @p len bytes at @p data. */
inline std::uint64_t
fnv1a64_update(std::uint64_t hash, const std::uint8_t* data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= data[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/** kFnvPrime^len mod 2^64: what FNV-1a does over @p len zero bytes. */
constexpr std::uint64_t
fnv1a64_zeros_factor(std::size_t len)
{
    std::uint64_t factor = 1;
    for (std::uint64_t base = kFnvPrime; len != 0; len >>= 1) {
        if (len & 1)
            factor *= base;
        base *= base;
    }
    return factor;
}

/** FNV-1a's step over one all-zero page (or disk block). */
inline constexpr std::uint64_t kFnvZeroPageFactor =
    fnv1a64_zeros_factor(kPageSize);

static_assert(kDiskBlockSize == kPageSize,
              "disk blocks share the zero-page hash factor");

}  // namespace rsafe

#endif  // RSAFE_COMMON_FNV_H_
