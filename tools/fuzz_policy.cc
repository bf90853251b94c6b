#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "analysis/policy.h"

/**
 * @file
 * Fuzz target: static-policy table deserialization
 * (PayloadKind::kPolicyTable).
 *
 * The policy table is built offline by the analyzer and loaded by the
 * detectors, so its decoder faces bytes from outside the process.
 * Arbitrary input — truncations, bit-flips, lying address, region and
 * target counts, inverted regions, unsorted sets, short frames under
 * valid CRCs — must land in the Status taxonomy, never crash or
 * allocate what the image cannot hold. An accepted policy must reach a
 * canonical fixed point: re-serializing it yields bytes that decode to
 * an equal policy and re-serialize identically.
 */

using rsafe::analysis::StaticPolicy;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::vector<std::uint8_t> bytes(data, data + size);

    StaticPolicy first;
    const rsafe::Status status = StaticPolicy::deserialize(bytes, &first);
    (void)status.to_string();
    if (!status.ok())
        return 0;
    (void)first.to_string();

    const std::vector<std::uint8_t> canonical = first.serialize();
    StaticPolicy second;
    if (!StaticPolicy::deserialize(canonical, &second).ok())
        std::abort();
    if (!(second == first))
        std::abort();
    if (second.serialize() != canonical)
        std::abort();
    return 0;
}
