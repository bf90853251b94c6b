#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "obs/forensic.h"

/**
 * @file
 * Fuzz target: forensic-report deserialization
 * (PayloadKind::kForensicReport).
 *
 * A forensic report travels from the alarm replayer to the operator, so
 * its decoder sees bytes that crossed a machine boundary. Arbitrary
 * input — truncations, bit-flips, lying string lengths, out-of-range
 * gadget classes, short frames under valid CRCs, trailing garbage —
 * must land in the Status taxonomy, never crash. An accepted report
 * must reach a canonical fixed point: re-serializing it yields bytes
 * that decode to the same report and re-serialize identically.
 */

using rsafe::obs::ForensicReport;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::vector<std::uint8_t> bytes(data, data + size);

    ForensicReport first;
    const rsafe::Status status = ForensicReport::deserialize(bytes, &first);
    (void)status.to_string();
    if (!status.ok())
        return 0;
    (void)first.to_string();
    (void)first.to_json();

    const std::vector<std::uint8_t> canonical = first.serialize();
    ForensicReport second;
    if (!ForensicReport::deserialize(canonical, &second).ok())
        std::abort();
    if (second.log_index != first.log_index ||
        second.cause != first.cause ||
        second.target_function != first.target_function ||
        second.gadgets.size() != first.gadgets.size())
        std::abort();
    if (second.serialize() != canonical)
        std::abort();
    return 0;
}
