#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "rnr/wire.h"

/**
 * @file
 * Fuzz target: the raw wire-format frame walker.
 *
 * Feeds arbitrary bytes to wire::read_frames() under both payload kinds
 * and to wire::index_frames(). The walker's contract is that it never
 * crashes, never reads out of bounds (the sink re-touches every byte it
 * is handed), and that every offset/length pair it reports stays inside
 * the image. Built with -fsanitize=fuzzer under Clang; under other
 * toolchains tools/fuzz_driver.cc supplies a corpus-replay main.
 */

namespace wire = rsafe::rnr::wire;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::vector<std::uint8_t> bytes(data, data + size);

    for (const auto kind : {wire::PayloadKind::kInputLog,
                            wire::PayloadKind::kCheckpointDelta}) {
        std::uint8_t folded = 0;
        const wire::LoadReport report = wire::read_frames(
            bytes, kind,
            [&](std::uint64_t, std::size_t offset, std::size_t length) {
                // Every reported extent must lie inside the image.
                if (offset > bytes.size() || length > bytes.size() - offset)
                    std::abort();
                for (std::size_t i = 0; i < length; ++i)
                    folded ^= bytes[offset + i];
                return rsafe::Status();
            });
        // One volatile store keeps every extent read above from being
        // optimised away.
        volatile std::uint8_t sink_byte = folded;
        (void)sink_byte;
        // The forensic fields must be self-consistent whatever the input.
        if (report.bytes_total != bytes.size())
            std::abort();
        if (report.corrupt_offset > report.bytes_total)
            std::abort();
        if (report.intact() && report.frames_recovered !=
                                   report.frames_declared)
            std::abort();
        (void)report.to_string();
    }

    std::vector<wire::FrameSpan> spans;
    if (wire::index_frames(bytes, &spans).ok()) {
        for (const auto& span : spans)
            if (span.offset > bytes.size() ||
                span.size > bytes.size() - span.offset)
                std::abort();
    }
    return 0;
}
