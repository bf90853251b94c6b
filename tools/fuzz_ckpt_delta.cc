#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "ckpt_delta_sample.h"
#include "replay/checkpoint.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "replay/ckpt_store/ckpt_stream.h"

/**
 * @file
 * Fuzz target: checkpoint-stream delta images (PayloadKind::
 * kCheckpointDelta) and the receiver that ingests them.
 *
 * Arbitrary bytes — truncations, bit-flips, lying counts, out-of-range
 * slots, bad RLE, carried pages that fail their CRC, unknown or retired
 * keys, a wrong base — must land in the Status taxonomy, never crash.
 * Each input is decoded three ways, with a property on top of each:
 *  - an image deserialize_delta() accepts re-serializes to the same
 *    bytes (the encoding is canonical);
 *  - a standalone image deserialize_checkpoint() accepts re-serializes
 *    to an image that is accepted again, decodes to the same digest and
 *    re-serializes to the same bytes (export is a fixed point after one
 *    round);
 *  - decoded as the next image of the sample stream, a rejected input
 *    changes nothing: the stream's real next image still decodes, to
 *    the checkpoint the sender encoded.
 */

using rsafe::replay::Checkpoint;
using rsafe::replay::digest_of;
using rsafe::replay::ckpt::CheckpointDelta;
using rsafe::replay::ckpt::CheckpointStreamReceiver;
using rsafe::replay::ckpt::deserialize_checkpoint;
using rsafe::replay::ckpt::deserialize_delta;
using rsafe::replay::ckpt::serialize_checkpoint;
using rsafe::replay::ckpt::serialize_delta;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    static const rsafe::tools::DeltaSample sample =
        rsafe::tools::make_delta_sample();
    const std::vector<std::uint8_t> bytes(data, data + size);

    Checkpoint machine;
    CheckpointDelta delta;
    if (deserialize_delta(bytes, &machine, &delta).ok() &&
        serialize_delta(machine, delta) != bytes)
        std::abort();

    Checkpoint first;
    if (deserialize_checkpoint(bytes, &first).ok()) {
        const std::vector<std::uint8_t> canonical =
            serialize_checkpoint(first);
        Checkpoint second;
        if (!deserialize_checkpoint(canonical, &second).ok() ||
            !(digest_of(second) == digest_of(first)) ||
            serialize_checkpoint(second) != canonical)
            std::abort();
    }

    CheckpointStreamReceiver receiver;
    std::shared_ptr<const Checkpoint> ck;
    for (const auto& image : sample.prefix)
        if (!receiver.take(receiver.enqueue(image), &ck).ok())
            std::abort();
    const rsafe::Status status =
        receiver.take(receiver.enqueue(bytes), &ck);
    (void)status.to_string();
    if (status.ok()) {
        (void)digest_of(*ck);
        return 0;
    }
    if (!receiver.take(receiver.enqueue(sample.next), &ck).ok() ||
        !(digest_of(*ck) == sample.next_digest))
        std::abort();
    return 0;
}
