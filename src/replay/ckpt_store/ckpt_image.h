#ifndef RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_
#define RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "replay/ckpt_store/page_pool.h"

/**
 * @file
 * Checkpoint serialization: complete images (PayloadKind::
 * kCheckpointImage) and stream deltas (PayloadKind::kCheckpointDelta).
 *
 * The shippable-checkpoint primitive: a Checkpoint serialized here and
 * deserialized in another process restores the same machine — an
 * AlarmReplayer boots from it plus a log slice and produces verdicts,
 * state digests, and counters bit-identical to the in-memory path. That
 * is what turns the fleet's alarm jobs into jobs a *remote* AR tier can
 * execute.
 *
 * Image layout (on the hardened wire envelope of rnr/wire.h):
 *
 *   frame 0   machine state: id/icount/cycles/log_pos/copies, the CPU
 *             (registers, pc, sp, mode, flags, pending irq), the block
 *             device (including an in-flight DMA write payload), the
 *             live RAS + BackRAS, thread context, the page/block
 *             geometry, and the unique-page count U;
 *   frame 1   the slot map: one u32 per page then per block naming the
 *             unique page holding that slot's content (0xffffffff for a
 *             null slot) — this is the dedup structure on the wire:
 *             shared content is stored once and referenced many times;
 *   frame 2+i unique page i: a PageEncoding byte, then the raw or RLE
 *             bytes (RLE streams must decode to exactly kPageSize).
 *
 * Process-local fields (mem/disk identity and dirty epochs) are
 * excluded: a deserialized checkpoint never matches a live memory's id,
 * so restore_checkpoint() rewrites every slot except zero pages over
 * never-written target pages — exactly right for a checkpoint arriving
 * from elsewhere.
 *
 * deserialize_checkpoint() is strict and abort-free: truncation,
 * bit-flips, lying counts or lengths, out-of-range slot references, and
 * malformed RLE all land in the Status taxonomy (fuzzed by
 * tools/fuzz_ckpt_image.cc). Serialization is canonical — unique pages
 * appear in first-use order — so serialize(deserialize(serialize(x)))
 * == serialize(x). This is the self-contained export format.
 *
 * The delta image (PayloadKind::kCheckpointDelta) is the same machine
 * instant as one step of a stream: it names its base (the stream's
 * previous checkpoint), lists only the slots whose page changed since
 * that base as runs of (slot, page key), carries only the pages its
 * receiver does not hold yet, and lists the keys the sender's pool has
 * retired. Page keys are PagePool keys: never reused, so a key always
 * names one content. ckpt_stream.h keeps the state on both ends.
 *
 *   frame 0   base id, the machine state above, the geometry, and the
 *             counts R (retired keys), N (slot runs), C (carried pages);
 *   frame 1   R retired keys, u64 each, strictly ascending;
 *   frame 2   N slot runs: u32 first slot, u32 count, u64 key (0 = a
 *             null slot), ascending and disjoint, slots numbered as in
 *             the slot map above;
 *   frame 3+i carried page i: u64 key, u32 CRC32C of the raw content, a
 *             PageEncoding byte, the raw or RLE bytes; keys strictly
 *             ascending, each named by some run.
 *
 * deserialize_delta() checks everything one image can check on its own
 * (counts, order, slot range, RLE, each carried page's CRC) and is as
 * strict and abort-free as deserialize_checkpoint() (fuzzed by
 * tools/fuzz_ckpt_delta.cc); keys and bases are the receiver's to check.
 */

namespace rsafe::replay {

struct Checkpoint;

namespace ckpt {

/** Slot-map entry marking a null (never-captured) slot. */
inline constexpr std::uint32_t kNullSlot = 0xffffffffu;

/** Cap on num_pages + num_blocks: rejects lying geometries before any
 *  allocation sized by them (a 4M-slot map is a 16 MiB frame, inside the
 *  wire format's 64 MiB frame bound). */
inline constexpr std::uint64_t kMaxImageSlots = 1ull << 22;

/** Cap on RAS entries (live or per thread) and on tracked threads. */
inline constexpr std::uint64_t kMaxImageRasEntries = 1ull << 20;

/** Encode @p checkpoint as a kCheckpointImage wire image. */
std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& checkpoint);

/**
 * Strict parse of @p bytes into @p out. On success @p out is a complete
 * checkpoint (mem/disk identity zeroed); on failure @p out is
 * unspecified and the Status says where decoding stopped.
 */
Status deserialize_checkpoint(const std::vector<std::uint8_t>& bytes,
                              Checkpoint* out);

/** Delta-image base id of a stream's first image (no base). */
inline constexpr std::uint64_t kNoBase = ~std::uint64_t{0};

/** Consecutive slots that all take the page of one key (0 = null). */
struct DeltaRun {
    std::uint32_t first_slot = 0;  ///< pages first, then blocks
    std::uint32_t count = 0;
    std::uint64_t key = 0;

    bool operator==(const DeltaRun&) const = default;
};

/** Everything a kCheckpointDelta image holds besides the machine state. */
struct CheckpointDelta {
    /** Id of the checkpoint this one is a delta against, or kNoBase. */
    std::uint64_t base_id = kNoBase;
    std::uint64_t num_pages = 0;
    std::uint64_t num_blocks = 0;
    /** Keys the receiver must forget, strictly ascending. */
    std::vector<std::uint64_t> retired;
    /** The changed slots, ascending and disjoint. */
    std::vector<DeltaRun> runs;
    /** Pages the receiver lacks, strictly ascending by key(); each
     *  carries its key and CRC32C. */
    std::vector<StoredPageRef> carried;
};

/** Encode @p machine's state (its page tables are ignored) and @p delta
 *  as a kCheckpointDelta wire image. */
std::vector<std::uint8_t> serialize_delta(const Checkpoint& machine,
                                          const CheckpointDelta& delta);

/**
 * Strict parse of a kCheckpointDelta image: @p machine gets the machine
 * state (empty page tables), @p delta the rest, every carried page
 * checked against its CRC. On failure both are unspecified.
 */
Status deserialize_delta(const std::vector<std::uint8_t>& bytes,
                         Checkpoint* machine, CheckpointDelta* delta);

}  // namespace ckpt
}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_
