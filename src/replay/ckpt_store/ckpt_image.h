#ifndef RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_
#define RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "replay/ckpt_store/page_pool.h"

/**
 * @file
 * Checkpoint serialization: one wire form, the checkpoint-stream delta
 * image (PayloadKind::kCheckpointDelta).
 *
 * The shippable-checkpoint primitive: a Checkpoint serialized here and
 * deserialized in another process restores the same machine — an
 * AlarmReplayer boots from it plus the log's [checkpoint, alarm] range
 * and produces verdicts,
 * state digests, and counters bit-identical to the in-memory path. That
 * is what turns the fleet's alarm jobs into jobs a *remote* AR tier can
 * execute.
 *
 * A delta image is one step of a stream: it names its base (the
 * stream's previous checkpoint), lists only the slots whose page changed
 * since that base as runs of (slot, page key), carries only the pages
 * its receiver does not hold yet, and lists the keys the sender's pool
 * has retired. Page keys are PagePool keys: never reused, so a key
 * always names one content. ckpt_stream.h keeps the state on both ends.
 *
 *   frame 0   base id; the machine state: id/icount/cycles/log_pos/
 *             copies, the CPU (registers, pc, sp, mode, flags, pending
 *             irq), the block device (including an in-flight DMA write
 *             payload), the live RAS + BackRAS, thread context; the
 *             geometry (u64 pages, u64 blocks); and the counts R
 *             (retired keys), N (slot runs), C (carried pages);
 *   frame 1   R retired keys, u64 each, strictly ascending;
 *   frame 2   N slot runs: u32 first slot, u32 count, u64 key (0 = a
 *             null slot), ascending and disjoint; slots number the
 *             checkpoint's stores in order, RAM pages first, then disk
 *             blocks;
 *   frame 3+i carried page i: u64 key, u32 CRC32C of the raw content, a
 *             PageEncoding byte, the raw or RLE bytes (RLE streams must
 *             decode to exactly kPageSize); keys strictly ascending,
 *             each named by some run.
 *
 * A standalone checkpoint (the export image, serialize_checkpoint()) is
 * the first image of a one-image stream: no base, runs over every slot,
 * each distinct page carried once and no retired keys. Shared content is
 * stored once however many slots name it.
 *
 * Process-local fields (each store snapshot's source id and dirty epoch)
 * are excluded: a deserialized checkpoint's source ids are 0, which no
 * live store has, so restore_checkpoint() rewrites every slot except
 * zero pages over never-written target slots — exactly right for a
 * checkpoint arriving from elsewhere.
 *
 * deserialize_delta() checks everything one image can check on its own
 * (counts, order, slot range, RLE, each carried page's CRC) and is
 * strict and abort-free: truncation, bit-flips, lying counts or lengths
 * and malformed RLE all land in the Status taxonomy (fuzzed by
 * tools/fuzz_ckpt_delta.cc); keys and bases are the receiver's to check.
 * The encoding is canonical, so serialize(deserialize(serialize(x))) ==
 * serialize(x).
 */

namespace rsafe::replay {

struct Checkpoint;

namespace ckpt {

/** Cap on the total slots of a geometry: rejects lying geometries
 *  before any allocation sized by them. */
inline constexpr std::uint64_t kMaxImageSlots = 1ull << 22;

/** Cap on RAS entries (live or per thread) and on tracked threads. */
inline constexpr std::uint64_t kMaxImageRasEntries = 1ull << 20;

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
    /** Slots per store (kRamStore pages, kDiskStore blocks). */
    std::array<std::uint64_t, kNumStores> geometry{};
    /** @return the slots of every store together. */
    std::uint64_t total_slots() const
    {
        std::uint64_t total = 0;
        for (const std::uint64_t slots : geometry)
            total += slots;
        return total;
    }
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

/**
 * The delta taking @p base (null: a stream's first image) to
 * @p checkpoint, retired keys left empty: the base id, the geometry, the
 * changed slots coalesced into runs, and, sorted by key, every page of a
 * changed slot that @p carry accepts (asked once per changed slot).
 * Panics on a page no pool stored (key 0).
 */
CheckpointDelta diff_checkpoint(
    const Checkpoint* base, const Checkpoint& checkpoint,
    const std::function<bool(const StoredPage&)>& carry);

/**
 * Encode @p checkpoint as a standalone image: the first image of a
 * one-image stream. Leaves the pages' streamed marks and the pool's
 * retired-key log alone, so exporting never disturbs a live stream over
 * the same pool.
 */
std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& checkpoint);

/**
 * Decode a standalone image into @p out, through a fresh
 * CheckpointStreamReceiver: besides what deserialize_delta() rejects, an
 * image with a base is kWrongBase, one naming a key it does not carry
 * (retired ones included) is kUnknownKey and one leaving a slot unnamed
 * is kMalformedRecord. On success @p out is a complete checkpoint
 * (store identities zeroed); on failure it is unspecified and the
 * Status says where decoding stopped.
 */
Status deserialize_checkpoint(const std::vector<std::uint8_t>& bytes,
                              Checkpoint* out);

}  // namespace ckpt
}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_CKPT_STORE_CKPT_IMAGE_H_
