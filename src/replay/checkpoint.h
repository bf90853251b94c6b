#ifndef RSAFE_REPLAY_CHECKPOINT_H_
#define RSAFE_REPLAY_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "cpu/cpu.h"
#include "cpu/ras.h"
#include "dev/blockdev.h"
#include "hv/hypervisor.h"
#include "hv/vm.h"
#include "mem/page_table.h"
#include "replay/ckpt_store/page_pool.h"

/**
 * @file
 * Incremental copy-on-write checkpoints (Section 4.6.1, Figure 4).
 *
 * A checkpoint holds (1) the full VM state — every memory page, the
 * processor state, and the virtual-disk contents — where pages/blocks
 * unmodified since the previous checkpoint are shared by reference with
 * it ("a pointer to it in the latest checkpoint that modified it");
 * (2) the InputLogPtr, the index of the next input-log record; and
 * (3) the BackRAS (including the live RAS of the current thread), which
 * the alarm replayer reads into its software RAS.
 *
 * Recycling falls out of shared ownership: dropping a checkpoint frees a
 * page only when no later checkpoint still references it.
 *
 * RAM and disk are both mem::PageStores, and a checkpoint holds one
 * slot table per store, RAM pages first: take, restore, digest and
 * shipping walk the two in one loop. A slot table is a persistent
 * chunked array shared between consecutive checkpoints — so taking an
 * incremental checkpoint costs O(dirty slots), not O(all slots).
 * Restore has one rule for every target VM: rewrite each slot except a
 * zero page over a slot nothing ever wrote.
 *
 * Page contents live in a content-hash dedup pool (ckpt_store/) that
 * RLE-compresses them, so the chain's stored footprint is a fraction of
 * the raw page bytes; the CheckpointStore recycles oldest-first under
 * both a count cap and a byte-denominated storage budget. A checkpoint
 * ships on the hardened wire format as a checkpoint-stream image
 * (PayloadKind::kCheckpointDelta, ckpt_store/ckpt_image.h; standalone, a
 * one-image stream) so an alarm replayer can boot from a checkpoint
 * shipped from another process.
 */

namespace rsafe::replay {

/** One checkpoint. */
struct Checkpoint {
    std::uint64_t id = 0;

    // (1) Full VM state: RAM pages and disk blocks, one slot table per
    // store (indexed by ckpt::kRamStore, ckpt::kDiskStore; slots are
    // incrementally shared and content-deduped), the CPU and the block
    // device.
    std::array<ckpt::StoredPageTable, ckpt::kNumStores> stores;
    cpu::CpuState cpu_state;
    Cycles cycles = 0;
    InstrCount icount = 0;
    std::optional<std::uint8_t> pending_irq;
    dev::BlockDevState blockdev;

    // (2) InputLogPtr.
    std::size_t log_pos = 0;

    // (3) BackRAS + the current thread's live RAS and tracking state.
    cpu::SavedRas ras;
    std::map<ThreadId, cpu::SavedRas> backras;
    ThreadId current_tid = 0;
    bool have_current_tid = false;
    bool context_dying = false;

    /** Pages+blocks copied when this checkpoint was taken (cost basis). */
    std::size_t copies = 0;
};

/**
 * A compact, machine-portable summary of a checkpoint's state: enough to
 * assert that two independently produced checkpoints captured the same
 * instant of the same execution (cross-pipeline determinism audits,
 * golden-corpus compatibility gates).
 *
 * Only run-deterministic fields participate, so digests compare equal
 * across processes.
 */
struct CheckpointDigest {
    std::uint64_t id = 0;
    std::uint64_t icount = 0;
    std::uint64_t cycles = 0;
    std::uint64_t log_pos = 0;
    std::uint64_t cpu_hash = 0;    ///< registers, pc, sp, mode, flags
    std::uint64_t pages_hash = 0;  ///< every captured RAM page, in order
    std::uint64_t blocks_hash = 0; ///< every captured disk block, in order
    std::uint64_t ras_hash = 0;    ///< live RAS + BackRAS + thread context

    bool operator==(const CheckpointDigest&) const = default;

    /** FNV-1a 64 chained over the eight fields in declaration order:
     *  one value that pins the digest (the golden checkpoint manifest). */
    std::uint64_t hash() const;

    /** One-line rendering (diagnostics). */
    std::string to_string() const;
};

/** Compute the digest of @p checkpoint. */
CheckpointDigest digest_of(const Checkpoint& checkpoint);

/** CheckpointStore configuration. */
struct CheckpointStoreOptions {
    /** Keep at most this many checkpoints (0 = unlimited history). */
    std::size_t max_keep = 0;
    /**
     * Byte-denominated storage budget: after a take(), the oldest
     * checkpoints are recycled until the pool's live encoded bytes fit
     * (0 = unlimited). The newest checkpoint is always kept, so the
     * budget bounds history depth, never correctness; an alarm older
     * than the oldest surviving checkpoint surfaces as a clean
     * checkpoint-unavailable verdict, not UB.
     */
    std::uint64_t byte_budget = 0;
};

/** Storage accounting for one store (see PagePoolStats). */
struct CheckpointStoreStats {
    std::uint64_t bytes_raw = 0;      ///< page copies at raw page size
    std::uint64_t bytes_stored = 0;   ///< cumulative unique encoded bytes
    std::uint64_t dedup_hits = 0;     ///< copies shared instead of stored
    std::uint64_t compressed_pages = 0;
    std::uint64_t live_bytes = 0;     ///< encoded bytes still referenced
    std::uint64_t live_pages = 0;
    std::uint64_t budget_evictions = 0;  ///< checkpoints dropped to budget
    std::uint64_t count_evictions = 0;   ///< checkpoints dropped to max_keep
};

/** Builds, retains, and recycles checkpoints for one replay stream. */
class CheckpointStore {
  public:
    /** Keep at most @p max_keep checkpoints (0 = unlimited history). */
    explicit CheckpointStore(std::size_t max_keep);

    /** Full configuration. */
    explicit CheckpointStore(const CheckpointStoreOptions& options);

    /**
     * Take a checkpoint of @p vm at the current instant.
     *
     * The first checkpoint copies every page/block; later ones copy only
     * pages/blocks dirtied since the previous call and share the rest.
     * Clears both stores' dirty tracking.
     *
     * @param env      the replay environment (for BackRAS and context).
     * @param log_pos  the InputLogPtr to store.
     * @return the new checkpoint (owned by the store).
     */
    std::shared_ptr<const Checkpoint> take(hv::Vm& vm,
                                           const hv::VmEnvBase& env,
                                           std::size_t log_pos);

    /** @return the most recent checkpoint, or nullptr. */
    std::shared_ptr<const Checkpoint> latest() const;

    /** @return number of retained checkpoints. */
    std::size_t size() const { return checkpoints_.size(); }

    /** @return checkpoint @p i (oldest first). */
    std::shared_ptr<const Checkpoint> at(std::size_t i) const;

    /** @return total pages+blocks copied across all checkpoints. */
    std::uint64_t total_copies() const
    {
        return pool_.stats().pages_interned;
    }

    /** Storage accounting (dedup, compression, recycling). */
    CheckpointStoreStats stats() const;

    /** The configuration this store was built with. */
    const CheckpointStoreOptions& options() const { return options_; }

    /** The page pool every checkpoint of this store interns into. */
    ckpt::PagePool& pool() { return pool_; }

  private:
    /** Recycle oldest-first until count and byte budget both fit. */
    void enforce_budget();

    CheckpointStoreOptions options_;
    std::uint64_t next_id_ = 0;
    ckpt::PagePool pool_;
    std::uint64_t budget_evictions_ = 0;
    std::uint64_t count_evictions_ = 0;
    std::deque<std::shared_ptr<const Checkpoint>> checkpoints_;
};

/**
 * @return why @p checkpoint cannot restore into @p vm, naming both
 * geometries (pages+blocks), or "" when they match.
 */
std::string geometry_mismatch(const Checkpoint& checkpoint,
                              const hv::Vm& vm);

/**
 * Restore @p checkpoint into @p vm / @p env (the alarm replayer's first
 * step, Section 4.6.2). The VM must have the checkpoint's geometry: a
 * mismatch is fatal, so a caller holding a checkpoint from elsewhere
 * checks geometry_mismatch() first.
 *
 * Every slot is rewritten except a zero page over a slot nothing ever
 * wrote (mem::PageStore::untouched()), which already holds zeros. Each
 * rewritten slot's stored page decodes straight into the store's
 * bytes; a rewritten RAM page also notifies the code-write listeners.
 * Both stores' dirty sets are cleared, so a later take or rollback
 * finds in them exactly what ran after the restore.
 */
void restore_checkpoint(const Checkpoint& checkpoint, hv::Vm* vm,
                        hv::VmEnvBase* env);

}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_CHECKPOINT_H_
