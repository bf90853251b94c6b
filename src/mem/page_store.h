#ifndef RSAFE_MEM_PAGE_STORE_H_
#define RSAFE_MEM_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/zeroed_buffer.h"

/**
 * @file
 * One page-granular store of guest state: guest RAM's bytes and the
 * virtual disk are both one of these.
 *
 * A checkpoint is "dirty pages + dirty disk blocks + CPU state + BackRAS"
 * (Section 4.6.1), so RAM and disk need the same bookkeeping, and it
 * lives here once:
 *  - a fixed number of kPageSize slots in one flat, lazily zeroed buffer
 *    (ZeroedBuffer), so raw pointers into it are stable and creating a
 *    large store is O(1);
 *  - a dirty bitmap (one bit per slot) with a cached count, which the
 *    checkpoint store reads to copy only what changed;
 *  - a store epoch that clear_dirty() advances, and per slot the last
 *    epoch it was dirtied in, which lets checkpoint restore rewrite only
 *    the slots that changed since the checkpoint was taken from this
 *    same store (id());
 *  - every writer marks its slot dirty, which stamps an epoch >= 1, so a
 *    slot whose epoch is still 0 was never written and is all zeros:
 *    untouched() lets checkpoints and content_hash() skip it unread.
 */

namespace rsafe::mem {

/** Fixed-size array of kPageSize slots with dirty and epoch tracking. */
class PageStore {
  public:
    /** Create @p num_slots zero-filled slots; fatal if zero. */
    explicit PageStore(std::size_t num_slots);

    /** @return number of slots. */
    std::size_t num_slots() const { return bytes_.size() / kPageSize; }

    /** @return size in bytes (num_slots() * kPageSize). */
    std::size_t size_bytes() const { return bytes_.size(); }

    /**
     * The flat bytes, slot i at offset i * kPageSize. Writing through
     * data() is unchecked and unrecorded: the writer must mark_dirty()
     * every slot it changes.
     * @{
     */
    std::uint8_t* data() { return bytes_.data(); }
    const std::uint8_t* data() const { return bytes_.data(); }
    /** @} */

    /** @return the kPageSize bytes of slot @p i (panics out of range). */
    const std::uint8_t* slot(std::uint64_t i) const;

    /**
     * Mark slot @p i dirty and @return its kPageSize bytes, which the
     * caller then overwrites (panics out of range).
     */
    std::uint8_t* overwrite(std::uint64_t i);

    /** Record a write to slot @p i (unchecked: @p i < num_slots()). */
    void mark_dirty(std::uint64_t i)
    {
        auto& word = dirty_bits_[i >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if ((word & bit) == 0) {
            word |= bit;
            ++dirty_count_;
            slot_epoch_[i] = epoch_;
        }
    }

    /** @return slots written since the last clear_dirty(), ascending. */
    std::vector<std::uint64_t> dirty_slots() const;

    /** @return number of dirty slots (O(1)). */
    std::size_t dirty_count() const { return dirty_count_; }

    /** Forget dirty state (checkpoint interval boundary); bumps epoch(). */
    void clear_dirty();

    /**
     * Delta-restore machinery. id() is unique to this store in the
     * process; epoch() counts clear_dirty() calls; epoch_of(i) is the
     * last epoch slot @p i was dirtied in. A slot is unchanged since a
     * checkpoint taken from this same store at epoch E iff
     * epoch_of(i) < E.
     * @{
     */
    std::uint64_t id() const { return id_; }
    std::uint64_t epoch() const { return epoch_; }
    std::uint64_t epoch_of(std::uint64_t i) const { return slot_epoch_[i]; }
    /** @} */

    /** @return true if nothing ever wrote slot @p i, so it is all zeros. */
    bool untouched(std::uint64_t i) const { return slot_epoch_[i] == 0; }

    /**
     * FNV-1a hash over every byte; the determinism test oracle.
     * Untouched slots hash as zeros without being read: O(touched slots).
     */
    std::uint64_t content_hash() const;

  private:
    ZeroedBuffer bytes_;
    std::vector<std::uint64_t> dirty_bits_;  ///< one bit per slot
    std::size_t dirty_count_ = 0;
    std::vector<std::uint64_t> slot_epoch_;  ///< last dirtying epoch
    std::uint64_t epoch_ = 1;
    std::uint64_t id_;
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_PAGE_STORE_H_
