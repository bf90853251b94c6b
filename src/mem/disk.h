#ifndef RSAFE_MEM_DISK_H_
#define RSAFE_MEM_DISK_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/zeroed_buffer.h"

/**
 * @file
 * The guest's virtual disk image.
 *
 * Checkpoints must include disk blocks the VM has written (Section 4.6.1):
 * if replayed execution later reads them back, the data is not in the input
 * log, so it must come from the checkpointed disk state. The disk therefore
 * tracks dirty blocks exactly like PhysMem tracks dirty pages — a bitmap
 * with a cached count, plus the epoch machinery that lets checkpoint
 * restore skip blocks that have not changed since the checkpoint. Like
 * RAM, the bytes are lazily zeroed and a block with epoch 0 was never
 * written (block_untouched()).
 */

namespace rsafe::mem {

/** A block-addressable virtual disk with dirty-block tracking. */
class Disk {
  public:
    /** Create a disk of @p num_blocks blocks, zero-filled. */
    explicit Disk(std::size_t num_blocks);

    /** @return number of blocks. */
    std::size_t num_blocks() const { return blocks_; }

    /** Read block @p block into @p out (kDiskBlockSize bytes). */
    void read_block(BlockNum block, std::uint8_t* out) const;

    /** Write block @p block from @p data; marks it dirty. */
    void write_block(BlockNum block, const std::uint8_t* data);

    /** @return pointer to the raw bytes of @p block. */
    const std::uint8_t* block_data(BlockNum block) const;

    /** @return blocks written since the last clear_dirty(), sorted. */
    std::vector<BlockNum> dirty_blocks() const;

    /** @return number of dirty blocks (O(1)). */
    std::size_t dirty_count() const { return dirty_count_; }

    /** Forget dirty state (checkpoint interval boundary); bumps epoch(). */
    void clear_dirty();

    /**
     * Delta-restore machinery, mirroring PhysMem: a block is unchanged
     * since a checkpoint taken from this same Disk at epoch E iff
     * block_epoch(b) < E.
     * @{
     */
    std::uint64_t id() const { return id_; }
    std::uint64_t epoch() const { return epoch_; }
    std::uint64_t block_epoch(BlockNum block) const
    {
        return block_epoch_[block];
    }
    /** @} */

    /** @return true if nothing ever wrote @p block, so it is all zeros. */
    bool block_untouched(BlockNum block) const
    {
        return block_epoch_[block] == 0;
    }

    /** FNV-1a hash over the disk contents; O(touched blocks). */
    std::uint64_t content_hash() const;

  private:
    void mark_dirty_block(BlockNum block);

    std::size_t blocks_;
    ZeroedBuffer bytes_;
    std::vector<std::uint64_t> dirty_bits_;
    std::size_t dirty_count_ = 0;
    std::vector<std::uint64_t> block_epoch_;
    std::uint64_t epoch_ = 1;
    std::uint64_t id_;
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_DISK_H_
