#include "mem/disk.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "common/fnv.h"
#include "common/log.h"

namespace rsafe::mem {

namespace {

std::uint64_t
next_disk_id()
{
    // Atomic: the framework's alarm-replayer worker pool builds VMs (and
    // thus disks) from several threads at once.
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Disk::Disk(std::size_t num_blocks)
    : blocks_(num_blocks), bytes_(num_blocks * kDiskBlockSize),
      id_(next_disk_id())
{
    if (num_blocks == 0)
        fatal("Disk: zero-sized disk");
    dirty_bits_.assign((num_blocks + 63) / 64, 0);
    block_epoch_.assign(num_blocks, 0);
}

void
Disk::read_block(BlockNum block, std::uint8_t* out) const
{
    if (block >= blocks_)
        panic("Disk::read_block out of range");
    std::memcpy(out, bytes_.data() + block * kDiskBlockSize, kDiskBlockSize);
}

void
Disk::write_block(BlockNum block, const std::uint8_t* data)
{
    if (block >= blocks_)
        panic("Disk::write_block out of range");
    std::memcpy(bytes_.data() + block * kDiskBlockSize, data, kDiskBlockSize);
    mark_dirty_block(block);
}

const std::uint8_t*
Disk::block_data(BlockNum block) const
{
    if (block >= blocks_)
        panic("Disk::block_data out of range");
    return bytes_.data() + block * kDiskBlockSize;
}

std::vector<BlockNum>
Disk::dirty_blocks() const
{
    std::vector<BlockNum> blocks;
    blocks.reserve(dirty_count_);
    for (std::size_t w = 0; w < dirty_bits_.size(); ++w) {
        std::uint64_t word = dirty_bits_[w];
        while (word != 0) {
            const int bit = std::countr_zero(word);
            blocks.push_back(static_cast<BlockNum>(w * 64 + bit));
            word &= word - 1;
        }
    }
    return blocks;
}

void
Disk::clear_dirty()
{
    std::memset(dirty_bits_.data(), 0,
                dirty_bits_.size() * sizeof(std::uint64_t));
    dirty_count_ = 0;
    ++epoch_;
}

std::uint64_t
Disk::content_hash() const
{
    std::uint64_t hash = kFnvOffset;
    for (BlockNum block = 0; block < blocks_; ++block) {
        hash = block_untouched(block)
                   ? hash * kFnvZeroPageFactor
                   : fnv1a64_update(hash, block_data(block), kDiskBlockSize);
    }
    return hash;
}

void
Disk::mark_dirty_block(BlockNum block)
{
    auto& word = dirty_bits_[block >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (block & 63);
    if ((word & bit) == 0) {
        word |= bit;
        ++dirty_count_;
        block_epoch_[block] = epoch_;
    }
}

}  // namespace rsafe::mem
