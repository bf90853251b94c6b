/** @file Unit tests for guest memory and the virtual disk. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "mem/disk.h"
#include "mem/phys_mem.h"

namespace rsafe::mem {
namespace {

TEST(PhysMem, RoundsUpToPages)
{
    PhysMem mem(kPageSize + 1);
    EXPECT_EQ(mem.size(), 2 * kPageSize);
    EXPECT_EQ(mem.num_pages(), 2u);
}

TEST(PhysMem, ZeroSizedFails)
{
    EXPECT_THROW(PhysMem(0), FatalError);
}

TEST(PhysMem, ReadWriteLittleEndian)
{
    PhysMem mem(kPageSize);
    ASSERT_EQ(mem.write(0x10, 8, 0x1122334455667788ULL), MemResult::kOk);
    Word out = 0;
    ASSERT_EQ(mem.read(0x10, 8, &out), MemResult::kOk);
    EXPECT_EQ(out, 0x1122334455667788ULL);
    ASSERT_EQ(mem.read(0x10, 1, &out), MemResult::kOk);
    EXPECT_EQ(out, 0x88u);  // little-endian low byte first
}

TEST(PhysMem, OutOfRangeRejected)
{
    PhysMem mem(kPageSize);
    Word out;
    EXPECT_EQ(mem.read(kPageSize - 4, 8, &out), MemResult::kOutOfRange);
    EXPECT_EQ(mem.write(kPageSize, 1, 0), MemResult::kOutOfRange);
}

TEST(PhysMem, WxPermissionsEnforced)
{
    PhysMem mem(4 * kPageSize);
    mem.set_perms(0, kPageSize, kPermRX);
    mem.set_perms(kPageSize, kPageSize, kPermRW);

    // Store to an executable page fails: the W^X invariant.
    EXPECT_EQ(mem.write(0x10, 8, 1), MemResult::kNoPerm);
    // Fetch from a data page fails.
    std::uint8_t instr[kInstrBytes];
    EXPECT_EQ(mem.fetch(kPageSize + 8, instr), MemResult::kNoPerm);
    // The legal directions work.
    EXPECT_EQ(mem.fetch(0, instr), MemResult::kOk);
    EXPECT_EQ(mem.write(kPageSize, 8, 1), MemResult::kOk);
    Word out;
    EXPECT_EQ(mem.read(0, 8, &out), MemResult::kOk);  // RX allows reads
}

TEST(PhysMem, NoPermPageBlocksEverything)
{
    PhysMem mem(2 * kPageSize);
    mem.set_perms(0, kPageSize, kPermNone);
    Word out;
    std::uint8_t instr[kInstrBytes];
    EXPECT_EQ(mem.read(0, 8, &out), MemResult::kNoPerm);
    EXPECT_EQ(mem.write(0, 8, 1), MemResult::kNoPerm);
    EXPECT_EQ(mem.fetch(0, instr), MemResult::kNoPerm);
    EXPECT_EQ(mem.perms_at(0), kPermNone);
}

TEST(PhysMem, RawAccessIgnoresPerms)
{
    PhysMem mem(kPageSize);
    mem.set_perms(0, kPageSize, kPermNone);
    mem.write_raw(0x20, 8, 0xabcd);
    EXPECT_EQ(mem.read_raw(0x20, 8), 0xabcdu);
}

TEST(PhysMem, DirtyTracking)
{
    PhysMem mem(4 * kPageSize);
    mem.clear_dirty();
    EXPECT_EQ(mem.dirty_count(), 0u);
    ASSERT_EQ(mem.write(kPageSize + 8, 8, 7), MemResult::kOk);
    ASSERT_EQ(mem.write(3 * kPageSize, 8, 7), MemResult::kOk);
    const auto dirty = mem.dirty_pages();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0], 1u);
    EXPECT_EQ(dirty[1], 3u);
    mem.clear_dirty();
    EXPECT_EQ(mem.dirty_count(), 0u);
}

TEST(PhysMem, StraddlingWriteDirtiesBothPages)
{
    PhysMem mem(2 * kPageSize);
    mem.clear_dirty();
    ASSERT_EQ(mem.write(kPageSize - 4, 8, ~0ULL), MemResult::kOk);
    EXPECT_EQ(mem.dirty_pages().size(), 2u);
}

TEST(PhysMem, BlockTransfersAndPageData)
{
    PhysMem mem(2 * kPageSize);
    std::uint8_t buf[16];
    for (int i = 0; i < 16; ++i)
        buf[i] = static_cast<std::uint8_t>(i);
    mem.write_block(100, buf, 16);
    std::uint8_t out[16];
    mem.read_block(100, out, 16);
    EXPECT_EQ(0, memcmp(buf, out, 16));
    EXPECT_EQ(mem.page_data(0)[100], 0);
    EXPECT_EQ(mem.page_data(0)[105], 5);
}

TEST(PhysMem, RestorePage)
{
    PhysMem mem(2 * kPageSize);
    std::vector<std::uint8_t> page(kPageSize, 0x5a);
    mem.clear_dirty();
    mem.restore_page(1, page.data());
    EXPECT_EQ(mem.read_raw(kPageSize, 1), 0x5au);
    EXPECT_EQ(mem.dirty_pages(), std::vector<Addr>{1});
}

TEST(PhysMem, ContentHashDetectsChanges)
{
    PhysMem a(2 * kPageSize), b(2 * kPageSize);
    EXPECT_EQ(a.content_hash(), b.content_hash());
    a.write_raw(17, 1, 1);
    EXPECT_NE(a.content_hash(), b.content_hash());
    b.write_raw(17, 1, 1);
    EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST(Disk, ReadWriteBlocks)
{
    Disk disk(4);
    std::vector<std::uint8_t> block(kDiskBlockSize, 0x11);
    disk.write_block(2, block.data());
    std::vector<std::uint8_t> out(kDiskBlockSize);
    disk.read_block(2, out.data());
    EXPECT_EQ(out[0], 0x11);
    EXPECT_EQ(out[kDiskBlockSize - 1], 0x11);
}

TEST(Disk, DirtyTracking)
{
    Disk disk(4);
    std::vector<std::uint8_t> block(kDiskBlockSize, 0x22);
    disk.write_block(3, block.data());
    disk.write_block(1, block.data());
    const auto dirty = disk.dirty_blocks();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0], 1u);
    EXPECT_EQ(dirty[1], 3u);
    disk.clear_dirty();
    EXPECT_EQ(disk.dirty_count(), 0u);
}

TEST(Disk, OutOfRangePanics)
{
    Disk disk(2);
    std::vector<std::uint8_t> block(kDiskBlockSize);
    EXPECT_THROW(disk.read_block(2, block.data()), PanicError);
    EXPECT_THROW(disk.write_block(9, block.data()), PanicError);
    EXPECT_THROW(disk.block_data(5), PanicError);
}

TEST(Disk, ZeroBlocksFails)
{
    EXPECT_THROW(Disk(0), FatalError);
}

TEST(Disk, ContentHashDetectsChanges)
{
    Disk a(2), b(2);
    EXPECT_EQ(a.content_hash(), b.content_hash());
    std::vector<std::uint8_t> block(kDiskBlockSize, 1);
    a.write_block(0, block.data());
    EXPECT_NE(a.content_hash(), b.content_hash());
}

}  // namespace
}  // namespace rsafe::mem
