/** @file Unit tests for guest memory and the virtual disk. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "common/log.h"
#include "isa/program.h"
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

/** FNV-1a written out byte by byte: the reference content_hash must match. */
std::uint64_t
byte_loop_fnv(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Every page nothing wrote must read back as zeros. */
void
expect_untouched_pages_read_zero(const PhysMem& mem, const char* writer)
{
    std::vector<std::uint8_t> page(kPageSize);
    for (Addr p = 0; p < mem.num_pages(); ++p) {
        if (!mem.page_untouched(p))
            continue;
        mem.read_block(p * kPageSize, page.data(), kPageSize);
        EXPECT_EQ(std::count(page.begin(), page.end(), 0),
                  static_cast<std::ptrdiff_t>(kPageSize))
            << writer << ": untouched page " << p << " is not zero";
    }
}

TEST(PhysMem, EveryWriterTouchesExactlyItsPages)
{
    const std::vector<std::uint8_t> ones(kPageSize, 0x11);
    struct Writer {
        const char* name;
        std::function<void(PhysMem&)> write;
        std::vector<Addr> pages;
    };
    const std::vector<Writer> writers = {
        {"write", [](PhysMem& m) { m.write(2 * kPageSize + 8, 8, 7); }, {2}},
        {"write straddling",
         [](PhysMem& m) { m.write(3 * kPageSize - 4, 8, ~0ULL); },
         {2, 3}},
        // Writing zeros still touches: untouched implies zero, not the
        // converse.
        {"write_raw", [](PhysMem& m) { m.write_raw(kPageSize, 8, 0); }, {1}},
        {"write_block",
         [&](PhysMem& m) { m.write_block(4 * kPageSize - 16, ones.data(), 32); },
         {3, 4}},
        {"restore_page", [&](PhysMem& m) { m.restore_page(5, ones.data()); },
         {5}},
        {"load_image",
         [&](PhysMem& m) {
             m.load_image(isa::Image(6 * kPageSize + 64,
                                     std::vector<std::uint8_t>(100, 0x22)));
         },
         {6}},
    };
    for (const Writer& w : writers) {
        PhysMem mem(8 * kPageSize);
        for (Addr p = 0; p < mem.num_pages(); ++p)
            ASSERT_TRUE(mem.page_untouched(p));
        w.write(mem);
        for (Addr p = 0; p < mem.num_pages(); ++p) {
            const bool written = std::find(w.pages.begin(), w.pages.end(),
                                           p) != w.pages.end();
            EXPECT_EQ(mem.page_untouched(p), !written)
                << w.name << " page " << p;
        }
        // A new dirty epoch never makes a page untouched again.
        mem.clear_dirty();
        for (const Addr p : w.pages)
            EXPECT_FALSE(mem.page_untouched(p)) << w.name;
        expect_untouched_pages_read_zero(mem, w.name);
    }
}

TEST(Disk, WriteBlockTouchesExactlyItsBlock)
{
    Disk disk(4);
    const std::vector<std::uint8_t> zeros(kDiskBlockSize, 0);
    disk.write_block(2, zeros.data());
    disk.clear_dirty();
    std::vector<std::uint8_t> out(kDiskBlockSize, 0xff);
    for (BlockNum b = 0; b < disk.num_blocks(); ++b) {
        EXPECT_EQ(disk.block_untouched(b), b != 2) << "block " << b;
        disk.read_block(b, out.data());
        EXPECT_EQ(out, zeros);
    }
}

TEST(ContentHash, MatchesTheByteLoopOnSparseWrites)
{
    std::mt19937_64 rng(0x5eed);
    for (int round = 0; round < 8; ++round) {
        PhysMem mem(64 * kPageSize);
        Disk disk(32);
        std::vector<std::uint8_t> block(kDiskBlockSize);
        const int writes = static_cast<int>(rng() % 24);
        for (int i = 0; i < writes; ++i) {
            // Half the writes store zeros: touched pages that stay zero.
            const Word value = (rng() & 1) ? 0 : rng();
            mem.write_raw(rng() % (mem.size() - 8), 8, value);
            std::fill(block.begin(), block.end(),
                      static_cast<std::uint8_t>(value));
            disk.write_block(rng() % disk.num_blocks(), block.data());
        }
        std::vector<std::uint8_t> ram(mem.size());
        mem.read_block(0, ram.data(), ram.size());
        EXPECT_EQ(mem.content_hash(), byte_loop_fnv(ram)) << "round " << round;

        std::vector<std::uint8_t> image;
        for (BlockNum b = 0; b < disk.num_blocks(); ++b) {
            disk.read_block(b, block.data());
            image.insert(image.end(), block.begin(), block.end());
        }
        EXPECT_EQ(disk.content_hash(), byte_loop_fnv(image))
            << "round " << round;
    }
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
