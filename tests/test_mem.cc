/** @file Unit tests for the page store (guest RAM and the virtual disk
 *  both keep their slots in one) and for guest memory on top of it. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <ostream>
#include <random>
#include <vector>

#include "common/log.h"
#include "dev/device_hub.h"
#include "isa/program.h"
#include "kernel/layout.h"
#include "mem/page_store.h"
#include "mem/phys_mem.h"

namespace rsafe::mem {
namespace {

/** FNV-1a written out byte by byte: the reference content_hash must match. */
std::uint64_t
byte_loop_fnv(const std::uint8_t* bytes, std::size_t len)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Overwrite slot @p i of @p store with @p fill bytes. */
void
fill_slot(PageStore& store, std::uint64_t i, std::uint8_t fill)
{
    std::memset(store.overwrite(i), fill, kPageSize);
}

// ---------------------------------------------------------------------
// PageStore, at the sizes its two users give it.

struct StoreShape {
    const char* name;
    std::size_t slots;
};

/** Print a shape by name, so test names do not carry its bytes. */
void
PrintTo(const StoreShape& shape, std::ostream* os)
{
    *os << shape.name;
}

class PageStoreTest : public ::testing::TestWithParam<StoreShape> {
  protected:
    std::size_t slots() const { return GetParam().slots; }
    std::uint64_t last() const { return slots() - 1; }
};

TEST_P(PageStoreTest, DirtySlotsAreAscendingAndClearedPerInterval)
{
    PageStore store(slots());
    EXPECT_EQ(store.num_slots(), slots());
    EXPECT_EQ(store.size_bytes(), slots() * kPageSize);
    EXPECT_EQ(store.dirty_count(), 0u);

    // Written out of order, one slot twice: listed once, ascending.
    fill_slot(store, last(), 0x22);
    fill_slot(store, 1, 0x22);
    store.mark_dirty(last());
    EXPECT_EQ(store.dirty_count(), 2u);
    EXPECT_EQ(store.dirty_slots(), (std::vector<std::uint64_t>{1, last()}));

    store.clear_dirty();
    EXPECT_EQ(store.dirty_count(), 0u);
    EXPECT_TRUE(store.dirty_slots().empty());
    fill_slot(store, 0, 0x33);
    EXPECT_EQ(store.dirty_slots(), std::vector<std::uint64_t>{0});
}

TEST_P(PageStoreTest, EpochsTrackDirtyingAndZeroMeansUntouched)
{
    PageStore store(slots());
    EXPECT_EQ(store.epoch(), 1u);
    for (std::uint64_t i = 0; i < slots(); ++i) {
        ASSERT_TRUE(store.untouched(i));
        ASSERT_EQ(store.epoch_of(i), 0u);
    }

    // Writing zeros still touches: untouched implies zero, not the
    // converse.
    fill_slot(store, 1, 0);
    EXPECT_EQ(store.epoch_of(1), 1u);
    store.clear_dirty();
    EXPECT_EQ(store.epoch(), 2u);
    fill_slot(store, last(), 0x44);
    EXPECT_EQ(store.epoch_of(last()), 2u);
    // A slot dirtied before the epoch began is unchanged since then.
    EXPECT_LT(store.epoch_of(1), store.epoch());

    // A new epoch never makes a slot untouched again, and every slot
    // nothing wrote still reads as zeros.
    store.clear_dirty();
    const std::vector<std::uint8_t> zeros(kPageSize, 0);
    for (std::uint64_t i = 0; i < slots(); ++i) {
        const bool written = i == 1 || i == last();
        EXPECT_EQ(store.untouched(i), !written) << "slot " << i;
        if (!written) {
            EXPECT_EQ(std::memcmp(store.slot(i), zeros.data(), kPageSize), 0)
                << "untouched slot " << i << " is not zero";
        }
    }
    EXPECT_EQ(std::memcmp(store.slot(1), zeros.data(), kPageSize), 0);
}

TEST_P(PageStoreTest, OverwriteReadsBackThroughSlotAndTheFlatBytes)
{
    PageStore store(slots());
    fill_slot(store, last(), 0x11);
    EXPECT_EQ(store.slot(last())[0], 0x11);
    EXPECT_EQ(store.slot(last())[kPageSize - 1], 0x11);
    EXPECT_EQ(store.slot(last()), store.data() + last() * kPageSize);
    if (last() > 0) {
        EXPECT_EQ(store.slot(last() - 1)[kPageSize - 1], 0);
    }
}

TEST_P(PageStoreTest, ContentHashMatchesTheByteLoopOnSparseWrites)
{
    std::mt19937_64 rng(0x5eed);
    for (int round = 0; round < 4; ++round) {
        PageStore store(slots());
        const int writes = static_cast<int>(rng() % 24);
        for (int i = 0; i < writes; ++i) {
            // Half the writes store zeros: touched slots that stay zero.
            const std::uint64_t value = (rng() & 1) ? 0 : rng();
            const std::uint64_t slot = rng() % slots();
            if (rng() & 1) {
                fill_slot(store, slot, static_cast<std::uint8_t>(value));
            } else {
                // A word through the flat bytes, as RAM's fast path does.
                const std::size_t offset = rng() % (kPageSize - 8);
                std::memcpy(store.data() + slot * kPageSize + offset, &value,
                            8);
                store.mark_dirty(slot);
            }
        }
        EXPECT_EQ(store.content_hash(),
                  byte_loop_fnv(store.data(), store.size_bytes()))
            << "round " << round;
    }
}

TEST_P(PageStoreTest, ContentHashDetectsChanges)
{
    PageStore a(slots()), b(slots());
    EXPECT_EQ(a.content_hash(), b.content_hash());
    a.overwrite(last())[17] = 1;
    EXPECT_NE(a.content_hash(), b.content_hash());
    b.overwrite(last())[17] = 1;
    EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST_P(PageStoreTest, OutOfRangePanics)
{
    PageStore store(slots());
    EXPECT_THROW(store.slot(slots()), PanicError);
    EXPECT_THROW(store.overwrite(slots()), PanicError);
    EXPECT_THROW(store.overwrite(slots() + 5), PanicError);
    EXPECT_EQ(store.dirty_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Stores, PageStoreTest,
    ::testing::Values(
        // The default guest's RAM, one slot per page.
        StoreShape{"ram", kernel::kGuestRamBytes / kPageSize},
        // The default virtual disk, one slot per block.
        StoreShape{"disk", dev::DeviceConfig{}.disk_blocks},
        // Fewer slots than one dirty-bitmap word.
        StoreShape{"tiny", 3}),
    [](const ::testing::TestParamInfo<StoreShape>& info) {
        return std::string(info.param.name);
    });

TEST(PageStore, ZeroSlotsFails)
{
    EXPECT_THROW(PageStore(0), FatalError);
}

TEST(PageStore, IdsAreUniquePerStore)
{
    PageStore a(1), b(1);
    EXPECT_NE(a.id(), b.id());
}

// ---------------------------------------------------------------------
// PhysMem: permissions, guest accesses and code listeners over a store.

TEST(PhysMem, RoundsUpToPages)
{
    PhysMem mem(kPageSize + 1);
    EXPECT_EQ(mem.size(), 2 * kPageSize);
    EXPECT_EQ(mem.num_pages(), 2u);
    EXPECT_EQ(mem.store().num_slots(), 2u);
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
    // Guest word stores (the inline fast path) dirty exactly their pages.
    PhysMem mem(4 * kPageSize);
    mem.store().clear_dirty();
    EXPECT_EQ(mem.store().dirty_count(), 0u);
    ASSERT_EQ(mem.write(3 * kPageSize, 8, 7), MemResult::kOk);
    ASSERT_EQ(mem.write(kPageSize + 8, 8, 7), MemResult::kOk);
    EXPECT_EQ(mem.store().dirty_slots(), (std::vector<std::uint64_t>{1, 3}));
    mem.store().clear_dirty();
    EXPECT_EQ(mem.store().dirty_count(), 0u);
}

TEST(PhysMem, StraddlingWriteDirtiesBothPages)
{
    PhysMem mem(2 * kPageSize);
    mem.store().clear_dirty();
    ASSERT_EQ(mem.write(kPageSize - 4, 8, ~0ULL), MemResult::kOk);
    EXPECT_EQ(mem.store().dirty_slots().size(), 2u);
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
    EXPECT_EQ(mem.store().slot(0)[100], 0);
    EXPECT_EQ(mem.store().slot(0)[105], 5);
}

TEST(PhysMem, ContentHashDetectsChanges)
{
    PhysMem a(2 * kPageSize), b(2 * kPageSize);
    EXPECT_EQ(a.store().content_hash(), b.store().content_hash());
    a.write_raw(17, 1, 1);
    EXPECT_NE(a.store().content_hash(), b.store().content_hash());
    b.write_raw(17, 1, 1);
    EXPECT_EQ(a.store().content_hash(), b.store().content_hash());
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
        // Checkpoint restore's path: decode straight into the page.
        {"store overwrite",
         [&](PhysMem& m) {
             std::memcpy(m.store().overwrite(5), ones.data(), kPageSize);
         },
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
        const PageStore& store = mem.store();
        for (Addr p = 0; p < mem.num_pages(); ++p)
            ASSERT_TRUE(store.untouched(p));
        w.write(mem);
        for (Addr p = 0; p < mem.num_pages(); ++p) {
            const bool written = std::find(w.pages.begin(), w.pages.end(),
                                           p) != w.pages.end();
            EXPECT_EQ(store.untouched(p), !written)
                << w.name << " page " << p;
        }
        EXPECT_EQ(store.dirty_slots(),
                  std::vector<std::uint64_t>(w.pages.begin(), w.pages.end()))
            << w.name;
        // A new dirty epoch never makes a page untouched again.
        mem.store().clear_dirty();
        for (const Addr p : w.pages)
            EXPECT_FALSE(store.untouched(p)) << w.name;
        // Every page nothing wrote reads back as zeros.
        std::vector<std::uint8_t> page(kPageSize);
        for (Addr p = 0; p < mem.num_pages(); ++p) {
            if (!store.untouched(p))
                continue;
            mem.read_block(p * kPageSize, page.data(), kPageSize);
            EXPECT_EQ(std::count(page.begin(), page.end(), 0),
                      static_cast<std::ptrdiff_t>(kPageSize))
                << w.name << ": untouched page " << p << " is not zero";
        }
    }
}

/** Records every page a PhysMem reports as possibly holding new code. */
class RecordingListener : public CodeWriteListener {
  public:
    void on_code_page_touched(Addr page) override { pages.push_back(page); }
    std::vector<Addr> pages;
};

TEST(PhysMem, PrivilegedWritesAndPermChangesNotifyCodeListeners)
{
    PhysMem mem(4 * kPageSize);
    RecordingListener listener;
    mem.add_code_listener(&listener);
    mem.set_perms(0, kPageSize, kPermRX);
    mem.write_raw(2 * kPageSize - 4, 8, 1);  // straddles pages 1 and 2
    mem.write(3 * kPageSize, 8, 1);          // RW data page: not code
    mem.notify_code_write(3);
    EXPECT_EQ(listener.pages, (std::vector<Addr>{0, 1, 2, 3}));
    mem.remove_code_listener(&listener);
    mem.write_raw(0, 8, 1);
    EXPECT_EQ(listener.pages.size(), 4u);
}

}  // namespace
}  // namespace rsafe::mem
