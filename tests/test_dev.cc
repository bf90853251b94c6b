/** @file Unit tests for the virtual devices and the device hub. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "dev/device_hub.h"
#include "mem/phys_mem.h"

namespace rsafe::dev {
namespace {

TEST(Timer, TscIsMonotonic)
{
    Timer timer(1, 0);
    std::uint64_t prev = 0;
    for (Cycles now = 0; now < 10000; now += 100) {
        const auto tsc = timer.read_tsc(now);
        EXPECT_GE(tsc, prev);
        prev = tsc;
    }
}

TEST(Timer, TscHasDrift)
{
    // The tsc must not be a pure function of the cycle count (otherwise
    // replay would not need the log).
    Timer timer(1, 0);
    const auto first = timer.read_tsc(1000);
    Timer timer2(1, 0);
    timer2.read_tsc(500);  // extra read advances the drift state
    const auto second = timer2.read_tsc(1000);
    EXPECT_NE(first, second);
}

TEST(Timer, SameSeedSameBehaviour)
{
    Timer a(7, 0), b(7, 0);
    for (Cycles now = 0; now < 5000; now += 50)
        EXPECT_EQ(a.read_tsc(now), b.read_tsc(now));
}

TEST(Timer, TicksAtPeriod)
{
    Timer timer(1, 1000);
    EXPECT_FALSE(timer.take_tick(999));
    EXPECT_TRUE(timer.take_tick(1000));
    EXPECT_FALSE(timer.take_tick(1000));  // consumed
    EXPECT_TRUE(timer.take_tick(2500));
    // Cadence is preserved: the next tick is at 3000, not 3500.
    EXPECT_EQ(timer.next_tick(), 3000u);
}

TEST(Timer, DisabledTickNeverFires)
{
    Timer timer(1, 0);
    EXPECT_FALSE(timer.take_tick(1u << 30));
    EXPECT_EQ(timer.next_tick(), ~static_cast<Cycles>(0));
}

TEST(Nic, GeneratesTraffic)
{
    Nic nic(5, 1000, 64, 256);
    nic.advance(100000);
    EXPECT_GT(nic.rx_available(), 0u);
    EXPECT_GT(nic.total_rx_packets(), 10u);
    const Packet pkt = nic.rx_pop();
    EXPECT_GE(pkt.payload.size(), 64u);
    EXPECT_LE(pkt.payload.size(), 256u);
}

TEST(Nic, DisabledGeneratesNothing)
{
    Nic nic(5, 0, 64, 256);
    nic.advance(1u << 30);
    EXPECT_EQ(nic.rx_available(), 0u);
    EXPECT_TRUE(nic.rx_pop().payload.empty());
}

TEST(Nic, QueueBounded)
{
    Nic nic(5, 10, 64, 64);
    nic.advance(10'000'000);
    EXPECT_LE(nic.rx_available(), 64u);
}

TEST(Nic, DeterministicForSeed)
{
    Nic a(9, 500, 64, 1500), b(9, 500, 64, 1500);
    a.advance(50000);
    b.advance(50000);
    ASSERT_EQ(a.rx_available(), b.rx_available());
    while (a.rx_available() > 0)
        EXPECT_EQ(a.rx_pop().payload, b.rx_pop().payload);
}

TEST(Nic, TxCounts)
{
    Nic nic(5, 0, 64, 64);
    nic.tx(100);
    nic.tx(200);
    EXPECT_EQ(nic.total_tx_packets(), 2u);
}

class BlockDevTest : public ::testing::Test {
  protected:
    BlockDevTest() : disk_(8), dev_(&disk_, 3, 100) {}
    mem::PageStore disk_;
    BlockDev dev_;
};

TEST_F(BlockDevTest, ReadCompletesWithData)
{
    std::vector<std::uint8_t> block(kDiskBlockSize, 0x7e);
    std::copy(block.begin(), block.end(), disk_.overwrite(3));

    dev_.set_block(3);
    dev_.set_addr(0x1000);
    dev_.go(0, /*is_read=*/true);
    EXPECT_EQ(dev_.status(), 0u);  // busy
    EXPECT_FALSE(dev_.take_completion(0).has_value());

    auto done = dev_.take_completion(dev_.next_completion());
    ASSERT_TRUE(done.has_value());
    EXPECT_TRUE(done->is_read);
    EXPECT_EQ(done->block, 3u);
    EXPECT_EQ(done->guest_addr, 0x1000u);
    ASSERT_EQ(done->data.size(), kDiskBlockSize);
    EXPECT_EQ(done->data[0], 0x7e);
    EXPECT_EQ(dev_.status(), 1u);  // idle again
}

TEST_F(BlockDevTest, WriteAppliedAtCompletion)
{
    std::vector<std::uint8_t> payload(kDiskBlockSize, 0x44);
    dev_.set_block(5);
    dev_.set_addr(0x2000);
    dev_.go(0, /*is_read=*/false, payload);
    // Not yet visible on the disk.
    EXPECT_NE(disk_.slot(5)[0], 0x44);
    auto done = dev_.take_completion(dev_.next_completion());
    ASSERT_TRUE(done.has_value());
    EXPECT_FALSE(done->is_read);
    EXPECT_EQ(disk_.slot(5)[0], 0x44);
}

TEST_F(BlockDevTest, BusyCommandDropped)
{
    dev_.set_block(1);
    dev_.set_addr(0);
    dev_.go(0, true);
    dev_.go(0, true);  // dropped with a warning
    (void)dev_.take_completion(dev_.next_completion());
    EXPECT_EQ(dev_.total_transfers(), 1u);
}

TEST_F(BlockDevTest, OutOfRangeBlockDropped)
{
    dev_.set_block(999);
    dev_.go(0, true);
    EXPECT_EQ(dev_.status(), 1u);  // still idle: command was rejected
}

TEST_F(BlockDevTest, StateExportImportRoundTrip)
{
    dev_.set_block(2);
    dev_.set_addr(0x3000);
    dev_.go(0, true);
    const auto state = dev_.export_state();
    EXPECT_TRUE(state.busy);
    EXPECT_TRUE(state.is_read);
    EXPECT_EQ(state.block, 2u);
    EXPECT_EQ(state.guest_addr, 0x3000u);

    mem::PageStore disk2(8);
    BlockDev dev2(&disk2, 99, 100);
    dev2.import_state(state);
    EXPECT_EQ(dev2.status(), 0u);  // busy restored
    auto done = dev2.take_completion(~static_cast<Cycles>(0));
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->block, 2u);
}

class HubTest : public ::testing::Test {
  protected:
    HubTest() : mem_(64 * kPageSize)
    {
        DeviceConfig config;
        config.seed = 11;
        config.timer_tick_period = 10'000;
        config.nic_mean_gap = 2'000;
        config.disk_blocks = 16;
        config.disk_mean_latency = 500;
        hub_ = std::make_unique<DeviceHub>(config, &mem_);
    }
    mem::PhysMem mem_;
    std::unique_ptr<DeviceHub> hub_;
};

TEST_F(HubTest, DiskCommandFlow)
{
    hub_->io_write(kPortDiskBlock, 2, 0);
    hub_->io_write(kPortDiskAddr, 0x4000, 0);
    hub_->io_write(kPortDiskGoRead, 0, 0);
    EXPECT_EQ(hub_->io_read(kPortDiskStatus, 0), 0u);  // busy

    bool got_disk_event = false;
    for (Cycles now = 0; now < 100'000 && !got_disk_event; now += 100) {
        auto event = hub_->take_event(now);
        if (event && event->vector == kIrqDisk) {
            got_disk_event = true;
            ASSERT_TRUE(event->disk.has_value());
            EXPECT_EQ(event->disk->block, 2u);
        }
    }
    EXPECT_TRUE(got_disk_event);
    EXPECT_EQ(hub_->io_read(kPortDiskStatus, 0), 1u);
}

TEST_F(HubTest, DiskWriteSnapshotsGuestBuffer)
{
    mem_.write_raw(0x4000, 8, 0xfeedULL);
    hub_->io_write(kPortDiskBlock, 1, 0);
    hub_->io_write(kPortDiskAddr, 0x4000, 0);
    hub_->io_write(kPortDiskGoWrite, 0, 0);
    // Mutate the buffer after submission: DMA must use the snapshot.
    mem_.write_raw(0x4000, 8, 0xdeadULL);
    auto done = hub_->force_disk_completion();
    ASSERT_TRUE(done.has_value());
    const auto* data = hub_->disk().slot(1);
    EXPECT_EQ(data[0], 0xed);
    EXPECT_EQ(data[1], 0xfe);
}

TEST_F(HubTest, NicReceiveFlow)
{
    // Let traffic accumulate, then pull one packet.
    Word status = hub_->mmio_read(kMmioBase + kNicStatus, 50'000);
    ASSERT_GT(status, 0u);
    auto effect = hub_->mmio_write(kMmioBase + kNicRxBuf, 0x8000, 50'000);
    ASSERT_TRUE(effect.has_dma);
    EXPECT_EQ(effect.dma_addr, 0x8000u);
    EXPECT_FALSE(effect.dma_data.empty());
    EXPECT_EQ(hub_->mmio_read(kMmioBase + kNicRxLen, 50'000),
              effect.dma_data.size());
}

TEST_F(HubTest, NicReceiveEmptyQueue)
{
    auto effect = hub_->mmio_write(kMmioBase + kNicRxBuf, 0x8000, 0);
    EXPECT_FALSE(effect.has_dma);
    EXPECT_EQ(hub_->mmio_read(kMmioBase + kNicRxLen, 0), 0u);
}

TEST_F(HubTest, TimerEventsFire)
{
    auto event = hub_->take_event(10'000);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->vector, kIrqTimer);
}

TEST_F(HubTest, NextEventCycleTracksTick)
{
    EXPECT_EQ(hub_->next_event_cycle(), 10'000u);
}

TEST(HubMisc, MmioRangePredicate)
{
    EXPECT_TRUE(is_mmio(kMmioBase));
    EXPECT_TRUE(is_mmio(kMmioBase + kMmioSize - 1));
    EXPECT_FALSE(is_mmio(kMmioBase - 1));
    EXPECT_FALSE(is_mmio(kMmioBase + kMmioSize));
    EXPECT_FALSE(is_mmio(0));
}

}  // namespace
}  // namespace rsafe::dev
