#ifndef RSAFE_DEV_DEVICE_HUB_H_
#define RSAFE_DEV_DEVICE_HUB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "dev/blockdev.h"
#include "dev/nic.h"
#include "dev/timer.h"
#include "mem/page_store.h"
#include "mem/phys_mem.h"

/**
 * @file
 * The virtual device hub: the single point through which the hypervisor
 * mediates all guest I/O (the "hypervisor-mediated I/O" model of Xen/QEMU
 * assumed in Section 2.1).
 *
 * The hub owns the virtual timer, NIC, and DMA disk controller, defines
 * the guest-visible port/MMIO register map, and reports asynchronous
 * events (timer ticks, disk completions) to the hypervisor. Mediated
 * accesses return their DMA side effects explicitly so the recorder can
 * log exactly the bytes that were copied into the guest.
 */

namespace rsafe::dev {

/** Guest pio port numbers. */
enum Port : std::uint16_t {
    kPortDiskStatus = 0x10,   ///< in: 1 if the controller is idle
    kPortDiskBlock = 0x11,    ///< out: block number
    kPortDiskAddr = 0x12,     ///< out: guest DMA buffer address
    kPortDiskGoRead = 0x13,   ///< out: start disk -> memory transfer
    kPortDiskGoWrite = 0x14,  ///< out: start memory -> disk transfer
    kPortConsole = 0x20,      ///< out: debug console byte (discarded)
};

/** NIC MMIO register offsets from kMmioBase. */
enum NicReg : Addr {
    kNicStatus = 0x00,   ///< read: number of queued RX packets
    kNicRxBuf = 0x08,    ///< write: guest buffer; pops + DMAs a packet
    kNicRxLen = 0x10,    ///< read: length of the packet just received
    kNicTx = 0x18,       ///< write: transmit a packet of this length
};

/** Base guest address of the MMIO window. */
inline constexpr Addr kMmioBase = 0xF0000000ULL;

/** Size of the MMIO window in bytes. */
inline constexpr Addr kMmioSize = 0x1000;

/** @return true if @p addr falls in the MMIO window. */
constexpr bool
is_mmio(Addr addr)
{
    return addr >= kMmioBase && addr < kMmioBase + kMmioSize;
}

/** Guest interrupt vectors. */
enum IrqVector : std::uint8_t {
    kIrqTimer = 0,
    kIrqDisk = 1,
    kNumIrqVectors = 2,
};

/** DMA bytes copied into guest memory as a side effect of an access. */
struct IoSideEffect {
    bool has_dma = false;
    Addr dma_addr = 0;
    std::vector<std::uint8_t> dma_data;
};

/** An asynchronous device event to be turned into a guest interrupt. */
struct AsyncEvent {
    std::uint8_t vector = 0;
    /** For disk-read completions: the DMA to apply before injection. */
    std::optional<DiskCompletion> disk;
};

/** Configuration of the device complement. */
struct DeviceConfig {
    std::uint64_t seed = 1;
    Cycles timer_tick_period = 500'000;  ///< 0 disables the tick
    Cycles nic_mean_gap = 0;             ///< 0 disables traffic
    std::size_t nic_min_packet = 64;
    std::size_t nic_max_packet = 1500;
    Cycles disk_mean_latency = 80'000;
    std::size_t disk_blocks = 4096;
};

/** The device complement of one virtual machine. */
class DeviceHub {
  public:
    /**
     * @param config  device parameters and seeds.
     * @param mem     guest memory, used only for DMA write-submission
     *                snapshots (reading the buffer the guest points at).
     */
    DeviceHub(const DeviceConfig& config, mem::PhysMem* mem);

    /** Mediated pio read. */
    Word io_read(std::uint16_t port, Cycles now);

    /** Mediated pio write (may capture a DMA write payload). */
    void io_write(std::uint16_t port, Word value, Cycles now);

    /** Mediated MMIO read. */
    Word mmio_read(Addr addr, Cycles now);

    /** Mediated MMIO write; NIC RX produces a DMA side effect. */
    IoSideEffect mmio_write(Addr addr, Word value, Cycles now);

    /** Read the virtual TSC (mediated rdtsc). */
    std::uint64_t read_tsc(Cycles now) { return timer_.read_tsc(now); }

    /** @return cycle of the next asynchronous device event, or ~0. */
    Cycles next_event_cycle() const;

    /** Consume one due asynchronous event at guest cycle @p now. */
    std::optional<AsyncEvent> take_event(Cycles now);

    /**
     * Force the in-flight disk transfer to complete immediately.
     * Used by the replayer, which owns event timing via the input log.
     */
    std::optional<DiskCompletion> force_disk_completion();

    /** Component access for tests and statistics. @{ */
    Timer& timer() { return timer_; }
    Nic& nic() { return nic_; }
    BlockDev& blockdev() { return blockdev_; }
    /** The virtual disk: one block per slot. */
    mem::PageStore& disk() { return disk_; }
    const mem::PageStore& disk() const { return disk_; }
    /** @} */

  private:
    mem::PhysMem* mem_;
    mem::PageStore disk_;
    Timer timer_;
    Nic nic_;
    BlockDev blockdev_;
    std::size_t last_rx_len_ = 0;
};

}  // namespace rsafe::dev

#endif  // RSAFE_DEV_DEVICE_HUB_H_
