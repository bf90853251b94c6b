#ifndef RSAFE_DEV_NIC_H_
#define RSAFE_DEV_NIC_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/random.h"
#include "common/types.h"

/**
 * @file
 * A virtual network interface with a synchronous, hypervisor-mediated
 * receive path.
 *
 * Per Section 7.3, network packet arrival at the physical NIC is
 * asynchronous, but the data is delivered to the guest at the boundary of
 * a synchronous VMExit: the guest polls a status register and then issues
 * a receive command, at which point the hypervisor copies the full packet
 * into the guest buffer and records its contents in the input log. Packet
 * content logging is what makes apache the highest log-rate benchmark in
 * Figure 6(a).
 */

namespace rsafe::dev {

/** One received network packet. */
struct Packet {
    std::vector<std::uint8_t> payload;
};

/** Virtual NIC: seeded traffic generator + RX queue. */
class Nic {
  public:
    /**
     * @param seed           traffic-generator seed.
     * @param mean_gap       mean cycles between packet arrivals
     *                       (0 disables traffic).
     * @param min_size       smallest packet payload in bytes.
     * @param max_size       largest packet payload in bytes.
     */
    Nic(std::uint64_t seed, Cycles mean_gap, std::size_t min_size,
        std::size_t max_size);

    /** Advance arrival generation up to guest cycle @p now. */
    void advance(Cycles now);

    /** @return number of queued received packets. */
    std::size_t rx_available() const { return rx_queue_.size(); }

    /** Pop the oldest queued packet; empty payload if none. */
    Packet rx_pop();

    /** Count a transmitted packet (payload is discarded). */
    void tx(std::size_t bytes);

    /** @return total packets ever queued. */
    std::uint64_t total_rx_packets() const { return total_rx_; }

    /** @return total packets transmitted by the guest. */
    std::uint64_t total_tx_packets() const { return total_tx_; }

  private:
    static constexpr std::size_t kMaxQueue = 64;

    Rng rng_;
    Cycles mean_gap_;
    std::size_t min_size_;
    std::size_t max_size_;
    Cycles next_arrival_;
    std::deque<Packet> rx_queue_;
    std::uint64_t total_rx_ = 0;
    std::uint64_t total_tx_ = 0;
};

}  // namespace rsafe::dev

#endif  // RSAFE_DEV_NIC_H_
