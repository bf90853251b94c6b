#include "dev/nic.h"

namespace rsafe::dev {

Nic::Nic(std::uint64_t seed, Cycles mean_gap, std::size_t min_size,
         std::size_t max_size)
    : rng_(seed),
      mean_gap_(mean_gap),
      min_size_(min_size),
      max_size_(max_size),
      next_arrival_(mean_gap == 0 ? ~static_cast<Cycles>(0)
                                  : rng_.next_interval(double(mean_gap)))
{
}

void
Nic::advance(Cycles now)
{
    if (mean_gap_ == 0)
        return;
    while (next_arrival_ <= now) {
        if (rx_queue_.size() < kMaxQueue) {
            Packet pkt;
            const auto size = rng_.next_range(min_size_, max_size_);
            pkt.payload.resize(static_cast<std::size_t>(size));
            for (auto& byte : pkt.payload)
                byte = static_cast<std::uint8_t>(rng_.next() & 0xff);
            ++total_rx_;
            rx_queue_.push_back(std::move(pkt));
        }
        // Arrivals keep their cadence even when the queue is full (the
        // dropped packet is simply lost, as on a real NIC).
        next_arrival_ += rng_.next_interval(double(mean_gap_));
    }
}

Packet
Nic::rx_pop()
{
    if (rx_queue_.empty())
        return Packet{};
    Packet pkt = std::move(rx_queue_.front());
    rx_queue_.pop_front();
    return pkt;
}

void
Nic::tx(std::size_t bytes)
{
    (void)bytes;
    ++total_tx_;
}

}  // namespace rsafe::dev
