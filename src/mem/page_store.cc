#include "mem/page_store.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "common/fnv.h"
#include "common/log.h"

namespace rsafe::mem {

namespace {

std::uint64_t
next_store_id()
{
    // Atomic: the framework's alarm-replayer worker pool builds VMs (and
    // thus stores) from several threads at once.
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

PageStore::PageStore(std::size_t num_slots)
    : bytes_(num_slots * kPageSize), id_(next_store_id())
{
    if (num_slots == 0)
        fatal("PageStore: zero slots");
    dirty_bits_.assign((num_slots + 63) / 64, 0);
    slot_epoch_.assign(num_slots, 0);
}

const std::uint8_t*
PageStore::slot(std::uint64_t i) const
{
    if (i >= num_slots())
        panic("PageStore::slot out of range");
    return bytes_.data() + i * kPageSize;
}

std::uint8_t*
PageStore::overwrite(std::uint64_t i)
{
    if (i >= num_slots())
        panic("PageStore::overwrite out of range");
    mark_dirty(i);
    return bytes_.data() + i * kPageSize;
}

std::vector<std::uint64_t>
PageStore::dirty_slots() const
{
    std::vector<std::uint64_t> slots;
    slots.reserve(dirty_count_);
    for (std::size_t w = 0; w < dirty_bits_.size(); ++w) {
        std::uint64_t word = dirty_bits_[w];
        while (word != 0) {
            slots.push_back(w * 64 + std::countr_zero(word));
            word &= word - 1;
        }
    }
    return slots;
}

void
PageStore::clear_dirty()
{
    std::memset(dirty_bits_.data(), 0,
                dirty_bits_.size() * sizeof(std::uint64_t));
    dirty_count_ = 0;
    ++epoch_;
}

std::uint64_t
PageStore::content_hash() const
{
    std::uint64_t hash = kFnvOffset;
    for (std::uint64_t i = 0; i < num_slots(); ++i) {
        hash = untouched(i) ? hash * kFnvZeroPageFactor
                            : fnv1a64_update(hash,
                                             bytes_.data() + i * kPageSize,
                                             kPageSize);
    }
    return hash;
}

}  // namespace rsafe::mem
