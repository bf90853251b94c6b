#ifndef RSAFE_COMMON_FLAT_ADDR_SET_H_
#define RSAFE_COMMON_FLAT_ADDR_SET_H_

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "common/types.h"

/**
 * @file
 * A set of a handful of guest addresses kept in one flat vector.
 *
 * The RAS whitelists hold one to three PCs and the hypervisor arms two or
 * three PC breakpoints, yet both are probed on hot paths (every return,
 * every block lookup miss). At that size a linear scan over contiguous
 * words beats hashing the key and chasing a bucket.
 */

namespace rsafe {

/** Insertion-ordered, duplicate-free set of a few addresses. */
class FlatAddrSet {
  public:
    FlatAddrSet() = default;
    FlatAddrSet(std::initializer_list<Addr> addrs)
    {
        for (const Addr addr : addrs)
            insert(addr);
    }

    /** @return false if @p addr was already present. */
    bool insert(Addr addr)
    {
        if (contains(addr))
            return false;
        addrs_.push_back(addr);
        return true;
    }

    bool contains(Addr addr) const
    {
        return std::find(addrs_.begin(), addrs_.end(), addr) != addrs_.end();
    }

    bool empty() const { return addrs_.empty(); }

  private:
    std::vector<Addr> addrs_;
};

}  // namespace rsafe

#endif  // RSAFE_COMMON_FLAT_ADDR_SET_H_
