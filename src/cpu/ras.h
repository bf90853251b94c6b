#ifndef RSAFE_CPU_RAS_H_
#define RSAFE_CPU_RAS_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_addr_set.h"
#include "common/types.h"

/**
 * @file
 * The hardware Return Address Stack with RnR-Safe's extensions (Section 4).
 *
 * The baseline RAS is the ordinary return-target predictor: calls push the
 * fall-through address, returns pop a prediction. RnR-Safe adds:
 *
 *  - an eviction exception: when a push would evict the oldest entry, the
 *    evicted address is surfaced so the hypervisor can log an Evict record
 *    (Section 4.5),
 *  - save/restore microcode: the whole stack can be dumped to / reloaded
 *    from a per-thread BackRAS entry on context switches (Section 4.3),
 *  - whitelists: a return whose PC is in RetWhitelist does not pop the RAS
 *    and is legal iff its target is in TarWhitelist (Section 4.4).
 *
 * Entries restored from a BackRAS are tagged so the simulator can count
 * how many mispredictions the BackRAS mechanism suppressed (Figure 8).
 */

namespace rsafe::cpu {

/** One saved RAS entry (address + restored-from-BackRAS tag). */
struct RasEntry {
    Addr addr = 0;
    bool restored = false;
};

/** A full saved copy of the RAS (one BackRAS array element). */
struct SavedRas {
    std::vector<RasEntry> entries;  ///< bottom first
};

/** Outcome of the RAS predict step at a return instruction. */
enum class RasPredict {
    kHit,             ///< predicted target matches the actual target
    kHitRestored,     ///< hit via an entry restored from the BackRAS
    kMispredict,      ///< popped prediction differs from the actual target
    kUnderflow,       ///< RAS empty at the pop
    kWhitelisted,     ///< ret PC whitelisted, target legal; RAS untouched
    kWhitelistMiss,   ///< ret PC whitelisted but target not in TarWhitelist
};

/** The hardware RAS. */
class Ras {
  public:
    /** Default hardware depth (Section 7.5 simulates a 48-entry RAS). */
    static constexpr std::size_t kDefaultDepth = 48;

    explicit Ras(std::size_t depth = kDefaultDepth);

    /** @return configured depth. */
    std::size_t depth() const { return depth_; }

    /** @return current number of valid entries. */
    std::size_t size() const { return stack_.size(); }

    /** @return true when the next push() would evict the oldest entry. */
    bool full() const { return stack_.size() == depth_; }

    /**
     * Push a return address (a call executed).
     * @return the evicted oldest entry if the stack was full.
     */
    std::optional<Addr> push(Addr addr)
    {
        std::optional<Addr> evicted;
        if (full()) [[unlikely]] {
            evicted = stack_.front().addr;
            stack_.erase(stack_.begin());
        }
        stack_.push_back(RasEntry{addr, false});
        return evicted;
    }

    /**
     * Predict at a return instruction.
     * @param ret_pc     PC of the return instruction.
     * @param target     the actual target (from the software stack).
     * @param predicted  out: the popped prediction (0 if none was popped).
     */
    RasPredict predict(Addr ret_pc, Addr target, Addr* predicted)
    {
        *predicted = 0;
        if (whitelist_enabled_ && ret_whitelist_.contains(ret_pc)) {
            // Non-procedural return: the RAS holds no corresponding entry,
            // so popping it would corrupt the stack (Section 4.4).
            return tar_whitelist_.contains(target)
                       ? RasPredict::kWhitelisted
                       : RasPredict::kWhitelistMiss;
        }
        if (stack_.empty())
            return RasPredict::kUnderflow;
        const RasEntry top = stack_.back();
        stack_.pop_back();
        *predicted = top.addr;
        if (top.addr != target)
            return RasPredict::kMispredict;
        return top.restored ? RasPredict::kHitRestored : RasPredict::kHit;
    }

    /**
     * @return true iff predict(@p ret_pc, @p target) would pass — hit,
     * restored hit or whitelisted — so a monitored return raises no
     * alarm. Changes nothing.
     */
    bool would_pass(Addr ret_pc, Addr target) const
    {
        if (whitelist_enabled_ && ret_whitelist_.contains(ret_pc))
            return tar_whitelist_.contains(target);
        return !stack_.empty() && stack_.back().addr == target;
    }

    /** Enable/disable whitelist checking (ablation hook). */
    void set_whitelist_enabled(bool enabled) { whitelist_enabled_ = enabled; }

    /** Install the single-entry return whitelist (hypervisor only). */
    void set_ret_whitelist(FlatAddrSet pcs) { ret_whitelist_ = std::move(pcs); }

    /** Install the target whitelist (hypervisor only). */
    void set_tar_whitelist(FlatAddrSet pcs) { tar_whitelist_ = std::move(pcs); }

    /** Microcode: dump all entries into a BackRAS element and clear. */
    SavedRas save_and_clear();

    /** Microcode: dump all entries without clearing (checkpointing). */
    SavedRas peek() const;

    /** Microcode: reload from a BackRAS element (entries become tagged). */
    void load(const SavedRas& saved);

    /** Drop all entries (e.g., at VM reset). */
    void clear() { stack_.clear(); }

  private:
    std::size_t depth_;
    std::vector<RasEntry> stack_;  ///< bottom at index 0
    bool whitelist_enabled_ = true;
    FlatAddrSet ret_whitelist_;
    FlatAddrSet tar_whitelist_;
};

}  // namespace rsafe::cpu

#endif  // RSAFE_CPU_RAS_H_
