#ifndef RSAFE_REPLAY_SHADOW_RAS_H_
#define RSAFE_REPLAY_SHADOW_RAS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/flat_addr_set.h"
#include "common/types.h"
#include "cpu/ras.h"

/**
 * @file
 * The alarm replayer's software RAS: "an unbounded RAS is modeled in
 * software, with our extensions for multithreading and non-procedural
 * returns" (Section 4.6.2). This is the kernel-compatible shadow stack of
 * Table 1, kept per thread (multithreading), honoring the whitelists
 * (non-procedural returns), never overflowing (no eviction), and able to
 * recognize imperfect nesting by unwinding to a deeper matching entry.
 *
 * Because an alarm replay starts mid-execution from a checkpoint, each
 * thread's stack is initialized from the checkpoint's BackRAS; entries
 * the hardware had already evicted are reconstructed from the Evict
 * records in the log.
 */

namespace rsafe::replay {

/** Verdict of the software RAS at one return instruction. */
enum class RetVerdict {
    kMatch,              ///< top of the shadow stack matched the target
    kWhitelistOk,        ///< whitelisted non-procedural return, legal target
    kWhitelistViolation, ///< whitelisted return with an illegal target
    kImperfectNesting,   ///< target matched a deeper entry (e.g., longjmp)
    kUnderflowBenign,    ///< empty stack, but an Evict record explains it
    kRopDetected,        ///< mismatch explainable only as a hijacked return
};

/** Unbounded per-thread software return-address stack. */
class ShadowRas {
  public:
    ShadowRas(FlatAddrSet ret_whitelist, FlatAddrSet tar_whitelist);

    /** Initialize thread @p tid's stack from a saved (Back)RAS. */
    void init_thread(ThreadId tid, const cpu::SavedRas& saved);

    /** A context switch: subsequent calls/returns belong to @p tid. */
    void switch_to(ThreadId tid) { current_ = tid; }

    /** @return the thread the shadow stack is currently tracking. */
    ThreadId current() const { return current_; }

    /** A call pushed @p link (the fall-through return address). */
    void on_call(Addr link);

    /**
     * A return at @p ret_pc is transferring to @p target; classify it.
     * @param expected  out: the entry the shadow stack predicted (0 if
     *                  none was available).
     */
    RetVerdict on_ret(Addr ret_pc, Addr target, Addr* expected);

    /**
     * An Evict record from the log: the hardware dropped @p addr from the
     * bottom of thread @p tid's RAS. Remembered so deep underflows can be
     * verified.
     */
    void note_evict(ThreadId tid, Addr addr);

    /** @return current depth of thread @p tid's stack. */
    std::size_t depth(ThreadId tid) const;

    /**
     * @return how many threads have shadow state, whether seeded from a
     * checkpoint BackRAS or observed making calls during replay.
     */
    std::size_t num_threads() const { return stacks_.size(); }

  private:
    FlatAddrSet ret_whitelist_;
    FlatAddrSet tar_whitelist_;
    std::map<ThreadId, std::vector<Addr>> stacks_;
    std::map<ThreadId, std::vector<Addr>> evicted_;  ///< oldest first
    ThreadId current_ = 0;
};

}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_SHADOW_RAS_H_
