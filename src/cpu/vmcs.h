#ifndef RSAFE_CPU_VMCS_H_
#define RSAFE_CPU_VMCS_H_

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "common/flat_addr_set.h"
#include "common/types.h"

/**
 * @file
 * The VM control structure: how the hypervisor configures when the virtual
 * CPU leaves guest execution, mirroring Intel VT terminology (Section 5).
 *
 * Fields fall into three groups:
 *  - exit controls for the synchronous non-deterministic instructions
 *    (rdtsc, pio/mmio) — set during recording and replay, clear in the
 *    paravirtual baseline,
 *  - RnR-Safe security controls (RAS alarms, eviction exits, whitelist
 *    checking, kernel call/ret trapping for the alarm replayer),
 *  - event-injection state (the pending virtual interrupt and the
 *    perf-counter stop used to land replay injections precisely).
 */

namespace rsafe::cpu {

/** Simulated micro-architectural cost constants (cycles). */
struct Costs {
    /** One VMExit + VMEnter round trip (Sections 4.3, 7.3). */
    static constexpr Cycles kVmTransition = 1000;
    /** Microcode dump of the RAS into the BackRAS (Section 4.3). */
    static constexpr Cycles kRasSave = 200;
    /** Microcode reload of the RAS from the BackRAS (Section 4.3). */
    static constexpr Cycles kRasRestore = 200;
    /** One paravirtual (non-trapping) I/O access. */
    static constexpr Cycles kPvIo = 20;
    /** One single-step during async-event injection (Section 7.3). */
    static constexpr Cycles kSingleStep = 1000;
    /** Copying one page or disk block into a checkpoint. */
    static constexpr Cycles kPageCopy = 3000;
    /** Fixed cost of appending one record to the input log. */
    static constexpr Cycles kLogRecord = 150;
    /** Marginal cost of each 8 logged payload bytes. */
    static constexpr Cycles kLogPer8Bytes = 1;
};

/** Exit/feature controls programmed by the hypervisor. */
struct ExitControls {
    /** Trap rdtsc (mediated timing). */
    bool exit_on_rdtsc = false;
    /** Trap pio and mmio (hypervisor-mediated I/O); false = paravirtual. */
    bool exit_on_io = true;
    /** Raise ROP alarms on RAS mispredictions (recorded VM only). */
    bool ras_alarm_enabled = false;
    /** VM-exit and dump the entry when the RAS is about to evict. */
    bool ras_evict_exit = false;
    /** Honor the Ret/Tar whitelists in the RAS. */
    bool whitelist_enabled = true;
    /** Trap every kernel-mode call/ret (alarm replayer). */
    bool trap_kernel_call_ret = false;
    /** Also trap user-mode call/ret (deep-analysis alarm replay). */
    bool trap_user_call_ret = false;
    /** Notify the environment of indirect branches (JOP detector). */
    bool trap_indirect_branch = false;
    /**
     * VM-exit on the first fetch from a watched (written-since-armed)
     * executable page (W^X detector). Watched pages live in
     * Vmcs::wx_watch_pages; the exit consumes the watch, so each armed
     * page fires at most once until re-watched.
     */
    bool wx_fetch_exit = false;
};

/**
 * The armed PC breakpoints. Every change bumps a generation counter, so
 * the TB engine compares one number instead of whole sets to learn
 * whether its block cuts are still valid.
 */
class BreakpointSet {
  public:
    /** Arm @p pc. @return false (and no new generation) if already armed. */
    bool insert(Addr pc)
    {
        if (!pcs_.insert(pc))
            return false;
        ++gen_;
        return true;
    }

    bool contains(Addr pc) const { return pcs_.contains(pc); }
    bool empty() const { return pcs_.empty(); }
    const FlatAddrSet& pcs() const { return pcs_; }

    /** 0 for a set that was never changed (and is therefore empty). */
    std::uint64_t gen() const { return gen_; }

  private:
    FlatAddrSet pcs_;
    std::uint64_t gen_ = 0;
};

/** The per-VM control structure. */
struct Vmcs {
    ExitControls controls;

    /** PC breakpoints (context-switch / thread-exit / thread-spawn). */
    BreakpointSet breakpoints;

    /**
     * Executable page numbers written since the W^X detector armed them
     * (see ExitControls::wx_fetch_exit). Keyed by page number, not base
     * address.
     */
    std::unordered_set<Addr> wx_watch_pages;

    /** Virtual interrupt awaiting delivery (cleared on delivery). */
    std::optional<std::uint8_t> pending_irq;

    /**
     * Perf-counter stop: the CPU exits when icount reaches this value.
     * Used by the replayer to approach an async injection point.
     */
    InstrCount perf_stop = ~static_cast<InstrCount>(0);
};

}  // namespace rsafe::cpu

#endif  // RSAFE_CPU_VMCS_H_
