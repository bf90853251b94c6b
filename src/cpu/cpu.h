#ifndef RSAFE_CPU_CPU_H_
#define RSAFE_CPU_CPU_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "cpu/ras.h"
#include "cpu/vmcs.h"
#include "isa/encoding.h"
#include "mem/phys_mem.h"

/**
 * @file
 * The virtual guest CPU: a 64-bit uniprocessor interpreter with the
 * RnR-Safe RAS extensions.
 *
 * The CPU executes guest instructions directly against guest memory and
 * reports everything that must leave guest context through the CpuEnv
 * callback interface — the simulator's analogue of a VMExit. Which events
 * exit is controlled by the Vmcs. Cycle costs of VM transitions are
 * charged by the CPU itself so that recording/replay overhead studies see
 * a consistent cost model.
 *
 * Cpu::exec_one is the reference interpreter: it fetches each
 * instruction through PhysMem::fetch (which enforces X permission),
 * decodes it with isa::decode and executes it. It is the single source
 * of truth for every instruction's semantics. The one fast tier is the
 * translation-block engine (cpu/tb_engine.h), which must retire exactly
 * what exec_one would and bails to it for anything complex;
 * set_tb_enabled(false) single-steps exec_one for A/B determinism
 * testing.
 */

namespace rsafe::cpu {

class TbEngine;
struct Uop;

/** Privilege modes. */
enum class Mode : std::uint8_t {
    kUser = 0,
    kKernel = 1,
};

/** Why Cpu::run() returned. */
enum class StopReason {
    kHalt,          ///< guest executed halt
    kCycleLimit,    ///< reached the requested cycle bound (host event due)
    kInstrLimit,    ///< reached the requested instruction bound
    kPerfStop,      ///< vmcs.perf_stop reached (replay injection)
    kMemFault,      ///< unrecoverable guest memory fault
    kBadInstr,      ///< undecodable instruction or privilege violation
};

/** Classification of a RAS alarm (the hardware's view). */
enum class RasAlarmKind : std::uint8_t {
    kMispredict = 0,     ///< popped prediction != actual target
    kUnderflow = 1,      ///< RAS empty at a return
    kWhitelistMiss = 2,  ///< whitelisted ret with an illegal target
};

/** Details of a RAS alarm surfaced to the hypervisor. */
struct RasAlarm {
    RasAlarmKind kind = RasAlarmKind::kMispredict;
    Addr ret_pc = 0;      ///< PC of the return instruction
    Addr predicted = 0;   ///< RAS prediction (0 on underflow)
    Addr actual = 0;      ///< target taken from the software stack
    Addr sp_after = 0;    ///< stack pointer after the pop
    Mode mode = Mode::kKernel;
};

/** One traced call/return event (alarm-replayer instrumentation). */
struct CallRetEvent {
    bool is_call = false;
    Addr pc = 0;          ///< address of the call/ret instruction
    Addr target = 0;      ///< call target or ret destination
    Addr link = 0;        ///< for calls: the pushed return address
    Mode mode = Mode::kKernel;
};

/**
 * Hypervisor-side handler of VM exits.
 *
 * Synchronous mediated events (rdtsc, pio, mmio) are completed by the
 * environment and their results returned to the CPU; notification events
 * (breakpoints, alarms, evictions, call/ret traces, interrupt delivery)
 * only inform the environment.
 */
class CpuEnv {
  public:
    virtual ~CpuEnv() = default;

    /** Mediated rdtsc: supply the timestamp value. */
    virtual Word on_rdtsc() = 0;
    /** Mediated pio read: supply the port value. */
    virtual Word on_io_in(std::uint16_t port) = 0;
    /** Mediated pio write. */
    virtual void on_io_out(std::uint16_t port, Word value) = 0;
    /** Mediated MMIO read. */
    virtual Word on_mmio_read(Addr addr) = 0;
    /** Mediated MMIO write (applies any DMA side effects itself). */
    virtual void on_mmio_write(Addr addr, Word value) = 0;
    /** PC breakpoint hit (fires before the instruction executes). */
    virtual void on_breakpoint(Addr pc) = 0;
    /** RAS alarm raised (controls.ras_alarm_enabled). */
    virtual void on_ras_alarm(const RasAlarm& alarm) = 0;
    /** RAS eviction exit (controls.ras_evict_exit). */
    virtual void on_ras_evict(Addr evicted) = 0;
    /**
     * Traced call/ret (controls.trap_kernel_call_ret/trap_user_call_ret).
     * A pure notification: the handler may tighten_stop(), but must not
     * queue an interrupt, change breakpoints or controls, since the TB
     * engine runs on past the trap without returning to run().
     */
    virtual void on_call_ret(const CallRetEvent& event) = 0;
    /**
     * Indirect branch/call notification (controls.trap_indirect_branch);
     * the hardware JOP filter hooks in here.
     */
    virtual void on_indirect_branch(Addr pc, Addr target, bool is_call) {}

    /**
     * A fetch hit a W^X-watched page (wx_fetch_exit); the watch on the
     * page is already consumed and kVmTransition charged. @p pc is the
     * not-yet-executed fetch target.
     */
    virtual void on_wx_fetch(Addr pc) {}
    /** A pending virtual interrupt was delivered to the guest. */
    virtual void on_interrupt_delivered(std::uint8_t vector) {}
};

/** Unmediated (paravirtual) device access interface. */
class PvBus {
  public:
    virtual ~PvBus() = default;
    virtual Word pv_rdtsc() = 0;
    virtual Word pv_io_in(std::uint16_t port) = 0;
    virtual void pv_io_out(std::uint16_t port, Word value) = 0;
    virtual Word pv_mmio_read(Addr addr) = 0;
    virtual void pv_mmio_write(Addr addr, Word value) = 0;
};

/** Architectural register state (checkpointed/restored wholesale). */
struct CpuState {
    std::array<Word, isa::kNumRegs> regs{};
    Addr pc = 0;
    Addr sp = 0;
    Mode mode = Mode::kKernel;
    bool iflag = false;   ///< guest interrupt-enable flag
    bool halted = false;
};

/** Event counters the figures are computed from. */
struct CpuStats {
    InstrCount instructions = 0;
    InstrCount kernel_instructions = 0;
    std::uint64_t calls = 0;
    std::uint64_t rets = 0;
    std::uint64_t kernel_call_rets = 0;
    std::uint64_t ras_hits = 0;
    std::uint64_t ras_hits_restored = 0;   ///< BackRAS-suppressed (Fig. 8)
    std::uint64_t ras_whitelisted = 0;     ///< whitelist-suppressed (Fig. 8)
    std::uint64_t ras_alarms = 0;
    std::uint64_t ras_evictions = 0;
    std::uint64_t interrupts_delivered = 0;
    std::uint64_t io_accesses = 0;
    std::uint64_t rdtsc_reads = 0;

    bool operator==(const CpuStats&) const = default;
};

/** Guest memory-layout constants shared with the kernel builder. */
inline constexpr Addr kIvtBase = 0x1000;  ///< 8-byte handler slots
inline constexpr std::uint8_t kIvtSyscallSlot = 7;

/** The virtual CPU. */
class Cpu {
  public:
    /**
     * @param mem        guest physical memory.
     * @param ras_depth  hardware RAS depth (Section 7.5 default: 48).
     */
    Cpu(mem::PhysMem* mem, std::size_t ras_depth = Ras::kDefaultDepth);
    ~Cpu();

    /** Bind the VM-exit handler (must outlive the CPU). */
    void set_env(CpuEnv* env) { env_ = env; }

    /** Bind the paravirtual bus used when exit_on_io is false. */
    void set_pv_bus(PvBus* bus) { pv_bus_ = bus; }

    /** The control structure the hypervisor programs. */
    Vmcs& vmcs() { return vmcs_; }
    const Vmcs& vmcs() const { return vmcs_; }

    /** The hardware RAS (for microcode save/restore by the hypervisor). */
    Ras& ras() { return ras_; }
    const Ras& ras() const { return ras_; }

    /** Architectural state access. @{ */
    CpuState& state() { return state_; }
    const CpuState& state() const { return state_; }
    Word reg(std::size_t idx) const { return state_.regs[idx]; }
    /** @} */

    /** Cycle and instruction clocks. @{ */
    Cycles cycles() const { return cycles_; }
    InstrCount icount() const { return icount_; }
    void add_cycles(Cycles n) { cycles_ += n; }
    /** Reset the clocks (checkpoint restore). */
    void set_clocks(Cycles cycles, InstrCount icount)
    {
        cycles_ = cycles;
        icount_ = icount;
    }
    /** @} */

    /** Accumulated event counters. */
    const CpuStats& stats() const { return stats_; }
    CpuStats& stats() { return stats_; }

    /**
     * Execute until a stop condition is met.
     *
     * @param stop_cycles  return kCycleLimit once cycles() >= this
     *                     (the next host device event).
     * @param stop_icount  return kInstrLimit once icount() >= this.
     */
    StopReason run(Cycles stop_cycles, InstrCount stop_icount);

    /**
     * Tighten the current run's cycle stop. Called from within a VM exit
     * when a mediated device access rescheduled the next host event to an
     * earlier time (e.g., the guest just started a short DMA transfer).
     */
    void tighten_stop(Cycles stop)
    {
        if (stop < run_stop_cycles_)
            run_stop_cycles_ = stop;
    }

    /** Execute exactly one instruction (replay single-stepping). */
    StopReason step();

    /** @return a fault description after kMemFault/kBadInstr. */
    const std::string& fault_reason() const { return fault_reason_; }

    /**
     * Toggle the translation-block engine (on by default). Off, run()
     * single-steps the reference interpreter. Execution is bit-identical
     * either way; the toggle exists for A/B testing.
     */
    void set_tb_enabled(bool enabled) { tb_enabled_ = enabled; }

    /** The translation-block engine (metrics export, tests). */
    TbEngine& tb_engine() { return *tb_; }
    const TbEngine& tb_engine() const { return *tb_; }

  private:
    enum class StepResult { kOk, kHalt, kFault, kBadInstr };

    StepResult exec_one();
    StepResult run_tb(InstrCount budget);  // defined in tb_engine.cc
    void retire_and_trap(const Uop& u, Addr target,
                         InstrCount done);  // defined in tb_engine.cc
    bool deliver_pending_irq();
    void deliver_interrupt_frame(Addr vector_slot);
    StepResult do_ret();
    void ras_call_push(Addr link);
    /** @return true when a call/ret in the current mode is traced. */
    bool call_ret_traced() const;
    /**
     * Take a traced call/ret's VM exit: count it, charge kVmTransition
     * and notify the environment. The caller has retired the call/ret
     * and left state_.pc at it.
     */
    void trap_call_ret(const CallRetEvent& event);
    bool mem_read(Addr addr, std::size_t len, Word* out);
    bool mem_write(Addr addr, std::size_t len, Word value);
    bool stack_push(Word value);
    bool stack_pop(Word* out);
    bool priv_check(const isa::Instr& instr);

    mem::PhysMem* mem_;
    CpuEnv* env_ = nullptr;
    PvBus* pv_bus_ = nullptr;
    Vmcs vmcs_;
    Ras ras_;
    CpuState state_;
    Cycles cycles_ = 0;
    InstrCount icount_ = 0;
    Cycles run_stop_cycles_ = ~static_cast<Cycles>(0);
    CpuStats stats_;
    std::string fault_reason_;
    std::unique_ptr<TbEngine> tb_;
    bool tb_enabled_ = true;
};

}  // namespace rsafe::cpu

#endif  // RSAFE_CPU_CPU_H_
