/** @file Unit tests for the virtual CPU: instruction semantics, traps,
 *  privilege, interrupt delivery, and the VM-exit callback surface. */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/log.h"
#include "cpu/cpu.h"
#include "dev/device_hub.h"
#include "isa/assembler.h"
#include "mem/phys_mem.h"

namespace rsafe::cpu {
namespace {

using isa::Assembler;
using isa::Opcode;
using isa::R0;
using isa::R1;
using isa::R2;
using isa::R3;
using isa::R4;

constexpr Addr kCode = 0x2000;
constexpr Addr kStackTop = 0x20000;

/** Scripted environment: records exits, supplies programmed values. */
class TestEnv : public CpuEnv {
  public:
    Word on_rdtsc() override { return rdtsc_value; }
    Word on_io_in(std::uint16_t port) override
    {
        io_in_ports.push_back(port);
        return io_in_value;
    }
    void on_io_out(std::uint16_t port, Word value) override
    {
        io_out.emplace_back(port, value);
    }
    Word on_mmio_read(Addr addr) override
    {
        mmio_reads.push_back(addr);
        return mmio_value;
    }
    void on_mmio_write(Addr addr, Word value) override
    {
        mmio_writes.emplace_back(addr, value);
    }
    void on_breakpoint(Addr pc) override { breakpoints.push_back(pc); }
    void on_ras_alarm(const RasAlarm& alarm) override
    {
        alarms.push_back(alarm);
    }
    void on_ras_evict(Addr evicted) override { evicts.push_back(evicted); }
    void on_call_ret(const CallRetEvent& event) override
    {
        call_rets.push_back(event);
    }
    void on_indirect_branch(Addr pc, Addr target, bool is_call) override
    {
        indirect_branches.emplace_back(pc, target);
        (void)is_call;
    }
    void on_interrupt_delivered(std::uint8_t vector) override
    {
        delivered.push_back(vector);
    }

    Word rdtsc_value = 0x123;
    Word io_in_value = 0x45;
    Word mmio_value = 0x67;
    std::vector<std::uint16_t> io_in_ports;
    std::vector<std::pair<std::uint16_t, Word>> io_out;
    std::vector<Addr> mmio_reads;
    std::vector<std::pair<Addr, Word>> mmio_writes;
    std::vector<Addr> breakpoints;
    std::vector<RasAlarm> alarms;
    std::vector<Addr> evicts;
    std::vector<CallRetEvent> call_rets;
    std::vector<std::pair<Addr, Addr>> indirect_branches;
    std::vector<std::uint8_t> delivered;
};

/** A minimal machine around one assembled program. */
class Machine {
  public:
    explicit Machine(const isa::Image& image, Mode mode = Mode::kKernel)
        : mem(1 << 20), cpu(&mem)
    {
        mem.load_image(image);
        mem.set_perms(image.base(), image.size(), mem::kPermRX);
        cpu.set_env(&env);
        cpu.state().pc = image.base();
        cpu.state().sp = kStackTop;
        cpu.state().mode = mode;
    }

    StopReason run(InstrCount limit = 100000)
    {
        return cpu.run(~static_cast<Cycles>(0), limit);
    }

    mem::PhysMem mem;
    Cpu cpu;
    TestEnv env;
};

isa::Image
assemble(const std::function<void(Assembler&)>& body)
{
    Assembler a(kCode);
    body(a);
    return a.link();
}

TEST(CpuAlu, Arithmetic)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 20);
        a.ldi(R2, 3);
        a.add(R3, R1, R2);
        a.sub(R4, R1, R2);
        a.halt();
    }));
    EXPECT_EQ(m.run(), StopReason::kHalt);
    EXPECT_EQ(m.cpu.reg(R3), 23u);
    EXPECT_EQ(m.cpu.reg(R4), 17u);
}

TEST(CpuAlu, MulDivAndDivByZero)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 6);
        a.ldi(R2, 7);
        a.mul(R3, R1, R2);
        a.ldi(R2, 0);
        a.divu(R4, R1, R2);  // div by zero -> all ones
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.reg(R3), 42u);
    EXPECT_EQ(m.cpu.reg(R4), ~0ULL);
}

TEST(CpuAlu, LogicAndShifts)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 0b1100);
        a.ldi(R2, 0b1010);
        a.and_(R3, R1, R2);
        a.or_(R4, R1, R2);
        a.xor_(isa::R5, R1, R2);
        a.shli(isa::R6, R1, 2);
        a.shri(isa::R7, R1, 2);
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.reg(R3), 0b1000u);
    EXPECT_EQ(m.cpu.reg(R4), 0b1110u);
    EXPECT_EQ(m.cpu.reg(isa::R5), 0b0110u);
    EXPECT_EQ(m.cpu.reg(isa::R6), 0b110000u);
    EXPECT_EQ(m.cpu.reg(isa::R7), 0b11u);
}

TEST(CpuAlu, Ldi64BitConstant)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, static_cast<std::int64_t>(0xfedcba9876543210ULL));
        a.ldi(R2, -5);
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.reg(R1), 0xfedcba9876543210ULL);
    EXPECT_EQ(m.cpu.reg(R2), static_cast<Word>(-5));
}

TEST(CpuMem, LoadStoreWordAndByte)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 0x10000);
        a.ldi(R2, 0x1122334455667788);
        a.st(R1, 0, R2);
        a.ld(R3, R1, 0);
        a.ldb(R4, R1, 1);   // second byte: 0x77
        a.ldi(R2, 0xfff);   // stb stores only the low byte
        a.stb(R1, 8, R2);
        a.ldb(isa::R5, R1, 8);
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.reg(R3), 0x1122334455667788ULL);
    EXPECT_EQ(m.cpu.reg(R4), 0x77u);
    EXPECT_EQ(m.cpu.reg(isa::R5), 0xffu);
}

TEST(CpuMem, StoreToCodeFaults)
{
    // W^X: writing to the executable page must fault the guest.
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, kCode);
        a.st(R1, 0, R2);
        a.halt();
    }));
    EXPECT_EQ(m.run(), StopReason::kMemFault);
    EXPECT_NE(m.cpu.fault_reason().find("perm"), std::string::npos);
}

TEST(CpuMem, OutOfRangeLoadFaults)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, static_cast<std::int64_t>(0x40000000));
        a.ld(R2, R1, 0);
        a.halt();
    }));
    EXPECT_EQ(m.run(), StopReason::kMemFault);
}

TEST(CpuBranch, ConditionalsSignedAndUnsigned)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, -1);
        a.ldi(R2, 1);
        a.ldi(R4, 0);
        a.blt(R1, R2, "signed_taken");   // -1 < 1 signed
        a.halt();
        a.label("signed_taken");
        a.bltu(R1, R2, "bad");           // 0xffff.. not < 1 unsigned
        a.bgeu(R1, R2, "unsigned_taken");
        a.halt();
        a.label("unsigned_taken");
        a.ldi(R4, 1);
        a.halt();
        a.label("bad");
        a.ldi(R4, 99);
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.reg(R4), 1u);
}

TEST(CpuBranch, EqualityBranches)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 5);
        a.ldi(R2, 5);
        a.beq(R1, R2, "eq");
        a.halt();
        a.label("eq");
        a.ldi(R3, 1);
        a.bne(R1, R2, "bad");
        a.ldi(R4, 2);
        a.halt();
        a.label("bad");
        a.ldi(R4, 99);
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.reg(R3), 1u);
    EXPECT_EQ(m.cpu.reg(R4), 2u);
}

TEST(CpuStack, PushPopAndSpManipulation)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 0xaa);
        a.push(R1);
        a.ldi(R1, 0xbb);
        a.push(R1);
        a.pop(R2);
        a.pop(R3);
        a.getsp(R4);
        a.addsp(-16);
        a.getsp(isa::R5);
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.reg(R2), 0xbbu);
    EXPECT_EQ(m.cpu.reg(R3), 0xaau);
    EXPECT_EQ(m.cpu.reg(R4), kStackTop);
    EXPECT_EQ(m.cpu.reg(isa::R5), kStackTop - 16);
}

TEST(CpuCall, CallRetRoundTrip)
{
    Machine m(assemble([](Assembler& a) {
        a.call("fn");
        a.ldi(R2, 7);
        a.halt();
        a.label("fn");
        a.ldi(R1, 3);
        a.ret();
    }));
    EXPECT_EQ(m.run(), StopReason::kHalt);
    EXPECT_EQ(m.cpu.reg(R1), 3u);
    EXPECT_EQ(m.cpu.reg(R2), 7u);
    EXPECT_EQ(m.cpu.stats().calls, 1u);
    EXPECT_EQ(m.cpu.stats().rets, 1u);
    EXPECT_EQ(m.cpu.stats().ras_hits, 1u);
}

TEST(CpuCall, IndirectCallAndJump)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi_label(R1, "fn");
        a.callr(R1);
        a.ldi_label(R2, "end");
        a.jmpr(R2);
        a.halt();  // skipped
        a.label("fn");
        a.ldi(R3, 9);
        a.ret();
        a.label("end");
        a.ldi(R4, 4);
        a.halt();
    }));
    m.cpu.vmcs().controls.trap_indirect_branch = true;
    m.run();
    EXPECT_EQ(m.cpu.reg(R3), 9u);
    EXPECT_EQ(m.cpu.reg(R4), 4u);
    EXPECT_EQ(m.env.indirect_branches.size(), 2u);
}

TEST(CpuTrap, MediatedRdtscIoMmio)
{
    Machine m(assemble([](Assembler& a) {
        a.rdtsc(R1);
        a.in(R2, 0x10);
        a.out(0x20, R1);
        a.ldi(R3, static_cast<std::int64_t>(dev::kMmioBase));
        a.ld(R4, R3, 0);
        a.st(R3, 8, R1);
        a.halt();
    }));
    m.cpu.vmcs().controls.exit_on_rdtsc = true;
    m.cpu.vmcs().controls.exit_on_io = true;
    m.run();
    EXPECT_EQ(m.cpu.reg(R1), 0x123u);
    EXPECT_EQ(m.cpu.reg(R2), 0x45u);
    EXPECT_EQ(m.cpu.reg(R4), 0x67u);
    ASSERT_EQ(m.env.io_out.size(), 1u);
    EXPECT_EQ(m.env.io_out[0].first, 0x20);
    ASSERT_EQ(m.env.mmio_writes.size(), 1u);
    EXPECT_EQ(m.env.mmio_writes[0].first, dev::kMmioBase + 8);
    // Each mediated access costs a full VM transition.
    EXPECT_GE(m.cpu.cycles(), 5 * Costs::kVmTransition);
}

TEST(CpuTrap, MediatedAccessesCostMoreThanPv)
{
    auto image = assemble([](Assembler& a) {
        for (int i = 0; i < 10; ++i)
            a.in(R2, 0x10);
        a.halt();
    });

    class NullPv : public PvBus {
      public:
        Word pv_rdtsc() override { return 0; }
        Word pv_io_in(std::uint16_t) override { return 0; }
        void pv_io_out(std::uint16_t, Word) override {}
        Word pv_mmio_read(Addr) override { return 0; }
        void pv_mmio_write(Addr, Word) override {}
    };

    Machine mediated(image);
    mediated.cpu.vmcs().controls.exit_on_io = true;
    mediated.run();

    Machine pv(image);
    NullPv bus;
    pv.cpu.set_pv_bus(&bus);
    pv.cpu.vmcs().controls.exit_on_io = false;
    pv.run();

    EXPECT_GT(mediated.cpu.cycles(), pv.cpu.cycles() * 10);
}

TEST(CpuPriv, PrivilegedInstructionsFaultInUserMode)
{
    for (auto body : {
             +[](Assembler& a) { a.halt(); },
             +[](Assembler& a) { a.iret(); },
             +[](Assembler& a) { a.cli(); },
             +[](Assembler& a) { a.sti(); },
         }) {
        Machine m(assemble([&](Assembler& a) { body(a); }),
                  Mode::kUser);
        EXPECT_EQ(m.run(), StopReason::kBadInstr);
    }
}

TEST(CpuPriv, SetspIsUnprivileged)
{
    // Like `mov %rsp` on x86 — longjmp in user code needs it.
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 0x18000);
        a.setsp(R1);
        a.getsp(R2);
        a.ldi(R0, 0);
        a.syscall();  // leave via syscall so user mode never halts
    }), Mode::kUser);
    // Point the syscall vector at a halt stub.
    Assembler stub(0x8000);
    stub.halt();
    auto stub_image = stub.link();
    m.mem.load_image(stub_image);
    m.mem.set_perms(0x8000, stub_image.size(), mem::kPermRX);
    m.mem.write_raw(kIvtBase + 8 * kIvtSyscallSlot, 8, 0x8000);
    m.run();
    EXPECT_EQ(m.cpu.reg(R2), 0x18000u);
}

TEST(CpuSyscall, EntersKernelThroughIvt)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R0, 42);
        a.syscall();
        a.ldi(R3, 5);  // after iret
        a.halt();
    }));
    // Kernel syscall handler at 0x8000: set r1 and return.
    Assembler k(0x8000);
    k.ldi(R1, 0xbeef);
    k.iret();
    auto k_image = k.link();
    m.mem.load_image(k_image);
    m.mem.set_perms(0x8000, k_image.size(), mem::kPermRX);
    m.mem.write_raw(kIvtBase + 8 * kIvtSyscallSlot, 8, 0x8000);

    m.cpu.state().mode = Mode::kUser;
    // User code can't halt; run until the halt faults as kBadInstr? No:
    // after iret we are back in user mode and halt would fault. Instead
    // verify state right after the syscall returns.
    const auto reason = m.run();
    EXPECT_EQ(reason, StopReason::kBadInstr);  // user-mode halt
    EXPECT_EQ(m.cpu.reg(R1), 0xbeefu);
    EXPECT_EQ(m.cpu.reg(R3), 5u);
    EXPECT_EQ(m.cpu.state().mode, Mode::kUser);
}

TEST(CpuSyscall, IretRestoresFlags)
{
    Machine m(assemble([](Assembler& a) {
        a.sti();
        a.ldi(R0, 1);
        a.syscall();
        a.halt();
    }));
    Assembler k(0x8000);
    k.iret();
    auto k_image = k.link();
    m.mem.load_image(k_image);
    m.mem.set_perms(0x8000, k_image.size(), mem::kPermRX);
    m.mem.write_raw(kIvtBase + 8 * kIvtSyscallSlot, 8, 0x8000);
    m.run();
    EXPECT_TRUE(m.cpu.state().iflag);       // restored by iret
    EXPECT_EQ(m.cpu.state().mode, Mode::kKernel);
}

TEST(CpuIrq, DeliveredOnlyWhenEnabled)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 1);   // marker: pre-sti code ran
        a.sti();
        a.nop();
        a.nop();
        a.halt();
    }));
    // Handler at 0x8000 sets r2.
    Assembler k(0x8000);
    k.ldi(R2, 0x77);
    k.iret();
    auto k_image = k.link();
    m.mem.load_image(k_image);
    m.mem.set_perms(0x8000, k_image.size(), mem::kPermRX);
    m.mem.write_raw(kIvtBase + 0, 8, 0x8000);

    m.cpu.vmcs().pending_irq = 0;
    m.run();
    EXPECT_EQ(m.cpu.reg(R2), 0x77u);
    EXPECT_EQ(m.cpu.stats().interrupts_delivered, 1u);
    ASSERT_EQ(m.env.delivered.size(), 1u);
    EXPECT_FALSE(m.cpu.vmcs().pending_irq.has_value());
}

TEST(CpuIrq, HeldWhileInterruptsDisabled)
{
    Machine m(assemble([](Assembler& a) {
        a.nop();
        a.nop();
        a.halt();
    }));
    m.cpu.state().iflag = false;
    m.cpu.vmcs().pending_irq = 0;
    m.run();
    EXPECT_EQ(m.cpu.stats().interrupts_delivered, 0u);
    EXPECT_TRUE(m.cpu.vmcs().pending_irq.has_value());
}

TEST(CpuBreakpoint, FiresBeforeInstruction)
{
    Machine m(assemble([](Assembler& a) {
        a.nop();
        a.label("bp_here");
        a.ldi(R1, 1);
        a.halt();
    }));
    m.cpu.vmcs().breakpoints.insert(kCode + 8);
    m.run();
    ASSERT_EQ(m.env.breakpoints.size(), 1u);
    EXPECT_EQ(m.env.breakpoints[0], kCode + 8);
    EXPECT_EQ(m.cpu.reg(R1), 1u);  // instruction still executed
}

TEST(CpuRun, InstrAndCycleLimits)
{
    Machine m(assemble([](Assembler& a) {
        a.label("loop");
        a.nop();
        a.jmp("loop");
    }));
    EXPECT_EQ(m.run(100), StopReason::kInstrLimit);
    EXPECT_EQ(m.cpu.icount(), 100u);
    EXPECT_EQ(m.cpu.run(m.cpu.cycles() + 50, ~0ULL),
              StopReason::kCycleLimit);
}

TEST(CpuRun, PerfStop)
{
    Machine m(assemble([](Assembler& a) {
        a.label("loop");
        a.nop();
        a.jmp("loop");
    }));
    m.cpu.vmcs().perf_stop = 64;
    EXPECT_EQ(m.run(), StopReason::kPerfStop);
    EXPECT_EQ(m.cpu.icount(), 64u);
}

TEST(CpuRun, SingleStep)
{
    Machine m(assemble([](Assembler& a) {
        a.ldi(R1, 1);
        a.ldi(R2, 2);
        a.halt();
    }));
    EXPECT_EQ(m.cpu.step(), StopReason::kInstrLimit);
    EXPECT_EQ(m.cpu.icount(), 1u);
    EXPECT_EQ(m.cpu.reg(R1), 1u);
    EXPECT_EQ(m.cpu.reg(R2), 0u);
    EXPECT_EQ(m.cpu.step(), StopReason::kInstrLimit);
    EXPECT_EQ(m.cpu.step(), StopReason::kHalt);
}

TEST(CpuCallRetTrap, KernelOnlyByDefault)
{
    Machine m(assemble([](Assembler& a) {
        a.call("fn");
        a.halt();
        a.label("fn");
        a.ret();
    }));
    m.cpu.vmcs().controls.trap_kernel_call_ret = true;
    m.run();
    ASSERT_EQ(m.env.call_rets.size(), 2u);
    EXPECT_TRUE(m.env.call_rets[0].is_call);
    EXPECT_FALSE(m.env.call_rets[1].is_call);
    EXPECT_EQ(m.env.call_rets[0].target, m.env.call_rets[1].pc);
    EXPECT_EQ(m.cpu.stats().kernel_call_rets, 2u);
}

TEST(CpuStats, KernelVsUserInstructionCounts)
{
    Machine m(assemble([](Assembler& a) {
        a.nop();
        a.nop();
        a.nop();
        a.halt();
    }));
    m.run();
    EXPECT_EQ(m.cpu.stats().instructions, 4u);
    EXPECT_EQ(m.cpu.stats().kernel_instructions, 4u);
}

/** How a faulting run ended; TB on and off must agree on all of it. */
struct FaultOutcome {
    StopReason stop = StopReason::kHalt;
    std::string reason;
    Addr pc = 0;
    InstrCount icount = 0;
    Cycles cycles = 0;
    CpuStats stats;
    Word r3 = 0;
};

FaultOutcome
run_fault_case(const isa::Image& image,
               const std::function<void(Machine&)>& setup, bool tb)
{
    Machine m(image);
    m.cpu.set_tb_enabled(tb);
    setup(m);
    FaultOutcome out;
    out.stop = m.run();
    out.reason = m.cpu.fault_reason();
    out.pc = m.cpu.state().pc;
    out.icount = m.cpu.icount();
    out.cycles = m.cpu.cycles();
    out.stats = m.cpu.stats();
    out.r3 = m.cpu.reg(R3);
    return out;
}

/**
 * Run @p image with the TB engine on and off. Both arms reach the same
 * fetch fault through exec_one, so every observable must match.
 * @return the TB-on outcome, for the case's own expectations.
 */
FaultOutcome
fetch_fault_ab(const isa::Image& image,
               const std::function<void(Machine&)>& setup)
{
    const FaultOutcome on = run_fault_case(image, setup, true);
    const FaultOutcome off = run_fault_case(image, setup, false);
    EXPECT_EQ(on.stop, off.stop);
    EXPECT_EQ(on.reason, off.reason);
    EXPECT_EQ(on.pc, off.pc);
    EXPECT_EQ(on.icount, off.icount);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_TRUE(on.stats == off.stats);
    EXPECT_EQ(on.r3, off.r3);
    return on;
}

TEST(CpuFault, UndecodableInstruction)
{
    const auto image = assemble([](Assembler& a) {
        a.ldi(R3, 5);
        a.addi(R3, R3, 1);
        a.nop();
        a.halt();
    });
    // Overwrite the nop with an invalid opcode (raw, bypassing W^X).
    const FaultOutcome out = fetch_fault_ab(image, [](Machine& m) {
        m.mem.write_raw(kCode + 2 * kInstrBytes, 1, 0xee);
    });
    EXPECT_EQ(out.stop, StopReason::kBadInstr);
    EXPECT_EQ(out.reason, "undecodable instruction at pc=0x2010");
    EXPECT_EQ(out.pc, kCode + 2 * kInstrBytes);
    EXPECT_EQ(out.icount, 2u);
    EXPECT_EQ(out.r3, 6u);
}

TEST(CpuFault, JumpIntoNonExecutablePage)
{
    // A direct jump the TB folds into its trace; the target page is RW.
    constexpr Addr kData = kCode + kPageSize;
    const auto image = assemble([](Assembler& a) {
        a.ldi(R3, 1);
        a.addi(R3, R3, 1);
        a.jmp("data");
        a.align(kPageSize);
        a.label("data");
        a.halt();
    });
    const FaultOutcome out = fetch_fault_ab(image, [](Machine& m) {
        m.mem.set_perms(kData, kPageSize, mem::kPermRW);
    });
    EXPECT_EQ(out.stop, StopReason::kMemFault);
    EXPECT_EQ(out.reason, "fetch fault at pc=0x3000 (perm)");
    EXPECT_EQ(out.pc, kData);
    EXPECT_EQ(out.icount, 3u);
    EXPECT_EQ(out.r3, 2u);
}

TEST(CpuFault, UnalignedJmprTarget)
{
    // The target is 4 bytes into a pair of data words. Read from there,
    // the first slot is `ldi r3, 7` and the second an invalid opcode, so
    // one instruction retires at an unaligned PC before the fault.
    Addr words = 0;
    const auto image = assemble([&](Assembler& a) {
        a.ldi_label(R1, "words");
        a.addi(R1, R1, 4);
        a.jmpr(R1);
        a.label("words");
        words = a.here();
        const Word ldi = static_cast<std::uint8_t>(Opcode::kLdi);
        a.word((ldi << 32) | (static_cast<Word>(R3) << 40));
        a.word(7 | (Word{0xee} << 32));
        a.word(0);
    });
    const FaultOutcome out = fetch_fault_ab(image, [](Machine&) {});
    EXPECT_EQ(out.stop, StopReason::kBadInstr);
    EXPECT_EQ(out.pc, words + 12);
    EXPECT_EQ(out.reason, strcat_args("undecodable instruction at pc=0x",
                                      std::hex, words + 12));
    EXPECT_EQ(out.icount, 4u);
    EXPECT_EQ(out.r3, 7u);
}

TEST(CpuFault, PcPastEndOfRam)
{
    // The last three slots of RAM run, then the PC falls off the end.
    constexpr Addr kRamEnd = 1 << 20;
    Assembler a(kRamEnd - 3 * kInstrBytes);
    a.ldi(R3, 1);
    a.addi(R3, R3, 1);
    a.addi(R3, R3, 1);
    const FaultOutcome out = fetch_fault_ab(a.link(), [](Machine&) {});
    EXPECT_EQ(out.stop, StopReason::kMemFault);
    EXPECT_EQ(out.reason, "fetch fault at pc=0x100000 (range)");
    EXPECT_EQ(out.pc, kRamEnd);
    EXPECT_EQ(out.icount, 3u);
    EXPECT_EQ(out.r3, 3u);
}

}  // namespace
}  // namespace rsafe::cpu
