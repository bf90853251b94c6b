/** @file Tests of the translation-block engine's mechanics.
 *
 *  Execution semantics are covered by the A/B gates (test_exec_cache,
 *  test_framework, test_replay): every run must be bit-identical with
 *  the engine on and off. This file tests the machinery itself —
 *  translation shapes (jump folding, pair fusion, block caps), chaining,
 *  the flush a code write to a translated page triggers, breakpoint
 *  cuts, call/ret under RAS monitoring and under call/ret tracing, and
 *  the event counters those behaviors feed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "cpu/cpu.h"
#include "cpu/tb_engine.h"
#include "isa/assembler.h"
#include "isa/encoding.h"
#include "mem/phys_mem.h"
#include "replay/checkpoint.h"
#include "rnr/replayer.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe::cpu {
namespace {

using isa::Assembler;
using isa::R0;
using isa::R1;
using isa::R2;
using isa::R3;
using isa::R4;

constexpr Addr kCode = 0x2000;
constexpr Addr kStackTop = 0x20000;

/** Environment that counts breakpoint hook firings. */
class CountingEnv : public CpuEnv {
  public:
    Word on_rdtsc() override { return 0; }
    Word on_io_in(std::uint16_t) override { return 0; }
    void on_io_out(std::uint16_t, Word) override {}
    Word on_mmio_read(Addr) override { return 0; }
    void on_mmio_write(Addr, Word) override {}
    void on_breakpoint(Addr pc) override { breakpoint_pcs.push_back(pc); }
    void on_ras_alarm(const RasAlarm&) override {}
    void on_ras_evict(Addr) override {}
    void on_call_ret(const CallRetEvent&) override {}

    std::vector<Addr> breakpoint_pcs;
};

isa::Image
assemble(Addr base, const std::function<void(Assembler&)>& body)
{
    Assembler a(base);
    body(a);
    return a.link();
}

/** A machine wired for TB execution with everything inspectable. */
struct Machine {
    mem::PhysMem mem{1 << 20};
    Cpu cpu{&mem};
    CountingEnv env;

    explicit Machine(const isa::Image& image,
                     std::uint8_t perms = mem::kPermRX)
    {
        cpu.set_env(&env);
        mem.load_image(image);
        mem.set_perms(image.base(), image.size(), perms);
        cpu.state().pc = image.base();
        cpu.state().sp = kStackTop;
    }

    StopReason run(InstrCount stop_icount = 100000)
    {
        return cpu.run(~static_cast<Cycles>(0), stop_icount);
    }

    TbEngine& eng() { return cpu.tb_engine(); }
};

TEST(TbEngine, TranslatesExecutesAndCounts)
{
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 50);
        a.ldi(R3, 0);
        a.label("loop");
        a.addi(R3, R3, 2);
        a.addi(R1, R1, -1);
        a.bne(R1, R0, "loop");
        a.halt();
    });
    Machine m(image);
    EXPECT_EQ(m.run(), StopReason::kHalt);
    EXPECT_EQ(m.cpu.reg(R3), 100u);

    const TbEngineStats& s = m.eng().stats();
    EXPECT_GT(s.translated, 0u);
    EXPECT_GT(s.exec_blocks, 0u);
    EXPECT_EQ(s.flushes, 0u);
    EXPECT_EQ(s.translated, m.eng().block_length_hist().count());
}

TEST(TbEngine, LoopBackedgeChainsToItself)
{
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 100);
        a.label("loop");
        a.addi(R1, R1, -1);
        a.bne(R1, R0, "loop");
        a.halt();
    });
    Machine m(image);
    EXPECT_EQ(m.run(), StopReason::kHalt);

    // The loop body is its own block (entered via the taken backedge);
    // its taken exit must be chained straight back to itself, and the
    // ~99 chained iterations must all be chain hits.
    TransBlock* loop = m.eng().lookup(kCode + kInstrBytes);
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->next[kChainTaken], loop);
    EXPECT_GT(m.eng().stats().chain_hits, 90u);
}

TEST(TbEngine, AlignedDirectJumpsFoldIntoOneBlock)
{
    // ldi; jmp skip; skip: ldi; halt — the jump folds, so one block
    // covers all three instructions (the jump still retires one).
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 1);
        a.jmp("skip");
        a.label("skip");
        a.ldi(R2, 2);
        a.halt();
    });
    Machine m(image);
    EXPECT_EQ(m.run(), StopReason::kHalt);

    TransBlock* tb = m.eng().lookup(kCode);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(tb->len, 3u);  // ldi + folded jmp + ldi
    // The halt is untranslatable, so the block ends on a kBail exit.
    ASSERT_FALSE(tb->uops.empty());
    EXPECT_EQ(tb->uops.back().kind, UopKind::kBail);
}

TEST(TbEngine, SelfJumpUnrollsToBlockCap)
{
    // A tight self-jump folds until the block cap: one 128-instruction
    // trace of pure folded jumps, retired in a single dispatch. The run
    // must still stop exactly at the instruction limit.
    const auto image = assemble(kCode, [](Assembler& a) {
        a.label("spin");
        a.jmp("spin");
    });
    Machine m(image);
    EXPECT_EQ(m.run(1000), StopReason::kInstrLimit);
    EXPECT_EQ(m.cpu.icount(), 1000u);

    TransBlock* tb = m.eng().lookup(kCode);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(tb->len, TbEngine::kMaxBlockInstrs);
    ASSERT_FALSE(tb->uops.empty());
    EXPECT_EQ(tb->uops.back().kind, UopKind::kFall);
}

TEST(TbEngine, DependentAluPairsFuse)
{
    // add r2 = r1+r1; xor r3 = r2^r1: the consumer's rs1 is the
    // producer's rd, so translation must emit one fused superinstruction
    // retiring both. (The unrelated ldi in between keeps the first ldi
    // from greedily pairing with the add instead — ldi is a pair op1.)
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 5);
        a.ldi(R4, 0);
        a.add(R2, R1, R1);
        a.xor_(R3, R2, R1);
        a.halt();
    });
    Machine m(image);
    EXPECT_EQ(m.run(), StopReason::kHalt);
    EXPECT_EQ(m.cpu.reg(R2), 10u);
    EXPECT_EQ(m.cpu.reg(R3), 15u);

    TransBlock* tb = m.eng().lookup(kCode);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(tb->len, 4u);
    bool fused = false;
    for (const Uop& u : tb->uops) {
        if (u.kind == UopKind::kP_AddRR_XorRR) {
            fused = true;
            EXPECT_EQ(u.count, 2u);
            EXPECT_EQ(u.alu1.rd, R2);
            EXPECT_EQ(u.alu2.rs1, R2);
        }
    }
    EXPECT_TRUE(fused) << "dependent add/xor pair was not fused";
}

TEST(TbEngine, CodeWriteToATranslatedPageFlushesTheCache)
{
    // Two blocks on two pages, chained: `ldi; beq` on the first page,
    // `far: ldi r3; halt` on the next.
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 0);
        a.beq(R1, R0, "far");
        a.halt();
        a.align(kPageSize);
        a.label("far");
        a.ldi(R3, 111);
        a.halt();
    });
    const Addr far = kCode + kPageSize;
    isa::Instr patch;
    patch.op = isa::Opcode::kLdi;
    patch.rd = R3;
    patch.imm = 222;
    const auto patch_bytes = isa::encode(patch);

    for (const bool tb : {true, false}) {
        Machine m(image);
        m.cpu.set_tb_enabled(tb);
        EXPECT_EQ(m.run(), StopReason::kHalt) << "tb=" << tb;
        EXPECT_EQ(m.cpu.reg(R3), 111u) << "tb=" << tb;
        TransBlock* head = m.eng().lookup(kCode);
        TransBlock* tail = m.eng().lookup(far);
        const TbEngineStats before = m.eng().stats();
        if (tb) {
            ASSERT_NE(head, nullptr);
            ASSERT_NE(tail, nullptr);
            ASSERT_EQ(head->next[kChainTaken], tail);
        }

        // A host-side write to the second page, the path a guest store
        // to an executable page takes, drops both blocks at once: they
        // leave the lookup table and the chain, and read invalid.
        m.mem.write_block(far, patch_bytes.data(), patch_bytes.size());
        EXPECT_EQ(m.eng().lookup(kCode), nullptr);
        EXPECT_EQ(m.eng().lookup(far), nullptr);
        if (tb) {
            EXPECT_FALSE(head->valid);
            EXPECT_FALSE(tail->valid);
            EXPECT_EQ(head->next[kChainTaken], nullptr) << "chain kept";
            EXPECT_EQ(m.eng().stats().flushes, before.flushes + 1);
        }

        // The rerun retranslates both blocks and runs the new bytes.
        m.cpu.state().pc = kCode;
        m.cpu.state().halted = false;
        EXPECT_EQ(m.run(), StopReason::kHalt) << "tb=" << tb;
        EXPECT_EQ(m.cpu.reg(R3), 222u) << "tb=" << tb;
        if (tb) {
            EXPECT_EQ(m.eng().stats().translated, before.translated + 2);
        }
    }
}

TEST(TbEngine, DataWritesAndFreshVmRestoresKeepTheCache)
{
    // Guest stores to a data page, and host writes to a page no block
    // covers, cost one bit test each and keep every block.
    constexpr Addr kData = 0x10000;
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 50);
        a.ldi(R2, static_cast<std::int64_t>(kData));
        a.label("loop");
        a.st(R2, 0, R1);
        a.addi(R1, R1, -1);
        a.bne(R1, R0, "loop");
        a.halt();
    });
    Machine m(image);
    EXPECT_EQ(m.run(), StopReason::kHalt);
    TransBlock* loop = m.eng().lookup(kCode + 2 * kInstrBytes);
    ASSERT_NE(loop, nullptr);
    const std::uint64_t flushes = m.eng().stats().flushes;
    m.mem.write_raw(kData + kPageSize, 8, 0xabc);
    EXPECT_EQ(m.eng().stats().flushes, flushes);
    EXPECT_EQ(m.eng().lookup(kCode + 2 * kInstrBytes), loop);
    EXPECT_TRUE(loop->valid);

    // A restore into a fresh VM rewrites pages no block covers yet, so
    // it flushes nothing, and neither does the run that follows.
    auto profile = workloads::benchmark_profile("radiosity");
    profile.rdtsc_prob = 0.0;  // trap-free early segment (no injections)
    const auto factory = workloads::vm_factory(profile);
    rnr::InputLog empty_log;
    const auto src = factory();
    rnr::Replayer src_env(src.get(), &empty_log, 0, rnr::ReplayOptions{});
    src->cpu().run(~static_cast<Cycles>(0), 1000);
    replay::CheckpointStore store(0);
    const auto ck = store.take(*src, src_env, 0);

    const auto dst = factory();
    rnr::Replayer dst_env(dst.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::restore_checkpoint(*ck, dst.get(), &dst_env);
    EXPECT_EQ(dst->cpu().tb_engine().stats().flushes, 0u);
    src->cpu().run(~static_cast<Cycles>(0), 3000);
    dst->cpu().run(~static_cast<Cycles>(0), 3000);
    EXPECT_GT(dst->cpu().tb_engine().stats().translated, 0u);
    EXPECT_EQ(dst->cpu().tb_engine().stats().flushes, 0u);
    EXPECT_EQ(dst->mem().store().content_hash(),
              src->mem().store().content_hash());
}

TEST(TbEngine, BreakpointsCutBlocksAndFireExactly)
{
    // Straight-line code with a breakpoint in the middle: the hook must
    // fire exactly once, at the breakpoint PC, with the TB engine on —
    // and the translated blocks must be cut so no block starts at or
    // spans the breakpoint.
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 1);
        a.ldi(R2, 2);
        a.label("bp");
        a.ldi(R3, 3);
        a.ldi(R4, 4);
        a.halt();
    });
    const Addr bp = kCode + 2 * kInstrBytes;

    for (const bool tb : {true, false}) {
        Machine m(image);
        m.cpu.set_tb_enabled(tb);
        m.cpu.vmcs().breakpoints.insert(bp);
        EXPECT_EQ(m.run(), StopReason::kHalt) << "tb=" << tb;
        EXPECT_EQ(m.cpu.reg(R4), 4u);
        ASSERT_EQ(m.env.breakpoint_pcs.size(), 1u) << "tb=" << tb;
        EXPECT_EQ(m.env.breakpoint_pcs[0], bp);
        if (!tb)
            continue;
        // No block may start at the breakpoint...
        EXPECT_EQ(m.eng().lookup(bp), nullptr);
        EXPECT_TRUE(m.eng().is_breakpoint(bp));
        // ...and the entry block must be cut right before it.
        TransBlock* head = m.eng().lookup(kCode);
        ASSERT_NE(head, nullptr);
        EXPECT_EQ(head->len, 2u);
        EXPECT_EQ(head->uops.back().kind, UopKind::kFall);
    }
}

TEST(TbEngine, BreakpointSetChangeFlushesCache)
{
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, 1);
        a.halt();
    });
    Machine m(image);
    EXPECT_EQ(m.run(), StopReason::kHalt);
    ASSERT_NE(m.eng().lookup(kCode), nullptr);
    const std::uint64_t flushes = m.eng().stats().flushes;

    // Arming a breakpoint invalidates every cut decision made so far.
    BreakpointSet& bps = m.cpu.vmcs().breakpoints;
    EXPECT_TRUE(bps.insert(kCode + kInstrBytes));
    m.eng().sync_breakpoints(bps);
    EXPECT_EQ(m.eng().lookup(kCode), nullptr);
    EXPECT_EQ(m.eng().stats().flushes, flushes + 1);

    // Same set again, or re-arming a PC that is already armed: no extra
    // flush.
    m.eng().sync_breakpoints(bps);
    EXPECT_FALSE(bps.insert(kCode + kInstrBytes));
    m.eng().sync_breakpoints(bps);
    EXPECT_EQ(m.eng().stats().flushes, flushes + 1);
}

/** One RAS VM exit as the recorder sees it, clocks included. */
struct RasExit {
    bool alarm = false;  ///< on_ras_alarm; otherwise on_ras_evict
    RasAlarmKind kind = RasAlarmKind::kMispredict;
    Addr ret_pc = 0;
    Addr predicted = 0;
    Addr actual = 0;  ///< the alarm's target, or the evicted entry
    Addr sp_after = 0;
    InstrCount icount = 0;
    Cycles cycles = 0;

    bool operator==(const RasExit&) const = default;
};

/** Environment that logs every RAS exit with the CPU clocks at the call. */
class RasExitEnv : public CountingEnv {
  public:
    explicit RasExitEnv(const Cpu* cpu) : cpu_(cpu) {}

    void on_ras_alarm(const RasAlarm& alarm) override
    {
        exits.push_back({true, alarm.kind, alarm.ret_pc, alarm.predicted,
                         alarm.actual, alarm.sp_after, cpu_->icount(),
                         cpu_->cycles()});
    }
    void on_ras_evict(Addr evicted) override
    {
        RasExit e;
        e.actual = evicted;
        e.icount = cpu_->icount();
        e.cycles = cpu_->cycles();
        exits.push_back(e);
    }

    std::vector<RasExit> exits;

  private:
    const Cpu* cpu_;
};

/**
 * A guest that drives every RAS exit the recorder arms, three rounds:
 * recursion deeper than the RAS (evictions, then underflows on the way
 * out), a hijacked return (mispredict) and a whitelisted return.
 */
isa::Image
ras_exit_image()
{
    constexpr int kDepth = static_cast<int>(Ras::kDefaultDepth) + 12;
    return assemble(kCode, [](Assembler& a) {
        a.ldi(R4, 3);
        a.label("round");
        a.ldi(R1, kDepth);
        a.call("rec");
        a.call("hijack");
        a.nop();  // skipped: the hijacked return lands past it
        a.label("hijack_land");
        a.ldi_label(R2, "wl_land");
        a.push(R2);
        a.label("wl_ret");
        a.ret();
        a.label("wl_land");
        a.addi(R4, R4, -1);
        a.bne(R4, R0, "round");
        a.halt();

        a.func_begin("rec");
        a.beq(R1, R0, "rec_done");
        a.addi(R1, R1, -1);
        a.call("rec");
        a.label("rec_done");
        a.ret();
        a.func_end();

        a.func_begin("hijack");
        a.getsp(R3);
        a.ldi_label(R2, "hijack_land");
        a.st(R3, 0, R2);
        a.ret();
        a.func_end();
    });
}

TEST(TbEngine, MonitoredCallRetMatchesInterpreterExitForExit)
{
    // The recorder's VMCS: RAS alarms and eviction exits armed, whitelists
    // on. Call/ret run inside translated blocks and bail to exec_one only
    // when an exit is due, so every exit must fire with the same
    // arguments at the same icount and cycle count as the interpreter's.
    const isa::Image image = ras_exit_image();
    struct Result {
        std::vector<RasExit> exits;
        CpuStats stats;
        InstrCount icount = 0;
        Cycles cycles = 0;
        std::uint64_t mem_hash = 0;
        std::uint64_t exec_blocks = 0;
    };
    const auto run = [&image](bool tb) {
        Machine m(image);
        RasExitEnv env(&m.cpu);
        m.cpu.set_env(&env);
        m.cpu.set_tb_enabled(tb);
        m.cpu.vmcs().controls.ras_alarm_enabled = true;
        m.cpu.vmcs().controls.ras_evict_exit = true;
        m.cpu.ras().set_ret_whitelist({image.symbol("wl_ret")});
        m.cpu.ras().set_tar_whitelist({image.symbol("wl_land")});
        EXPECT_EQ(m.run(), StopReason::kHalt) << "tb=" << tb;
        return Result{env.exits,
                      m.cpu.stats(),
                      m.cpu.icount(),
                      m.cpu.cycles(),
                      m.mem.store().content_hash(),
                      m.eng().stats().exec_blocks};
    };
    const Result on = run(true);
    const Result off = run(false);

    const CpuStats& s = on.stats;
    EXPECT_EQ(s.ras_evictions, 3u * 13u);  // 61 pushes into 48 entries
    EXPECT_EQ(s.ras_whitelisted, 3u);
    EXPECT_EQ(s.ras_alarms, 3u * (13u + 1u));  // underflows + mispredict
    const auto count = [&on](RasAlarmKind kind) {
        return std::count_if(on.exits.begin(), on.exits.end(),
                             [kind](const RasExit& e) {
                                 return e.alarm && e.kind == kind;
                             });
    };
    EXPECT_EQ(count(RasAlarmKind::kMispredict), 3);
    EXPECT_EQ(count(RasAlarmKind::kUnderflow), 3 * 13);

    EXPECT_EQ(on.exits, off.exits);
    EXPECT_EQ(on.stats, off.stats);
    EXPECT_EQ(on.icount, off.icount);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.mem_hash, off.mem_hash);

    // Every call and return that raised no exit completed a translated
    // block instead of bailing to the interpreter.
    EXPECT_GE(on.exec_blocks,
              s.calls + s.rets - s.ras_evictions - s.ras_alarms);
    EXPECT_EQ(off.exec_blocks, 0u);
}

/** Environment that logs every traced call/ret with the CPU clocks. */
class CallRetLogEnv : public CountingEnv {
  public:
    struct Event {
        bool is_call = false;
        Addr pc = 0;
        Addr target = 0;
        Mode mode = Mode::kUser;
        InstrCount icount = 0;
        Cycles cycles = 0;
        Addr state_pc = 0;  ///< the CPU's pc as the handler sees it
        Addr sp = 0;

        bool operator==(const Event&) const = default;
    };

    explicit CallRetLogEnv(const Cpu* cpu) : cpu_(cpu) {}

    void on_call_ret(const CallRetEvent& event) override
    {
        events.push_back({event.is_call, event.pc, event.target, event.mode,
                          cpu_->icount(), cpu_->cycles(), cpu_->state().pc,
                          cpu_->state().sp});
    }

    std::vector<Event> events;

  private:
    const Cpu* cpu_;
};

/** Forty rounds of a call chain seven deep. */
isa::Image
call_chain_image()
{
    return assemble(kCode, [](Assembler& a) {
        a.ldi(R4, 40);
        a.label("loop");
        a.ldi(R1, 6);
        a.call("rec");
        a.addi(R4, R4, -1);
        a.bne(R4, R0, "loop");
        a.halt();

        a.func_begin("rec");
        a.beq(R1, R0, "rec_done");
        a.addi(R1, R1, -1);
        a.call("rec");
        a.label("rec_done");
        a.ret();
        a.func_end();
    });
}

TEST(TbEngine, TracedCallRetStaysInTheBlock)
{
    // The alarm replayer traps kernel call/ret. Traced or not, a call/ret
    // ends its translated block and never leaves for the interpreter: a
    // traced one takes its trap (kVmTransition, the handler) right there.
    // Both modes must match the interpreter event for event, with the
    // clocks, pc and sp the handler sees.
    const isa::Image image = call_chain_image();
    struct Result {
        StopReason stop = StopReason::kHalt;
        std::vector<CallRetLogEnv::Event> events;
        CpuStats stats;
        InstrCount icount = 0;
        Cycles cycles = 0;
        std::uint64_t exec_blocks = 0;
    };
    const auto run = [&image](Mode mode, bool tb) {
        Machine m(image);
        CallRetLogEnv env(&m.cpu);
        m.cpu.set_env(&env);
        m.cpu.set_tb_enabled(tb);
        m.cpu.state().mode = mode;
        m.cpu.vmcs().controls.trap_kernel_call_ret = true;
        const StopReason stop = m.run();
        return Result{stop,           env.events,     m.cpu.stats(),
                      m.cpu.icount(), m.cpu.cycles(),
                      m.eng().stats().exec_blocks};
    };
    for (const Mode mode : {Mode::kUser, Mode::kKernel}) {
        const Result on = run(mode, true);
        const Result off = run(mode, false);
        // halt is privileged: the user-mode run ends in a fault there.
        EXPECT_EQ(on.stop, mode == Mode::kKernel ? StopReason::kHalt
                                                 : off.stop);
        EXPECT_EQ(off.stop, on.stop);
        EXPECT_EQ(on.events, off.events);
        EXPECT_EQ(on.stats, off.stats);
        EXPECT_EQ(on.icount, off.icount);
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.stats.calls, 40u * 7u);
        EXPECT_EQ(on.stats.rets, 40u * 7u);
        // Every call and return completed a translated block.
        EXPECT_GE(on.exec_blocks, on.stats.calls + on.stats.rets);
        if (mode == Mode::kUser) {
            EXPECT_TRUE(on.events.empty());
        } else {
            EXPECT_EQ(on.events.size(), on.stats.calls + on.stats.rets);
            EXPECT_EQ(on.stats.kernel_call_rets, on.events.size());
            EXPECT_EQ(on.cycles, on.icount + on.events.size() *
                                                 Costs::kVmTransition);
            for (const auto& event : on.events)
                EXPECT_EQ(event.state_pc, event.pc);
        }
    }
}

TEST(TbEngine, TracedCallRetHonorsTheCycleDeadline)
{
    // A trap charges kVmTransition mid-run, past the one cycle per
    // instruction the TB budget assumes. Sweep the cycle stop over every
    // value across several traps: the TB must stop where single-stepping
    // stops, with the same clocks, stats and events.
    const isa::Image image = assemble(kCode, [](Assembler& a) {
        a.ldi(R4, 3);
        a.label("loop");
        a.addi(R2, R2, 1);
        a.addi(R3, R3, 2);
        a.call("leaf");
        a.addi(R4, R4, -1);
        a.bne(R4, R0, "loop");
        a.halt();
        a.func_begin("leaf");
        a.addi(R2, R2, 3);
        a.ret();
        a.func_end();
    });
    struct Result {
        StopReason stop = StopReason::kHalt;
        std::vector<CallRetLogEnv::Event> events;
        CpuStats stats;
        InstrCount icount = 0;
        Cycles cycles = 0;
        Addr pc = 0;

        bool operator==(const Result&) const = default;
    };
    const auto run = [&image](Cycles stop_cycles, bool tb) {
        Machine m(image);
        CallRetLogEnv env(&m.cpu);
        m.cpu.set_env(&env);
        m.cpu.set_tb_enabled(tb);
        m.cpu.state().mode = Mode::kKernel;
        m.cpu.vmcs().controls.trap_kernel_call_ret = true;
        const StopReason stop =
            m.cpu.run(stop_cycles, ~static_cast<InstrCount>(0));
        return Result{stop,           env.events,     m.cpu.stats(),
                      m.cpu.icount(), m.cpu.cycles(), m.cpu.state().pc};
    };
    const Result full = run(~static_cast<Cycles>(0), true);
    ASSERT_EQ(full.stop, StopReason::kHalt);
    ASSERT_EQ(full.events.size(), 6u);
    std::size_t cut_short = 0;
    for (Cycles stop = 1; stop <= full.cycles + 1; ++stop) {
        const Result on = run(stop, true);
        const Result off = run(stop, false);
        ASSERT_EQ(on, off) << "stop_cycles=" << stop;
        cut_short += on.stop == StopReason::kCycleLimit ? 1 : 0;
    }
    // Every stop short of the halt's own cycle cuts the run.
    EXPECT_EQ(cut_short, full.cycles - 1);
}

}  // namespace
}  // namespace rsafe::cpu
