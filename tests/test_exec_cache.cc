/** @file Tests that translated code never goes stale.
 *
 *  The translation-block engine caches decoded guest code and drops it
 *  eagerly when PhysMem reports a code write (mem::CodeWriteListener).
 *  Every scenario here runs twice, once with the engine on and once with
 *  it off (Cpu::set_tb_enabled), and asserts bit-identical outcomes. The
 *  engine-off arm single-steps Cpu::exec_one, which fetches and decodes
 *  every instruction from memory, so it cannot run stale code. The
 *  scenarios are the ways a translation can go stale: guest
 *  self-modifying stores (on W^X and on RWX pages, whole-word, mid-
 *  instruction and across a page boundary), hypervisor permission flips,
 *  and checkpoint rollback. Each also checks a hand-computed result.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cpu/cpu.h"
#include "cpu/tb_engine.h"
#include "isa/assembler.h"
#include "mem/phys_mem.h"
#include "replay/checkpoint.h"
#include "rnr/replayer.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe::cpu {
namespace {

using isa::Assembler;
using isa::R1;
using isa::R2;
using isa::R3;

constexpr Addr kCode = 0x2000;
constexpr Addr kStackTop = 0x20000;

/** Environment that should never be entered by these programs. */
class NullEnv : public CpuEnv {
  public:
    Word on_rdtsc() override { return 0; }
    Word on_io_in(std::uint16_t) override { return 0; }
    void on_io_out(std::uint16_t, Word) override {}
    Word on_mmio_read(Addr) override { return 0; }
    void on_mmio_write(Addr, Word) override {}
    void on_breakpoint(Addr) override {}
    void on_ras_alarm(const RasAlarm&) override {}
    void on_ras_evict(Addr) override {}
    void on_call_ret(const CallRetEvent&) override {}
};

isa::Image
assemble(Addr base, const std::function<void(Assembler&)>& body)
{
    Assembler a(base);
    body(a);
    return a.link();
}

/** The 8 encoded bytes of @p instr as a guest (little-endian) word. */
Word
instr_word(const isa::Instr& instr)
{
    const auto bytes = isa::encode(instr);
    Word word = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        word |= static_cast<Word>(bytes[i]) << (8 * i);
    return word;
}

/** What an execution ended as, for A/B comparison. */
struct Outcome {
    StopReason stop = StopReason::kHalt;
    Word r3 = 0;
    InstrCount icount = 0;
    Cycles cycles = 0;
    std::uint64_t mem_hash = 0;

    bool operator==(const Outcome&) const = default;
};

/** Run @p image; when @p tb_invalidations is set, store the TB engine's
 *  invalidation count there. */
Outcome
run_machine(const isa::Image& image, std::uint8_t perms, bool tb,
            std::uint64_t* tb_invalidations = nullptr)
{
    mem::PhysMem mem(1 << 20);
    Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.set_tb_enabled(tb);
    mem.load_image(image);
    mem.set_perms(image.base(), image.size(), perms);
    cpu.state().pc = image.base();
    cpu.state().sp = kStackTop;

    Outcome out;
    out.stop = cpu.run(~static_cast<Cycles>(0), 100000);
    out.r3 = cpu.reg(R3);
    out.icount = cpu.icount();
    out.cycles = cpu.cycles();
    out.mem_hash = mem.store().content_hash();
    if (tb_invalidations != nullptr)
        *tb_invalidations = cpu.tb_engine().stats().invalidations;
    return out;
}

TEST(ExecCache, SmcStoreToWxPageFaultsAndCodeStaysIntact)
{
    // A guest store aimed at the executing (RX) page must fault without
    // modifying anything — and must do so identically with and without
    // the TB engine, even though the TB-on run translated the page the
    // store targets.
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi(R1, static_cast<std::int64_t>(kCode));
        a.ldi(R2, 0x1bad);
        a.st(R1, 0, R2);  // W^X violation
        a.ldi(R3, 7);     // never reached
        a.halt();
    });
    const Outcome with = run_machine(image, mem::kPermRX, true);
    const Outcome without = run_machine(image, mem::kPermRX, false);
    EXPECT_EQ(with.stop, StopReason::kMemFault);
    EXPECT_EQ(with.r3, 0u);
    EXPECT_EQ(with, without);
}

TEST(ExecCache, SmcOnRwxPageExecutesNewCode)
{
    // On an RWX page, a store that overwrites a not-yet-executed slot of
    // the *current* page must be visible to the very next fetch: the
    // store is a code write, so the translated block may not be reused.
    // A stale translation would execute the original `ldi r3, 111`.
    isa::Instr patch;
    patch.op = isa::Opcode::kLdi;
    patch.rd = R3;
    patch.imm = 222;
    const Word patch_word = instr_word(patch);

    const auto image = assemble(kCode, [&](Assembler& a) {
        a.ldi_label(R1, "patchme");
        a.ldi(R2, static_cast<std::int64_t>(patch_word));
        a.st(R1, 0, R2);
        a.label("patchme");
        a.ldi(R3, 111);
        a.halt();
    });
    const Outcome with = run_machine(image, mem::kPermRWX, true);
    const Outcome without = run_machine(image, mem::kPermRWX, false);
    EXPECT_EQ(with.stop, StopReason::kHalt);
    EXPECT_EQ(with.r3, 222u);
    EXPECT_EQ(with, without);
}

TEST(ExecCache, SetPermsFlipRwToRxPicksUpRewrittenCode)
{
    // Hypervisor-style code swap: execute a page, flip it RX -> RW,
    // rewrite its bytes while it is plain data, flip back RW -> RX and
    // re-execute. Both flips and the rewrite are code writes, so the
    // second run must execute the new bytes.
    const auto image1 = assemble(kCode, [](Assembler& a) {
        a.ldi(R3, 1);
        a.halt();
    });
    const auto image2 = assemble(kCode, [](Assembler& a) {
        a.ldi(R3, 2);
        a.halt();
    });

    for (const bool tb : {true, false}) {
        mem::PhysMem mem(1 << 20);
        Cpu cpu(&mem);
        NullEnv env;
        cpu.set_env(&env);
        cpu.set_tb_enabled(tb);

        mem.load_image(image1);
        mem.set_perms(kCode, kPageSize, mem::kPermRX);
        cpu.state().pc = kCode;
        cpu.state().sp = kStackTop;
        ASSERT_EQ(cpu.run(~static_cast<Cycles>(0), 100), StopReason::kHalt);
        EXPECT_EQ(cpu.reg(R3), 1u) << "tb=" << tb;

        mem.set_perms(kCode, kPageSize, mem::kPermRW);
        mem.load_image(image2);
        mem.set_perms(kCode, kPageSize, mem::kPermRX);
        cpu.state().halted = false;
        cpu.state().pc = kCode;
        ASSERT_EQ(cpu.run(~static_cast<Cycles>(0), 200), StopReason::kHalt);
        EXPECT_EQ(cpu.reg(R3), 2u) << "tb=" << tb;
    }
}

TEST(ExecCache, MidInstructionByteWriteInvalidatesCachedPage)
{
    // A one-byte store landing *inside* an instruction slot (offset 4 of
    // the 8-byte encoding holds the immediate's low byte) on the
    // currently executing -- translated -- page. No stale decode may
    // run: the very next fetch of `patchme` must see the patched
    // immediate, with the TB engine on and off.
    const auto image = assemble(kCode, [](Assembler& a) {
        a.ldi_label(R1, "patchme");
        a.ldi(R2, 222);
        a.stb(R1, 4, R2);  // overwrite imm LSB of the ldi below
        a.label("patchme");
        a.ldi(R3, 111);
        a.halt();
    });

    std::uint64_t invalidations = 0;
    const Outcome ref =
        run_machine(image, mem::kPermRWX, true, &invalidations);
    EXPECT_EQ(ref.stop, StopReason::kHalt);
    EXPECT_EQ(ref.r3, 222u);
    EXPECT_GT(invalidations, 0u)
        << "mid-instruction store must invalidate the translation block";
    EXPECT_EQ(run_machine(image, mem::kPermRWX, false), ref);
}

TEST(ExecCache, SmcBlockSpanningPageBoundaryInvalidatesMidFlight)
{
    // Self-modifying code whose block spans a page boundary: the block
    // starts in the last four slots of one page and falls through onto
    // the next, and its store patches the not-yet-executed instruction
    // in the *second* page of its own block. The write must invalidate
    // the spanning block mid-flight, so execution resumes on the fresh
    // bytes.
    isa::Instr patch;
    patch.op = isa::Opcode::kLdi;
    patch.rd = R3;
    patch.imm = 222;
    const Word patch_word = instr_word(patch);

    // ldi_label + ldi/ldiu pair + st = 4 slots before `patchme`.
    constexpr Addr kSpanBase = 2 * kPageSize - 4 * kInstrBytes;
    const auto image = assemble(kSpanBase, [&](Assembler& a) {
        a.ldi_label(R1, "patchme");
        a.ldi(R2, static_cast<std::int64_t>(patch_word));
        a.st(R1, 0, R2);
        a.label("patchme");
        a.ldi(R3, 111);
        a.halt();
    });
    // The layout must put `patchme` exactly on the page boundary.
    ASSERT_EQ(image.base() + image.size() - 2 * kInstrBytes,
              static_cast<Addr>(2 * kPageSize));

    std::uint64_t invalidations = 0;
    const Outcome ref =
        run_machine(image, mem::kPermRWX, true, &invalidations);
    EXPECT_EQ(ref.stop, StopReason::kHalt);
    EXPECT_EQ(ref.r3, 222u);
    EXPECT_GT(invalidations, 0u)
        << "cross-page store must invalidate the spanning block";
    EXPECT_EQ(run_machine(image, mem::kPermRWX, false), ref);
}

/** Roll a VM back via restore_checkpoint and re-run; returns the final
 *  memory hash + clocks, which must not depend on the TB engine. */
Outcome
rollback_outcome(bool tb)
{
    auto profile = workloads::benchmark_profile("radiosity");
    profile.rdtsc_prob = 0.0;  // trap-free early segment (no injections)
    auto vm = workloads::make_vm(profile);
    vm->cpu().set_tb_enabled(tb);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(4);

    vm->cpu().run(~static_cast<Cycles>(0), 1000);
    const auto ck = store.take(*vm, env, 0);

    // Diverge past the checkpoint, then roll back and replay the same
    // deterministic segment. The TB engine translated the post-
    // checkpoint code/pages; after the rollback it must not run any of
    // it stale.
    vm->cpu().run(~static_cast<Cycles>(0), 3000);
    replay::restore_checkpoint(*ck, vm.get(), &env);
    EXPECT_EQ(vm->cpu().icount(), ck->icount);
    vm->cpu().run(~static_cast<Cycles>(0), 3000);

    Outcome out;
    out.r3 = vm->cpu().reg(R3);
    out.icount = vm->cpu().icount();
    out.cycles = vm->cpu().cycles();
    out.mem_hash = vm->mem().store().content_hash();
    return out;
}

TEST(ExecCache, RestoreCheckpointRollbackIsCacheInvisible)
{
    const Outcome with = rollback_outcome(true);
    const Outcome without = rollback_outcome(false);
    EXPECT_EQ(with, without);

    // And the rollback itself is repeatable: two TB-on runs agree.
    EXPECT_EQ(rollback_outcome(true), with);
}

}  // namespace
}  // namespace rsafe::cpu
