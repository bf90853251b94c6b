/** @file Tests of the software RAS (shadow stack) and the alarm replayer's
 *  false-positive classification, including the setjmp/longjmp case, and
 *  of chained alarm replays: one replay going on from alarm to alarm of a
 *  checkpoint classifies each exactly as a fresh replay does. */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/log.h"
#include "attack/attack_mounter.h"
#include "core/ar_stage.h"
#include "core/framework.h"
#include "kernel/kernel_builder.h"
#include "kernel/layout.h"
#include "replay/alarm_replayer.h"
#include "replay/checkpoint_replayer.h"
#include "replay/shadow_ras.h"
#include "rnr/recorder.h"
#include "test_util.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

namespace k = rsafe::kernel;
using replay::RetVerdict;
using replay::ShadowRas;

TEST(ShadowRas, MatchAndMismatch)
{
    ShadowRas shadow({}, {});
    Addr expected = 0;
    shadow.on_call(0x100);
    EXPECT_EQ(shadow.on_ret(0, 0x100, &expected), RetVerdict::kMatch);
    EXPECT_EQ(expected, 0x100u);
    shadow.on_call(0x200);
    EXPECT_EQ(shadow.on_ret(0, 0xbad, &expected),
              RetVerdict::kRopDetected);
    EXPECT_EQ(expected, 0x200u);
}

TEST(ShadowRas, WhitelistSemantics)
{
    ShadowRas shadow({0x500}, {0xA0});
    Addr expected;
    shadow.on_call(0x100);
    EXPECT_EQ(shadow.on_ret(0x500, 0xA0, &expected),
              RetVerdict::kWhitelistOk);
    EXPECT_EQ(shadow.depth(0), 1u);  // not popped
    EXPECT_EQ(shadow.on_ret(0x500, 0xbad, &expected),
              RetVerdict::kWhitelistViolation);
}

TEST(ShadowRas, ImperfectNestingUnwindsToDeeperEntry)
{
    // longjmp skipped two frames: the ret target matches a deeper entry.
    ShadowRas shadow({}, {});
    Addr expected;
    shadow.on_call(0x100);
    shadow.on_call(0x200);
    shadow.on_call(0x300);
    EXPECT_EQ(shadow.on_ret(0, 0x100, &expected),
              RetVerdict::kImperfectNesting);
    // Everything above and including the match is consumed.
    EXPECT_EQ(shadow.depth(0), 0u);
}

TEST(ShadowRas, UnderflowAgainstEvictRecords)
{
    ShadowRas shadow({}, {});
    Addr expected;
    shadow.note_evict(0, 0x111);
    shadow.note_evict(0, 0x222);
    // Pops beyond the tracked depth verify against evictions, newest
    // first (LIFO).
    EXPECT_EQ(shadow.on_ret(0, 0x222, &expected),
              RetVerdict::kUnderflowBenign);
    EXPECT_EQ(shadow.on_ret(0, 0x111, &expected),
              RetVerdict::kUnderflowBenign);
    // No more evictions to justify further pops.
    EXPECT_EQ(shadow.on_ret(0, 0x333, &expected),
              RetVerdict::kRopDetected);
}

TEST(ShadowRas, PerThreadIsolation)
{
    ShadowRas shadow({}, {});
    Addr expected;
    shadow.switch_to(1);
    shadow.on_call(0x100);
    shadow.switch_to(2);
    shadow.on_call(0x200);
    EXPECT_EQ(shadow.on_ret(0, 0x200, &expected), RetVerdict::kMatch);
    shadow.switch_to(1);
    EXPECT_EQ(shadow.on_ret(0, 0x100, &expected), RetVerdict::kMatch);
    EXPECT_EQ(shadow.depth(1), 0u);
    EXPECT_EQ(shadow.depth(2), 0u);
}

TEST(ShadowRas, InitFromSavedRas)
{
    ShadowRas shadow({}, {});
    cpu::SavedRas saved;
    saved.entries.push_back(cpu::RasEntry{0x100, true});
    saved.entries.push_back(cpu::RasEntry{0x200, true});
    shadow.init_thread(3, saved);
    shadow.switch_to(3);
    Addr expected;
    EXPECT_EQ(shadow.on_ret(0, 0x200, &expected), RetVerdict::kMatch);
    EXPECT_EQ(shadow.on_ret(0, 0x100, &expected), RetVerdict::kMatch);
}

// ---------------------------------------------------------------------
// Alarm replay of a user-level setjmp/longjmp (imperfect nesting).
// ---------------------------------------------------------------------

/** A workload whose longjmp produces genuine mispredict alarms. */
isa::Image
longjmp_image()
{
    return test::user_image([](isa::Assembler& a) {
        using namespace isa;
        // setjmp/longjmp library (same code the generator emits).
        a.func_begin("u_setjmp");
        a.getsp(R3);
        a.ld(R2, R3, 0);
        a.st(R1, 0, R2);
        a.addi(R3, R3, 8);
        a.st(R1, 8, R3);
        a.ldi(R0, 0);
        a.ret();
        a.func_end();
        a.func_begin("u_longjmp");
        a.ld(R3, R1, 8);
        a.setsp(R3);
        a.ld(R5, R1, 0);
        a.mov(R0, R2);
        a.jmpr(R5);
        a.func_end();

        const Addr jmpbuf = k::kUserDataBase + 0x100;
        // F: setjmp, then call into A -> B which longjmps back.
        a.func_begin("u_f");
        a.ldi(R1, static_cast<std::int64_t>(jmpbuf));
        a.call("u_setjmp");
        a.ldi(R2, 1);
        a.beq(R0, R2, "u_f_after");  // longjmp return path
        a.call("u_a");
        a.label("u_f_after");
        a.ret();  // <- mispredicts: the RAS still holds A/B entries
        a.func_end();
        a.func_begin("u_a");
        a.call("u_b");
        a.ret();
        a.func_end();
        a.func_begin("u_b");
        a.ldi(R1, static_cast<std::int64_t>(jmpbuf));
        a.ldi(R2, 1);
        a.call("u_longjmp");  // never returns
        a.ret();
        a.func_end();

        a.label("main");
        a.call("u_f");
        test::emit_exit(a);
    });
}

/** VMs running the longjmp workload as their only user task. */
core::VmFactory
longjmp_factory()
{
    return [image = longjmp_image()]() {
        hv::VmConfig config;
        config.devices = test::quiet_devices();
        auto vm = std::make_unique<hv::Vm>(config);
        vm->load_user_image(image);
        vm->add_user_task(image.symbol("main"));
        vm->finalize();
        return vm;
    };
}

TEST(AlarmReplay, LongjmpClassifiedAsFalsePositive)
{
    const auto factory = longjmp_factory();

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    const auto alarms = recorder.log().find_all(rnr::RecordType::kRasAlarm);
    ASSERT_GE(alarms.size(), 1u) << "longjmp produced no alarms";
    // The alarms are user-mode mispredicts.
    EXPECT_FALSE(recorder.log().at(alarms[0]).alarm.kernel_mode);

    // Run the full pipeline: the CR queues them, ARs resolve them. Each
    // alarm takes one AR pass, traced at the level its record names
    // (user call/ret included), and classifies as a false positive.
    core::FrameworkConfig config;
    core::RnrSafeFramework framework(factory, config);
    auto result = framework.run();
    EXPECT_EQ(result.alarms_logged, alarms.size());
    EXPECT_FALSE(result.alarms.attack_detected());
    EXPECT_EQ(result.pipeline_stats.value("ar.replays"),
              result.alarms.analyses().size());
    EXPECT_EQ(result.alarms.count(replay::AlarmCause::kNeedsDeeperAnalysis),
              0u);
    std::size_t benign = 0;
    for (const auto& analysis : result.alarms.analyses()) {
        EXPECT_FALSE(analysis.is_attack) << analysis.report;
        if (analysis.cause == replay::AlarmCause::kImperfectNesting ||
            analysis.cause == replay::AlarmCause::kHardwareArtifact) {
            ++benign;
        }
    }
    EXPECT_EQ(benign, result.alarms.analyses().size());
    // At least one alarm is the canonical imperfect-nesting case.
    EXPECT_GE(result.alarms.count(replay::AlarmCause::kImperfectNesting),
              1u);

    // Per-AR outputs survive in the result (they used to be discarded):
    // one entry per launched alarm replay, ordered by log position, each
    // carrying its verdict and audit report.
    ASSERT_EQ(result.ar_results.size(), result.alarms.analyses().size());
    std::size_t previous_index = 0;
    for (const auto& ar : result.ar_results) {
        EXPECT_EQ(recorder.log().at(ar.log_index).type,
                  rnr::RecordType::kRasAlarm);
        EXPECT_GE(ar.log_index, previous_index);
        previous_index = ar.log_index;
        EXPECT_FALSE(ar.analysis.is_attack);
        EXPECT_FALSE(ar.analysis.report.empty());
    }
}

/** The serial pipeline over @p factory, checkpointing every 250k
 *  instructions. */
core::FrameworkResult
run_checkpointed(const core::VmFactory& factory)
{
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kSerial;
    config.cr.checkpoint_interval = 250'000;
    return core::RnrSafeFramework(factory, config).run();
}

/** The apache profile with benign user-mode longjmp alarms and deep
 *  user-level recursion. */
core::VmFactory
setjmp_apache_factory()
{
    auto profile = workloads::benchmark_profile("apache");
    profile.iterations_per_task = 300;
    profile.setjmp_prob = 0.05;  // benign user-mode alarms
    profile.rec_prob = 0.3;      // deep user-level recursion
    return workloads::vm_factory(profile);
}

TEST(AlarmReplay, RecordChosenLevelMatchesTheDeepPass)
{
    // analyze() turns user call/ret tracing on for a user-mode alarm, as
    // its record says. That one pass must conclude exactly what the deep
    // pass, a replayer built with user tracing from the start, concluded.
    std::size_t compared = 0;
    for (const auto& factory : {longjmp_factory(), setjmp_apache_factory()}) {
        const auto result = run_checkpointed(factory);
        for (const auto& pending : result.cr->pending_alarms()) {
            ASSERT_NE(pending.checkpoint, nullptr);
            if (pending.record.type != rnr::RecordType::kRasAlarm ||
                pending.record.alarm.kernel_mode)
                continue;
            const auto replay = [&](bool deep) {
                auto vm = factory();
                rnr::ReplayOptions options;
                options.trap_user_call_ret = deep;
                replay::AlarmReplayer ar(vm.get(), &result.recorder->log(),
                                         *pending.checkpoint, options);
                return ar.analyze(pending.log_index);
            };
            const auto chosen = replay(false);
            const auto deep = replay(true);
            EXPECT_NE(chosen.cause, replay::AlarmCause::kNeedsDeeperAnalysis)
                << chosen.report;
            EXPECT_EQ(chosen.cause, deep.cause);
            EXPECT_EQ(chosen.is_attack, deep.is_attack);
            EXPECT_EQ(chosen.report, deep.report);
            EXPECT_EQ(chosen.forensic.serialize(), deep.forensic.serialize());
            EXPECT_EQ(chosen.analysis_cycles, deep.analysis_cycles);
            ++compared;
        }
    }
    EXPECT_GE(compared, 3u) << "too few user-mode longjmp alarms";
}

}  // namespace
}  // namespace rsafe
// Appended: alarm-replayer cost and forensics coverage.
namespace rsafe {
namespace {

TEST(AlarmReplayCost, KernelTracingIsMuchSlowerThanPlainReplay)
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 120;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    // Plain replay.
    auto plain_vm = factory();
    rnr::Replayer plain(plain_vm.get(), &recorder.log(), 0,
                        rnr::ReplayOptions{});
    ASSERT_EQ(plain.run(), rnr::ReplayOutcome::kFinished);

    // Alarm-replayer instrumentation from an initial checkpoint.
    auto seed_vm = factory();
    rnr::InputLog empty;
    rnr::Replayer env(seed_vm.get(), &empty, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(1);
    const auto ck = store.take(*seed_vm, env, 0);

    auto ar_vm = factory();
    replay::AlarmReplayer ar(ar_vm.get(), &recorder.log(), *ck,
                             rnr::ReplayOptions{});
    const auto outcome = ar.run();
    ASSERT_TRUE(outcome == rnr::ReplayOutcome::kFinished ||
                outcome == rnr::ReplayOutcome::kLogExhausted);

    // Same final state, wildly different cost (Figure 9's premise).
    EXPECT_EQ(ar_vm->state_hash(), plain_vm->state_hash());
    EXPECT_GT(ar_vm->cpu().cycles(), 5 * plain_vm->cpu().cycles());
    EXPECT_GT(ar_vm->cpu().stats().kernel_call_rets, 1000u);
}

TEST(AlarmForensics, ReportNamesTheVulnerableFunctionAndGadgets)
{
    // Full pipeline against the mounted attack; inspect the report text.
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 120;
    profile.num_tasks = 2;
    const auto kernel = k::build_kernel();
    const auto program = attack::build_attacker_program(
        kernel, k::kUserCodeBase + 0x40000,
        k::kUserDataBase + 15 * 0x10000, 100);
    auto factory =
        workloads::vm_factory(profile, {program.image}, {program.entry});
    core::RnrSafeFramework framework(factory, core::FrameworkConfig{});
    auto result = framework.run();
    ASSERT_TRUE(result.alarms.attack_detected());
    const auto* attack = result.alarms.attacks()[0];
    EXPECT_NE(attack->report.find("k_vulnerable"), std::string::npos);
    EXPECT_NE(attack->report.find("gadget chain"), std::string::npos);
    // The chain the AR recovered from the corrupted stack includes the
    // gadgets the attacker actually staged.
    bool found_g2 = false, found_g3 = false;
    for (const auto& gadget : attack->forensic.gadgets) {
        found_g2 |= gadget.pc == program.chain.g2;
        found_g3 |= gadget.pc == program.chain.g3;
    }
    EXPECT_TRUE(found_g2);
    EXPECT_TRUE(found_g3);
}

}  // namespace
}  // namespace rsafe
// Appended: execution-auditor coverage.
#include "replay/audit.h"

namespace rsafe {
namespace {

TEST(ExecutionAuditor, ProfilesKernelActivityFaithfully)
{
    auto profile_cfg = workloads::benchmark_profile("make");
    profile_cfg.iterations_per_task = 120;
    auto factory = workloads::vm_factory(profile_cfg);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    // Audit the whole execution from an initial checkpoint.
    auto seed_vm = factory();
    rnr::InputLog empty;
    rnr::Replayer env(seed_vm.get(), &empty, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(1);
    const auto ck = store.take(*seed_vm, env, 0);

    auto audit_vm = factory();
    replay::ExecutionAuditor auditor(audit_vm.get(), &recorder.log(), *ck);
    const auto profile = auditor.audit();

    EXPECT_GT(profile.instructions, 0u);
    EXPECT_GT(profile.context_switches, 0u);
    EXPECT_FALSE(profile.dominant_function().empty());
    // make's kernel time is checksum-dominated by construction.
    EXPECT_GT(profile.calls_by_function.count("k_csum"), 0u);
    EXPECT_GT(profile.calls_by_function.count("schedule"), 0u);
    EXPECT_FALSE(profile.calls_by_thread.empty());
    EXPECT_NE(profile.to_string().find("k_csum"), std::string::npos);
    // The audit replay ends in the recorded final state.
    EXPECT_EQ(audit_vm->state_hash(), rec_vm->state_hash());
}

TEST(ExecutionAuditor, SpinningWorkloadShowsNoSwitches)
{
    // The DOS analysis of Table 1: the audit of a starved window shows
    // what monopolized the kernel.
    auto image = test::user_image([](isa::Assembler& a) {
        a.label("main");
        a.ldi(isa::R1, 300000);
        test::emit_syscall(a, k::kSysSpin);
        test::emit_exit(a);
    });
    auto factory = [&image]() {
        hv::VmConfig config;
        config.devices = test::quiet_devices();
        auto vm = std::make_unique<hv::Vm>(config);
        vm->load_user_image(image);
        vm->add_user_task(image.symbol("main"));
        vm->finalize();
        return vm;
    };
    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    auto seed_vm = factory();
    rnr::InputLog empty;
    rnr::Replayer env(seed_vm.get(), &empty, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(1);
    const auto ck = store.take(*seed_vm, env, 0);
    auto audit_vm = factory();
    replay::ExecutionAuditor auditor(audit_vm.get(), &recorder.log(), *ck);
    const auto profile = auditor.audit();
    // The spin makes no kernel calls and blocks the scheduler: very few
    // switches for the instructions covered.
    EXPECT_LT(profile.context_switches * 50'000, profile.instructions);
}

}  // namespace
}  // namespace rsafe
// Appended: alarm replay under the translation-block engine.
namespace rsafe {
namespace {

/** An alarm replayer that logs every traced call/ret with the clocks. */
class TracingAlarmReplayer : public replay::AlarmReplayer {
  public:
    using AlarmReplayer::AlarmReplayer;

    struct Event {
        bool is_call = false;
        Addr pc = 0;
        Addr target = 0;
        cpu::Mode mode = cpu::Mode::kUser;
        InstrCount icount = 0;
        Cycles cycles = 0;
        Addr state_pc = 0;  ///< the CPU's pc as the handler sees it
        Addr sp = 0;

        bool operator==(const Event&) const = default;
    };

    void on_call_ret(const cpu::CallRetEvent& event) override
    {
        const auto& cpu = vm().cpu();
        events.push_back({event.is_call, event.pc, event.target, event.mode,
                          cpu.icount(), cpu.cycles(), cpu.state().pc,
                          cpu.state().sp});
        AlarmReplayer::on_call_ret(event);
    }

    std::vector<Event> events;
};

/** One alarm replay's observable results. */
struct TracedRun {
    std::vector<TracingAlarmReplayer::Event> events;
    cpu::CpuStats stats;
    Cycles cycles = 0;
    std::uint64_t lag_samples = 0;
    replay::AlarmAnalysis analysis;
};

/** Replay @p pending from its checkpoint, TB on or off: analyze() it, or
 *  run() the log from the checkpoint to its end. */
TracedRun
traced_replay(const core::VmFactory& factory, const rnr::InputLog& log,
              const replay::PendingAlarm& pending, bool tb, bool analyze)
{
    auto vm = factory();
    vm->cpu().set_tb_enabled(tb);
    TracingAlarmReplayer ar(vm.get(), &log, *pending.checkpoint,
                            rnr::ReplayOptions{});
    TracedRun out;
    if (analyze)
        out.analysis = ar.analyze(pending.log_index);
    else
        EXPECT_EQ(ar.run(), rnr::ReplayOutcome::kFinished);
    out.events = ar.events;
    out.stats = vm->cpu().stats();
    out.cycles = vm->cpu().cycles();
    out.lag_samples = ar.lag().series.observations();
    return out;
}

/** TB on and off must agree exit for exit and verdict for verdict. */
void
expect_same_replay(const TracedRun& on, const TracedRun& off)
{
    EXPECT_FALSE(on.events.empty());
    EXPECT_EQ(on.events, off.events);
    EXPECT_EQ(on.stats, off.stats);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.analysis.cause, off.analysis.cause);
    EXPECT_EQ(on.analysis.is_attack, off.analysis.is_attack);
    EXPECT_EQ(on.analysis.report, off.analysis.report);
    EXPECT_EQ(on.analysis.forensic.serialize(),
              off.analysis.forensic.serialize());
    EXPECT_EQ(on.analysis.analysis_cycles, off.analysis.analysis_cycles);
}

TEST(AlarmReplay, KernelOnlyTracingKeepsUserCallRetInTranslatedBlocks)
{
    // Two tracing levels, each with the TB on and off. Under the TB every
    // call/ret runs inside its block, traced or not; a traced one takes
    // its trap there without leaving for the interpreter
    // (TbEngine.TracedCallRetStaysInTheBlock), yet each traced event
    // fires at the same icount, cycle count, pc and sp as
    // single-stepping, with the same CPU stats:
    //  - kernel-only: run() replays the log from each alarm checkpoint
    //    to its end, as Figure 9 does;
    //  - user-traced: analyze() of a user-mode alarm also traces user
    //    call/ret, and its verdict agrees as well.
    const auto factory = setjmp_apache_factory();
    const auto result = run_checkpointed(factory);
    const auto& log = result.recorder->log();
    const auto& pending_alarms = result.cr->pending_alarms();
    ASSERT_GE(pending_alarms.size(), 3u);

    const auto user_events = [](const TracedRun& run) {
        std::uint64_t n = 0;
        for (const auto& event : run.events)
            n += event.mode == cpu::Mode::kUser ? 1 : 0;
        return n;
    };

    std::uint64_t untraced_user_call_rets = 0;
    std::uint64_t traced_user_call_rets = 0;
    std::set<std::size_t> kernel_only_replayed;  // by checkpoint position
    for (const auto& pending : pending_alarms) {
        ASSERT_NE(pending.checkpoint, nullptr);
        if (kernel_only_replayed.insert(pending.checkpoint->log_pos).second) {
            const TracedRun on =
                traced_replay(factory, log, pending, true, false);
            const TracedRun off =
                traced_replay(factory, log, pending, false, false);
            expect_same_replay(on, off);
            EXPECT_EQ(user_events(on), 0u);
            untraced_user_call_rets +=
                on.stats.calls + on.stats.rets - on.stats.kernel_call_rets;
        }

        const TracedRun on = traced_replay(factory, log, pending, true, true);
        const TracedRun off =
            traced_replay(factory, log, pending, false, true);
        expect_same_replay(on, off);
        if (!pending.record.alarm.kernel_mode) {
            EXPECT_GT(user_events(on), 0u) << "user mode left untraced";
            traced_user_call_rets += user_events(on);
        }
    }
    EXPECT_GT(untraced_user_call_rets, 1000u) << "profile is not call-heavy";
    EXPECT_GT(traced_user_call_rets, 1000u) << "profile is not call-heavy";
}

TEST(AlarmReplay, AttackMixAnalysisMatchesWithTbOnAndOff)
{
    // The kernel ROP mix: every pending alarm's analysis, kernel call/ret
    // traced, is the same with the TB on as single-stepped, down to each
    // traced event's clocks, the forensic bytes and the CPU stats.
    workloads::AttackMixOptions options;
    options.attackers = 2;
    options.iterations_per_task = 120;
    const auto factory = workloads::attack_mix(options).factory;
    // The default checkpoint interval, as attack-storm runs it: each AR
    // replays long kernel stretches before its alarm.
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kSerial;
    const auto result = core::RnrSafeFramework(factory, config).run();
    const auto& pending_alarms = result.cr->pending_alarms();
    ASSERT_GE(pending_alarms.size(), 2u);
    // Only the checkpointing replayer trails the recorder.
    EXPECT_GT(result.cr->lag().series.observations(), 0u);

    std::size_t attacks = 0;
    std::uint64_t traced = 0;
    for (const auto& pending : pending_alarms) {
        ASSERT_NE(pending.checkpoint, nullptr);
        const TracedRun on = traced_replay(
            factory, result.recorder->log(), pending, true, true);
        const TracedRun off = traced_replay(
            factory, result.recorder->log(), pending, false, true);
        expect_same_replay(on, off);
        traced += on.stats.kernel_call_rets;
        EXPECT_EQ(on.lag_samples, 0u) << "an alarm replay sampled lag";
        EXPECT_EQ(off.lag_samples, 0u);
        attacks += on.analysis.is_attack ? 1 : 0;
    }
    EXPECT_GT(traced, 1000u) << "too few traced call/rets";
    // Each ROP chain's gadget returns raise alarms of their own.
    EXPECT_GE(attacks, options.attackers);
}

/** Two verdicts agree in every field a report or a gate reads. */
void
expect_same_analysis(const replay::AlarmAnalysis& a,
                     const replay::AlarmAnalysis& b)
{
    EXPECT_EQ(a.cause, b.cause);
    EXPECT_EQ(a.is_attack, b.is_attack);
    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.forensic.serialize(), b.forensic.serialize());
    EXPECT_EQ(a.analysis_cycles, b.analysis_cycles);
    EXPECT_EQ(a.alarm_record.icount, b.alarm_record.icount);
}

/** @p factory's VMs with the TB engine on or off. */
core::VmFactory
with_tb(core::VmFactory factory, bool tb)
{
    return [factory = std::move(factory), tb] {
        auto vm = factory();
        vm->cpu().set_tb_enabled(tb);
        return vm;
    };
}

TEST(AlarmChain, EveryAttackMixAlarmClassifiesTheSameChainedAndSolo)
{
    // Every alarm of the 4-attacker mix, TB on and off: one replayer
    // that goes on from alarm to alarm of its checkpoint reaches each
    // verdict a fresh replayer from that checkpoint reaches, down to
    // the report, the forensic bytes and analysis_cycles (which still
    // count from the restore).
    workloads::AttackMixOptions options;
    options.attackers = 4;
    options.iterations_per_task = 120;
    const auto mix = workloads::attack_mix(options).factory;
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kSerial;
    const auto result = core::RnrSafeFramework(mix, config).run();
    const auto& log = result.recorder->log();
    const auto& pending_alarms = result.cr->pending_alarms();
    ASSERT_GE(pending_alarms.size(), 8u);

    for (const bool tb : {true, false}) {
        const auto factory = with_tb(mix, tb);
        std::unique_ptr<hv::Vm> chained_vm;
        std::unique_ptr<replay::AlarmReplayer> chained;
        std::uint64_t chained_checkpoint = 0;
        std::size_t continued = 0;
        std::size_t attacks = 0;
        for (const auto& pending : pending_alarms) {
            ASSERT_NE(pending.checkpoint, nullptr);
            ASSERT_TRUE(pending.record.alarm.kernel_mode);
            if (chained && chained_checkpoint == pending.checkpoint->id) {
                ++continued;
            } else {
                chained.reset();
                chained_vm = factory();
                chained = std::make_unique<replay::AlarmReplayer>(
                    chained_vm.get(), &log, *pending.checkpoint,
                    rnr::ReplayOptions{});
                chained_checkpoint = pending.checkpoint->id;
            }
            const auto in_chain = chained->analyze(pending.log_index);

            auto solo_vm = factory();
            replay::AlarmReplayer solo(solo_vm.get(), &log,
                                       *pending.checkpoint,
                                       rnr::ReplayOptions{});
            const auto alone = solo.analyze(pending.log_index);
            SCOPED_TRACE("alarm @" + std::to_string(pending.log_index) +
                         (tb ? " TB on" : " TB off"));
            expect_same_analysis(in_chain, alone);
            attacks += alone.is_attack ? 1 : 0;
        }
        EXPECT_GE(continued, pending_alarms.size() / 2)
            << "the alarms did not share their checkpoints";
        EXPECT_GE(attacks, options.attackers);
    }
}

/** The attack mix's two attackers beside a mysql pair that longjmps:
 *  user-mode alarms before, between and after the kernel ROP alarms,
 *  all under the first checkpoint. */
core::VmFactory
mixed_level_factory()
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 120;
    profile.num_tasks = 2;
    profile.setjmp_prob = 0.02;  // benign user-mode alarms
    const auto kernel = k::build_kernel();
    std::vector<isa::Image> images;
    std::vector<Addr> entries;
    for (std::size_t i = 0; i < 2; ++i) {
        const auto program = attack::build_attacker_program(
            kernel, k::kUserCodeBase + 0x40000 + i * 0x8000,
            k::kUserDataBase + (15 + i) * 0x10000, 200 + i * 350);
        images.push_back(program.image);
        entries.push_back(program.entry);
    }
    return workloads::vm_factory(profile, images, entries);
}

TEST(AlarmChain, UserModeAlarmAmongKernelAlarmsGetsAFreshReplay)
{
    // A user-mode alarm switches user call/ret tracing on for the rest
    // of its replay, so a live AR that classified one cannot go on to a
    // kernel alarm, nor the other way round: the LiveAr key sends every
    // change of level to a fresh AR, and every verdict still matches
    // the solo one, TB on and off.
    const auto factory = mixed_level_factory();
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kSerial;
    const auto result = core::RnrSafeFramework(factory, config).run();
    const auto& log = result.recorder->log();
    const auto& pending_alarms = result.cr->pending_alarms();
    ASSERT_GE(pending_alarms.size(), 4u);

    for (const bool tb : {true, false}) {
        const core::ArStage stage(with_tb(factory, tb),
                                  rnr::ReplayOptions{}, nullptr);
        core::LiveAr live;
        stats::StatRegistry chained_stats;
        stats::StatRegistry solo_stats;
        std::size_t level_changes = 0;
        std::size_t user_alarms = 0;
        std::size_t kernel_alarms = 0;
        std::optional<bool> last_kernel;
        std::optional<std::uint64_t> last_checkpoint;
        for (const auto& pending : pending_alarms) {
            ASSERT_NE(pending.checkpoint, nullptr);
            const bool kernel = pending.record.alarm.kernel_mode;
            (kernel ? kernel_alarms : user_alarms) += 1;
            const auto in_chain =
                stage.analyze(pending, log, &chained_stats, &live);
            const auto alone = stage.analyze(pending, log, &solo_stats);
            SCOPED_TRACE("alarm @" + std::to_string(pending.log_index) +
                         (tb ? " TB on" : " TB off"));
            EXPECT_FALSE(alone.continued);
            const bool same_key =
                last_kernel == kernel &&
                last_checkpoint == pending.checkpoint->id;
            EXPECT_EQ(in_chain.continued, same_key);
            if (last_kernel.has_value() && *last_kernel != kernel)
                ++level_changes;
            last_kernel = kernel;
            last_checkpoint = pending.checkpoint->id;
            expect_same_analysis(in_chain.analysis, alone.analysis);
        }
        EXPECT_GT(user_alarms, 0u);
        EXPECT_GT(kernel_alarms, 0u);
        EXPECT_GE(level_changes, 2u)
            << "no user-mode alarm sits on both sides of a kernel one";
        // Chaining is invisible to the counters.
        EXPECT_EQ(chained_stats.snapshot(), solo_stats.snapshot());
        EXPECT_EQ(chained_stats.value("ar.replays"), pending_alarms.size());
    }
}

}  // namespace
}  // namespace rsafe
