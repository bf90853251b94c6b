/** @file Tests of the checkpointing replayer: speed relationships,
 *  checkpoint cadence, and underflow-alarm auto-resolution. */

#include <gtest/gtest.h>

#include "cpu/tb_engine.h"
#include "replay/checkpoint_replayer.h"
#include "rnr/recorder.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

struct Pipeline {
    std::unique_ptr<hv::Vm> rec_vm;
    std::unique_ptr<rnr::Recorder> recorder;
    std::unique_ptr<hv::Vm> cr_vm;
    std::unique_ptr<replay::CheckpointReplayer> cr;
};

Pipeline
run_pipeline(const workloads::WorkloadProfile& profile,
             Cycles checkpoint_interval)
{
    Pipeline p;
    auto factory = workloads::vm_factory(profile);
    p.rec_vm = factory();
    p.recorder =
        std::make_unique<rnr::Recorder>(p.rec_vm.get(), rnr::RecorderOptions{});
    EXPECT_EQ(p.recorder->run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    p.cr_vm = factory();
    replay::CrOptions options;
    options.checkpoint_interval = checkpoint_interval;
    replay::CheckpointReplayer cr_tmp(p.cr_vm.get(), &p.recorder->log(),
                                      options);
    // CheckpointReplayer is not movable (references); construct in place.
    p.cr = nullptr;
    EXPECT_EQ(cr_tmp.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(p.cr_vm->state_hash(), p.rec_vm->state_hash());
    return p;
}

TEST(CheckpointReplayer, ReplaysDeterministicallyWithCheckpoints)
{
    auto profile = workloads::benchmark_profile("fileio");
    profile.iterations_per_task = 200;
    run_pipeline(profile, 1'000'000);
}

TEST(CheckpointReplayer, NoCheckpointingIsFasterThanFrequent)
{
    auto profile = workloads::benchmark_profile("make");
    profile.iterations_per_task = 400;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    Cycles cycles_nochk = 0, cycles_chk = 0;
    {
        auto vm = factory();
        replay::CrOptions options;
        options.checkpoint_interval = 0;  // RepNoChk
        replay::CheckpointReplayer cr(vm.get(), &recorder.log(), options);
        ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
        cycles_nochk = vm->cpu().cycles();
        EXPECT_EQ(cr.checkpoints_taken(), 0u);
        EXPECT_EQ(cr.checkpoint_cycles(), 0u);
    }
    {
        auto vm = factory();
        replay::CrOptions options;
        options.checkpoint_interval = 200'000;  // frequent checkpoints
        replay::CheckpointReplayer cr(vm.get(), &recorder.log(), options);
        ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
        cycles_chk = vm->cpu().cycles();
        EXPECT_GT(cr.checkpoints_taken(), 2u);
        EXPECT_GT(cr.checkpoint_cycles(), 0u);
    }
    EXPECT_GT(cycles_chk, cycles_nochk);
}

TEST(CheckpointReplayer, ShorterIntervalMeansMoreCheckpoints)
{
    auto profile = workloads::benchmark_profile("fileio");
    profile.iterations_per_task = 200;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    std::uint64_t count_long = 0, count_short = 0;
    {
        auto vm = factory();
        replay::CrOptions options;
        options.checkpoint_interval = 4'000'000;
        replay::CheckpointReplayer cr(vm.get(), &recorder.log(), options);
        ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
        count_long = cr.checkpoints_taken();
    }
    {
        auto vm = factory();
        replay::CrOptions options;
        options.checkpoint_interval = 800'000;
        replay::CheckpointReplayer cr(vm.get(), &recorder.log(), options);
        ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
        count_short = cr.checkpoints_taken();
    }
    EXPECT_GT(count_short, count_long);
}

TEST(CheckpointReplayer, ResolvesUnderflowAlarmsViaEvictRecords)
{
    // Apache's big packets overflow the RAS: evict records plus matching
    // underflow alarms. The CR must swallow all of them (Section 4.6.2).
    auto profile = workloads::benchmark_profile("apache");
    profile.iterations_per_task = 400;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    const auto evicts =
        recorder.log().find_all(rnr::RecordType::kRasEvict).size();
    const auto alarms =
        recorder.log().find_all(rnr::RecordType::kRasAlarm).size();
    // This workload must actually exercise the underflow machinery.
    ASSERT_GT(evicts, 0u) << "apache profile no longer overflows the RAS";
    ASSERT_GT(alarms, 0u);

    auto cr_vm = factory();
    replay::CrOptions options;
    options.checkpoint_interval = 2'000'000;
    replay::CheckpointReplayer cr(cr_vm.get(), &recorder.log(), options);
    ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(cr.underflows_resolved() + cr.pending_alarms().size(),
              alarms);
    // Benign traffic: everything resolves as underflow, nothing pends.
    EXPECT_EQ(cr.pending_alarms().size(), 0u);
    EXPECT_EQ(cr.underflows_resolved(), alarms);
}

TEST(CheckpointReplayer, TbEngineHonorsInjectionAndCheckpointBoundaries)
{
    // The translation-block engine may never overshoot a replay barrier:
    // a block that would span an interrupt-injection icount or a
    // checkpoint boundary must split/exit exactly at the boundary.
    // Replay one recording with the engine on and off; every digest,
    // clock, and checkpoint count must agree bit-for-bit.
    auto profile = workloads::benchmark_profile("apache");
    profile.iterations_per_task = 300;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    // The recording must actually place injection barriers mid-stream,
    // or the "split at the boundary" property would go unexercised.
    ASSERT_GT(recorder.log().find_all(rnr::RecordType::kIrqInject).size(),
              0u)
        << "apache profile no longer records interrupt injections";

    replay::CrOptions options;
    options.checkpoint_interval = 150'000;  // boundaries land mid-loop

    struct Digest {
        std::uint64_t state_hash = 0;
        InstrCount icount = 0;
        Cycles cycles = 0;
        std::uint64_t checkpoints = 0;

        bool operator==(const Digest&) const = default;
    };
    Digest by_mode[2];
    for (const bool tb : {true, false}) {
        auto vm = factory();
        vm->cpu().set_tb_enabled(tb);
        replay::CheckpointReplayer cr(vm.get(), &recorder.log(), options);
        ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished) << "tb=" << tb;
        Digest& d = by_mode[tb ? 0 : 1];
        d.state_hash = vm->state_hash();
        d.icount = vm->cpu().icount();
        d.cycles = vm->cpu().cycles();
        d.checkpoints = cr.checkpoints_taken();
        EXPECT_GT(d.checkpoints, 2u) << "tb=" << tb;
    }
    EXPECT_EQ(by_mode[0], by_mode[1]);
    EXPECT_EQ(by_mode[0].state_hash, rec_vm->state_hash());
}

TEST(Recorder, TbEngineRecordsByteIdenticalLog)
{
    // The recorder arms RAS alarms and eviction exits, and the TB engine
    // runs monitored call/ret inside translated blocks, bailing to the
    // interpreter only for an exit. Every Evict and alarm record must
    // land at the same icount either way: the serialized logs must match
    // byte for byte. User recursion deeper than the RAS and longjmp
    // storms make sure both exits, evictions and alarms, happen.
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 200;
    profile.rec_prob = 0.05;
    profile.rec_depth_min = static_cast<int>(cpu::Ras::kDefaultDepth);
    profile.rec_depth_max = static_cast<int>(cpu::Ras::kDefaultDepth) + 16;
    profile.setjmp_prob = 0.02;
    auto factory = workloads::vm_factory(profile);

    struct Recording {
        std::vector<std::uint8_t> log_bytes;
        std::size_t evict_records = 0;
        std::size_t alarm_records = 0;
        std::uint64_t state_hash = 0;
        cpu::CpuStats stats;
        std::uint64_t exec_blocks = 0;
    };
    Recording by_mode[2];
    for (const bool tb : {true, false}) {
        auto vm = factory();
        vm->cpu().set_tb_enabled(tb);
        rnr::Recorder recorder(vm.get(), rnr::RecorderOptions{});
        ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
                  hv::RunResult::kHalted)
            << "tb=" << tb;
        Recording& r = by_mode[tb ? 0 : 1];
        r.log_bytes = recorder.log().serialize();
        r.evict_records =
            recorder.log().find_all(rnr::RecordType::kRasEvict).size();
        r.alarm_records =
            recorder.log().find_all(rnr::RecordType::kRasAlarm).size();
        r.state_hash = vm->state_hash();
        r.stats = vm->cpu().stats();
        r.exec_blocks = vm->cpu().tb_engine().stats().exec_blocks;
    }
    const Recording& on = by_mode[0];
    const Recording& off = by_mode[1];
    ASSERT_GT(on.evict_records, 0u) << "recording overflowed no RAS";
    ASSERT_GT(on.alarm_records, 0u) << "recording raised no RAS alarm";
    EXPECT_EQ(on.log_bytes, off.log_bytes);
    EXPECT_EQ(on.state_hash, off.state_hash);
    EXPECT_EQ(on.stats, off.stats);
    // The engine ran under monitoring. That each exit-free call/ret
    // completes a block is counted exactly on a synthetic guest
    // (TbEngine.MonitoredCallRetMatchesInterpreterExitForExit).
    EXPECT_GT(on.exec_blocks, on.stats.calls + on.stats.rets);
    EXPECT_EQ(off.exec_blocks, 0u);
}

TEST(CheckpointReplayer, BenignWorkloadsProduceNoPendingAlarms)
{
    for (const auto& name : {"fileio", "make", "mysql", "radiosity"}) {
        auto profile = workloads::benchmark_profile(name);
        profile.iterations_per_task = 100;
        auto factory = workloads::vm_factory(profile);
        auto rec_vm = factory();
        rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
        ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
                  hv::RunResult::kHalted)
            << name;
        auto cr_vm = factory();
        replay::CrOptions options;
        replay::CheckpointReplayer cr(cr_vm.get(), &recorder.log(),
                                      options);
        ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished) << name;
        EXPECT_EQ(cr.pending_alarms().size(), 0u) << name;
    }
}

}  // namespace
}  // namespace rsafe
