/** @file Tests of incremental checkpoints: content, sharing, recycling,
 *  and the restore-equivalence property the alarm replayer relies on. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "replay/checkpoint.h"
#include "replay/checkpoint_replayer.h"
#include "rnr/recorder.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

workloads::WorkloadProfile
small_profile(const std::string& name = "fileio", std::uint64_t iters = 150)
{
    auto profile = workloads::benchmark_profile(name);
    profile.iterations_per_task = iters;
    return profile;
}

struct Recorded {
    std::unique_ptr<hv::Vm> vm;
    std::unique_ptr<rnr::Recorder> recorder;
};

Recorded
record(const workloads::WorkloadProfile& profile)
{
    Recorded out;
    out.vm = workloads::make_vm(profile);
    out.recorder =
        std::make_unique<rnr::Recorder>(out.vm.get(), rnr::RecorderOptions{});
    EXPECT_EQ(out.recorder->run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    return out;
}

TEST(CheckpointStore, FirstCheckpointIsFullCopy)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(4);
    auto ck = store.take(*vm, env, 0);
    const auto& pages = ck->stores[replay::ckpt::kRamStore].slots;
    const auto& blocks = ck->stores[replay::ckpt::kDiskStore].slots;
    EXPECT_EQ(pages.size(), vm->mem().num_pages());
    EXPECT_EQ(blocks.size(), vm->hub().disk().num_slots());
    EXPECT_EQ(ck->copies,
              vm->mem().num_pages() + vm->hub().disk().num_slots());
}

TEST(CheckpointStore, IncrementalCheckpointsCopyOnlyDirty)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(4);
    auto first = store.take(*vm, env, 0);

    // Dirty exactly two pages.
    vm->mem().write_raw(0x100000, 8, 1);
    vm->mem().write_raw(0x200000, 8, 2);
    auto second = store.take(*vm, env, 1);
    EXPECT_EQ(second->copies, 2u);
    // Unmodified pages are shared by reference with the previous one.
    const auto& before = first->stores[replay::ckpt::kRamStore].slots;
    const auto& after = second->stores[replay::ckpt::kRamStore].slots;
    EXPECT_EQ(after.at(0), before.at(0));
    EXPECT_NE(after.at(0x100000 / kPageSize),
              before.at(0x100000 / kPageSize));
}

TEST(CheckpointStore, RecyclingKeepsAtMostMax)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(3);
    for (int i = 0; i < 10; ++i)
        store.take(*vm, env, i);
    EXPECT_EQ(store.size(), 3u);
    // The survivors are the newest ones.
    EXPECT_EQ(store.at(2)->log_pos, 9u);
    EXPECT_EQ(store.latest()->log_pos, 9u);
}

TEST(CheckpointStore, LatestAtOrBefore)
{
    // A trap-free profile: we drive the CPU directly against an empty
    // log, so nothing may need injection in the first few thousand
    // instructions.
    auto profile = small_profile("radiosity");
    profile.rdtsc_prob = 0.0;
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(0);  // unlimited
    // Advance the machine so the checkpoint sits at a nonzero icount.
    vm->cpu().run(~static_cast<Cycles>(0), 1000);
    auto a = store.take(*vm, env, 0);
    ASSERT_GT(a->icount, 0u);
    EXPECT_EQ(store.latest_at_or_before(a->icount), a);
    EXPECT_EQ(store.latest_at_or_before(a->icount + 5), a);
    EXPECT_EQ(store.latest_at_or_before(a->icount - 1), nullptr);
}

TEST(CheckpointStore, LatestAtOrBeforeBinarySearchBoundaries)
{
    // The store keeps checkpoints sorted by icount and answers
    // latest_at_or_before with a binary search; exercise every boundary:
    // empty store, before the first, exact hits, between neighbors, and
    // after the last.
    auto profile = small_profile("radiosity");
    profile.rdtsc_prob = 0.0;
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(0);  // unlimited

    EXPECT_EQ(store.latest_at_or_before(0), nullptr);
    EXPECT_EQ(store.latest_at_or_before(~static_cast<InstrCount>(0)),
              nullptr);

    std::vector<std::shared_ptr<const replay::Checkpoint>> cks;
    for (int i = 0; i < 5; ++i) {
        vm->cpu().run(~static_cast<Cycles>(0), vm->cpu().icount() + 500);
        cks.push_back(store.take(*vm, env, i));
    }
    for (std::size_t i = 1; i < cks.size(); ++i)
        ASSERT_GT(cks[i]->icount, cks[i - 1]->icount);

    // Before the first checkpoint: nothing usable.
    EXPECT_EQ(store.latest_at_or_before(cks.front()->icount - 1), nullptr);
    EXPECT_EQ(store.latest_at_or_before(0), nullptr);
    // Exact hit on every checkpoint, including both ends.
    for (const auto& ck : cks)
        EXPECT_EQ(store.latest_at_or_before(ck->icount), ck);
    // Between two neighbors the earlier one wins.
    for (std::size_t i = 0; i + 1 < cks.size(); ++i)
        EXPECT_EQ(store.latest_at_or_before(cks[i + 1]->icount - 1), cks[i]);
    // Far past the last checkpoint: the last one.
    EXPECT_EQ(store.latest_at_or_before(cks.back()->icount + 1), cks.back());
    EXPECT_EQ(store.latest_at_or_before(~static_cast<InstrCount>(0)),
              cks.back());
}

TEST(CheckpointRestore, RoundTripsFullMachineState)
{
    // Record, replay halfway with the CR, snapshot, keep replaying to the
    // end; then restore the snapshot into a fresh VM and replay the rest:
    // both must land in the identical final state.
    auto profile = small_profile("fileio", 200);
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);
    const auto& log = recorded.recorder->log();

    auto cr_vm = factory();
    replay::CrOptions options;
    options.checkpoint_interval = 1'500'000;
    options.store.max_keep = 0;  // keep everything
    replay::CheckpointReplayer cr(cr_vm.get(), &log, options);
    ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
    ASSERT_GE(cr.checkpoints_taken(), 2u);

    // Pick a middle checkpoint and resume from it in a fresh machine.
    const auto ck = cr.checkpoints().at(cr.checkpoints().size() / 2);
    auto resume_vm = factory();
    rnr::Replayer resume(resume_vm.get(), &log, ck->log_pos,
                         rnr::ReplayOptions{});
    replay::restore_checkpoint(*ck, resume_vm.get(), &resume);

    // Restored state matches the capture point exactly.
    EXPECT_EQ(resume_vm->cpu().icount(), ck->icount);
    EXPECT_EQ(resume_vm->cpu().state().pc, ck->cpu_state.pc);

    ASSERT_EQ(resume.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(resume_vm->state_hash(), recorded.vm->state_hash());
    EXPECT_EQ(resume_vm->cpu().icount(), recorded.vm->cpu().icount());
    EXPECT_EQ(resume_vm->cpu().state().regs,
              recorded.vm->cpu().state().regs);
}

TEST(CheckpointRestore, GeometryMismatchRejected)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(2);
    auto ck = store.take(*vm, env, 0);

    auto other_profile = profile;
    other_profile.devices.disk_blocks = 8;  // different geometry
    auto other_vm = workloads::make_vm(other_profile);
    rnr::Replayer other_env(other_vm.get(), &empty_log, 0,
                            rnr::ReplayOptions{});
    EXPECT_THROW(
        replay::restore_checkpoint(*ck, other_vm.get(), &other_env),
        FatalError);
}

TEST(CheckpointContent, CarriesBackRasAndLogPtr)
{
    auto profile = small_profile("make", 400);
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);
    const auto& log = recorded.recorder->log();

    auto cr_vm = factory();
    replay::CrOptions options;
    options.checkpoint_interval = 400'000;
    options.store.max_keep = 0;
    replay::CheckpointReplayer cr(cr_vm.get(), &log, options);
    ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
    ASSERT_GE(cr.checkpoints().size(), 2u);

    const auto ck = cr.checkpoints().at(cr.checkpoints().size() - 1);
    EXPECT_LE(ck->log_pos, log.size());
    // After any context switch the tracking state is established and the
    // checkpoint knows whose RAS it stashed.
    EXPECT_TRUE(ck->have_current_tid);
}

}  // namespace
}  // namespace rsafe
