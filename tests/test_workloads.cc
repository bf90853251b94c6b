/** @file Tests of the workload profiles and the guest program generator. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "hv/hypervisor.h"
#include "kernel/layout.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe::workloads {
namespace {

TEST(Profiles, AllFiveBenchmarksExist)
{
    const auto names = benchmark_names();
    ASSERT_EQ(names.size(), 5u);
    for (const auto& name : names) {
        const auto profile = benchmark_profile(name);
        EXPECT_EQ(profile.name, name);
        EXPECT_GE(profile.num_tasks, 1);
    }
}

TEST(Profiles, UnknownBenchmarkRejected)
{
    EXPECT_THROW(benchmark_profile("quake"), FatalError);
}

TEST(Profiles, ShapesMatchThePaperNarrative)
{
    // apache is the network benchmark; fileio/mysql are rdtsc-heavy;
    // radiosity is compute (one task, big ALU loops, no devices).
    const auto apache = benchmark_profile("apache");
    EXPECT_GT(apache.nic_poll_prob, 0.5);
    EXPECT_GT(apache.devices.nic_mean_gap, 0u);

    // fileio and mysql read the timer far more often than the compute
    // benchmarks ("the application itself issues many timer reads").
    const auto fileio = benchmark_profile("fileio");
    const auto make_p = benchmark_profile("make");
    EXPECT_GT(fileio.rdtsc_prob, make_p.rdtsc_prob);
    EXPECT_GT(fileio.disk_read_prob + fileio.disk_write_prob, 0.5);

    const auto mysql = benchmark_profile("mysql");
    EXPECT_GT(mysql.rdtsc_prob, make_p.rdtsc_prob);
    EXPECT_LT(mysql.disk_read_prob, 0.1);  // tables cached in memory

    const auto radiosity = benchmark_profile("radiosity");
    EXPECT_EQ(radiosity.num_tasks, 1);
    EXPECT_EQ(radiosity.devices.nic_mean_gap, 0u);
    EXPECT_GT(radiosity.alu_loop, benchmark_profile("apache").alu_loop);
}

TEST(Generator, EmitsOneEntryPerTask)
{
    auto profile = benchmark_profile("make");
    const auto workload = generate_workload(profile);
    EXPECT_EQ(workload.task_entries.size(),
              static_cast<std::size_t>(profile.num_tasks));
    for (const auto entry : workload.task_entries) {
        EXPECT_GE(entry, workload.image.base());
        EXPECT_LT(entry, workload.image.end());
    }
    EXPECT_LE(workload.image.end(), kernel::kUserCodeLimit);
}

TEST(Generator, SameProfileSameImage)
{
    const auto a = generate_workload(benchmark_profile("mysql"));
    const auto b = generate_workload(benchmark_profile("mysql"));
    EXPECT_EQ(a.image.bytes(), b.image.bytes());
}

TEST(Generator, DifferentSeedsDifferentImages)
{
    auto profile = benchmark_profile("mysql");
    const auto a = generate_workload(profile);
    profile.seed += 1;
    const auto b = generate_workload(profile);
    EXPECT_NE(a.image.bytes(), b.image.bytes());
}

TEST(Generator, SharedHelpersPresent)
{
    const auto workload = generate_workload(benchmark_profile("radiosity"));
    EXPECT_TRUE(workload.image.find_function("u_rec").has_value());
    EXPECT_TRUE(workload.image.find_function("u_setjmp").has_value());
    EXPECT_TRUE(workload.image.find_function("u_longjmp").has_value());
}

TEST(Generator, RejectsBadTaskCounts)
{
    auto profile = benchmark_profile("make");
    profile.num_tasks = 0;
    EXPECT_THROW(generate_workload(profile), FatalError);
    profile.num_tasks = static_cast<int>(kernel::kMaxTasks);
    EXPECT_THROW(generate_workload(profile), FatalError);
}

TEST(Factory, ProducesIdenticalMachines)
{
    auto profile = benchmark_profile("fileio");
    auto factory = vm_factory(profile);
    auto a = factory();
    auto b = factory();
    EXPECT_EQ(a->mem().store().content_hash(),
              b->mem().store().content_hash());
    EXPECT_EQ(a->cpu().state().pc, b->cpu().state().pc);
}

/** Every benchmark boots and runs a while without faulting. */
class BenchmarkSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSmoke, RunsTwoMillionInstructions)
{
    auto profile = benchmark_profile(GetParam());
    auto vm = make_vm(profile);
    hv::Hypervisor hv(vm.get(), hv::HvOptions{});
    EXPECT_EQ(hv.run(2'000'000), hv::RunResult::kInstrLimit);
    EXPECT_GT(hv.stats().context_switches, 0u);
}

INSTANTIATE_TEST_SUITE_P(All, BenchmarkSmoke,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace rsafe::workloads
