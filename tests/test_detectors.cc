/** @file Tests of the Table 1 detector instantiations: ROP hardware
 *  levels, the JOP target checker, and the DOS watchdog. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "core/dos_detector.h"
#include "core/jop_detector.h"
#include "core/rop_detector.h"
#include "kernel/kernel_builder.h"
#include "test_util.h"

namespace rsafe::core {
namespace {

TEST(RopDetector, HardwareLevelPresets)
{
    const auto basic = rop_recorder_options(RopHardwareLevel::kBasic);
    EXPECT_FALSE(basic.manage_backras);
    EXPECT_FALSE(basic.whitelists);
    EXPECT_TRUE(basic.ras_alarms);

    const auto backras = rop_recorder_options(RopHardwareLevel::kBackRas);
    EXPECT_TRUE(backras.manage_backras);
    EXPECT_FALSE(backras.whitelists);

    const auto full = rop_recorder_options(RopHardwareLevel::kFull);
    EXPECT_TRUE(full.manage_backras);
    EXPECT_TRUE(full.whitelists);
    EXPECT_TRUE(full.evict_exits);
}

TEST(RopDetector, FalseAlarmRateComputation)
{
    cpu::CpuStats stats;
    stats.instructions = 2'000'000;
    stats.ras_whitelisted = 1000;
    stats.ras_hits_restored = 4000;
    const auto rates = false_alarm_rates(stats, 3);
    EXPECT_DOUBLE_EQ(rates.whitelist_suppressed, 500.0);
    EXPECT_DOUBLE_EQ(rates.backras_suppressed, 2000.0);
    EXPECT_DOUBLE_EQ(rates.passed_to_replayers, 1.5);
}

TEST(RopDetector, EmptyRunYieldsZeroRates)
{
    cpu::CpuStats stats;
    const auto rates = false_alarm_rates(stats, 0);
    EXPECT_DOUBLE_EQ(rates.whitelist_suppressed, 0.0);
    EXPECT_DOUBLE_EQ(rates.passed_to_replayers, 0.0);
}

class JopDetectorTest : public ::testing::Test {
  protected:
    JopDetectorTest() : kernel_(kernel::build_kernel()) {}

    JopDetector
    make_jop(std::size_t hardware_slots) const
    {
        JopDetector jop;
        const Status status =
            JopDetector::create({&kernel_.image}, hardware_slots, &jop);
        EXPECT_TRUE(status.ok()) << status.to_string();
        return jop;
    }

    kernel::GuestKernel kernel_;
};

TEST_F(JopDetectorTest, FunctionEntriesAreLegal)
{
    const JopDetector jop = make_jop(/*hardware_slots=*/1000);
    // With every function tabled, calling any entry point is legal.
    for (const auto& [name, range] : kernel_.image.functions()) {
        EXPECT_EQ(jop.check_hardware(kernel_.set_root, range.begin),
                  JopVerdict::kLegalEntry)
            << name;
    }
}

TEST_F(JopDetectorTest, MidFunctionTargetsAlarm)
{
    const JopDetector jop = make_jop(1000);
    // Jumping into the middle of an unrelated function is a JOP gadget.
    const auto range = *kernel_.image.find_function("k_set_root");
    EXPECT_EQ(jop.check_hardware(kernel_.boot, range.begin + kInstrBytes),
              JopVerdict::kAlarm);
}

TEST_F(JopDetectorTest, IntraFunctionBranchesAreLegal)
{
    const JopDetector jop = make_jop(1000);
    const auto range = *kernel_.image.find_function("schedule");
    EXPECT_EQ(jop.check_hardware(range.begin + kInstrBytes,
                                 range.begin + 3 * kInstrBytes),
              JopVerdict::kLegalInternal);
}

TEST_F(JopDetectorTest, SmallHardwareTableProducesFalsePositives)
{
    // The hardware table holds only the largest functions; a call to a
    // small function's entry alarms in hardware but is cleared by the
    // full-table replay check — Table 1's JOP row.
    const JopDetector jop = make_jop(/*hardware_slots=*/2);
    ASSERT_EQ(jop.hardware_table_size(), 2u);
    ASSERT_GT(jop.full_table_size(), 2u);

    std::size_t hardware_alarms = 0, replay_cleared = 0;
    for (const auto& [name, range] : kernel_.image.functions()) {
        if (jop.check_hardware(kernel_.boot, range.begin) ==
            JopVerdict::kAlarm) {
            ++hardware_alarms;
            if (jop.check_full(kernel_.boot, range.begin) ==
                JopVerdict::kLegalEntry) {
                ++replay_cleared;
            }
        }
    }
    EXPECT_GT(hardware_alarms, 0u);
    EXPECT_EQ(replay_cleared, hardware_alarms);
}

TEST_F(JopDetectorTest, NullImageRejected)
{
    JopDetector jop;
    const Status status = JopDetector::create(
        std::vector<const isa::Image*>{nullptr}, 4, &jop);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    // The output detector is untouched: still the empty default.
    EXPECT_EQ(jop.full_table_size(), 0u);
}

TEST_F(JopDetectorTest, InvertedBoundsRejected)
{
    JopDetector jop;
    const std::vector<FunctionBounds> bad = {{0x2000, 0x2100},
                                             {0x3000, 0x3000}};
    const Status status = JopDetector::create(bad, 4, &jop);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(jop.full_table_size(), 0u);
}

TEST_F(JopDetectorTest, DefaultDetectorAlarmsEverything)
{
    // An empty table knows no functions: every transfer alarms, which is
    // the safe direction for an unconfigured detector.
    const JopDetector jop;
    EXPECT_EQ(jop.check_full(kernel_.boot, kernel_.set_root),
              JopVerdict::kAlarm);
}

DosDetector
make_dos(Cycles window, std::uint64_t min_switches)
{
    DosDetector dos;
    const Status status = DosDetector::create(window, min_switches, &dos);
    EXPECT_TRUE(status.ok()) << status.to_string();
    return dos;
}

TEST(DosDetector, AlarmsOnSchedulerInactivity)
{
    DosDetector dos = make_dos(/*window=*/1000, /*min_switches=*/5);
    dos.sample(0, 0);          // priming sample
    dos.sample(1000, 10);      // 10 switches: healthy
    EXPECT_TRUE(dos.alarms().empty());
    dos.sample(2000, 12);      // only 2 switches: starved
    ASSERT_EQ(dos.alarms().size(), 1u);
    EXPECT_EQ(dos.alarms()[0].switches_in_window, 2u);
    EXPECT_EQ(dos.alarms()[0].window_start, 1000u);
}

TEST(DosDetector, SubWindowSamplesDoNotTrigger)
{
    DosDetector dos = make_dos(1000, 5);
    dos.sample(0, 0);
    for (Cycles t = 100; t < 1000; t += 100)
        dos.sample(t, 0);  // window not yet elapsed
    EXPECT_TRUE(dos.alarms().empty());
}

TEST(DosDetector, ZeroWindowRejected)
{
    DosDetector dos;
    const Status status = DosDetector::create(0, 1, &dos);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    // The default-constructed watchdog stays inert on error.
    dos.sample(0, 0);
    dos.sample(10'000, 0);
    EXPECT_TRUE(dos.alarms().empty());
}

}  // namespace
}  // namespace rsafe::core
// Appended: JopDetector boundary semantics plus the pluggable detector
// framework — static-policy scenarios end to end, detectors off, metrics,
// and pipeline-shape determinism with detectors registered.

#include "analysis/policy.h"
#include "core/detector.h"
#include "core/framework.h"
#include "replay/alarm_replayer.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe::core {
namespace {

TEST(JopBoundary, TargetsAroundFunctionExtents)
{
    // fn0 = [0x1000, 0x1040), fn1 = [0x1080, 0x1100): the end bound is
    // one past the last byte, and the gap between them belongs to no
    // function.
    JopDetector jop;
    const std::vector<FunctionBounds> fns = {{0x1000, 0x1040},
                                             {0x1080, 0x1100}};
    ASSERT_TRUE(JopDetector::create(fns, fns.size(), &jop).ok());

    const Addr inside_fn0 = 0x1008;
    // Last instruction of the branch's own function: internal, legal.
    EXPECT_EQ(jop.check_full(inside_fn0, 0x1038),
              JopVerdict::kLegalInternal);
    // One-past-end is *outside* the function.
    EXPECT_EQ(jop.check_full(inside_fn0, 0x1040), JopVerdict::kAlarm);
    // Between functions: no owner, alarm.
    EXPECT_EQ(jop.check_full(inside_fn0, 0x1060), JopVerdict::kAlarm);
    // The neighbour's entry is legal; its second instruction is not.
    EXPECT_EQ(jop.check_full(inside_fn0, 0x1080),
              JopVerdict::kLegalEntry);
    EXPECT_EQ(jop.check_full(inside_fn0, 0x1088), JopVerdict::kAlarm);
    // Branching back to the own entry is a legal entry too.
    EXPECT_EQ(jop.check_full(inside_fn0, 0x1000),
              JopVerdict::kLegalEntry);

    // A branch sitting at fn0's one-past-end is in no function: it can
    // reach entries but nothing internal.
    EXPECT_EQ(jop.check_full(0x1040, 0x1080), JopVerdict::kLegalEntry);
    EXPECT_EQ(jop.check_full(0x1040, 0x1038), JopVerdict::kAlarm);
}

TEST(JopBoundary, HardwareAndFullChecksDivergeOnlyOnUntabledEntries)
{
    // One hardware slot: only the larger fn1 is tabled. Entry calls into
    // the untabled fn0 alarm in hardware but are legal under the full
    // table — while intra-function transfers never depend on the table.
    JopDetector jop;
    const std::vector<FunctionBounds> fns = {{0x1000, 0x1040},
                                             {0x1080, 0x1100}};
    ASSERT_TRUE(JopDetector::create(fns, /*hardware_slots=*/1, &jop).ok());
    ASSERT_EQ(jop.hardware_table_size(), 1u);

    const Addr nowhere = 0x4000;
    EXPECT_EQ(jop.check_hardware(nowhere, 0x1000), JopVerdict::kAlarm);
    EXPECT_EQ(jop.check_full(nowhere, 0x1000), JopVerdict::kLegalEntry);
    EXPECT_EQ(jop.check_hardware(nowhere, 0x1080),
              JopVerdict::kLegalEntry);

    // Internal transfer in the untabled function: both checks agree.
    EXPECT_EQ(jop.check_hardware(0x1008, 0x1020),
              JopVerdict::kLegalInternal);
    EXPECT_EQ(jop.check_full(0x1008, 0x1020),
              JopVerdict::kLegalInternal);
}

/** Run @p scenario through the full pipeline with the standard
 *  detector complement built from its trusted image group. */
FrameworkResult
run_scenario(const workloads::DetectorScenario& scenario,
             PipelineMode mode = PipelineMode::kSerial, bool tb = true)
{
    std::vector<const isa::Image*> images;
    for (const auto& image : scenario.trusted_images)
        images.push_back(&image);
    auto policy = std::make_shared<const analysis::StaticPolicy>(
        analysis::build_policy(images, analysis::guest_policy_config()));

    FrameworkConfig config;
    config.detectors = standard_detectors(images, policy);
    config.pipeline = mode;
    config.ar_workers = mode == PipelineMode::kConcurrent ? 3 : 1;
    auto factory = scenario.factory;
    if (!tb) {
        factory = [inner = scenario.factory] {
            auto vm = inner();
            vm->cpu().set_tb_enabled(false);
            return vm;
        };
    }
    RnrSafeFramework framework(factory, config);
    return framework.run();
}

/** Count analyses with @p cause. */
std::size_t
count_cause(const FrameworkResult& result, replay::AlarmCause cause)
{
    std::size_t n = 0;
    for (const auto& ar : result.ar_results)
        n += ar.analysis.cause == cause ? 1 : 0;
    return n;
}

/** The value of counter @p key in the merged pipeline stats (0 if absent). */
std::uint64_t
counter(const FrameworkResult& result, const std::string& key)
{
    for (const auto& [name, value] : result.pipeline_stats.snapshot()) {
        if (name == key)
            return value;
    }
    return 0;
}

TEST(DetectorPipeline, CfiHijackIsConfirmedAttack)
{
    const auto scenario = workloads::cfi_hijack_scenario();
    const auto result = run_scenario(scenario);
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    ASSERT_TRUE(result.alarms.attack_detected());
    ASSERT_GE(count_cause(result, replay::AlarmCause::kCfiHijack), 1u);

    // The CFI verdict names the corrupted dispatch and the hijack target.
    bool found = false;
    for (const auto& ar : result.ar_results) {
        if (ar.analysis.cause != replay::AlarmCause::kCfiHijack)
            continue;
        found = true;
        EXPECT_TRUE(ar.analysis.is_attack);
        EXPECT_EQ(ar.analysis.forensic.ret_pc, scenario.site);
        EXPECT_EQ(ar.analysis.forensic.actual_target, scenario.target);
        EXPECT_FALSE(ar.analysis.report.empty());
    }
    EXPECT_TRUE(found);
    EXPECT_GE(counter(result, "detector.cfi.attacks"), 1u);
    EXPECT_GE(counter(result, "detector.cfi.alarms"), 1u);
}

TEST(DetectorPipeline, CfiHardwareTableMissIsClearedOnReplay)
{
    const auto scenario = workloads::cfi_table_miss_scenario();
    const auto result = run_scenario(scenario);
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    EXPECT_FALSE(result.alarms.attack_detected());
    // Handlers five and six overflow the 4-slot hardware table: alarms
    // were raised and every one was cleared as a table miss.
    ASSERT_GE(count_cause(result, replay::AlarmCause::kCfiTableMiss), 2u);
    EXPECT_GE(counter(result, "detector.cfi.false_positives"), 2u);
    EXPECT_EQ(counter(result, "detector.cfi.attacks"), 0u);
}

TEST(DetectorPipeline, WxBenignPatcherIsSanctioned)
{
    const auto scenario = workloads::wx_patcher_scenario();
    const auto result = run_scenario(scenario);
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    EXPECT_FALSE(result.alarms.attack_detected());
    ASSERT_GE(count_cause(result, replay::AlarmCause::kWxJitBenign), 1u);
    EXPECT_GE(counter(result, "detector.wx.false_positives"), 1u);
    EXPECT_EQ(counter(result, "detector.wx.attacks"), 0u);
}

TEST(DetectorPipeline, WxCodeInjectionIsConfirmedAttack)
{
    const auto scenario = workloads::wx_inject_scenario();
    const auto result = run_scenario(scenario);
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    ASSERT_TRUE(result.alarms.attack_detected());
    ASSERT_GE(count_cause(result, replay::AlarmCause::kWxInjection), 1u);
    bool found = false;
    for (const auto& ar : result.ar_results) {
        if (ar.analysis.cause != replay::AlarmCause::kWxInjection)
            continue;
        found = true;
        EXPECT_TRUE(ar.analysis.is_attack);
        EXPECT_EQ(ar.analysis.forensic.actual_target, scenario.target);
    }
    EXPECT_TRUE(found);
    EXPECT_GE(counter(result, "detector.wx.attacks"), 1u);
}

TEST(DetectorPipeline, LongjmpStormStaysBenign)
{
    const auto scenario = workloads::longjmp_storm_scenario();
    const auto result = run_scenario(scenario);
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    ASSERT_GT(result.alarms_logged, 0u);
    EXPECT_FALSE(result.alarms.attack_detected());
}

TEST(DetectorPipeline, Table3StaysCleanWithAllDetectorsArmed)
{
    // Zero false attack verdicts across the benign benchmark suite with
    // the full detector complement registered.
    const auto guest = kernel::build_kernel();
    for (const auto& name :
         {"apache", "fileio", "make", "mysql", "radiosity"}) {
        auto profile = workloads::benchmark_profile(name);
        profile.iterations_per_task = 80;
        const auto workload = workloads::generate_workload(profile);
        const std::vector<const isa::Image*> images = {&guest.image,
                                                       &workload.image};
        auto policy = std::make_shared<const analysis::StaticPolicy>(
            analysis::build_policy(images,
                                   analysis::guest_policy_config()));
        FrameworkConfig config;
        config.detectors = standard_detectors(images, policy);
        RnrSafeFramework framework(workloads::vm_factory(profile), config);
        const auto result = framework.run();
        EXPECT_EQ(result.record_result, hv::RunResult::kHalted) << name;
        EXPECT_FALSE(result.alarms.attack_detected()) << name;
    }
}

TEST(DetectorPipeline, KillSwitchDisarmsEverything)
{
    // detectors = nullptr (the default) is the RAS-only baseline.
    const auto scenario = workloads::cfi_hijack_scenario();
    FrameworkConfig config;
    ASSERT_EQ(config.detectors, nullptr);
    RnrSafeFramework framework(scenario.factory, config);
    const auto result = framework.run();

    // No detector armed: the hijack sails through unalarmed (the RAS
    // baseline does not see a forward-edge corruption).
    EXPECT_EQ(result.detectors, nullptr);
    EXPECT_EQ(counter(result, "detector.cfi.alarms"), 0u);
    EXPECT_FALSE(result.alarms.attack_detected());
}

/** Everything the detector A/B gate compares between two runs. */
struct DetectorAbDigest {
    hv::RunResult record_result{};
    std::size_t alarms_logged = 0;
    std::size_t alarm_replays = 0;
    bool attack = false;
    std::uint64_t rec_hash = 0;
    std::uint64_t cr_hash = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<replay::AlarmCause, std::string>> verdicts;

    bool operator==(const DetectorAbDigest&) const = default;
};

DetectorAbDigest
digest(const FrameworkResult& result)
{
    DetectorAbDigest d;
    d.record_result = result.record_result;
    d.alarms_logged = result.alarms_logged;
    d.alarm_replays = result.ar_results.size();
    d.attack = result.alarms.attack_detected();
    d.rec_hash = result.recorded_vm->state_hash();
    d.cr_hash = result.cr_vm->state_hash();
    d.counters = result.pipeline_stats.snapshot();
    for (const auto& ar : result.ar_results)
        d.verdicts.emplace_back(ar.analysis.cause, ar.analysis.report);
    return d;
}

TEST(DetectorPipeline, VerdictsAreBitIdenticalAcrossPipelineShapes)
{
    // Serial vs concurrent vs TB-on/off: with the full detector set
    // registered, outcomes, digests, counters, and every rendered
    // verdict must agree bit for bit.
    for (const auto& scenario : {workloads::cfi_hijack_scenario(),
                                 workloads::wx_inject_scenario(),
                                 workloads::longjmp_storm_scenario()}) {
        const auto serial =
            digest(run_scenario(scenario, PipelineMode::kSerial, true));
        const auto concurrent = digest(
            run_scenario(scenario, PipelineMode::kConcurrent, true));
        const auto interp =
            digest(run_scenario(scenario, PipelineMode::kSerial, false));
        EXPECT_EQ(serial, concurrent) << scenario.name;
        EXPECT_EQ(serial, interp) << scenario.name;
    }
}

}  // namespace
}  // namespace rsafe::core
