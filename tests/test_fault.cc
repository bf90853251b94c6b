/** @file The injection matrix: every corruption class the fault injector
 *  can produce must be detected by the tolerant decoder as exactly its
 *  own StatusCode — zero silent corruptions — and the full framework
 *  must surface the damage as a kLogIntegrity alarm with identical
 *  verdicts from the serial and concurrent pipelines. */

#include <gtest/gtest.h>

#include "core/framework.h"
#include "fault/injector.h"
#include "rnr/log_io.h"
#include "rnr/recorder.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

namespace wire = rnr::wire;
using rnr::InputLog;
using rnr::LogRecord;
using rnr::RecordType;

void
synthetic_log(InputLog* log, std::size_t records)
{
    const int num_types = static_cast<int>(RecordType::kDetectorAlarm) + 1;
    for (std::size_t i = 0; i < records; ++i) {
        LogRecord record;
        record.type = static_cast<RecordType>(i % num_types);
        record.icount = 500 + 19 * i;
        record.value = i;
        // Canonical field values only: io-in ports are u16, mmio
        // addresses live in the 0xF0000000 device window. Off-range
        // values would not survive a serialize/decode round trip.
        record.addr =
            record.type == RecordType::kIoIn ? 0x10 : 0xF0000008ULL;
        record.tid = 1;
        record.alarm.kind = cpu::RasAlarmKind::kMispredict;
        record.alarm.ret_pc = 0x2000 + i;
        if (record.type == RecordType::kNicDma)
            record.payload = {9, 8, 7};
        log->append(std::move(record));
    }
}

/** One matrix row: inject the fault, decode, check the verdict. */
class InjectionMatrix
    : public ::testing::TestWithParam<fault::FaultKind> {};

TEST_P(InjectionMatrix, DetectedAsItsOwnStatusCode)
{
    const fault::FaultKind kind = GetParam();
    InputLog log;
    synthetic_log(&log, 10);  // one record of every type
    const auto intact = log.serialize();

    // Several seeds so the verdict does not depend on where the
    // injector happened to aim.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        auto image = intact;
        fault::Injector injector(seed);
        fault::FaultReport fault_report;
        ASSERT_TRUE(injector.inject(kind, &image, &fault_report).ok())
            << fault_kind_name(kind);
        ASSERT_NE(image, intact) << fault_kind_name(kind);

        InputLog recovered;
        const auto report =
            InputLog::deserialize_tolerant(image, &recovered);

        // Detected, and as exactly the right class.
        ASSERT_FALSE(report.intact())
            << fault_kind_name(kind) << " went unnoticed (seed " << seed
            << "): " << fault_report.detail;
        EXPECT_EQ(report.status.code(), fault::expected_detection(kind))
            << fault_kind_name(kind) << " seed " << seed << ": "
            << report.to_string();

        // Whatever was recovered is a faithful prefix of the original —
        // tolerance never invents or mangles records.
        ASSERT_LE(recovered.size(), log.size());
        for (std::size_t i = 0; i < recovered.size(); ++i)
            EXPECT_EQ(recovered.at(i).to_string(), log.at(i).to_string());

        // Strict parsing refuses the image outright.
        InputLog strict;
        EXPECT_FALSE(InputLog::deserialize(image, &strict).ok());
        EXPECT_EQ(strict.size(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, InjectionMatrix,
    ::testing::ValuesIn(fault::kAllFaultKinds.begin(),
                        fault::kAllFaultKinds.end()),
    [](const auto& info) {
        std::string name = fault_kind_name(info.param);
        for (auto& c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Framework integration: damaged logs degrade gracefully end to end.
// ---------------------------------------------------------------------

core::FrameworkConfig
replay_config(core::PipelineMode mode)
{
    core::FrameworkConfig config;
    config.pipeline = mode;
    config.ar_workers = 2;
    return config;
}

/** Record a bounded fileio run and return its serialized log. */
std::vector<std::uint8_t>
record_image(const workloads::WorkloadProfile& profile)
{
    auto factory = workloads::vm_factory(profile);
    auto vm = factory();
    rnr::Recorder recorder(vm.get(), rnr::RecorderOptions{});
    EXPECT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    return recorder.log().serialize();
}

TEST(ReplayWire, IntactImageReplaysWithoutIntegrityAlarm)
{
    const auto profile = workloads::golden_profile("fileio");
    const auto image = record_image(profile);

    core::RnrSafeFramework framework(
        workloads::vm_factory(profile),
        replay_config(core::PipelineMode::kSerial));
    const auto result = framework.replay_wire(image);

    EXPECT_TRUE(result.log_integrity.intact());
    EXPECT_EQ(result.cr_outcome, rnr::ReplayOutcome::kFinished);
    for (const auto& analysis : result.alarms.analyses())
        EXPECT_NE(analysis.cause, replay::AlarmCause::kLogIntegrity);
}

TEST(ReplayWire, TruncatedImageReplaysPrefixAndRaisesIntegrityAlarm)
{
    const auto profile = workloads::golden_profile("fileio");
    const auto image = record_image(profile);

    // Cut the image at 60%: a mid-stream loss, plenty of intact prefix.
    const std::vector<std::uint8_t> damaged(
        image.begin(), image.begin() + image.size() * 6 / 10);

    core::RnrSafeFramework framework(
        workloads::vm_factory(profile),
        replay_config(core::PipelineMode::kSerial));
    const auto result = framework.replay_wire(damaged);

    // The CR ran to the corruption boundary instead of aborting.
    EXPECT_EQ(result.cr_outcome, rnr::ReplayOutcome::kLogExhausted);
    EXPECT_GT(result.shipped_log->size(), 0u);
    EXPECT_GT(result.cr_vm->cpu().icount(), 0u);

    // The damage is a first-class alarm carrying the forensic report.
    EXPECT_FALSE(result.log_integrity.intact());
    EXPECT_EQ(result.log_integrity.status.code(), StatusCode::kTruncated);
    std::size_t integrity_alarms = 0;
    for (const auto& analysis : result.alarms.analyses()) {
        if (analysis.cause != replay::AlarmCause::kLogIntegrity)
            continue;
        ++integrity_alarms;
        EXPECT_FALSE(analysis.is_attack);
        EXPECT_NE(analysis.report.find("truncated"), std::string::npos);
    }
    EXPECT_EQ(integrity_alarms, 1u);
}

TEST(ReplayWire, EveryFaultClassSurfacesInTheResult)
{
    const auto profile = workloads::golden_profile("fileio");
    const auto image = record_image(profile);

    for (const fault::FaultKind kind : fault::kAllFaultKinds) {
        auto damaged = image;
        fault::Injector injector(0xFA11 + static_cast<int>(kind));
        fault::FaultReport fault_report;
        ASSERT_TRUE(injector.inject(kind, &damaged, &fault_report).ok());

        core::RnrSafeFramework framework(
            workloads::vm_factory(profile),
            replay_config(core::PipelineMode::kSerial));
        const auto result = framework.replay_wire(damaged);

        EXPECT_FALSE(result.log_integrity.intact())
            << fault_kind_name(kind);
        EXPECT_EQ(result.log_integrity.status.code(),
                  fault::expected_detection(kind))
            << fault_kind_name(kind);
        bool surfaced = false;
        for (const auto& analysis : result.alarms.analyses())
            if (analysis.cause == replay::AlarmCause::kLogIntegrity &&
                analysis.report.find(status_code_name(
                    fault::expected_detection(kind))) != std::string::npos)
                surfaced = true;
        EXPECT_TRUE(surfaced)
            << fault_kind_name(kind)
            << ": no kLogIntegrity alarm naming the defect";
    }
}

TEST(ReplayWire, SerialAndConcurrentPipelinesAgreeOnDamage)
{
    const auto profile = workloads::golden_profile("fileio");
    const auto image = record_image(profile);
    const std::vector<std::uint8_t> damaged(
        image.begin(), image.begin() + image.size() / 2);

    core::RnrSafeFramework serial(
        workloads::vm_factory(profile),
        replay_config(core::PipelineMode::kSerial));
    core::RnrSafeFramework concurrent(
        workloads::vm_factory(profile),
        replay_config(core::PipelineMode::kConcurrent));

    const auto a = serial.replay_wire(damaged);
    const auto b = concurrent.replay_wire(damaged);

    // Identical integrity verdicts and identical alarm outcomes: the
    // pipeline shape must not change what corruption is reported.
    EXPECT_EQ(a.log_integrity.status.code(), b.log_integrity.status.code());
    EXPECT_EQ(a.log_integrity.frames_recovered,
              b.log_integrity.frames_recovered);
    EXPECT_EQ(a.log_integrity.corrupt_offset, b.log_integrity.corrupt_offset);
    EXPECT_EQ(a.log_integrity.to_string(), b.log_integrity.to_string());
    EXPECT_EQ(a.shipped_log->size(), b.shipped_log->size());
    EXPECT_EQ(a.cr_vm->state_hash(), b.cr_vm->state_hash());
    ASSERT_EQ(a.alarms.analyses().size(), b.alarms.analyses().size());
    for (std::size_t i = 0; i < a.alarms.analyses().size(); ++i) {
        EXPECT_EQ(a.alarms.analyses()[i].cause, b.alarms.analyses()[i].cause);
        EXPECT_EQ(a.alarms.analyses()[i].is_attack, b.alarms.analyses()[i].is_attack);
        EXPECT_EQ(a.alarms.analyses()[i].report, b.alarms.analyses()[i].report);
    }
}

}  // namespace
}  // namespace rsafe
