/** @file Record-and-replay core tests: log serialization round trips and
 *  the central determinism property across all five benchmarks. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/log.h"
#include "kernel/layout.h"
#include "rnr/log_io.h"
#include "rnr/recorder.h"
#include "rnr/replayer.h"
#include "test_util.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

namespace k = rsafe::kernel;
using rnr::InputLog;
using rnr::LogRecord;
using rnr::RecordType;

/** Write @p bytes to the file @p path and read them back, as a log
 *  shipped on disk travels; the file is removed again. */
std::vector<std::uint8_t>
through_file(const std::vector<std::uint8_t>& bytes, const std::string& path)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> back((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return back;
}

LogRecord
sample_record(RecordType type)
{
    LogRecord record;
    record.type = type;
    record.icount = 123456789;
    record.value = 0xfeedbeef;
    record.addr = type == RecordType::kIoIn ? 0x10 : 0xF0000008ULL;
    record.tid = 3;
    record.alarm.kind = cpu::RasAlarmKind::kUnderflow;
    record.alarm.ret_pc = 0x2048;
    record.alarm.predicted = 0x2050;
    record.alarm.actual = 0x6000;
    record.alarm.sp_after = 0x21000;
    record.alarm.kernel_mode = true;
    if (type == RecordType::kNicDma)
        record.payload = {1, 2, 3, 4, 5};
    if (type == RecordType::kIrqInject || type == RecordType::kDetectorAlarm)
        record.value = 1;
    return record;
}

/** Round-trip each record type through the binary format. */
class RecordRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RecordRoundTrip, SerializeDeserialize)
{
    const auto type = static_cast<RecordType>(GetParam());
    const LogRecord in = sample_record(type);
    std::vector<std::uint8_t> bytes;
    in.serialize(&bytes);
    EXPECT_EQ(bytes.size(), in.serialized_size());

    std::size_t pos = 0;
    LogRecord out;
    ASSERT_TRUE(LogRecord::decode(bytes, &pos, &out).ok());
    EXPECT_EQ(pos, bytes.size());
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.icount, in.icount);
    switch (type) {
      case RecordType::kRdtsc:
        EXPECT_EQ(out.value, in.value);
        break;
      case RecordType::kIoIn:
      case RecordType::kMmioRead:
        EXPECT_EQ(out.addr, in.addr);
        EXPECT_EQ(out.value, in.value);
        break;
      case RecordType::kNicDma:
        EXPECT_EQ(out.addr, in.addr);
        EXPECT_EQ(out.payload, in.payload);
        break;
      case RecordType::kIrqInject:
        EXPECT_EQ(out.value, in.value);
        break;
      case RecordType::kRasAlarm:
        EXPECT_EQ(out.alarm.kind, in.alarm.kind);
        EXPECT_EQ(out.alarm.ret_pc, in.alarm.ret_pc);
        EXPECT_EQ(out.alarm.predicted, in.alarm.predicted);
        EXPECT_EQ(out.alarm.actual, in.alarm.actual);
        EXPECT_EQ(out.alarm.sp_after, in.alarm.sp_after);
        EXPECT_EQ(out.alarm.kernel_mode, in.alarm.kernel_mode);
        EXPECT_EQ(out.tid, in.tid);
        break;
      case RecordType::kRasEvict:
        EXPECT_EQ(out.addr, in.addr);
        EXPECT_EQ(out.tid, in.tid);
        break;
      case RecordType::kDetectorAlarm:
        EXPECT_EQ(out.value, in.value);
        EXPECT_EQ(out.alarm.ret_pc, in.alarm.ret_pc);
        EXPECT_EQ(out.alarm.actual, in.alarm.actual);
        EXPECT_EQ(out.alarm.kernel_mode, in.alarm.kernel_mode);
        EXPECT_EQ(out.tid, in.tid);
        break;
      case RecordType::kHalt:
      case RecordType::kDiskComplete:
        break;
    }
    EXPECT_FALSE(out.to_string().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, RecordRoundTrip,
    ::testing::Range(0,
                     static_cast<int>(RecordType::kDetectorAlarm) + 1));

TEST(LogRecord, DeserializeRejectsTruncation)
{
    const LogRecord in = sample_record(RecordType::kNicDma);
    std::vector<std::uint8_t> bytes;
    in.serialize(&bytes);
    for (std::size_t cut = 1; cut < bytes.size(); cut += 7) {
        std::vector<std::uint8_t> trunc(bytes.begin(),
                                        bytes.begin() + cut);
        std::size_t pos = 0;
        LogRecord out;
        EXPECT_FALSE(LogRecord::decode(trunc, &pos, &out).ok());
    }
}

TEST(LogRecord, DeserializeRejectsBadType)
{
    std::vector<std::uint8_t> bytes(32, 0);
    bytes[0] = 0x7f;
    std::size_t pos = 0;
    LogRecord out;
    EXPECT_FALSE(LogRecord::decode(bytes, &pos, &out).ok());
}

TEST(InputLog, AppendFindAndByteAccounting)
{
    InputLog log;
    log.append(sample_record(RecordType::kRdtsc));
    log.append(sample_record(RecordType::kIrqInject));
    log.append(sample_record(RecordType::kRdtsc));
    EXPECT_EQ(log.size(), 3u);
    EXPECT_GT(log.total_bytes(), 0u);
    EXPECT_EQ(log.find_all(RecordType::kRdtsc).size(), 2u);
    EXPECT_THROW(log.at(3), PanicError);
}

TEST(InputLog, WholeLogSerializationRoundTrip)
{
    InputLog log;
    for (int t = 0; t <= static_cast<int>(RecordType::kDiskComplete); ++t)
        log.append(sample_record(static_cast<RecordType>(t)));
    const auto bytes = log.serialize();
    InputLog out;
    ASSERT_TRUE(InputLog::deserialize(bytes, &out).ok());
    ASSERT_EQ(out.size(), log.size());
    EXPECT_EQ(out.total_bytes(), log.total_bytes());
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(out.at(i).to_string(), log.at(i).to_string());
}

TEST(InputLog, RejectsCorruptMagic)
{
    InputLog log;
    log.append(sample_record(RecordType::kHalt));
    auto bytes = log.serialize();
    bytes[0] ^= 0xff;
    InputLog out;
    const Status status = InputLog::deserialize(bytes, &out);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kBadMagic);
    EXPECT_EQ(out.size(), 0u);
}

TEST(InputLog, FileSaveLoadRoundTrip)
{
    InputLog log;
    log.append(sample_record(RecordType::kNicDma));
    log.append(sample_record(RecordType::kHalt));
    const auto bytes = log.serialize();
    const auto loaded_bytes = through_file(bytes, "/tmp/rsafe_test_log.bin");
    EXPECT_EQ(loaded_bytes, bytes);
    InputLog loaded;
    ASSERT_TRUE(InputLog::deserialize(loaded_bytes, &loaded).ok());
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.at(0).payload, log.at(0).payload);
}

// ---------------------------------------------------------------------
// The central property: replay reproduces the recorded execution.
// ---------------------------------------------------------------------

/** Record a bounded benchmark run, replay it, compare final state. */
class Determinism : public ::testing::TestWithParam<std::string> {};

TEST_P(Determinism, ReplayReachesIdenticalState)
{
    auto profile = workloads::benchmark_profile(GetParam());
    profile.iterations_per_task = 120;  // bounded: ends with a halt
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    auto rep_vm = factory();
    rnr::Replayer replayer(rep_vm.get(), &recorder.log(), 0,
                           rnr::ReplayOptions{});
    ASSERT_EQ(replayer.run(), rnr::ReplayOutcome::kFinished);

    // Bit-identical final memory + disk, same instruction count, same
    // architectural registers.
    EXPECT_EQ(rep_vm->cpu().icount(), rec_vm->cpu().icount());
    EXPECT_EQ(rep_vm->state_hash(), rec_vm->state_hash());
    EXPECT_EQ(rep_vm->cpu().state().regs, rec_vm->cpu().state().regs);
    EXPECT_EQ(rep_vm->cpu().state().pc, rec_vm->cpu().state().pc);
    EXPECT_EQ(rep_vm->cpu().state().sp, rec_vm->cpu().state().sp);
}

TEST_P(Determinism, RecordingItselfIsReproducible)
{
    auto profile = workloads::benchmark_profile(GetParam());
    profile.iterations_per_task = 60;
    auto factory = workloads::vm_factory(profile);

    auto vm1 = factory();
    rnr::Recorder rec1(vm1.get(), rnr::RecorderOptions{});
    ASSERT_EQ(rec1.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    auto vm2 = factory();
    rnr::Recorder rec2(vm2.get(), rnr::RecorderOptions{});
    ASSERT_EQ(rec2.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    // Same seeds, same machine: byte-identical logs.
    EXPECT_EQ(rec1.log().serialize(), rec2.log().serialize());
    EXPECT_EQ(vm1->state_hash(), vm2->state_hash());
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, Determinism,
    ::testing::ValuesIn(workloads::benchmark_names()),
    [](const auto& info) { return info.param; });

TEST(DeterminismEdge, InstrLimitedRecordingReplaysToTail)
{
    // A recording stopped by an instruction budget has no halt marker;
    // the replayer must still consume the whole log.
    auto profile = workloads::benchmark_profile("fileio");
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(500'000), hv::RunResult::kInstrLimit);

    auto rep_vm = factory();
    rnr::Replayer replayer(rep_vm.get(), &recorder.log(), 0,
                           rnr::ReplayOptions{});
    EXPECT_EQ(replayer.run(), rnr::ReplayOutcome::kLogExhausted);
    EXPECT_EQ(replayer.log_pos(), recorder.log().size());
}

TEST(DeterminismEdge, ReplaySingleStepsToInjectionPoints)
{
    auto profile = workloads::benchmark_profile("fileio");
    profile.iterations_per_task = 100;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    const auto irqs =
        recorder.log().find_all(RecordType::kIrqInject).size();
    ASSERT_GT(irqs, 0u);

    auto rep_vm = factory();
    rnr::ReplayOptions options;
    options.max_skid = 16;
    rnr::Replayer replayer(rep_vm.get(), &recorder.log(), 0, options);
    ASSERT_EQ(replayer.run(), rnr::ReplayOutcome::kFinished);
    // Some skid-induced single-stepping must have happened, and it is
    // bounded by max_skid per injection.
    EXPECT_GT(replayer.single_steps(), 0u);
    EXPECT_LE(replayer.single_steps(), irqs * 16);
    EXPECT_GT(replayer.overhead().interrupt, 0u);
}

TEST(DeterminismEdge, ZeroSkidMeansNoSingleSteps)
{
    auto profile = workloads::benchmark_profile("make");
    profile.iterations_per_task = 60;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    auto rep_vm = factory();
    rnr::ReplayOptions options;
    options.max_skid = 0;
    rnr::Replayer replayer(rep_vm.get(), &recorder.log(), 0, options);
    ASSERT_EQ(replayer.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(replayer.single_steps(), 0u);
    EXPECT_EQ(rep_vm->state_hash(), rec_vm->state_hash());
}

/** Property sweep: determinism holds across profile seeds. */
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RandomizedWorkloadStillDeterministic)
{
    workloads::WorkloadProfile profile =
        workloads::benchmark_profile("mysql");
    profile.seed = GetParam();
    profile.devices.seed = GetParam() * 17 + 5;
    profile.iterations_per_task = 80;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    auto rep_vm = factory();
    rnr::ReplayOptions options;
    options.seed = GetParam() + 1;  // different skid stream is fine
    rnr::Replayer replayer(rep_vm.get(), &recorder.log(), 0, options);
    ASSERT_EQ(replayer.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(rep_vm->state_hash(), rec_vm->state_hash());
    EXPECT_EQ(rep_vm->cpu().icount(), rec_vm->cpu().icount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace rsafe
// Appended: persistence + replay-from-file end-to-end coverage.
namespace rsafe {
namespace {

TEST(LogPersistence, RecordedLogSurvivesDiskRoundTripAndReplays)
{
    auto profile = workloads::benchmark_profile("make");
    profile.iterations_per_task = 80;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    // Ship the log to the "replay machine" via the file format.
    InputLog shipped;
    ASSERT_TRUE(InputLog::deserialize(
                    through_file(recorder.log().serialize(),
                                 "/tmp/rsafe_e2e_log.bin"),
                    &shipped)
                    .ok());
    ASSERT_EQ(shipped.size(), recorder.log().size());

    auto rep_vm = factory();
    rnr::Replayer replayer(rep_vm.get(), &shipped, 0,
                           rnr::ReplayOptions{});
    ASSERT_EQ(replayer.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(rep_vm->state_hash(), rec_vm->state_hash());
}

TEST(ReplayMidstream, StartingAtNonZeroPosRequiresMatchingState)
{
    // Replaying from a mid-log position without restoring the matching
    // checkpoint state must be detected as divergence, not silently
    // accepted.
    auto profile = workloads::benchmark_profile("fileio");
    profile.iterations_per_task = 60;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    ASSERT_GT(recorder.log().size(), 20u);

    auto rep_vm = factory();  // fresh boot state, but log cursor at 10
    rnr::Replayer replayer(rep_vm.get(), &recorder.log(), 10,
                           rnr::ReplayOptions{});
    EXPECT_THROW(replayer.run(), PanicError);
}

TEST(ReplaySkid, StateIndependentOfSkidSeed)
{
    // The perf-counter skid affects only the replay's cost model, never
    // its architectural outcome.
    auto profile = workloads::benchmark_profile("fileio");
    profile.iterations_per_task = 60;
    auto factory = workloads::vm_factory(profile);

    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    ASSERT_EQ(recorder.run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);

    std::uint64_t hash = 0;
    Cycles cycles_a = 0, cycles_b = 0;
    for (int i = 0; i < 2; ++i) {
        auto vm = factory();
        rnr::ReplayOptions options;
        options.seed = i ? 0xAAAA : 0xBBBB;
        options.max_skid = i ? 3 : 31;
        rnr::Replayer replayer(vm.get(), &recorder.log(), 0, options);
        ASSERT_EQ(replayer.run(), rnr::ReplayOutcome::kFinished);
        if (i == 0) {
            hash = vm->state_hash();
            cycles_a = vm->cpu().cycles();
        } else {
            EXPECT_EQ(vm->state_hash(), hash);
            cycles_b = vm->cpu().cycles();
        }
    }
    // Different skid models cost differently...
    EXPECT_NE(cycles_a, cycles_b);
}

}  // namespace
}  // namespace rsafe
