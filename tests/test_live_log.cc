/** @file Tests of the one input log read in place: InputLog's stable
 *  storage under a concurrent reader, its end state (open, closed,
 *  poisoned) and wake protocol, streamed sessions in which the CR reads
 *  the recorder's own log and can never block the recorder, and alarm
 *  replays over a log that is still open, growing or poisoned. */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/ar_stage.h"
#include "core/framework.h"
#include "core/session_stage.h"
#include "replay/checkpoint_replayer.h"
#include "rnr/log_io.h"
#include "rnr/recorder.h"
#include "stats/stats.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

using rnr::InputLog;
using rnr::LogRecord;
using rnr::RecordType;

LogRecord
make_record(std::uint64_t i)
{
    LogRecord record;
    record.type = RecordType::kRdtsc;
    record.icount = i + 1;
    record.value = i * 3 + 7;
    return record;
}

/** Append @p count records to @p log. */
void
feed(InputLog* log, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        log->append(make_record(log->size()));
}

void
expect_same(const LogRecord& a, const LogRecord& b)
{
    std::vector<std::uint8_t> ea, eb;
    a.serialize(&ea);
    b.serialize(&eb);
    EXPECT_EQ(ea, eb);
}

TEST(LiveLog, RandomizedPacingStressSeesTheAppendedSequence)
{
    // Producer and reader run with independently randomized pacing; the
    // reader awaits record by record and must see exactly the appended
    // sequence, across many segment boundaries, while the log grows.
    Rng round_rng(0xC0FFEE);
    for (int round = 0; round < 4; ++round) {
        const std::size_t total = 12'000 + round_rng.next_below(4'000);
        std::vector<LogRecord> reference;
        reference.reserve(total);
        Rng payload_rng(round_rng.next());
        for (std::size_t i = 0; i < total; ++i) {
            LogRecord record = make_record(i);
            if (payload_rng.chance(0.05)) {
                // Occasional bulky NIC-DMA-like payload.
                record.type = RecordType::kNicDma;
                record.payload.assign(payload_rng.next_below(200),
                                      static_cast<std::uint8_t>(i));
            }
            reference.push_back(std::move(record));
        }

        InputLog log;
        log.open();
        std::thread producer([&, seed = round_rng.next()] {
            Rng rng(seed);
            for (const LogRecord& record : reference) {
                log.append(record);
                if (rng.chance(0.02))
                    std::this_thread::yield();
            }
            log.close();
        });

        Rng reader_rng(round_rng.next());
        const LogRecord* early = nullptr;
        std::size_t index = 0;
        for (; log.await(index); ++index) {
            const LogRecord& record = log.at(index);
            if (early == nullptr)
                early = &record;
            ASSERT_EQ(record.icount, reference[index].icount)
                << "round " << round << " index " << index;
            ASSERT_EQ(record.payload, reference[index].payload)
                << "round " << round << " index " << index;
            if (reader_rng.chance(0.02))
                std::this_thread::yield();
        }
        producer.join();

        EXPECT_EQ(index, total) << "round " << round;
        EXPECT_FALSE(log.aborted());
        EXPECT_EQ(log.size(), total);
        // The first record never moved and never changed while the log
        // grew by more than 10k records behind it.
        ASSERT_NE(early, nullptr);
        EXPECT_EQ(early, &log.at(0));
        expect_same(*early, reference[0]);
        for (std::size_t i = 0; i < total; ++i)
            expect_same(log.at(i), reference[i]);
    }
}

TEST(LiveLog, EveryAppendWakesAWaitingReader)
{
    // Lockstep: the producer appends record i only once the reader has
    // consumed record i - 1, and never closes until the end, so the
    // reader is usually asleep when a record lands. A lost wakeup hangs
    // this test instead of merely slowing it down.
    constexpr std::size_t kRecords = 2'000;
    InputLog log;
    log.open();
    std::atomic<std::size_t> consumed{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < kRecords; ++i) {
            while (consumed.load(std::memory_order_acquire) < i)
                std::this_thread::yield();
            log.append(make_record(i));
        }
        while (consumed.load(std::memory_order_acquire) < kRecords)
            std::this_thread::yield();
        log.close();
    });
    std::size_t index = 0;
    for (; log.await(index); ++index) {
        ASSERT_EQ(log.at(index).icount, index + 1);
        consumed.store(index + 1, std::memory_order_release);
    }
    producer.join();
    EXPECT_EQ(index, kRecords);
    EXPECT_GT(log.consumer_waits(), 0u);
}

TEST(LiveLog, CloseDrainsEverythingThenEnds)
{
    InputLog log;
    log.open();
    feed(&log, 10);
    log.close();
    for (std::size_t i = 0; i < 10; ++i)
        ASSERT_TRUE(log.await(i));
    EXPECT_FALSE(log.await(10));  // closed, not poisoned
    EXPECT_FALSE(log.aborted());
    EXPECT_EQ(log.size(), 10u);

    // A reader already asleep past the end wakes on close.
    InputLog log2;
    log2.open();
    feed(&log2, 2);
    bool got = true;
    std::thread reader([&] { got = log2.await(5); });
    feed(&log2, 2);  // 4 records: still short of index 5
    log2.close();
    reader.join();
    EXPECT_FALSE(got);
    EXPECT_FALSE(log2.aborted());
}

TEST(LiveLog, PoisonDrainsThenEndsAndStaysAborted)
{
    InputLog log;
    log.open();
    feed(&log, 5);
    log.poison();
    // Poison ends the log as close does: the records already appended
    // are still read, and the end comes after them.
    for (std::size_t i = 0; i < 5; ++i)
        ASSERT_TRUE(log.await(i));
    EXPECT_FALSE(log.await(5));
    EXPECT_TRUE(log.aborted());
    log.close();  // a later close does not clear the abort
    EXPECT_TRUE(log.aborted());
    EXPECT_FALSE(log.await(5));

    // A reader asleep on an empty open log wakes on poison.
    InputLog log2;
    log2.open();
    bool got = true;
    std::thread reader([&] { got = log2.await(0); });
    log2.poison();
    reader.join();
    EXPECT_FALSE(got);
    EXPECT_TRUE(log2.aborted());
}

TEST(LiveLog, CrDrainingAPoisonedLogReportsLogAborted)
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 300;
    const auto factory = workloads::vm_factory(profile);

    // A recording cut short (no halt marker) whose recorder then died:
    // the CR replays every record it has and still reports the abort.
    auto recorded_vm = factory();
    rnr::Recorder recorder(recorded_vm.get(), rnr::RecorderOptions());
    recorder.log().open();
    ASSERT_EQ(recorder.run(500'000), hv::RunResult::kInstrLimit);
    recorder.log().poison();
    const InputLog& log = recorder.log();
    ASSERT_GT(log.size(), 0u);
    ASSERT_NE(log.at(log.size() - 1).type, RecordType::kHalt);

    auto cr_vm = factory();
    replay::CheckpointReplayer cr(cr_vm.get(), &log, replay::CrOptions());
    EXPECT_EQ(cr.run(), rnr::ReplayOutcome::kLogAborted);
    // It drained the log: its cursor is past the last positional record.
    std::size_t last_positional = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const RecordType type = log.at(i).type;
        if (type == RecordType::kIrqInject ||
            type == RecordType::kDiskComplete ||
            type == RecordType::kRasAlarm || type == RecordType::kRasEvict ||
            type == RecordType::kDetectorAlarm) {
            last_positional = i;
        }
    }
    ASSERT_GT(last_positional, 0u);
    EXPECT_EQ(cr.log_pos(), last_positional + 1);
}

TEST(LiveLog, ACompleteLogNeverBlocks)
{
    InputLog empty;
    EXPECT_FALSE(empty.await(0));
    EXPECT_EQ(empty.producer_icount(), 0u);

    InputLog log;
    for (std::uint64_t i = 0; i < 3; ++i)
        log.append(make_record(i));
    EXPECT_TRUE(log.await(2));
    EXPECT_FALSE(log.await(3));
    EXPECT_FALSE(log.await(1'000'000));
    EXPECT_FALSE(log.aborted());
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.consumer_waits(), 0u);
}

TEST(LiveLog, ProducerIcountTracksTheNewestRecord)
{
    InputLog log;
    // Opened before any append, as a streamed session opens its log.
    log.open();
    EXPECT_EQ(log.producer_icount(), 0u);
    log.append(make_record(41));  // icount 42
    EXPECT_EQ(log.producer_icount(), 42u);
    log.append(make_record(99));  // icount 100
    EXPECT_EQ(log.producer_icount(), 100u);
    log.close();
    EXPECT_EQ(log.producer_icount(), 100u);
}

/** A streamed session over the VMs of @p factory. */
std::unique_ptr<core::SessionStage>
streamed_session(core::VmFactory factory)
{
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    return std::make_unique<core::SessionStage>(std::move(factory), config,
                                                "", nullptr);
}

core::VmFactory
mysql(std::uint64_t iterations)
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = iterations;
    return workloads::vm_factory(profile);
}

/** More records than a 4,096-record bounded queue could hold: a
 *  recorder that waited on its reader would park for good. */
constexpr std::size_t kLongLog = 4096;

TEST(StreamedSession, StoppedCrCannotBlockTheRecorder)
{
    auto stage = streamed_session(mysql(3500));
    // The CR stops at its first boundary; the recorder must still run to
    // completion and run() must return.
    stage->cr()->request_stop();
    stage->run();
    EXPECT_TRUE(stage->stopped());
    const core::FrameworkResult result = stage->take_result();
    EXPECT_EQ(result.cr_outcome, rnr::ReplayOutcome::kStopRequested);
    EXPECT_EQ(result.record_result, hv::RunResult::kHalted);
    const InputLog& log = result.recorder->log();
    ASSERT_GT(log.size(), kLongLog);
    EXPECT_EQ(log.at(log.size() - 1).type, RecordType::kHalt);
    EXPECT_EQ(result.channel_stats.producer_waits, 0u);
}

TEST(StreamedSession, ThrowingAlarmSinkCannotBlockTheRecorder)
{
    workloads::AttackMixOptions options;
    options.iterations_per_task = 6000;
    auto stage = streamed_session(workloads::attack_mix(options).factory);
    // The CR throws at its first queued alarm; the recorder must still
    // run to completion, and run() rethrows once both threads are done.
    stage->set_alarm_sink([](const replay::PendingAlarm&) {
        throw std::runtime_error("sink failed");
    });
    EXPECT_THROW(stage->run(), std::runtime_error);
    const InputLog& log = stage->recorder()->log();
    ASSERT_GT(log.size(), kLongLog);
    EXPECT_EQ(log.at(log.size() - 1).type, RecordType::kHalt);
    EXPECT_LT(stage->cr()->log_pos(), log.size());
}

TEST(StreamedSession, CrReadsTheRecorderLogInPlace)
{
    auto stage = streamed_session(mysql(600));
    stage->run();
    EXPECT_FALSE(stage->stopped());
    const core::FrameworkResult result = stage->take_result();
    EXPECT_EQ(result.cr_outcome, rnr::ReplayOutcome::kFinished);
    const InputLog& log = result.recorder->log();
    ASSERT_GT(log.size(), 0u);
    // One copy of the log: the CR reads the recorder's own log.
    EXPECT_EQ(&result.cr->log(), &log);
    EXPECT_EQ(result.cr->log_pos(), log.size());
    EXPECT_EQ(result.cr_vm->state_hash(), result.recorded_vm->state_hash());
}

TEST(StreamedSession, ChannelStatsCountTheLogsConsumerWaits)
{
    auto stage = streamed_session(mysql(600));
    stage->run();
    const core::FrameworkResult result = stage->take_result();
    EXPECT_EQ(result.cr_outcome, rnr::ReplayOutcome::kFinished);
    // The session reports the waits its CR counted on the log itself,
    // and the log is closed once the run is over.
    const InputLog& log = result.recorder->log();
    EXPECT_EQ(result.channel_stats.consumer_waits, log.consumer_waits());
    EXPECT_EQ(result.channel_stats.producer_waits, 0u);
    EXPECT_FALSE(log.aborted());
    EXPECT_FALSE(log.await(log.size()));
}

/** @p got, the analysis of @p alarm over some log, equals the analysis
 *  over the @p finished log. */
void
expect_same_verdict(const core::ArStage& stage,
                    const replay::PendingAlarm& alarm,
                    const InputLog& finished,
                    const core::AlarmReplayResult& got)
{
    stats::StatRegistry stats;
    const auto want = stage.analyze(alarm, finished, &stats);
    const auto at = alarm.log_index;
    EXPECT_EQ(got.log_index, want.log_index) << "alarm at " << at;
    EXPECT_EQ(got.analysis.cause, want.analysis.cause) << "alarm at " << at;
    EXPECT_EQ(got.analysis.is_attack, want.analysis.is_attack)
        << "alarm at " << at;
    EXPECT_EQ(got.analysis.report, want.analysis.report)
        << "alarm at " << at;
    EXPECT_EQ(got.analysis.forensic.serialize(),
              want.analysis.forensic.serialize())
        << "alarm at " << at;
    EXPECT_EQ(got.analysis.analysis_cycles, want.analysis.analysis_cycles)
        << "alarm at " << at;
}

TEST(ArOverAGrowingLog, VerdictsMatchTheFinishedLog)
{
    // Record the attack mix and take its pending alarms, then replay the
    // log's records into a second log on another thread while every
    // alarm is analyzed over that second log. The producer holds at each
    // alarm until its analysis has started, so each AR runs while
    // records past its alarm are still being appended, as a fleet AR
    // does while its tenant keeps recording.
    workloads::AttackMixOptions options;
    options.iterations_per_task = 600;
    const auto factory = workloads::attack_mix(options).factory;
    core::RnrSafeFramework framework(factory, core::FrameworkConfig{});
    const auto result = framework.run();
    const InputLog& finished = result.recorder->log();
    const auto& pending = result.cr->pending_alarms();
    ASSERT_FALSE(pending.empty());
    const core::ArStage stage(factory, rnr::ReplayOptions{},
                              result.detectors.get());

    InputLog growing;
    growing.open();
    std::atomic<std::size_t> started{0};
    std::thread producer([&] {
        std::size_t next = 0;
        for (std::size_t i = 0; i < finished.size(); ++i) {
            growing.append(finished.at(i));
            while (next < pending.size() && pending[next].log_index == i) {
                ++next;
                while (started.load(std::memory_order_acquire) < next)
                    std::this_thread::yield();
            }
        }
        growing.close();
    });

    std::vector<core::AlarmReplayResult> live;
    std::size_t sizes_short_of_done = 0;
    for (std::size_t k = 0; k < pending.size(); ++k) {
        // The CR has read the alarm record before it queues the job.
        const bool queued = growing.await(pending[k].log_index);
        started.store(k + 1, std::memory_order_release);
        if (!queued)
            break;
        stats::StatRegistry stats;
        live.push_back(stage.analyze(pending[k], growing, &stats));
        if (growing.size() < finished.size())
            ++sizes_short_of_done;
    }
    producer.join();
    ASSERT_EQ(live.size(), pending.size());
    ASSERT_EQ(growing.size(), finished.size());
    // At least every analysis but the last ran before the log was whole.
    EXPECT_GE(sizes_short_of_done + 1, pending.size());

    for (std::size_t k = 0; k < pending.size(); ++k)
        expect_same_verdict(stage, pending[k], finished, live[k]);
}

/**
 * Copy the attack mix's records up to and including its last pending
 * alarm into a log that is opened first and then left open, or
 * poisoned when @p poison, and classify every alarm over it. An AR that
 * waited on the open log, or stopped at the poison, would hang or fail
 * here; each must read only what was published and match the verdict
 * over the complete log.
 */
void
classify_over_an_unfinished_log(bool poison)
{
    workloads::AttackMixOptions options;
    options.iterations_per_task = 600;
    const auto factory = workloads::attack_mix(options).factory;
    core::RnrSafeFramework framework(factory, core::FrameworkConfig{});
    const auto result = framework.run();
    const InputLog& finished = result.recorder->log();
    const auto& pending = result.cr->pending_alarms();
    ASSERT_FALSE(pending.empty());
    const core::ArStage stage(factory, rnr::ReplayOptions{},
                              result.detectors.get());

    InputLog unfinished;
    unfinished.open();
    for (std::size_t i = 0; i <= pending.back().log_index; ++i)
        unfinished.append(finished.at(i));
    if (poison)
        unfinished.poison();
    ASSERT_LT(unfinished.size(), finished.size());

    for (const replay::PendingAlarm& alarm : pending) {
        stats::StatRegistry stats;
        expect_same_verdict(stage, alarm, finished,
                            stage.analyze(alarm, unfinished, &stats));
    }
    EXPECT_EQ(unfinished.aborted(), poison);
    EXPECT_EQ(unfinished.consumer_waits(), 0u);
}

TEST(ArOverAGrowingLog, AnOpenLogClassifiesAsTheCompleteLog)
{
    classify_over_an_unfinished_log(/*poison=*/false);
}

TEST(ArOverAGrowingLog, APoisonedLogClassifiesAsTheCompleteLog)
{
    classify_over_an_unfinished_log(/*poison=*/true);
}

}  // namespace
}  // namespace rsafe
