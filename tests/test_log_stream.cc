/** @file Tests of the one input log read in place: InputLog's stable
 *  storage under a concurrent reader, LogStream's close/poison endings,
 *  InputLogSource with and without a stream, streamed sessions in which
 *  the CR reads the recorder's own log and can never block the
 *  recorder, and alarm replays over a log that is still growing. */

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
#include "rnr/log_source.h"
#include "rnr/recorder.h"
#include "stats/stats.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

using rnr::InputLog;
using rnr::InputLogSource;
using rnr::LogRecord;
using rnr::LogStream;
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

/** Append @p count records to @p log, notifying @p stream. */
void
feed(InputLog* log, LogStream* stream, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        log->append(make_record(log->size()));
        stream->notify();
    }
}

void
expect_same(const LogRecord& a, const LogRecord& b)
{
    std::vector<std::uint8_t> ea, eb;
    a.serialize(&ea);
    b.serialize(&eb);
    EXPECT_EQ(ea, eb);
}

TEST(LogStream, RandomizedPacingStressSeesTheAppendedSequence)
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
        LogStream stream;
        std::thread producer([&, seed = round_rng.next()] {
            Rng rng(seed);
            for (const LogRecord& record : reference) {
                log.append(record);
                stream.notify();
                if (rng.chance(0.02))
                    std::this_thread::yield();
            }
            stream.close();
        });

        InputLogSource source(&log, &stream);
        Rng reader_rng(round_rng.next());
        const LogRecord* early = nullptr;
        std::size_t index = 0;
        for (; source.await(index); ++index) {
            const LogRecord& record = source.at(index);
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
        EXPECT_FALSE(source.aborted());
        EXPECT_EQ(source.visible(), total);
        // The first record never moved and never changed while the log
        // grew by more than 10k records behind it.
        ASSERT_NE(early, nullptr);
        EXPECT_EQ(early, &log.at(0));
        expect_same(*early, reference[0]);
        for (std::size_t i = 0; i < total; ++i)
            expect_same(log.at(i), reference[i]);
    }
}

TEST(LogStream, EveryAppendWakesAWaitingReader)
{
    // Lockstep: the producer appends record i only once the reader has
    // consumed record i - 1, and never closes until the end, so the
    // reader is usually asleep when a record lands. A lost wakeup hangs
    // this test instead of merely slowing it down.
    constexpr std::size_t kRecords = 2'000;
    InputLog log;
    LogStream stream;
    std::atomic<std::size_t> consumed{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < kRecords; ++i) {
            while (consumed.load(std::memory_order_acquire) < i)
                std::this_thread::yield();
            log.append(make_record(i));
            stream.notify();
        }
        while (consumed.load(std::memory_order_acquire) < kRecords)
            std::this_thread::yield();
        stream.close();
    });
    InputLogSource source(&log, &stream);
    std::size_t index = 0;
    for (; source.await(index); ++index) {
        ASSERT_EQ(source.at(index).icount, index + 1);
        consumed.store(index + 1, std::memory_order_release);
    }
    producer.join();
    EXPECT_EQ(index, kRecords);
    EXPECT_GT(stream.consumer_waits(), 0u);
}

TEST(LogStream, CloseDrainsEverythingThenEnds)
{
    InputLog log;
    LogStream stream;
    feed(&log, &stream, 10);
    stream.close();

    InputLogSource source(&log, &stream);
    for (std::size_t i = 0; i < 10; ++i)
        ASSERT_TRUE(source.await(i));
    EXPECT_FALSE(source.await(10));  // closed, not poisoned
    EXPECT_FALSE(source.aborted());
    EXPECT_EQ(source.visible(), 10u);

    // A reader already asleep past the end wakes on close.
    InputLog log2;
    LogStream stream2;
    feed(&log2, &stream2, 2);
    bool got = true;
    std::thread reader([&] { got = stream2.await(log2, 5); });
    feed(&log2, &stream2, 2);  // 4 records: still short of index 5
    stream2.close();
    reader.join();
    EXPECT_FALSE(got);
    EXPECT_FALSE(stream2.aborted());
}

TEST(LogStream, PoisonEndsTheStreamAtOnce)
{
    InputLog log;
    LogStream stream;
    feed(&log, &stream, 5);
    stream.poison();
    InputLogSource source(&log, &stream);
    // An abort outranks records already appended.
    EXPECT_FALSE(source.await(0));
    EXPECT_FALSE(source.await(5));
    EXPECT_TRUE(source.aborted());
    stream.close();  // a later close does not clear the abort
    EXPECT_TRUE(source.aborted());

    // A reader asleep on an empty stream wakes on poison.
    InputLog log2;
    LogStream stream2;
    bool got = true;
    std::thread reader([&] { got = stream2.await(log2, 0); });
    stream2.poison();
    reader.join();
    EXPECT_FALSE(got);
    EXPECT_TRUE(stream2.aborted());
}

TEST(LogStream, CrOverAPoisonedStreamReportsLogAborted)
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 20;
    const auto factory = workloads::vm_factory(profile);

    auto recorded_vm = factory();
    rnr::Recorder recorder(recorded_vm.get(), rnr::RecorderOptions());
    LogStream stream;
    recorder.attach_stream(&stream);
    recorder.run(~static_cast<InstrCount>(0));
    recorder.attach_stream(nullptr);
    ASSERT_GT(recorder.log().size(), 0u);
    stream.poison();

    auto cr_vm = factory();
    replay::CheckpointReplayer cr(cr_vm.get(), &recorder.log(),
                                  replay::CrOptions(), &stream);
    EXPECT_EQ(cr.run(), rnr::ReplayOutcome::kLogAborted);
}

TEST(LogStream, ALogWithoutAStreamNeverBlocks)
{
    InputLog empty;
    InputLogSource empty_source(&empty);
    EXPECT_FALSE(empty_source.await(0));
    EXPECT_EQ(empty_source.producer_icount(), 0u);

    InputLog log;
    for (std::uint64_t i = 0; i < 3; ++i)
        log.append(make_record(i));
    InputLogSource source(&log);
    EXPECT_TRUE(source.await(2));
    EXPECT_FALSE(source.await(3));
    EXPECT_FALSE(source.await(1'000'000));
    EXPECT_FALSE(source.aborted());
    EXPECT_EQ(source.visible(), 3u);
}

TEST(LogStream, ProducerIcountTracksTheNewestRecord)
{
    InputLog log;
    LogStream stream;
    // Built before any append, as a session builds its CR.
    InputLogSource source(&log, &stream);
    EXPECT_EQ(source.producer_icount(), 0u);
    log.append(make_record(41));  // icount 42
    stream.notify();
    EXPECT_EQ(source.producer_icount(), 42u);
    log.append(make_record(99));  // icount 100
    stream.notify();
    EXPECT_EQ(source.producer_icount(), 100u);
    stream.close();
    EXPECT_EQ(source.producer_icount(), 100u);
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
    const InputLogSource& source = result.cr->source();
    ASSERT_GT(log.size(), 0u);
    ASSERT_EQ(source.visible(), log.size());
    // One copy of the log: the CR's records are the recorder's records.
    for (std::size_t i = 0; i < log.size(); ++i)
        ASSERT_EQ(&source.at(i), &log.at(i)) << "index " << i;
    EXPECT_EQ(result.cr->log_pos(), log.size());
    EXPECT_EQ(result.cr_vm->state_hash(), result.recorded_vm->state_hash());
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
    LogStream stream;
    std::atomic<std::size_t> started{0};
    std::thread producer([&] {
        std::size_t next = 0;
        for (std::size_t i = 0; i < finished.size(); ++i) {
            growing.append(finished.at(i));
            stream.notify();
            while (next < pending.size() && pending[next].log_index == i) {
                ++next;
                while (started.load(std::memory_order_acquire) < next)
                    std::this_thread::yield();
            }
        }
        stream.close();
    });

    std::vector<core::AlarmReplayResult> live;
    std::size_t sizes_short_of_done = 0;
    for (std::size_t k = 0; k < pending.size(); ++k) {
        // The CR has read the alarm record before it queues the job.
        const bool queued = stream.await(growing, pending[k].log_index);
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

    for (std::size_t k = 0; k < pending.size(); ++k) {
        stats::StatRegistry stats;
        const auto reference = stage.analyze(pending[k], finished, &stats);
        const auto& got = live[k].analysis;
        const auto& want = reference.analysis;
        EXPECT_EQ(live[k].log_index, reference.log_index) << "alarm " << k;
        EXPECT_EQ(got.cause, want.cause) << "alarm " << k;
        EXPECT_EQ(got.is_attack, want.is_attack) << "alarm " << k;
        EXPECT_EQ(got.report, want.report) << "alarm " << k;
        EXPECT_EQ(got.forensic.serialize(), want.forensic.serialize())
            << "alarm " << k;
        EXPECT_EQ(got.analysis_cycles, want.analysis_cycles)
            << "alarm " << k;
    }
}

}  // namespace
}  // namespace rsafe
