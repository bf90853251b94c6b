#include "core/session_stage.h"

#include <exception>
#include <mutex>
#include <thread>

#include "common/log.h"
#include "core/detector.h"
#include "obs/trace.h"

namespace rsafe::core {

namespace {

/** @p set unless it is null or empty (the RAS-only baseline). */
const DetectorSet*
in_effect(const std::shared_ptr<DetectorSet>& set)
{
    if (!set || set->empty())
        return nullptr;
    return set.get();
}

}  // namespace

SessionStage::SessionStage(VmFactory factory, SessionOptions options,
                           std::shared_ptr<DetectorSet> detectors)
    : factory_(std::move(factory)), options_(std::move(options)),
      detectors_(std::move(detectors))
{
    if (!factory_)
        fatal("SessionStage: null VM factory");

    recorded_vm_ = factory_();
    recorder_ = std::make_unique<rnr::Recorder>(recorded_vm_.get(),
                                                options_.recorder);

    active_detectors_ = in_effect(detectors_);
    if (active_detectors_ != nullptr) {
        for (const auto& detector : active_detectors_->all())
            detector->arm(*recorded_vm_);
        recorder_->set_detectors(active_detectors_);
        detectors_armed_ = true;
    }

    if (options_.streamed) {
        // Streaming shape: both VMs and both engines are built up front
        // on this thread; only run() executes on the component threads.
        channel_ = std::make_unique<rnr::LogChannel>(options_.channel);
        recorder_->attach_stream(channel_.get());
        reader_ = std::make_unique<rnr::LogReader>(channel_.get());
        build_cr(reader_.get());
    }
    // Sequential shape: the CR is built by run() once recording is done,
    // so its source sees the finished log (lag = distance to the end).
}

SessionStage::SessionStage(VmFactory factory, SessionOptions options,
                           std::shared_ptr<DetectorSet> detectors,
                           std::shared_ptr<const rnr::InputLog> log)
    : factory_(std::move(factory)), options_(std::move(options)),
      detectors_(std::move(detectors)), shipped_log_(std::move(log))
{
    if (!factory_)
        fatal("SessionStage: null VM factory");
    if (!shipped_log_)
        fatal("SessionStage: null shipped log");
    // The log is complete already: nothing to stream, nothing to arm.
    options_.streamed = false;
    active_detectors_ = in_effect(detectors_);
}

void
SessionStage::build_cr(rnr::LogSource* source)
{
    cr_vm_ = factory_();
    {
        std::lock_guard<std::mutex> lock(stop_mu_);
        cr_ = std::make_unique<replay::CheckpointReplayer>(
            cr_vm_.get(), source, options_.cr);
        if (stop_flag_)
            cr_->request_stop();
    }
    if (health_probe_ != nullptr)
        cr_->set_health_probe(health_probe_);
    install_cr_sink(source);
}

void
SessionStage::set_health_probe(obs::HealthProbe* probe)
{
    health_probe_ = probe;
    if (cr_)
        cr_->set_health_probe(probe);
}

rnr::ChannelStats
SessionStage::live_channel_stats() const
{
    return channel_ ? channel_->stats() : rnr::ChannelStats();
}

void
SessionStage::install_cr_sink(rnr::LogSource* source)
{
    if (!sink_)
        return;
    // Runs on the CR's thread: every index up to the alarm has been
    // awaited by the CR already, so at() is immediate, and copying here
    // keeps the job independent of this session's growing log.
    cr_->set_alarm_sink([this, source](const replay::PendingAlarm& p) {
        AlarmJob job;
        job.pending = p;
        // No checkpoint (interval 0, or recycled past the alarm): the job
        // still ships, with a degenerate slice; the AR stage turns it
        // into a clean checkpoint-unavailable verdict.
        const std::size_t base =
            p.checkpoint ? p.checkpoint->log_pos : p.log_index;
        job.slice.reserve(p.log_index + 1 - base);
        for (std::size_t i = base; i <= p.log_index; ++i)
            job.slice.push_back(source->at(i));
        sink_(job);
    });
}

void
SessionStage::request_stop()
{
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_flag_ = true;
    if (recorder_)
        recorder_->request_stop();
    if (cr_)
        cr_->request_stop();
}

void
SessionStage::disarm_detectors()
{
    if (!detectors_armed_)
        return;
    detectors_armed_ = false;
    for (const auto& detector : active_detectors_->all())
        detector->disarm();
}

SessionResult
SessionStage::run()
{
    if (ran_)
        fatal("SessionStage: run() called twice");
    ran_ = true;
    return options_.streamed ? run_streamed() : run_sequential();
}

SessionResult
SessionStage::run_sequential()
{
    SessionResult result;

    // 1. Monitored recording (a replay-only session has its log already).
    if (recorder_) {
        obs::ScopedSpan span("record.run", "record");
        result.record_result = recorder_->run(options_.max_instructions);
    }
    disarm_detectors();

    const rnr::InputLog& log = recorder_ ? recorder_->log() : *shipped_log_;
    result.alarms_logged =
        log.find_all(rnr::RecordType::kRasAlarm).size() +
        log.find_all(rnr::RecordType::kDetectorAlarm).size();

    // 2. Checkpointing replay over the finished log.
    seq_source_ = std::make_unique<rnr::InputLogSource>(&log);
    build_cr(seq_source_.get());
    {
        obs::ScopedSpan span("cr.run", "cr");
        result.cr_outcome = cr_->run();
    }
    result.stopped =
        (result.record_result == hv::RunResult::kInstrLimit &&
         recorder_->stop_requested()) ||
        result.cr_outcome == rnr::ReplayOutcome::kStopRequested ||
        result.cr_outcome == rnr::ReplayOutcome::kLogAborted;
    return result;
}

SessionResult
SessionStage::run_streamed()
{
    SessionResult result;
    // The CR was built at construction, before the caller could install
    // its sink; hook it up now.
    install_cr_sink(reader_.get());
    const std::string rec_thread =
        options_.name.empty() ? "recorder" : options_.name + ".recorder";
    const std::string cr_thread =
        options_.name.empty() ? "cr" : options_.name + ".cr";

    // Record and replay concurrently: the recorder streams the log
    // through the bounded channel; the CR consumes it on the fly
    // (Figure 1's arrow is a live queue, not a file handed over after
    // the fact).
    std::exception_ptr record_error, cr_error;
    std::thread record_thread([&] {
        try {
            if (obs::Tracer::instance().enabled())
                obs::Tracer::instance().attach_thread(rec_thread.c_str());
            obs::ScopedSpan span("record.run", "record");
            result.record_result =
                recorder_->run(options_.max_instructions);
            channel_->close();
        } catch (...) {
            record_error = std::current_exception();
            channel_->poison();
        }
    });
    std::thread cr_thread_obj([&] {
        try {
            if (obs::Tracer::instance().enabled())
                obs::Tracer::instance().attach_thread(cr_thread.c_str());
            obs::ScopedSpan span("cr.run", "cr");
            result.cr_outcome = cr_->run();
        } catch (...) {
            cr_error = std::current_exception();
        }
        // Unblock the producer in every exit path: a CR that returned
        // early (stop request, poisoned stream, exception) must not
        // leave the recorder parked on backpressure forever. After a
        // normal, fully-drained completion this is a no-op.
        channel_->abandon();
    });
    record_thread.join();
    cr_thread_obj.join();
    // The channel belongs to this stage; the recorder must not keep a
    // pointer to it once the run is over.
    recorder_->attach_stream(nullptr);
    disarm_detectors();
    if (record_error)
        std::rethrow_exception(record_error);
    if (cr_error)
        std::rethrow_exception(cr_error);

    const rnr::InputLog& log = recorder_->log();
    result.alarms_logged =
        log.find_all(rnr::RecordType::kRasAlarm).size() +
        log.find_all(rnr::RecordType::kDetectorAlarm).size();
    result.channel_stats = channel_->stats();
    result.stopped =
        (result.record_result == hv::RunResult::kInstrLimit &&
         recorder_->stop_requested()) ||
        result.cr_outcome == rnr::ReplayOutcome::kStopRequested ||
        result.cr_outcome == rnr::ReplayOutcome::kLogAborted;
    return result;
}

std::unique_ptr<hv::Vm>
SessionStage::release_recorded_vm()
{
    return std::move(recorded_vm_);
}

std::unique_ptr<rnr::Recorder>
SessionStage::release_recorder()
{
    return std::move(recorder_);
}

std::unique_ptr<hv::Vm>
SessionStage::release_cr_vm()
{
    return std::move(cr_vm_);
}

std::unique_ptr<replay::CheckpointReplayer>
SessionStage::release_cr()
{
    return std::move(cr_);
}

}  // namespace rsafe::core
