#include "core/session_stage.h"

#include <exception>
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

    // Streamed shape: the CR reads the recorder's log in place while it
    // grows. Serial shape: the same log, read once recording is done.
    if (options_.streamed) {
        stream_ = std::make_unique<rnr::LogStream>();
        recorder_->attach_stream(stream_.get());
    }
    build_cr(&recorder_->log());
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
    build_cr(shipped_log_.get());
}

void
SessionStage::build_cr(const rnr::InputLog* log)
{
    log_ = log;
    cr_vm_ = factory_();
    cr_ = std::make_unique<replay::CheckpointReplayer>(
        cr_vm_.get(), log_, options_.cr, stream_.get());
}

void
SessionStage::set_health_probe(obs::HealthProbe* probe)
{
    cr_->set_health_probe(probe);
}

void
SessionStage::request_stop()
{
    if (recorder_)
        recorder_->request_stop();
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

    SessionResult result;
    const auto record = [&] {
        obs::ScopedSpan span("record.run", "record");
        result.record_result = recorder_->run(options_.max_instructions);
    };
    const auto replay = [&] {
        obs::ScopedSpan span("cr.run", "cr");
        result.cr_outcome = cr_->run();
    };

    if (!stream_) {
        // Serial or replay-only: the log is complete when the CR starts.
        if (recorder_)
            record();
        disarm_detectors();
        replay();
    } else {
        // Record and replay concurrently: the CR reads the recorder's log
        // in place while it grows (Figure 1's arrow is a live log, not a
        // file handed over after the fact). The recorder never waits for
        // the CR, so a CR that stops or throws cannot park it.
        const std::string rec_thread =
            options_.name.empty() ? "recorder" : options_.name + ".recorder";
        const std::string cr_thread =
            options_.name.empty() ? "cr" : options_.name + ".cr";
        std::exception_ptr record_error, cr_error;
        std::thread record_thread([&] {
            try {
                if (obs::Tracer::instance().enabled())
                    obs::Tracer::instance().attach_thread(rec_thread.c_str());
                record();
                stream_->close();
            } catch (...) {
                record_error = std::current_exception();
                stream_->poison();
            }
        });
        std::thread cr_thread_obj([&] {
            try {
                if (obs::Tracer::instance().enabled())
                    obs::Tracer::instance().attach_thread(cr_thread.c_str());
                replay();
            } catch (...) {
                cr_error = std::current_exception();
            }
        });
        record_thread.join();
        cr_thread_obj.join();
        // The stream belongs to this stage; the recorder must not keep a
        // pointer to it once the run is over.
        recorder_->attach_stream(nullptr);
        disarm_detectors();
        if (record_error)
            std::rethrow_exception(record_error);
        if (cr_error)
            std::rethrow_exception(cr_error);
        result.channel_stats.consumer_waits = stream_->consumer_waits();
    }

    result.alarms_logged =
        log_->find_all(rnr::RecordType::kRasAlarm).size() +
        log_->find_all(rnr::RecordType::kDetectorAlarm).size();
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
