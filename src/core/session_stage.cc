#include "core/session_stage.h"

#include <exception>
#include <thread>

#include "common/log.h"
#include "core/detector.h"
#include "obs/trace.h"

namespace rsafe::core {

SessionStage::SessionStage(VmFactory factory, const FrameworkConfig& config,
                           std::string name,
                           std::shared_ptr<const rnr::InputLog> log)
    : max_instructions_(config.max_instructions), name_(std::move(name))
{
    if (!factory)
        fatal("SessionStage: null VM factory");

    // The in-effect detectors: none for a null or empty set (the RAS-only
    // baseline).
    if (config.detectors && !config.detectors->empty())
        result_.detectors = config.detectors;

    if (log) {
        // A shipped log is complete already: nothing to stream, nothing
        // to arm.
        result_.shipped_log = std::move(log);
        log_ = result_.shipped_log.get();
    } else {
        result_.recorded_vm = factory();
        result_.recorder = std::make_unique<rnr::Recorder>(
            result_.recorded_vm.get(), config.recorder);
        if (result_.detectors) {
            for (const auto& detector : result_.detectors->all())
                detector->arm(*result_.recorded_vm);
            result_.recorder->set_detectors(result_.detectors.get());
            detectors_armed_ = true;
        }
        // Streamed shape: the CR reads the recorder's log in place while
        // it grows. Serial shape: the same log, read once recording is
        // done.
        if (config.pipeline == PipelineMode::kConcurrent) {
            stream_ = std::make_unique<rnr::LogStream>();
            result_.recorder->attach_stream(stream_.get());
        }
        log_ = &result_.recorder->log();
    }

    result_.cr_vm = factory();
    result_.cr = std::make_unique<replay::CheckpointReplayer>(
        result_.cr_vm.get(), log_, config.cr, stream_.get());
}

void
SessionStage::set_health_probe(obs::HealthProbe* probe)
{
    result_.cr->set_health_probe(probe);
}

void
SessionStage::request_stop()
{
    if (result_.recorder)
        result_.recorder->request_stop();
    result_.cr->request_stop();
}

void
SessionStage::disarm_detectors()
{
    if (!detectors_armed_)
        return;
    detectors_armed_ = false;
    for (const auto& detector : result_.detectors->all())
        detector->disarm();
}

void
SessionStage::run()
{
    if (ran_)
        fatal("SessionStage: run() called twice");
    ran_ = true;

    const auto record = [&] {
        obs::ScopedSpan span("record.run", "record");
        result_.record_result = result_.recorder->run(max_instructions_);
    };
    const auto replay = [&] {
        obs::ScopedSpan span("cr.run", "cr");
        result_.cr_outcome = result_.cr->run();
    };

    if (!stream_) {
        // Serial or replay-only: the log is complete when the CR starts.
        if (result_.recorder)
            record();
        disarm_detectors();
        replay();
    } else {
        // Record and replay concurrently: the CR reads the recorder's log
        // in place while it grows (Figure 1's arrow is a live log, not a
        // file handed over after the fact). The recorder never waits for
        // the CR, so a CR that stops or throws cannot park it.
        const std::string rec_thread =
            name_.empty() ? "recorder" : name_ + ".recorder";
        const std::string cr_thread = name_.empty() ? "cr" : name_ + ".cr";
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
        result_.recorder->attach_stream(nullptr);
        disarm_detectors();
        if (record_error)
            std::rethrow_exception(record_error);
        if (cr_error)
            std::rethrow_exception(cr_error);
        result_.channel_stats.consumer_waits = stream_->consumer_waits();
    }

    result_.alarms_logged =
        log_->find_all(rnr::RecordType::kRasAlarm).size() +
        log_->find_all(rnr::RecordType::kDetectorAlarm).size();
    result_.underflows_resolved = result_.cr->underflows_resolved();
    result_.replay_lag = result_.cr->lag();
    stopped_ = (result_.record_result == hv::RunResult::kInstrLimit &&
                result_.recorder->stop_requested()) ||
               result_.cr_outcome == rnr::ReplayOutcome::kStopRequested ||
               result_.cr_outcome == rnr::ReplayOutcome::kLogAborted;
}

}  // namespace rsafe::core
