#include "core/ar_stage.h"

#include <memory>
#include <string>
#include <utility>

#include "common/log.h"
#include "core/detector.h"
#include "obs/health_probe.h"
#include "obs/trace.h"

namespace rsafe::core {

ArStage::ArStage(VmFactory factory, rnr::ReplayOptions base_options,
                 const DetectorSet* detectors)
    : factory_(std::move(factory)), base_options_(base_options),
      detectors_(detectors)
{
    if (!factory_)
        fatal("ArStage: null VM factory");
}

stats::Histogram&
ArStage::verdict_latency(stats::StatRegistry* stats)
{
    return stats->histogram("ar.verdict_latency",
                            obs::kVerdictLatencyHistMax,
                            obs::kVerdictLatencyHistBuckets);
}

stats::Histogram&
ArStage::verdict_host_us(stats::StatRegistry* stats)
{
    return stats->histogram("ar.verdict_host_us",
                            obs::kVerdictHostUsHistMax,
                            obs::kVerdictHostUsHistBuckets);
}

AlarmReplayResult
ArStage::unavailable(const replay::PendingAlarm& pending,
                     const std::string& why,
                     stats::StatRegistry* local_stats) const
{
    // No usable checkpoint covers this alarm (interval 0, a byte budget
    // that recycled past it, or a shipped image that is damaged or does
    // not fit the VM). The verdict must be a clean record of that fact,
    // not a crash: the alarm stays visible in result.alarms with an
    // explicit cause the operator can act on.
    AlarmReplayResult out;
    out.log_index = pending.log_index;
    out.analysis.is_attack = false;
    out.analysis.cause = replay::AlarmCause::kCheckpointUnavailable;
    out.analysis.alarm_record = pending.record;
    out.analysis.report = "alarm @" + std::to_string(pending.log_index) +
                          ": checkpoint unavailable (" + why + ")";
    local_stats->counter("ar.ckpt_unavailable").inc();
    verdict_latency(local_stats).sample(0);
    obs::Tracer::instance().instant("ar.ckpt_unavailable", "ar",
                                    "log_index", pending.log_index);
    return out;
}

AlarmReplayResult
ArStage::analyze_shipped(const replay::PendingAlarm& pending,
                         const Status& decoded,
                         std::shared_ptr<const replay::Checkpoint> checkpoint,
                         const rnr::InputLog& log,
                         stats::StatRegistry* local_stats, LiveAr* live) const
{
    if (!decoded.ok()) {
        if (live != nullptr)
            live->reset();
        return unavailable(pending, "image rejected: " + decoded.message(),
                           local_stats);
    }
    replay::PendingAlarm booted = pending;
    booted.checkpoint = std::move(checkpoint);
    return analyze(booted, log, local_stats, live);
}

AlarmReplayResult
ArStage::analyze(const replay::PendingAlarm& pending,
                 const rnr::InputLog& log,
                 stats::StatRegistry* local_stats, LiveAr* live) const
{
    LiveAr solo;
    LiveAr& slot = live != nullptr ? *live : solo;
    if (!pending.checkpoint) {
        slot.reset();
        return unavailable(pending, "no checkpoint at or before the alarm",
                           local_stats);
    }

    AlarmReplayResult out;
    out.log_index = pending.log_index;

    // Flow head: close the arrow the CR opened when it queued this alarm
    // (same id = the alarm's log index), inside the analysis span so the
    // viewer binds the arrow to this slice.
    obs::ScopedSpan span("ar.analyze", "ar");
    obs::Tracer::instance().flow_finish("alarm", "alarm",
                                        pending.log_index);

    // A user-mode RAS alarm switches user call/ret tracing on for the
    // rest of its replay, so only alarms of one level share a replay.
    const bool user_tracing =
        pending.record.type == rnr::RecordType::kRasAlarm &&
        !pending.record.alarm.kernel_mode;
    out.continued = slot.continues(this, &log, pending.checkpoint->id,
                                   user_tracing, pending.log_index);
    try {
        if (!out.continued) {
            // At most one VM per slot: drop the old one before building.
            slot.reset();
            auto ar_vm = factory_();
            // A checkpoint shipped from elsewhere may not fit this VM:
            // that is this alarm's verdict, not a fault of the whole run.
            if (const std::string why =
                    replay::geometry_mismatch(*pending.checkpoint, *ar_vm);
                !why.empty())
                return unavailable(pending, why, local_stats);
            slot.vm_ = std::move(ar_vm);
            slot.ar_ = std::make_unique<replay::AlarmReplayer>(
                slot.vm_.get(), &log, *pending.checkpoint, base_options_);
            slot.ar_->set_detectors(detectors_);
            slot.stage_ = this;
            slot.log_ = &log;
            slot.checkpoint_id_ = pending.checkpoint->id;
            slot.user_tracing_ = user_tracing;
        }
        local_stats->counter("ar.replays").inc();
        out.analysis = slot.ar_->analyze(pending.log_index);
    } catch (...) {
        slot.reset();
        throw;
    }
    slot.last_index_ = pending.log_index;
    if (out.analysis.is_attack)
        local_stats->counter("ar.attacks").inc();
    if (pending.record.type == rnr::RecordType::kDetectorAlarm &&
        detectors_ != nullptr) {
        const Detector* detector = detectors_->find(
            static_cast<DetectorId>(pending.record.value));
        if (detector != nullptr) {
            const std::string prefix =
                std::string("detector.") + detector->name();
            local_stats->counter(prefix + ".replays").inc();
            local_stats
                ->counter(prefix + (out.analysis.is_attack
                                        ? ".attacks"
                                        : ".false_positives"))
                .inc();
        }
    }
    local_stats->counter("ar.analysis_cycles")
        .inc(out.analysis.analysis_cycles);
    verdict_latency(local_stats).sample(out.analysis.analysis_cycles);
    obs::Tracer::instance().instant("ar.verdict", "ar", "is_attack",
                                    out.analysis.is_attack ? 1 : 0);
    return out;
}

}  // namespace rsafe::core
