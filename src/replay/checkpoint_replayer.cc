#include "replay/checkpoint_replayer.h"

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::replay {

using cpu::Costs;

CheckpointReplayer::CheckpointReplayer(hv::Vm* vm, const rnr::InputLog* log,
                                       const CrOptions& options)
    : rnr::Replayer(vm, log, 0, options.replay),
      cr_options_(options), store_(options.store)
{
    take_initial_checkpoint();
}

void
CheckpointReplayer::take_initial_checkpoint()
{
    if (cr_options_.checkpoint_interval > 0) {
        // The initial full checkpoint: the baseline every later
        // incremental checkpoint chains from. Not charged to the replay
        // (it amounts to having the initial VM image on hand).
        store_.take(*vm_, *this, log_pos());
        last_checkpoint_cycles_ = vm_->cpu().cycles();
    }
}

void
CheckpointReplayer::maybe_checkpoint()
{
    if (cr_options_.checkpoint_interval == 0)
        return;
    auto& cpu = vm_->cpu();
    if (cpu.cycles() - last_checkpoint_cycles_ <
        cr_options_.checkpoint_interval) {
        return;
    }
    obs::ScopedSpan span("cr.checkpoint", "cr");
    const auto ck = store_.take(*vm_, *this, log_pos());
    const Cycles cost = Costs::kPageCopy * ck->copies;
    cpu.add_cycles(cost);
    overhead_.chk += cost;
    last_checkpoint_cycles_ = cpu.cycles();
    ++checkpoints_taken_;
    obs::Tracer::instance().instant("cr.checkpoint.taken", "cr", "copies",
                                    ck->copies);
    publish_occupancy();
}

void
CheckpointReplayer::set_health_probe(obs::HealthProbe* probe)
{
    rnr::Replayer::set_health_probe(probe);
    publish_occupancy();
}

void
CheckpointReplayer::publish_occupancy()
{
    if (health_probe_ == nullptr)
        return;
    // CheckpointStore::stats() is CR-thread state; mirroring it into the
    // probe here (on the CR thread, after each take) is what lets the
    // monitor read occupancy mid-run without racing the store.
    health_probe_->ckpt_live_bytes.store(store_.stats().live_bytes,
                                         std::memory_order_relaxed);
    health_probe_->ckpt_budget_bytes.store(
        cr_options_.store.byte_budget, std::memory_order_relaxed);
}

void
CheckpointReplayer::hook_exit_boundary()
{
    // Replay lag is the CR's signal: an alarm replayer trails nothing.
    sample_lag();
    maybe_checkpoint();
}

void
CheckpointReplayer::hook_replay_end()
{
    sample_lag();
}

bool
CheckpointReplayer::hook_positional_record(const rnr::LogRecord& record)
{
    if (record.type == rnr::RecordType::kRasEvict) {
        evicts_[record.tid].push_back(record.addr);
        return true;
    }
    if (record.type != rnr::RecordType::kRasAlarm &&
        record.type != rnr::RecordType::kDetectorAlarm)
        return true;

    // Underflow alarms: match against the latest Evict record from the
    // same thread (Section 4.6.2). A match proves the hardware merely ran
    // out of RAS depth; the entry is consumed and the alarm discarded.
    // (Detector alarms carry no RAS kind and always go to an AR.)
    if (record.type == rnr::RecordType::kRasAlarm &&
        record.alarm.kind == cpu::RasAlarmKind::kUnderflow) {
        auto it = evicts_.find(record.tid);
        if (it != evicts_.end() && !it->second.empty() &&
            it->second.back() == record.alarm.actual) {
            it->second.pop_back();
            ++underflows_resolved_;
            obs::Tracer::instance().instant("cr.underflow_resolved", "cr",
                                            "icount", record.icount);
            return true;
        }
    }

    // Anything else needs a full alarm replay, launched from the most
    // recent checkpoint.
    PendingAlarm pending;
    pending.log_index = log_pos() - 1;  // hook runs just after the cursor
    pending.record = record;
    pending.checkpoint = store_.latest();
    pending.queued_at_cycles = vm_->cpu().cycles();
    pending.queued_at_host = std::chrono::steady_clock::now();

    // Flow tail: the arrow from here to the AR worker that classifies
    // this alarm, keyed by its log index. The enclosing mini-span gives
    // Perfetto a slice to bind the flow event to.
    auto& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
        obs::ScopedSpan span("cr.alarm_pending", "alarm");
        tracer.flow_start("alarm", "alarm", pending.log_index);
        tracer.instant("cr.alarm", "alarm", "log_index",
                       pending.log_index);
    }

    pending_.push_back(std::move(pending));
    if (health_probe_ != nullptr)
        health_probe_->alarms_queued.fetch_add(1, std::memory_order_relaxed);
    if (alarm_sink_)
        alarm_sink_(pending_.back());
    return true;
}

}  // namespace rsafe::replay
