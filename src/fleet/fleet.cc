#include "fleet/fleet.h"

#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include <chrono>

#include "common/log.h"
#include "core/session_stage.h"
#include "cpu/tb_engine.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "replay/ckpt_store/ckpt_stream.h"

namespace rsafe::fleet {

namespace {

/**
 * Fold @p ar_results plus the component counters into @p result: alarm
 * verdicts land in alarm order, pipeline counters cover only values that
 * are bit-identical across pipeline shapes (the determinism A/B gates
 * compare the whole snapshot), and scheduling-dependent series (replay
 * lag, TB telemetry) ride in gauges/histograms, which snapshot()
 * excludes.
 */
void
finalize_result(core::FrameworkResult* result,
                std::vector<core::AlarmReplayResult> ar_results)
{
    // Fold AR outputs back in alarm order: identical between the serial
    // pipeline and any worker-pool schedule.
    for (auto& ar : ar_results)
        result->alarms.add(ar.analysis);
    result->ar_results = std::move(ar_results);

    // Pipeline-wide counters. Only values that are bit-identical across
    // pipeline modes belong here (the determinism A/B test compares the
    // whole snapshot); lag and stream traffic stay in their own fields.
    // Replay-only runs (replay_wire) have no recording stage.
    auto& stats = result->pipeline_stats;
    if (result->recorded_vm && result->recorder) {
        stats.counter("record.instructions")
            .inc(result->recorded_vm->cpu().icount());
        stats.counter("record.log_records")
            .inc(result->recorder->log().size());
        stats.counter("record.log_bytes")
            .inc(result->recorder->log().total_bytes());
    }
    stats.counter("record.alarms_logged").inc(result->alarms_logged);

    // Per-detector hardware-alarm counts, scanned from whichever log this
    // run replayed. Counts are a pure function of the log, so they stay
    // bit-identical across pipeline modes.
    const rnr::InputLog* scan_log = nullptr;
    if (result->recorder)
        scan_log = &result->recorder->log();
    else if (result->shipped_log)
        scan_log = result->shipped_log.get();
    if (result->detectors && scan_log != nullptr) {
        for (const std::size_t index :
             scan_log->find_all(rnr::RecordType::kDetectorAlarm)) {
            const auto id =
                static_cast<core::DetectorId>(scan_log->at(index).value);
            const core::Detector* detector = result->detectors->find(id);
            const char* name = detector != nullptr ? detector->name()
                                                   : "unknown";
            stats.counter(std::string("detector.") + name + ".alarms")
                .inc();
        }
    }
    stats.counter("cr.instructions").inc(result->cr_vm->cpu().icount());
    stats.counter("cr.checkpoints").inc(result->cr->checkpoints_taken());
    stats.counter("cr.underflows_resolved").inc(result->underflows_resolved);
    stats.counter("cr.single_steps").inc(result->cr->single_steps());

    // The lag time series rides in a gauge: gauges (like histograms) are
    // excluded from snapshot(), so the scheduling-dependent series never
    // perturbs the bit-for-bit pipeline determinism comparison.
    auto& lag_gauge = stats.gauge("cr.replay_lag");
    for (const auto& sample : result->replay_lag.series())
        lag_gauge.set(sample.icount, sample.lag);

    // Translation-block engine telemetry, per pipeline stage. These also
    // ride in gauges/histograms: a TB-off A/B run must produce an
    // identical counter snapshot, and TB event counts are zero with the
    // engine disabled.
    const auto export_tb = [&stats](const std::string& prefix,
                                    const cpu::Cpu& cpu) {
        const cpu::TbEngine& tb = cpu.tb_engine();
        const cpu::TbEngineStats& s = tb.stats();
        stats.gauge(prefix + ".translated").set(0, s.translated);
        stats.gauge(prefix + ".chain_hits").set(0, s.chain_hits);
        stats.gauge(prefix + ".chain_misses").set(0, s.chain_misses);
        stats.gauge(prefix + ".invalidations").set(0, s.invalidations);
        stats.gauge(prefix + ".flushes").set(0, s.flushes);
        stats.gauge(prefix + ".exec_blocks").set(0, s.exec_blocks);
        auto& hist = stats.histogram(prefix + ".block_len",
                                     cpu::TbEngine::kMaxBlockInstrs, 16);
        if (const Status st = hist.merge(tb.block_length_hist()); !st.ok())
            fatal("tb block-length histogram geometry mismatch");
    };
    if (result->recorded_vm)
        export_tb("record.tb", result->recorded_vm->cpu());
    export_tb("cr.tb", result->cr_vm->cpu());

    // Checkpoint-storage telemetry. Gauges again: they measure how the
    // store holds pages, not what the replay computed, so they stay out
    // of the counter snapshot the determinism gates compare.
    {
        const replay::CheckpointStoreStats cs =
            result->cr->checkpoints().stats();
        stats.gauge("ckpt.bytes_raw").set(0, cs.bytes_raw);
        stats.gauge("ckpt.bytes_stored").set(0, cs.bytes_stored);
        stats.gauge("ckpt.dedup_hits").set(0, cs.dedup_hits);
        stats.gauge("ckpt.compressed_pages").set(0, cs.compressed_pages);
        stats.gauge("ckpt.live_bytes").set(0, cs.live_bytes);
        stats.gauge("ckpt.live_pages").set(0, cs.live_pages);
        stats.gauge("ckpt.budget_evictions").set(0, cs.budget_evictions);
        stats.gauge("ckpt.count_evictions").set(0, cs.count_evictions);
    }
}

}  // namespace

/**
 * Everything one tenant needs while its session runs and its alarm jobs
 * float through the shared pool. Lives on the fleet's run() stack and
 * outlives the pool, so job closures can hold raw pointers to it.
 */
struct ReplayFleet::TenantState {
    std::string name;
    std::size_t pool_id = 0;
    std::unique_ptr<core::SessionStage> stage;
    std::unique_ptr<core::ArStage> ar;

    std::exception_ptr error;

    /** Guards the job bookkeeping below against pool workers. */
    std::mutex mu;
    /** Jobs submitted so far; a job's sequence number is its slot. The
     *  CR queues alarms in log order, so slot order == alarm order. */
    std::size_t submitted = 0;
    std::vector<core::AlarmReplayResult> results;
    std::vector<char> done;
    /** The first alarm job that threw; run() rethrows it. */
    std::exception_ptr job_error;
    /** Ship-mode volume (under mu). */
    std::size_t jobs_shipped = 0;
    std::uint64_t bytes_shipped = 0;
    /** Ship mode: this tenant's checkpoint stream. The sender encodes on
     *  the CR thread, in alarm order; workers take from the receiver. */
    std::unique_ptr<replay::ckpt::CheckpointStreamSender> sender;
    replay::ckpt::CheckpointStreamReceiver receiver;
    /** Per-tenant AR counters, merged from per-job registries. Counter
     *  and histogram merges are commutative, so completion order does
     *  not perturb the totals. */
    stats::StatRegistry ar_stats;

    /** Live signals for the health monitor (relaxed atomics only). */
    obs::HealthProbe probe;
};

ReplayFleet::ReplayFleet(std::vector<FleetTenant> tenants,
                         FleetOptions options)
    : tenants_(std::move(tenants)), options_(options)
{
    if (tenants_.empty())
        fatal("ReplayFleet: no tenants");
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (!tenants_[i].factory)
            fatal("ReplayFleet: tenant without a VM factory");
        if (tenants_[i].name.empty())
            fatal("ReplayFleet: tenant without a name");
        for (std::size_t j = i + 1; j < tenants_.size(); ++j)
            if (tenants_[i].name == tenants_[j].name)
                fatal("ReplayFleet: duplicate tenant name '" +
                      tenants_[i].name + "'");
    }
}

void
ReplayFleet::shutdown(ShutdownMode mode)
{
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
    if (mode == ShutdownMode::kAbandon)
        abandon_requested_ = true;
    for (TenantState* state : live_states_)
        state->stage->request_stop();
    // Discarding never blocks; run()'s drain() waits out the running jobs.
    if (abandon_requested_ && live_pool_ != nullptr)
        live_pool_->discard();
}

FleetResult
ReplayFleet::run()
{
    if (ran_)
        fatal("ReplayFleet: run() called twice");
    ran_ = true;
    FleetResult out;

    // The health plane. Declaration order is lifetime order in reverse:
    // the flight recorder precedes the pool and the monitor (worker
    // closures and the monitor's ticks write into it), the monitor and
    // the endpoint follow the pool (their samplers and providers read
    // the pool and the stages, so they must be torn down first).
    obs::FlightRecorder flight;

    // States must outlive the pool (job closures hold raw TenantState
    // pointers), so they are declared first and destroyed last.
    std::vector<std::unique_ptr<TenantState>> states;
    states.reserve(tenants_.size());

    FairSharePool pool(options_.workers, options_.tenant_inflight_cap);

    obs::HealthMonitor monitor(options_.health, &flight);
    const bool health_on = monitor.live();

    for (const FleetTenant& tenant : tenants_) {
        auto state = std::make_unique<TenantState>();
        state->name = tenant.name;
        state->pool_id = pool.register_tenant(tenant.name);
        state->stage = std::make_unique<core::SessionStage>(
            tenant.factory, tenant.config, tenant.name, tenant.log);
        state->ar = std::make_unique<core::ArStage>(
            tenant.factory, tenant.config.cr.replay,
            state->stage->active_detectors());
        // Every tenant reports its verdict latency, empty if it never
        // replayed an alarm.
        core::ArStage::verdict_latency(&state->ar_stats);

        // The sink runs on this tenant's CR thread: claim the next slot
        // and hand the job to the shared pool. The worker reads the
        // tenant's log in place up to the alarm, which the CR has read
        // already, and writes the result back into the claimed slot, so
        // out-of-order execution still lands in alarm order.
        TenantState* raw = state.get();
        const rnr::InputLog* log = &state->stage->log();
        FairSharePool* pool_ptr = &pool;
        obs::FlightRecorder* flight_ptr = health_on ? &flight : nullptr;
        const bool ship = options_.ship_checkpoints;
        state->stage->set_alarm_sink(
            [raw, log, pool_ptr, flight_ptr,
             ship](const replay::PendingAlarm& alarm) {
                // A job can arrive without a checkpoint (interval 0, or
                // the byte budget recycled past the alarm); the AR
                // returns a clean checkpoint-unavailable verdict.
                replay::PendingAlarm pending = alarm;
                auto& ck = pending.checkpoint;
                // Ship mode: the worker sees exactly what a remote AR
                // tier would — the checkpoint the tenant's stream
                // decodes, not the live object graph. Encoding here, on
                // the CR thread, keeps the stream in alarm order.
                std::optional<std::size_t> position;
                std::size_t image_bytes = 0;
                if (ship && ck) {
                    if (!raw->sender)
                        raw->sender = std::make_unique<
                            replay::ckpt::CheckpointStreamSender>(
                            &raw->stage->cr()->checkpoints().pool());
                    std::vector<std::uint8_t> image =
                        raw->sender->encode(ck);
                    image_bytes = image.size();
                    ck.reset();
                    position = raw->receiver.enqueue(std::move(image));
                }
                std::size_t seq;
                {
                    std::lock_guard<std::mutex> lock(raw->mu);
                    seq = raw->submitted++;
                    raw->results.resize(raw->submitted);
                    raw->done.resize(raw->submitted, 0);
                    if (position) {
                        ++raw->jobs_shipped;
                        raw->bytes_shipped += image_bytes;
                    }
                }
                pool_ptr->submit(raw->pool_id, [raw, log,
                                                pending = std::move(pending),
                                                seq, position, flight_ptr] {
                    stats::StatRegistry local;
                    core::AlarmReplayResult result;
                    try {
                        if (position) {
                            std::shared_ptr<const replay::Checkpoint> booted;
                            const Status status =
                                raw->receiver.take(*position, &booted);
                            result = raw->ar->analyze_shipped(
                                pending, status, std::move(booted), *log,
                                &local);
                        } else {
                            result = raw->ar->analyze(pending, *log, &local);
                        }
                    } catch (...) {
                        // The slot stays not-done; run() rethrows once
                        // the pool has drained.
                        std::lock_guard<std::mutex> lock(raw->mu);
                        if (!raw->job_error)
                            raw->job_error = std::current_exception();
                        return;
                    }
                    if (flight_ptr != nullptr) {
                        raw->probe.note_verdict(
                            result.analysis.analysis_cycles);
                        if (result.analysis.is_attack) {
                            // An attack verdict is exactly the moment
                            // the black box exists for.
                            flight_ptr->record(
                                obs::FlightEntryKind::kVerdict, raw->name,
                                "attack",
                                result.analysis.analysis_cycles);
                            flight_ptr->dump("attack-verdict:" + raw->name);
                        }
                    }
                    std::lock_guard<std::mutex> lock(raw->mu);
                    raw->results[seq] = std::move(result);
                    raw->done[seq] = 1;
                    raw->ar_stats.merge(local);
                });
            });

        if (health_on) {
            // The sampler runs on the monitor thread: probe atomics and
            // the pool's locked stats are the only live state it touches.
            state->stage->set_health_probe(&raw->probe);
            monitor.add_tenant(raw->name, [raw, pool_ptr] {
                obs::HealthSample sample;
                sample.set(obs::HealthSignal::kReplayLag,
                           raw->probe.replay_lag.load(
                               std::memory_order_relaxed));
                sample.set(obs::HealthSignal::kQueueDepth,
                           raw->probe.queue_depth());
                sample.set(obs::HealthSignal::kVerdictLatency,
                           raw->probe.verdict_cycles_peak.exchange(
                               0, std::memory_order_relaxed));
                const std::uint64_t budget =
                    raw->probe.ckpt_budget_bytes.load(
                        std::memory_order_relaxed);
                const std::uint64_t live =
                    raw->probe.ckpt_live_bytes.load(
                        std::memory_order_relaxed);
                sample.set(obs::HealthSignal::kCkptOccupancy,
                           budget != 0 ? live * 100 / budget : 0);
                sample.set(obs::HealthSignal::kPoolStarvation,
                           pool_ptr->stats().starved_waits);
                return sample;
            });
        }
        states.push_back(std::move(state));
    }

    obs::TelemetryServer telemetry(
        options_.telemetry,
        obs::TelemetryProviders{
            [&monitor] { return monitor.metrics_prometheus(); },
            [&monitor] { return monitor.healthz_json(); },
            [&flight] { return flight.latest(); },
        });
    if (health_on) {
        monitor.start();
        telemetry.start();
    }

    // Publish the live run for shutdown(), honoring one requested before
    // the states existed.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& state : states)
            live_states_.push_back(state.get());
        live_pool_ = &pool;
        if (shutdown_requested_)
            for (TenantState* state : live_states_)
                state->stage->request_stop();
    }

    // One thread per tenant session except the last, which runs on this
    // thread (a fleet of one spawns no session thread at all); streamed
    // tenants spawn their recorder/CR pair inside SessionStage::run().
    const auto run_session = [](TenantState* raw) {
        try {
            if (obs::Tracer::instance().enabled()) {
                const std::string track = raw->name + ".session";
                obs::Tracer::instance().attach_thread(track.c_str());
            }
            raw->stage->run();
        } catch (...) {
            raw->error = std::current_exception();
        }
    };
    std::vector<std::thread> sessions;
    sessions.reserve(states.size() - 1);
    for (std::size_t i = 0; i + 1 < states.size(); ++i)
        sessions.emplace_back(run_session, states[i].get());
    run_session(states.back().get());
    for (auto& session : sessions)
        session.join();

    // Sessions are done; finish (or discard) the alarm jobs.
    bool abandon;
    {
        std::lock_guard<std::mutex> lock(mu_);
        abandon = abandon_requested_;
    }
    if (abandon)
        pool.discard();
    pool.drain();
    out.pool = pool.stats();
    out.tenant_pool = pool.tenant_stats();

    // The run is quiescing: unpublish before tearing anything down.
    {
        std::lock_guard<std::mutex> lock(mu_);
        live_states_.clear();
        live_pool_ = nullptr;
    }

    // Wind down the health plane while everything its samplers read is
    // still alive: the abandon decision goes into the black box, the
    // monitor runs its final tick, and the endpoint lingers (if asked)
    // so late scrapers see the end state before the snapshots land.
    if (health_on) {
        if (abandon) {
            flight.record(obs::FlightEntryKind::kShutdown, "", "abandon");
            flight.dump("abandon-shutdown");
        }
        monitor.stop();
        if (flight.dumps() == 0)
            flight.dump("run-complete");
        std::uint32_t lingered = 0;
        while (telemetry.running() &&
               lingered < options_.telemetry_linger_ms) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (shutdown_requested_)
                    break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            lingered += 50;
        }
    }
    telemetry.stop();

    for (auto& state : states) {
        if (state->error)
            std::rethrow_exception(state->error);
        if (state->job_error)
            std::rethrow_exception(state->job_error);
    }

    for (auto& state : states) {
        TenantRunResult tenant;
        tenant.name = state->name;
        tenant.result = state->stage->take_result();

        // Completed jobs in submission (= alarm) order; discarded jobs
        // leave holes that mark the tenant partial.
        std::vector<core::AlarmReplayResult> ar_results;
        {
            std::lock_guard<std::mutex> lock(state->mu);
            ar_results.reserve(state->submitted);
            for (std::size_t i = 0; i < state->submitted; ++i) {
                if (state->done[i])
                    ar_results.push_back(std::move(state->results[i]));
                else
                    ++tenant.jobs_dropped;
            }
            tenant.jobs_shipped = state->jobs_shipped;
            tenant.bytes_shipped = state->bytes_shipped;
            tenant.result.pipeline_stats.merge(state->ar_stats);
        }
        finalize_result(&tenant.result, std::move(ar_results));
        tenant.partial = state->stage->stopped() || tenant.jobs_dropped > 0;
        out.tenants.push_back(std::move(tenant));
    }

    collect_metrics(&out);
    if (health_on) {
        monitor.export_metrics(&out.metrics);
        out.healthz = monitor.healthz_json();
        out.health_events = monitor.events();
        out.flight_box = flight.latest();
        out.telemetry_port = telemetry.port();
    }
    return out;
}

void
ReplayFleet::collect_metrics(FleetResult* out)
{
    auto& metrics = out->metrics;
    for (const TenantRunResult& tenant : out->tenants) {
        const std::string prefix = "tenant." + tenant.name + ".";
        metrics.merge_prefixed(tenant.result.pipeline_stats, prefix);
        metrics.counter(prefix + "jobs_dropped").inc(tenant.jobs_dropped);
        if (tenant.partial)
            metrics.counter(prefix + "partial").inc();
        // Ship-mode volume: gauges, so shipped and in-memory runs keep
        // identical counter snapshots (the A/B determinism lever).
        metrics.gauge(prefix + "ckpt.shipped_jobs")
            .set(0, tenant.jobs_shipped);
        metrics.gauge(prefix + "ckpt.shipped_bytes")
            .set(0, tenant.bytes_shipped);
    }
    // Deterministic pool totals ride in counters; scheduling noise
    // (starvation, high-water marks) rides in gauges, which snapshot()
    // excludes — same split the pipeline stats use.
    metrics.counter("fleet.pool.submitted").inc(out->pool.submitted);
    metrics.counter("fleet.pool.executed").inc(out->pool.executed);
    metrics.counter("fleet.pool.discarded").inc(out->pool.discarded);
    metrics.gauge("fleet.pool.starved_waits")
        .set(0, out->pool.starved_waits);
    metrics.gauge("fleet.pool.max_admitted").set(0, out->pool.max_admitted);
    metrics.gauge("fleet.pool.workers").set(0, out->pool.workers);
}

}  // namespace rsafe::fleet
