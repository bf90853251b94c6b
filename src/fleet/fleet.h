#ifndef RSAFE_FLEET_FLEET_H_
#define RSAFE_FLEET_FLEET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/framework.h"
#include "fleet/work_pool.h"
#include "obs/health.h"
#include "obs/telemetry.h"
#include "stats/stats.h"

/**
 * @file
 * ReplayFleet: N concurrent guest sessions over one shared AR pool.
 *
 * Deploy six monitored guests as six private pipelines and the host runs
 * six alarm-replay pools' worth of threads, most of them idle. The fleet
 * inverts that: each tenant is a SessionStage (recorder + checkpointing
 * replayer on its own threads) that *submits* alarm-replay jobs — a
 * PendingAlarm whose [checkpoint, alarm] range the worker reads from the
 * tenant's log in place — to one FairSharePool sized once for the whole
 * machine.
 * A per-tenant in-flight cap with round-robin takes keeps an alarm storm
 * in one tenant from starving the rest. RnrSafeFramework is this fleet
 * with one tenant.
 *
 * Determinism is preserved per tenant: jobs execute in any order on any
 * worker, but results are slotted by submission sequence (= alarm order,
 * the CR queues alarms in log order), per-job stat registries merge
 * commutatively, and every tenant's result goes through the same fold —
 * so a fleet tenant's verdicts, counters, and state digests are
 * bit-identical to the same workload run through RnrSafeFramework alone.
 *
 * Shutdown is two-mode (shutdown(), callable from any thread):
 * kDrain stops the sessions but lets every submitted alarm job finish;
 * kAbandon also discards queued jobs, flagging affected tenants partial.
 * Neither blocks: run() is the one place that waits for the pool.
 */

namespace rsafe::fleet {

/** One monitored guest session in the fleet. */
struct FleetTenant {
    /** Unique tenant name: metric namespace + trace track prefix. */
    std::string name;
    core::VmFactory factory;
    /**
     * Per-tenant pipeline configuration, which the tenant's SessionStage
     * is built from. `pipeline` selects the session shape (kConcurrent =
     * streamed record->CR). `ar_workers`, `health` and `telemetry` are
     * ignored: alarm replays go to the shared pool, and the health plane
     * is FleetOptions'. Detector sets must not be shared between tenants
     * (each is armed on its tenant's VM).
     */
    core::FrameworkConfig config;
    /**
     * A shipped log to replay instead of recording (null = record live).
     * The session then runs the sequential CR over it, and the tenant's
     * result carries it as FrameworkResult::shipped_log.
     */
    std::shared_ptr<const rnr::InputLog> log = nullptr;
};

/** Fleet-wide knobs. */
struct FleetOptions {
    /** Shared AR pool width; 0 = hardware_concurrency, sized once. */
    std::size_t workers = 0;
    /** Fair-share: max in-flight alarm jobs per tenant. */
    std::size_t tenant_inflight_cap = 2;
    /**
     * Ship checkpoints by content: each tenant's alarm sink encodes the
     * job's checkpoint as the next image of the tenant's checkpoint
     * stream (ckpt_stream.h: a kCheckpointDelta naming changed slots by
     * page key and carrying only pages the receiver lacks), and the pool
     * worker boots the AR from the checkpoint the stream *decodes* —
     * exactly what a remote AR tier would execute. Verdicts, digests,
     * and counters are gated bit-identical to in-memory jobs; shipped
     * volume rides in gauges only.
     */
    bool ship_checkpoints = false;
    /**
     * The live health plane (off by default). When enabled, a
     * HealthMonitor samples every tenant's live signals on its cadence,
     * a FlightRecorder black-boxes recent events (dumped on attack
     * verdicts, SLO breaches, and abandon shutdowns), and — when
     * telemetry.enabled too — a loopback HTTP endpoint serves /metrics,
     * /healthz and /flight while the fleet runs. The plane is passive:
     * verdicts, digests and counter snapshots are bit-identical with it
     * on or off.
     */
    obs::HealthOptions health;
    obs::TelemetryOptions telemetry;
    /**
     * Keep the telemetry endpoint up this long after the run completes
     * (smoke tests curl it); a shutdown() request cuts the linger short.
     */
    std::uint32_t telemetry_linger_ms = 0;
};

/** How shutdown() treats alarm jobs not yet executed. */
enum class ShutdownMode {
    kDrain,    ///< stop sessions, finish every submitted job
    kAbandon,  ///< stop sessions, discard queued jobs (partial results)
};

/** One tenant's outcome. */
struct TenantRunResult {
    std::string name;
    /** Same shape the single framework returns, finalized identically. */
    core::FrameworkResult result;
    /** True if the session was stopped early or jobs were discarded. */
    bool partial = false;
    /** Alarm jobs submitted but discarded by an abandon shutdown. */
    std::size_t jobs_dropped = 0;
    /** Ship mode: jobs whose checkpoint went through the stream, and
     *  the image bytes it carried (a function of the log, counted at
     *  submission; exported as gauges so shipped and in-memory runs
     *  keep identical counter snapshots). */
    std::size_t jobs_shipped = 0;
    std::uint64_t bytes_shipped = 0;
};

/** Everything a fleet run produced. */
struct FleetResult {
    std::vector<TenantRunResult> tenants;
    /** Shared-pool scheduling counters. */
    PoolStats pool;
    std::vector<TenantPoolStats> tenant_pool;
    /**
     * Fleet-wide registry: every tenant's pipeline stats under
     * "tenant.<name>." (so two tenants' series can never alias), each
     * tenant's ar.verdict_latency histogram, and fleet.pool.* stats.
     * Feed it to obs::MetricsExporter for JSON/Prometheus.
     */
    stats::StatRegistry metrics;

    /** Health-plane outputs (empty when the plane was off). @{ */
    std::string healthz;  ///< final /healthz JSON document
    std::vector<obs::HealthEvent> health_events;
    std::vector<std::uint8_t> flight_box;  ///< latest dump (wire bytes)
    std::uint16_t telemetry_port = 0;      ///< bound port (0 = no server)
    /** @} */
};

/** N sessions, one shared fair-share alarm-replay pool. */
class ReplayFleet {
  public:
    ReplayFleet(std::vector<FleetTenant> tenants, FleetOptions options = {});

    /** Run every tenant to completion (or until shutdown()). Blocking
     *  (the last tenant's session runs on the calling thread); call at
     *  most once. */
    FleetResult run();

    /**
     * Wind down a run() in progress from any thread: every session gets
     * request_stop(); kAbandon additionally discards alarm jobs not yet
     * executing. Never waits for running jobs. Idempotent; kAbandon wins
     * if both modes are requested.
     */
    void shutdown(ShutdownMode mode);

  private:
    struct TenantState;

    /** Fold per-tenant registries + pool stats into result->metrics. */
    static void collect_metrics(FleetResult* result);

    std::vector<FleetTenant> tenants_;
    FleetOptions options_;
    bool ran_ = false;

    /** Guards the shutdown flags and the live-run pointers below. */
    std::mutex mu_;
    bool shutdown_requested_ = false;
    bool abandon_requested_ = false;
    std::vector<TenantState*> live_states_;
    FairSharePool* live_pool_ = nullptr;
};

}  // namespace rsafe::fleet

#endif  // RSAFE_FLEET_FLEET_H_
