#ifndef RSAFE_OBS_HEALTH_H_
#define RSAFE_OBS_HEALTH_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stats/stats.h"

/**
 * @file
 * The live SLO monitor over a running pipeline or fleet.
 *
 * PR 5 observability is post-hoc: traces and merged registries exist
 * only after join, so a wedged tenant or a runaway replay lag is
 * invisible until the process exits. The HealthMonitor closes that gap:
 * a single sampling thread polls every registered tenant's live signals
 * (through the lock-free HealthProbe plus the few mutex-guarded live
 * stats calls) on a fixed cadence, compares them against declarative
 * SLO rules — absolute thresholds or multiples of a self-learned EWMA
 * baseline — and drives a per-tenant healthy → degraded → critical
 * state machine with hysteresis in both directions. Transitions are
 * kept as structured HealthEvents and marked in the trace, and every
 * evaluated signal is exported as a `tenant.<name>.health.*` gauge. A
 * monitor given a FlightRecorder writes the black box itself: each
 * evaluated sample, each transition, and a `slo-breach:<tenant>` dump
 * when a tenant turns critical.
 *
 * Passivity is the contract: the monitor only ever *reads* pipeline
 * state and only ever *writes* gauges (never counters), so stat
 * snapshots, verdicts and digests are bit-identical with the monitor on
 * or off. HealthOptions::enabled = false keeps start() from spawning
 * the thread; tick() stays callable directly for deterministic tests.
 */

namespace rsafe::obs {

class FlightRecorder;

/** The per-tenant live signals the monitor evaluates each tick. */
enum class HealthSignal : std::uint8_t {
    kReplayLag = 0,           ///< CR instructions behind the recorder
    kVerdictLatency = 1,      ///< AR analysis latency p99 (sim cycles)
    kQueueDepth = 2,          ///< alarms queued but not yet decided
    kCkptOccupancy = 3,       ///< checkpoint-store budget occupancy (%)
    kPoolStarvation = 4,      ///< pool starved waits (per tick)
};

inline constexpr std::size_t kNumHealthSignals = 5;

/** @return a short stable name for @p signal ("replay_lag", …). */
const char* health_signal_name(HealthSignal signal);

/** One sampling-tick reading of every signal for one tenant. */
struct HealthSample {
    std::array<std::uint64_t, kNumHealthSignals> values{};

    std::uint64_t get(HealthSignal signal) const
    {
        return values[static_cast<std::size_t>(signal)];
    }

    void set(HealthSignal signal, std::uint64_t value)
    {
        values[static_cast<std::size_t>(signal)] = value;
    }
};

/** The tenant state machine's three levels (order = severity). */
enum class HealthState : std::uint8_t {
    kHealthy = 0,
    kDegraded = 1,
    kCritical = 2,
};

/** @return "healthy" / "degraded" / "critical". */
const char* health_state_name(HealthState state);

/**
 * One declarative SLO rule. A rule is either absolute (degraded_at /
 * critical_at are the thresholds) or relative (thresholds are the EWMA
 * baseline times degraded_x / critical_x, but never below
 * baseline_floor — a cold baseline of zero must not make every first
 * sample critical). Escalation needs breach_samples consecutive ticks
 * at or above a level; recovery needs clear_samples consecutive ticks
 * below it.
 */
struct SloRule {
    HealthSignal signal = HealthSignal::kReplayLag;

    /** Absolute thresholds (used when degraded_x == 0). @{ */
    std::uint64_t degraded_at = 0;
    std::uint64_t critical_at = 0;
    /** @} */

    /** Relative thresholds as EWMA multiples (0 = absolute rule). @{ */
    double degraded_x = 0.0;
    double critical_x = 0.0;
    std::uint64_t baseline_floor = 0;
    /** @} */

    std::uint32_t breach_samples = 2;
    std::uint32_t clear_samples = 4;
};

/** The built-in rule set (see health.cc for the rationale per rule). */
std::vector<SloRule> default_slo_rules();

/** One structured state transition (what events(), the trace and the
 *  flight recorder see). */
struct HealthEvent {
    std::uint64_t tick = 0;  ///< monitor tick the transition fired on
    std::string tenant;
    HealthSignal signal = HealthSignal::kReplayLag;
    HealthState from = HealthState::kHealthy;
    HealthState to = HealthState::kHealthy;
    std::uint64_t value = 0;      ///< evaluated signal value
    std::uint64_t threshold = 0;  ///< threshold that was crossed

    /** One-line rendering ("tenant=a replay_lag healthy->critical …"). */
    std::string to_string() const;
};

/** Monitor configuration. */
struct HealthOptions {
    /** Master switch; the default keeps every existing run unchanged. */
    bool enabled = false;

    /** Sampling cadence of the monitor thread. */
    std::uint32_t cadence_ms = 10;

    /** Rule set (empty = default_slo_rules()). */
    std::vector<SloRule> rules;
};

/**
 * The fleet-wide health monitor. Register tenants with their sampler,
 * start() the sampling thread (or call tick() directly from tests),
 * stop() before tearing down anything the samplers read.
 */
class HealthMonitor {
  public:
    /** Polls one tenant's live signals (must be thread-safe). */
    using SampleFn = std::function<HealthSample()>;

    /**
     * @param flight  the black box tick() writes into (may be null): a
     *                kSample entry per evaluated tenant sample, a
     *                kTransition entry per state transition, and a
     *                `slo-breach:<tenant>` dump when one turns critical.
     *                Must outlive the monitor.
     */
    explicit HealthMonitor(HealthOptions options = HealthOptions(),
                           FlightRecorder* flight = nullptr);
    ~HealthMonitor();

    HealthMonitor(const HealthMonitor&) = delete;
    HealthMonitor& operator=(const HealthMonitor&) = delete;

    /** Register @p tenant with its live-signal sampler. */
    void add_tenant(const std::string& tenant, SampleFn sampler);

    /** @return whether this monitor may sample at all (options.enabled). */
    bool live() const { return options_.enabled; }

    /**
     * Spawn the sampling thread. Returns false (and stays inert) when
     * the monitor is not live() or no tenant is registered.
     */
    bool start();

    /** @return whether the sampling thread is live. */
    bool running() const;

    /**
     * Stop the sampling thread and run one final tick so the end state
     * is captured. Idempotent; safe without a prior start(). Must run
     * before anything the samplers read is destroyed.
     */
    void stop();

    /**
     * Run one sampling/evaluation pass over every tenant. Public so
     * tests can drive the state machine deterministically without the
     * thread or the wall clock.
     */
    void tick();

    /** @return the current state of @p tenant (healthy if unknown). */
    HealthState state(const std::string& tenant) const;

    /** @return the worst state @p tenant ever reached. */
    HealthState worst(const std::string& tenant) const;

    /** @return every transition so far, in firing order. */
    std::vector<HealthEvent> events() const;

    /** @return ticks evaluated so far. */
    std::uint64_t ticks() const;

    /** @return the /healthz JSON document (per-tenant states + signals). */
    std::string healthz_json() const;

    /** @return the monitor's live gauges in Prometheus exposition. */
    std::string metrics_prometheus() const;

    /**
     * Fold the monitor's gauges (`tenant.<name>.health.*`) into @p out.
     * Gauges only — the registry's deterministic counter snapshot is
     * untouched, keeping A/B runs bit-identical.
     */
    void export_metrics(stats::StatRegistry* out) const;

  private:
    struct RuleRuntime;
    struct TenantRuntime;

    void run_loop();
    void evaluate_tenant(TenantRuntime* tenant, const HealthSample& raw,
                         std::vector<HealthEvent>* fired);

    HealthOptions options_;
    FlightRecorder* const flight_;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<TenantRuntime>> tenants_;
    std::vector<HealthEvent> events_;
    stats::StatRegistry live_;  ///< gauges only, refreshed every tick
    std::uint64_t ticks_ = 0;

    std::mutex tick_mu_;  ///< serializes concurrent tick() callers

    /** stop() sets the flag and wakes the sampling thread's sleep, so
     *  it returns at once rather than after the rest of a cadence. */
    std::mutex stop_mu_;
    std::condition_variable stop_cv_;
    bool stop_requested_ = false;  ///< guarded by stop_mu_

    std::thread thread_;
    std::atomic<bool> running_{false};
    bool stopped_ = false;
};

}  // namespace rsafe::obs

#endif  // RSAFE_OBS_HEALTH_H_
