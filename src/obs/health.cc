#include "obs/health.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/health_probe.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rsafe::obs {

namespace {

/** EWMA smoothing factor for relative-rule baselines. */
constexpr double kEwmaAlpha = 0.2;

/** Signals that accumulate monotonically and are evaluated per tick. */
bool
is_cumulative(HealthSignal signal)
{
    return signal == HealthSignal::kPoolStarvation;
}

}  // namespace

const char*
health_signal_name(HealthSignal signal)
{
    switch (signal) {
      case HealthSignal::kReplayLag: return "replay_lag";
      case HealthSignal::kVerdictLatency: return "verdict_latency";
      case HealthSignal::kQueueDepth: return "queue_depth";
      case HealthSignal::kCkptOccupancy: return "ckpt_occupancy";
      case HealthSignal::kPoolStarvation: return "pool_starvation";
    }
    return "<bad>";
}

const char*
health_state_name(HealthState state)
{
    switch (state) {
      case HealthState::kHealthy: return "healthy";
      case HealthState::kDegraded: return "degraded";
      case HealthState::kCritical: return "critical";
    }
    return "<bad>";
}

std::vector<SloRule>
default_slo_rules()
{
    std::vector<SloRule> rules;

    // Queue depth is the most reliable attack-storm symptom: alarms are
    // rare in benign traffic, so even a handful outstanding means the
    // AR workers are behind. Absolute, small thresholds.
    {
        SloRule r;
        r.signal = HealthSignal::kQueueDepth;
        r.degraded_at = 3;
        r.critical_at = 6;
        rules.push_back(r);
    }

    // Replay lag varies by workload, so it is judged against its own
    // EWMA baseline; the floor keeps a near-zero warm-up baseline from
    // flagging the first real batch of work.
    {
        SloRule r;
        r.signal = HealthSignal::kReplayLag;
        r.degraded_x = 8.0;
        r.critical_x = 64.0;
        r.baseline_floor = 4096;
        rules.push_back(r);
    }

    // Verdict latency p99 in sim cycles; replays of attack alarms cost
    // orders of magnitude more than those of benign ones.
    {
        SloRule r;
        r.signal = HealthSignal::kVerdictLatency;
        r.degraded_at = 8ull << 20;
        r.critical_at = 32ull << 20;
        rules.push_back(r);
    }

    // Checkpoint-store budget occupancy in percent; absolute because
    // the budget itself is the contract.
    {
        SloRule r;
        r.signal = HealthSignal::kCkptOccupancy;
        r.degraded_at = 85;
        r.critical_at = 95;
        rules.push_back(r);
    }

    // kPoolStarvation is sampled and exported but deliberately unruled:
    // starved waits also climb when the fleet is simply idle, so a
    // default rule would page on quiet periods. Deployments that want
    // it gated can add their own rule.
    return rules;
}

std::string
HealthEvent::to_string() const
{
    std::ostringstream os;
    os << "tenant=" << tenant << " " << health_signal_name(signal) << " "
       << health_state_name(from) << "->" << health_state_name(to)
       << " value=" << value << " threshold=" << threshold << " tick="
       << tick;
    return os.str();
}

/** Per-rule hysteresis state. */
struct HealthMonitor::RuleRuntime {
    SloRule rule;
    HealthState level = HealthState::kHealthy;
    std::uint32_t escalate_streak = 0;
    std::uint32_t clear_streak = 0;
    double ewma = 0.0;
    bool ewma_primed = false;
};

/** Everything the monitor tracks for one tenant. */
struct HealthMonitor::TenantRuntime {
    std::string name;
    SampleFn sampler;
    std::vector<RuleRuntime> rules;
    HealthState state = HealthState::kHealthy;
    HealthState worst = HealthState::kHealthy;
    std::uint64_t transitions = 0;
    HealthSample last;  ///< evaluated (per-tick) values
    std::array<std::uint64_t, kNumHealthSignals> prev_raw{};
    stats::Histogram verdict_latency{kVerdictLatencyHistMax,
                                     kVerdictLatencyHistBuckets};
};

HealthMonitor::HealthMonitor(HealthOptions options, FlightRecorder* flight)
    : options_(std::move(options)), flight_(flight)
{
    if (options_.rules.empty())
        options_.rules = default_slo_rules();
}

HealthMonitor::~HealthMonitor()
{
    stop();
}

void
HealthMonitor::add_tenant(const std::string& tenant, SampleFn sampler)
{
    auto runtime = std::make_unique<TenantRuntime>();
    runtime->name = tenant;
    runtime->sampler = std::move(sampler);
    for (const SloRule& rule : options_.rules) {
        RuleRuntime rr;
        rr.rule = rule;
        runtime->rules.push_back(rr);
    }
    std::lock_guard<std::mutex> lock(mu_);
    tenants_.push_back(std::move(runtime));
}

bool
HealthMonitor::start()
{
    if (!options_.enabled)
        return false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (tenants_.empty())
            return false;
    }
    if (running_.load(std::memory_order_acquire))
        return true;
    {
        std::lock_guard<std::mutex> lock(stop_mu_);
        stop_requested_ = false;
    }
    stopped_ = false;
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { run_loop(); });
    return true;
}

bool
HealthMonitor::running() const
{
    return running_.load(std::memory_order_acquire);
}

void
HealthMonitor::stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mu_);
        stop_requested_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    running_.store(false, std::memory_order_release);
    if (!stopped_) {
        stopped_ = true;
        // One final pass so the end-of-run state (the tick the breach
        // landed on, say) is captured even with a coarse cadence.
        if (options_.enabled)
            tick();
    }
}

void
HealthMonitor::run_loop()
{
    Tracer::instance().attach_thread("health");
    std::unique_lock<std::mutex> lock(stop_mu_);
    while (!stop_requested_) {
        lock.unlock();
        tick();
        lock.lock();
        stop_cv_.wait_for(lock, std::chrono::milliseconds(options_.cadence_ms),
                          [this] { return stop_requested_; });
    }
}

void
HealthMonitor::evaluate_tenant(TenantRuntime* tenant,
                               const HealthSample& raw,
                               std::vector<HealthEvent>* fired)
{
    // Transform raw readings into the evaluated per-tick sample:
    // cumulative signals become deltas, the verdict-latency peak is
    // folded into the tenant histogram and judged by its p99.
    HealthSample sample = raw;
    for (std::size_t i = 0; i < kNumHealthSignals; ++i) {
        const auto signal = static_cast<HealthSignal>(i);
        if (is_cumulative(signal)) {
            const std::uint64_t cur = raw.values[i];
            const std::uint64_t prev = tenant->prev_raw[i];
            sample.values[i] = cur > prev ? cur - prev : 0;
            tenant->prev_raw[i] = cur;
        }
    }
    const std::uint64_t latency_peak =
        raw.get(HealthSignal::kVerdictLatency);
    if (latency_peak != 0)
        tenant->verdict_latency.sample(latency_peak);
    sample.set(HealthSignal::kVerdictLatency,
               tenant->verdict_latency.count() != 0
                   ? tenant->verdict_latency.p99()
                   : 0);
    tenant->last = sample;

    for (RuleRuntime& rr : tenant->rules) {
        const std::uint64_t value = sample.get(rr.rule.signal);

        // A relative rule cannot judge deviation before it has seen
        // normal: the opening sample primes the baseline and is never
        // judged itself (startup transients — replay lag while the CR
        // warms up — would otherwise flag every tenant at tick one).
        if (rr.rule.degraded_x > 0.0 && !rr.ewma_primed) {
            rr.ewma = static_cast<double>(value);
            rr.ewma_primed = true;
            continue;
        }

        std::uint64_t degraded_at = rr.rule.degraded_at;
        std::uint64_t critical_at = rr.rule.critical_at;
        if (rr.rule.degraded_x > 0.0) {
            degraded_at = std::max<std::uint64_t>(
                rr.rule.baseline_floor,
                static_cast<std::uint64_t>(rr.ewma * rr.rule.degraded_x));
            critical_at = std::max<std::uint64_t>(
                rr.rule.baseline_floor,
                static_cast<std::uint64_t>(rr.ewma * rr.rule.critical_x));
            critical_at = std::max(critical_at, degraded_at);
        }

        HealthState inst = HealthState::kHealthy;
        if (critical_at != 0 && value >= critical_at)
            inst = HealthState::kCritical;
        else if (degraded_at != 0 && value >= degraded_at)
            inst = HealthState::kDegraded;

        // Baselines learn only from quiet samples: a breach must not
        // drag the baseline up until the breach stops being one.
        if (rr.rule.degraded_x > 0.0 && inst == HealthState::kHealthy &&
            rr.level == HealthState::kHealthy) {
            rr.ewma += kEwmaAlpha * (static_cast<double>(value) - rr.ewma);
        }

        HealthState next = rr.level;
        if (inst > rr.level) {
            rr.clear_streak = 0;
            if (++rr.escalate_streak >= rr.rule.breach_samples)
                next = inst;
        } else if (inst < rr.level) {
            rr.escalate_streak = 0;
            if (++rr.clear_streak >= rr.rule.clear_samples)
                next = inst;
        } else {
            rr.escalate_streak = 0;
            rr.clear_streak = 0;
        }

        if (next != rr.level) {
            HealthEvent event;
            event.tick = ticks_;
            event.tenant = tenant->name;
            event.signal = rr.rule.signal;
            event.from = rr.level;
            event.to = next;
            event.value = value;
            event.threshold =
                next >= HealthState::kCritical ? critical_at : degraded_at;
            fired->push_back(std::move(event));
            rr.level = next;
            rr.escalate_streak = 0;
            rr.clear_streak = 0;
        }
    }

    HealthState overall = HealthState::kHealthy;
    for (const RuleRuntime& rr : tenant->rules)
        overall = std::max(overall, rr.level);
    if (overall != tenant->state) {
        tenant->state = overall;
        ++tenant->transitions;
    }
    tenant->worst = std::max(tenant->worst, tenant->state);
}

void
HealthMonitor::tick()
{
    std::lock_guard<std::mutex> tick_lock(tick_mu_);

    // Snapshot the sampler list, then poll outside mu_ — samplers read
    // live pipeline state and must not nest under the monitor lock.
    std::vector<TenantRuntime*> tenants;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& tenant : tenants_)
            tenants.push_back(tenant.get());
    }
    std::vector<HealthSample> raws;
    raws.reserve(tenants.size());
    for (TenantRuntime* tenant : tenants)
        raws.push_back(tenant->sampler());

    std::vector<HealthEvent> fired;
    std::vector<std::pair<std::string, HealthSample>> evaluated;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < tenants.size(); ++i)
            evaluate_tenant(tenants[i], raws[i], &fired);
        ++ticks_;

        for (TenantRuntime* tenant : tenants) {
            const std::string prefix = "tenant." + tenant->name + ".health.";
            live_.gauge(prefix + "state")
                .set(ticks_, static_cast<std::uint64_t>(tenant->state));
            live_.gauge(prefix + "worst")
                .set(ticks_, static_cast<std::uint64_t>(tenant->worst));
            live_.gauge(prefix + "transitions")
                .set(ticks_, tenant->transitions);
            for (std::size_t s = 0; s < kNumHealthSignals; ++s) {
                live_.gauge(prefix + health_signal_name(
                                         static_cast<HealthSignal>(s)))
                    .set(ticks_, tenant->last.values[s]);
            }
            evaluated.emplace_back(tenant->name, tenant->last);
        }

        for (const HealthEvent& event : fired) {
            if (events_.size() < 4096)
                events_.push_back(event);
        }
    }

    // Trace and flight-recorder writes happen outside mu_: the recorder
    // takes its own lock, and nothing here needs the monitor's.
    for (const HealthEvent& event : fired) {
        Tracer::instance().instant("health.transition", "health", "state",
                                   static_cast<std::uint64_t>(event.to));
        if (flight_ == nullptr)
            continue;
        flight_->record(FlightEntryKind::kTransition, event.tenant,
                        health_signal_name(event.signal), event.value,
                        event.to_string());
        if (event.to == HealthState::kCritical)
            flight_->dump("slo-breach:" + event.tenant);
    }
    if (flight_ == nullptr)
        return;
    for (const auto& [tenant, sample] : evaluated) {
        std::ostringstream detail;
        for (std::size_t s = 0; s < kNumHealthSignals; ++s) {
            if (s != 0)
                detail << " ";
            detail << health_signal_name(static_cast<HealthSignal>(s)) << "="
                   << sample.values[s];
        }
        flight_->record(FlightEntryKind::kSample, tenant, "signals",
                        sample.get(HealthSignal::kQueueDepth), detail.str());
    }
}

HealthState
HealthMonitor::state(const std::string& tenant) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& runtime : tenants_) {
        if (runtime->name == tenant)
            return runtime->state;
    }
    return HealthState::kHealthy;
}

HealthState
HealthMonitor::worst(const std::string& tenant) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& runtime : tenants_) {
        if (runtime->name == tenant)
            return runtime->worst;
    }
    return HealthState::kHealthy;
}

std::vector<HealthEvent>
HealthMonitor::events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

std::uint64_t
HealthMonitor::ticks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ticks_;
}

std::string
HealthMonitor::healthz_json() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"ticks\": " + std::to_string(ticks_);
    out += ", \"tenants\": {";
    bool first = true;
    for (const auto& tenant : tenants_) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"";
        append_json_escaped(&out, tenant->name);
        out += "\": {";
        out += "\"state\": \"";
        out += health_state_name(tenant->state);
        out += "\", \"worst\": \"";
        out += health_state_name(tenant->worst);
        out += "\", \"transitions\": " + std::to_string(tenant->transitions);
        out += ", \"signals\": {";
        for (std::size_t s = 0; s < kNumHealthSignals; ++s) {
            if (s != 0)
                out += ", ";
            out += "\"";
            out += health_signal_name(static_cast<HealthSignal>(s));
            out += "\": " + std::to_string(tenant->last.values[s]);
        }
        out += "}}";
    }
    out += "}}";
    return out;
}

std::string
HealthMonitor::metrics_prometheus() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return MetricsExporter(live_).to_prometheus();
}

void
HealthMonitor::export_metrics(stats::StatRegistry* out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // live_ holds gauges only, so this never touches the deterministic
    // counter snapshot.
    (void)out->merge(live_);
}

}  // namespace rsafe::obs
