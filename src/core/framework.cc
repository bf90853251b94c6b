#include "core/framework.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.h"
#include "fleet/fleet.h"

namespace rsafe::core {

namespace {

/** The tenant a solo run reports as (health plane, metric namespace). */
constexpr const char* kTenantName = "pipeline";

}  // namespace

RnrSafeFramework::RnrSafeFramework(VmFactory factory, FrameworkConfig config)
    : factory_(std::move(factory)), config_(std::move(config))
{
    if (!factory_)
        fatal("RnrSafeFramework: null VM factory");
}

FrameworkResult
RnrSafeFramework::run()
{
    return run_tenant(nullptr);
}

FrameworkResult
RnrSafeFramework::run_tenant(std::shared_ptr<const rnr::InputLog> log)
{
    // A fresh fleet per call: ReplayFleet::run() runs once.
    fleet::FleetOptions options;
    options.workers = config_.pipeline == PipelineMode::kSerial
                          ? 1
                          : std::max<std::size_t>(1, config_.ar_workers);
    options.tenant_inflight_cap = options.workers;
    options.health = config_.health;
    options.telemetry = config_.telemetry;
    fleet::ReplayFleet fleet({{kTenantName, factory_, config_, std::move(log)}},
                             options);
    fleet::FleetResult out = fleet.run();

    FrameworkResult result = std::move(out.tenants.front().result);
    // The health plane's outputs. Its tenant.pipeline.health.* entries are
    // gauges, so the deterministic counter snapshot stays untouched.
    const std::string health_prefix =
        std::string("tenant.") + kTenantName + ".health.";
    for (const auto& [name, gauge] : out.metrics.gauges())
        if (name.compare(0, health_prefix.size(), health_prefix) == 0)
            result.pipeline_stats.gauge(name).merge(gauge);
    result.healthz = std::move(out.healthz);
    result.health_events = std::move(out.health_events);
    result.flight_box = std::move(out.flight_box);
    return result;
}

FrameworkResult
RnrSafeFramework::replay_wire(const std::vector<std::uint8_t>& bytes)
{
    // Deserialize tolerantly: a damaged image yields its longest intact
    // record prefix plus a forensic report of what was lost. The CR then
    // stops at the corruption boundary (the log simply ends there)
    // instead of the whole pipeline aborting.
    auto log = std::make_shared<rnr::InputLog>();
    const rnr::wire::LoadReport report =
        rnr::InputLog::deserialize_tolerant(bytes, log.get());
    FrameworkResult result = run_tenant(std::move(log));
    result.log_integrity = report;

    if (!result.log_integrity.intact()) {
        // Surface the damage as a first-class alarm: replay verdicts
        // derived from a non-intact log only cover the recovered prefix,
        // and tampering cannot be ruled out.
        replay::AlarmAnalysis integrity;
        integrity.is_attack = false;
        integrity.cause = replay::AlarmCause::kLogIntegrity;
        integrity.report = "input log integrity failure: " +
                           result.log_integrity.to_string();
        result.alarms.add(std::move(integrity));
        result.pipeline_stats.counter("log.integrity_failures").inc();
    }
    return result;
}

}  // namespace rsafe::core
