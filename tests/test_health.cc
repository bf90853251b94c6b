/**
 * @file
 * Tests for the fleet health plane: the flight recorder's black-box
 * ring and wire codec, the HealthMonitor SLO state machine (driven
 * tick-by-tick, no wall clock), the telemetry endpoint, the off
 * switches, and the fleet-level passivity gate (monitor on/off runs are
 * bit-identical).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/framework.h"
#include "fleet/fleet.h"
#include "obs/flight_recorder.h"
#include "obs/forensic.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

using obs::FlightBox;
using obs::FlightEntryKind;
using obs::FlightRecorder;
using obs::HealthMonitor;
using obs::HealthOptions;
using obs::HealthSample;
using obs::HealthSignal;
using obs::HealthState;
using obs::SloRule;

// ---------------------------------------------------------------------
// Flight recorder: ring semantics and wire codec.

TEST(FlightBox, RoundTripsThroughTheWire)
{
    FlightBox box;
    box.reason = "attack-verdict:tenant-a";
    box.total_appended = 12;
    box.dropped = 7;
    obs::FlightEntry entry;
    entry.kind = FlightEntryKind::kVerdict;
    entry.t_ms = 1234;
    entry.tenant = "tenant-a";
    entry.label = "attack";
    entry.value = 99;
    entry.detail = "quote \" slash \\ newline \n tab \t";
    box.entries.push_back(entry);
    entry.kind = FlightEntryKind::kNote;
    entry.detail.clear();
    box.entries.push_back(entry);

    const auto bytes = box.serialize();
    FlightBox back;
    ASSERT_TRUE(FlightBox::deserialize(bytes, &back).ok());
    EXPECT_EQ(back.reason, box.reason);
    EXPECT_EQ(back.total_appended, 12u);
    EXPECT_EQ(back.dropped, 7u);
    ASSERT_EQ(back.entries.size(), 2u);
    EXPECT_EQ(back.entries[0].kind, FlightEntryKind::kVerdict);
    EXPECT_EQ(back.entries[0].detail, box.entries[0].detail);
    EXPECT_EQ(back.entries[1].kind, FlightEntryKind::kNote);

    // Serialization is canonical: decode -> encode is the identity.
    EXPECT_EQ(back.serialize(), bytes);

    // The renderings carry the payload (and escape the JSON).
    EXPECT_NE(box.to_string().find("attack-verdict:tenant-a"),
              std::string::npos);
    EXPECT_NE(box.to_json().find("\\\""), std::string::npos);
}

TEST(FlightBox, DamageLandsInTheStatusTaxonomy)
{
    FlightBox box;
    box.reason = "slo-breach:t";
    obs::FlightEntry entry;
    entry.kind = FlightEntryKind::kSample;
    entry.tenant = "t";
    box.entries.push_back(entry);
    const auto bytes = box.serialize();

    // Truncation anywhere must fail cleanly, never crash.
    for (std::size_t cut : {std::size_t{1}, bytes.size() / 2,
                            bytes.size() - 1}) {
        const std::vector<std::uint8_t> head(bytes.begin(),
                                             bytes.begin() + cut);
        FlightBox out;
        EXPECT_FALSE(FlightBox::deserialize(head, &out).ok());
    }

    // A mid-payload bit flip breaks the frame CRC.
    auto flipped = bytes;
    flipped[flipped.size() - 3] ^= 0x40;
    FlightBox out;
    EXPECT_FALSE(FlightBox::deserialize(flipped, &out).ok());
}

TEST(FlightBox, RejectsOutOfRangeEntryKind)
{
    // serialize() encodes whatever kind it is handed; the decoder is
    // the one that must hold the line.
    FlightBox box;
    box.reason = "r";
    obs::FlightEntry entry;
    entry.kind = static_cast<FlightEntryKind>(9);
    box.entries.push_back(entry);
    FlightBox out;
    const Status status = FlightBox::deserialize(box.serialize(), &out);
    EXPECT_EQ(status.code(), StatusCode::kMalformedRecord);
}

TEST(FlightRecorder, RingShedsOldestAndDumpsInOrder)
{
    FlightRecorder recorder(/*capacity=*/4);
    for (int i = 0; i < 10; ++i)
        recorder.record(FlightEntryKind::kNote, "t", "n",
                        static_cast<std::uint64_t>(i));
    EXPECT_EQ(recorder.appended(), 10u);

    const FlightBox box = recorder.dump("test");
    EXPECT_EQ(box.total_appended, 10u);
    EXPECT_EQ(box.dropped, 6u);
    ASSERT_EQ(box.entries.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(box.entries[i].value, 6 + i);  // oldest first

    EXPECT_EQ(recorder.dumps(), 1u);
    EXPECT_FALSE(recorder.latest().empty());
    FlightBox back;
    ASSERT_TRUE(FlightBox::deserialize(recorder.latest(), &back).ok());
    EXPECT_EQ(back.entries.size(), 4u);
}

// ---------------------------------------------------------------------
// HealthMonitor: the SLO state machine, driven deterministically.

/** A monitor over one tenant whose queue depth the test dials. */
struct MonitorHarness {
    std::atomic<std::uint64_t> queue_depth{0};
    HealthMonitor monitor;

    explicit MonitorHarness(HealthOptions options,
                            FlightRecorder* flight = nullptr)
        : monitor(std::move(options), flight)
    {
        monitor.add_tenant("t", [this] {
            HealthSample sample;
            sample.set(HealthSignal::kQueueDepth,
                       queue_depth.load(std::memory_order_relaxed));
            return sample;
        });
    }
};

HealthOptions
absolute_queue_rule(std::uint32_t breach, std::uint32_t clear)
{
    HealthOptions options;
    options.enabled = true;
    SloRule rule;
    rule.signal = HealthSignal::kQueueDepth;
    rule.degraded_at = 5;
    rule.critical_at = 10;
    rule.breach_samples = breach;
    rule.clear_samples = clear;
    options.rules = {rule};
    return options;
}

TEST(HealthMonitor, EscalatesAndRecoversWithHysteresis)
{
    MonitorHarness h(absolute_queue_rule(/*breach=*/2, /*clear=*/3));

    h.monitor.tick();
    EXPECT_EQ(h.monitor.state("t"), HealthState::kHealthy);

    // One breached tick is noise; the second confirms it.
    h.queue_depth = 6;
    h.monitor.tick();
    EXPECT_EQ(h.monitor.state("t"), HealthState::kHealthy);
    h.monitor.tick();
    EXPECT_EQ(h.monitor.state("t"), HealthState::kDegraded);

    // Critical needs its own confirmed streak.
    h.queue_depth = 20;
    h.monitor.tick();
    EXPECT_EQ(h.monitor.state("t"), HealthState::kDegraded);
    h.monitor.tick();
    EXPECT_EQ(h.monitor.state("t"), HealthState::kCritical);

    // Recovery is slower than escalation: three clean ticks.
    h.queue_depth = 0;
    h.monitor.tick();
    h.monitor.tick();
    EXPECT_EQ(h.monitor.state("t"), HealthState::kCritical);
    h.monitor.tick();
    EXPECT_EQ(h.monitor.state("t"), HealthState::kHealthy);
    EXPECT_EQ(h.monitor.worst("t"), HealthState::kCritical);

    const auto events = h.monitor.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].to, HealthState::kDegraded);
    EXPECT_EQ(events[1].to, HealthState::kCritical);
    EXPECT_EQ(events[2].to, HealthState::kHealthy);
    EXPECT_EQ(events[1].threshold, 10u);
    EXPECT_FALSE(events[0].to_string().empty());
}

TEST(HealthMonitor, InterruptedBreachStreakDoesNotEscalate)
{
    MonitorHarness h(absolute_queue_rule(/*breach=*/2, /*clear=*/1));
    h.queue_depth = 6;
    h.monitor.tick();  // streak 1
    h.queue_depth = 0;
    h.monitor.tick();  // streak broken
    h.queue_depth = 6;
    h.monitor.tick();  // streak 1 again
    EXPECT_EQ(h.monitor.state("t"), HealthState::kHealthy);
    EXPECT_TRUE(h.monitor.events().empty());
}

TEST(HealthMonitor, TickWritesSamplesTransitionsAndTheBreachDump)
{
    FlightRecorder flight;
    MonitorHarness h(absolute_queue_rule(/*breach=*/1, /*clear=*/1),
                     &flight);

    // Healthy: one sample entry per tick, nothing else.
    h.monitor.tick();
    EXPECT_EQ(flight.appended(), 1u);
    h.queue_depth = 6;  // degraded: a transition, but no dump
    h.monitor.tick();
    EXPECT_EQ(flight.appended(), 3u);
    EXPECT_EQ(flight.dumps(), 0u);

    // Critical: the transition is recorded, then the box is dumped, then
    // the tick's sample lands after the dump.
    h.queue_depth = 20;
    h.monitor.tick();
    EXPECT_EQ(flight.appended(), 5u);
    ASSERT_EQ(flight.dumps(), 1u);
    FlightBox box;
    ASSERT_TRUE(FlightBox::deserialize(flight.latest(), &box).ok());
    EXPECT_EQ(box.reason, "slo-breach:t");
    ASSERT_EQ(box.entries.size(), 4u);

    const auto events = h.monitor.events();
    ASSERT_EQ(events.size(), 2u);
    const FlightEntryKind kinds[] = {
        FlightEntryKind::kSample, FlightEntryKind::kTransition,
        FlightEntryKind::kSample, FlightEntryKind::kTransition};
    const std::uint64_t values[] = {0, 6, 6, 20};
    for (std::size_t i = 0; i < box.entries.size(); ++i) {
        const obs::FlightEntry& entry = box.entries[i];
        EXPECT_EQ(entry.kind, kinds[i]) << i;
        EXPECT_EQ(entry.tenant, "t") << i;
        EXPECT_EQ(entry.value, values[i]) << i;
        if (entry.kind == FlightEntryKind::kSample) {
            EXPECT_EQ(entry.label, "signals");
            EXPECT_NE(entry.detail.find(
                          "queue_depth=" + std::to_string(values[i])),
                      std::string::npos)
                << entry.detail;
        } else {
            EXPECT_EQ(entry.label, "queue_depth");
            EXPECT_EQ(entry.detail, events[i / 2].to_string());
        }
    }
    EXPECT_EQ(events[0].to, HealthState::kDegraded);
    EXPECT_EQ(events[1].to, HealthState::kCritical);

    // A second critical tick is no new transition, so no second dump.
    h.monitor.tick();
    EXPECT_EQ(flight.dumps(), 1u);
    EXPECT_EQ(flight.appended(), 6u);
}

TEST(HealthMonitor, RelativeRulePrimesThenTracksTheBaseline)
{
    HealthOptions options;
    options.enabled = true;
    SloRule rule;
    rule.signal = HealthSignal::kReplayLag;
    rule.degraded_x = 2.0;
    rule.critical_x = 8.0;
    rule.baseline_floor = 10;
    rule.breach_samples = 1;
    rule.clear_samples = 1;
    options.rules = {rule};

    std::atomic<std::uint64_t> lag{1000};
    HealthMonitor monitor(options);
    monitor.add_tenant("t", [&lag] {
        HealthSample sample;
        sample.set(HealthSignal::kReplayLag,
                   lag.load(std::memory_order_relaxed));
        return sample;
    });

    // A huge startup transient is the *baseline*, not a breach.
    monitor.tick();
    EXPECT_EQ(monitor.state("t"), HealthState::kHealthy);
    monitor.tick();  // 1000 vs 2x1000: still healthy
    EXPECT_EQ(monitor.state("t"), HealthState::kHealthy);

    lag = 2500;  // > 2x baseline, < 8x
    monitor.tick();
    EXPECT_EQ(monitor.state("t"), HealthState::kDegraded);

    lag = 9000;  // > 8x baseline -> critical (baseline never learned
    monitor.tick();  // from the breached samples)
    EXPECT_EQ(monitor.state("t"), HealthState::kCritical);

    lag = 900;
    monitor.tick();
    EXPECT_EQ(monitor.state("t"), HealthState::kHealthy);
}

TEST(HealthMonitor, HealthzAndGaugesCoverEveryTenant)
{
    MonitorHarness h(absolute_queue_rule(1, 1));
    h.queue_depth = 20;
    h.monitor.tick();

    const std::string healthz = h.monitor.healthz_json();
    EXPECT_NE(healthz.find("\"t\""), std::string::npos);
    EXPECT_NE(healthz.find("\"critical\""), std::string::npos);
    EXPECT_NE(healthz.find("queue_depth"), std::string::npos);

    stats::StatRegistry out;
    h.monitor.export_metrics(&out);
    EXPECT_EQ(out.gauges().at("tenant.t.health.state").last(), 2u);
    EXPECT_EQ(out.gauges().at("tenant.t.health.queue_depth").last(), 20u);
    // Passivity: the export added no counters, so the deterministic
    // snapshot is untouched.
    EXPECT_TRUE(out.snapshot().empty());

    EXPECT_NE(h.monitor.metrics_prometheus().find("rsafe_"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// JSON escaping: every obs emitter shares one escaper.

TEST(ObsJson, EveryEmitterEscapesQuotesBackslashesAndControlBytes)
{
    // A quote, a backslash, a carriage return and a raw 0x01 byte.
    const std::string nasty = "a\"b\\c\rd\x01" "e";
    const std::string escaped = "a\\\"b\\\\c\\rd\\u0001e";
    std::string direct;
    obs::append_json_escaped(&direct, nasty);
    EXPECT_EQ(direct, escaped);

    // /healthz, keyed by tenant name.
    HealthMonitor monitor(absolute_queue_rule(1, 1));
    monitor.add_tenant(nasty, [] { return HealthSample(); });
    monitor.tick();
    EXPECT_NE(monitor.healthz_json().find("\"" + escaped + "\": {"),
              std::string::npos)
        << monitor.healthz_json();

    // Metrics JSON, under the tenant's namespace.
    stats::StatRegistry registry;
    registry.counter("tenant." + nasty + ".ar.replays").inc();
    const std::string metrics = obs::MetricsExporter(registry).to_json();
    EXPECT_NE(metrics.find("\"tenant." + escaped + ".ar.replays\": 1"),
              std::string::npos)
        << metrics;

    // The flight box: tenant and label.
    FlightBox box;
    obs::FlightEntry entry;
    entry.tenant = nasty;
    entry.label = nasty;
    box.entries.push_back(entry);
    const std::string flight = box.to_json();
    EXPECT_NE(flight.find("\"tenant\": \"" + escaped + "\""),
              std::string::npos)
        << flight;
    EXPECT_NE(flight.find("\"label\": \"" + escaped + "\""),
              std::string::npos)
        << flight;

    // A forensic report naming the tenant's function.
    obs::ForensicReport report;
    report.faulting_function = nasty;
    const std::string forensic = report.to_json();
    EXPECT_NE(forensic.find("\"faulting_function\": \"" + escaped + "\""),
              std::string::npos)
        << forensic;

    // The Chrome trace, on a thread named after the tenant.
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_enabled(true);
    tracer.begin_session();
    std::thread([&] {
        tracer.attach_thread(nasty.c_str());
        tracer.instant("tenant.tick", "test");
    }).join();
    const std::string trace = tracer.export_chrome_json();
    tracer.set_enabled(false);
    EXPECT_NE(trace.find("\"name\":\"" + escaped + "\""), std::string::npos)
        << trace;
    std::string error;
    EXPECT_TRUE(obs::validate_trace_json(trace, &error)) << error;
}

TEST(HealthMonitor, KillSwitchAndEmptyMonitorStayInert)
{
    // enabled = false wins over configured rules and a live tenant.
    HealthOptions killed = absolute_queue_rule(1, 1);
    killed.enabled = false;
    MonitorHarness configured(killed);
    EXPECT_FALSE(configured.monitor.live());
    EXPECT_FALSE(configured.monitor.start());

    HealthOptions off;
    off.enabled = false;
    HealthMonitor disabled(off);
    disabled.add_tenant("t", [] { return HealthSample(); });
    EXPECT_FALSE(disabled.start());
    EXPECT_FALSE(disabled.running());
    disabled.stop();  // idempotent without a start

    HealthMonitor tenantless(absolute_queue_rule(1, 1));
    EXPECT_FALSE(tenantless.start());
}

TEST(HealthMonitor, SamplingThreadTicksAndStops)
{
    HealthOptions options = absolute_queue_rule(1, 1);
    options.cadence_ms = 1;
    MonitorHarness h(options);
    h.queue_depth = 20;
    ASSERT_TRUE(h.monitor.start());
    EXPECT_TRUE(h.monitor.running());
    while (h.monitor.ticks() < 3)
        std::this_thread::yield();
    h.monitor.stop();
    EXPECT_FALSE(h.monitor.running());
    EXPECT_GE(h.monitor.ticks(), 3u);
    EXPECT_EQ(h.monitor.worst("t"), HealthState::kCritical);
    const auto after = h.monitor.ticks();
    h.monitor.stop();  // idempotent
    EXPECT_EQ(h.monitor.ticks(), after);
}

TEST(HealthMonitor, StopDoesNotWaitOutTheCadence)
{
    // A run shorter than one cadence must not last a whole cadence: stop()
    // wakes the sampling thread's sleep instead of joining after it.
    HealthOptions options = absolute_queue_rule(1, 1);
    options.cadence_ms = 600000;
    MonitorHarness h(options);
    ASSERT_TRUE(h.monitor.start());
    while (h.monitor.ticks() < 1)
        std::this_thread::yield();
    const auto begin = std::chrono::steady_clock::now();
    h.monitor.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(60));
    EXPECT_FALSE(h.monitor.running());
    EXPECT_EQ(h.monitor.ticks(), 2u);  // the loop's first, stop()'s final
}

// ---------------------------------------------------------------------
// Telemetry endpoint.

/** One blocking HTTP/1.0 GET against 127.0.0.1:@p port. */
std::string
http_get(std::uint16_t port, const std::string& path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return "";
    }
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    (void)::send(fd, request.data(), request.size(), 0);
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(Telemetry, ServesAllThreeRoutesAndSnapshotsOnStop)
{
    const std::string dir = ::testing::TempDir() + "rsafe_telemetry";
    std::filesystem::create_directories(dir);

    obs::TelemetryOptions options;
    options.enabled = true;
    options.snapshot_dir = dir;
    obs::TelemetryProviders providers;
    providers.metrics = [] { return std::string("rsafe_up 1\n"); };
    providers.healthz = [] { return std::string("{\"ok\": true}"); };
    providers.flight = [] {
        FlightBox box;
        box.reason = "test";
        return box.serialize();
    };
    obs::TelemetryServer server(options, providers);
    if (!server.start())
        GTEST_SKIP() << "no usable loopback socket in this environment";
    ASSERT_NE(server.port(), 0);

    const std::string metrics = http_get(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("rsafe_up 1"), std::string::npos);

    const std::string healthz = http_get(server.port(), "/healthz");
    EXPECT_NE(healthz.find("application/json"), std::string::npos);
    EXPECT_NE(healthz.find("{\"ok\": true}"), std::string::npos);

    const std::string flight = http_get(server.port(), "/flight");
    EXPECT_NE(flight.find("octet-stream"), std::string::npos);

    EXPECT_NE(http_get(server.port(), "/nope").find("404"),
              std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());

    // The offline twin: every route snapshotted as a file.
    for (const char* name :
         {"telemetry.port", "metrics.prom", "healthz.json", "flight.bin"}) {
        std::ifstream in(dir + "/" + name);
        EXPECT_TRUE(in.good()) << name;
    }
}

TEST(Telemetry, KillSwitchKeepsTheSocketClosed)
{
    obs::TelemetryOptions options;
    options.enabled = false;
    obs::TelemetryProviders providers;
    providers.metrics = [] { return std::string(); };
    providers.healthz = [] { return std::string(); };
    providers.flight = [] { return std::vector<std::uint8_t>(); };
    obs::TelemetryServer server(options, providers);
    EXPECT_FALSE(server.start());
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), 0);
    server.stop();
}

// ---------------------------------------------------------------------
// Fleet integration: the plane observes, never perturbs.

core::FrameworkConfig
streamed_config()
{
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    config.cr.checkpoint_interval = 250'000;
    return config;
}

core::VmFactory
storm_factory()
{
    workloads::AttackMixOptions options;
    options.attackers = 6;
    options.iterations_per_task = 120;
    return workloads::attack_mix(options).factory;
}

/** The determinism fields the on/off gate compares. */
struct Digest {
    std::size_t alarms_logged = 0;
    std::size_t alarm_replays = 0;
    bool attack = false;
    std::uint64_t rec_hash = 0;
    std::uint64_t cr_hash = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<int> causes;

    bool operator==(const Digest&) const = default;
};

Digest
digest(const core::FrameworkResult& result)
{
    Digest d;
    d.alarms_logged = result.alarms_logged;
    d.alarm_replays = result.ar_results.size();
    d.attack = result.alarms.attack_detected();
    d.rec_hash = result.recorded_vm->state_hash();
    d.cr_hash = result.cr_vm->state_hash();
    d.counters = result.pipeline_stats.snapshot();
    for (const auto& ar : result.ar_results)
        d.causes.push_back(static_cast<int>(ar.analysis.cause));
    return d;
}

TEST(FleetHealth, StormTenantGoesCriticalAndTheBoxRoundTrips)
{
    // A storming tenant over a one-worker pool: the alarm backlog has
    // to cross the queue-depth rule, the monitor has to flag it, and
    // the attack verdict has to dump a decodable flight box.
    std::vector<fleet::FleetTenant> tenants;
    tenants.push_back({"storm", storm_factory(), streamed_config()});

    fleet::FleetOptions options;
    options.workers = 1;
    options.health.enabled = true;
    options.health.cadence_ms = 2;
    SloRule rule;
    rule.signal = HealthSignal::kQueueDepth;
    rule.degraded_at = 2;
    rule.critical_at = 4;
    rule.breach_samples = 1;
    rule.clear_samples = 4;
    options.health.rules = {rule};

    fleet::ReplayFleet fleet(std::move(tenants), options);
    const fleet::FleetResult result = fleet.run();

    ASSERT_EQ(result.tenants.size(), 1u);
    EXPECT_TRUE(result.tenants[0].result.alarms.attack_detected());

    // The tenant tripped the rule at some point during the run.
    bool went_unhealthy = false;
    for (const auto& event : result.health_events)
        if (event.tenant == "storm" && event.to != HealthState::kHealthy)
            went_unhealthy = true;
    EXPECT_TRUE(went_unhealthy);
    EXPECT_NE(result.healthz.find("\"storm\""), std::string::npos);

    // The attack verdict black-boxed the run.
    ASSERT_FALSE(result.flight_box.empty());
    FlightBox box;
    ASSERT_TRUE(FlightBox::deserialize(result.flight_box, &box).ok());
    EXPECT_NE(box.reason.find("attack-verdict"), std::string::npos);
    EXPECT_FALSE(box.entries.empty());

    // Health gauges landed in the fleet registry, counters untouched.
    EXPECT_NE(result.metrics.gauges().count("tenant.storm.health.state"),
              0u);
}

TEST(FleetHealth, MonitorOnOffRunsAreBitIdentical)
{
    // The passivity gate: the same two-tenant fleet with the plane off
    // and on (fast cadence, telemetry included) produces bit-identical
    // verdicts, hashes and counter snapshots per tenant.
    const auto build_tenants = [] {
        std::vector<fleet::FleetTenant> tenants;
        workloads::AttackMixOptions mix;
        mix.iterations_per_task = 120;
        tenants.push_back(
            {"attack", workloads::attack_mix(mix).factory,
             streamed_config()});
        auto profile = workloads::benchmark_profile("mysql");
        profile.iterations_per_task = 100;
        tenants.push_back(
            {"mysql", workloads::vm_factory(profile), streamed_config()});
        return tenants;
    };

    fleet::FleetOptions off;
    off.workers = 2;
    fleet::ReplayFleet fleet_off(build_tenants(), off);
    const fleet::FleetResult result_off = fleet_off.run();

    fleet::FleetOptions on = off;
    on.health.enabled = true;
    on.health.cadence_ms = 1;
    on.telemetry.enabled = true;
    fleet::ReplayFleet fleet_on(build_tenants(), on);
    const fleet::FleetResult result_on = fleet_on.run();

    ASSERT_EQ(result_off.tenants.size(), result_on.tenants.size());
    for (std::size_t i = 0; i < result_off.tenants.size(); ++i) {
        EXPECT_EQ(digest(result_off.tenants[i].result),
                  digest(result_on.tenants[i].result))
            << result_off.tenants[i].name;
    }

    // The plane produced its outputs without touching the above.
    EXPECT_FALSE(result_on.healthz.empty());
    EXPECT_FALSE(result_on.flight_box.empty());
    EXPECT_TRUE(result_off.healthz.empty());
    EXPECT_TRUE(result_off.flight_box.empty());
}

TEST(FrameworkHealth, SoloPipelineCarriesThePlane)
{
    // The single-framework wiring: one "pipeline" tenant, same plane.
    workloads::AttackMixOptions mix;
    mix.iterations_per_task = 120;
    core::FrameworkConfig config = streamed_config();
    config.health.enabled = true;
    config.health.cadence_ms = 2;
    core::RnrSafeFramework framework(workloads::attack_mix(mix).factory,
                                     config);
    const core::FrameworkResult result = framework.run();

    EXPECT_TRUE(result.alarms.attack_detected());
    EXPECT_NE(result.healthz.find("\"pipeline\""), std::string::npos);
    ASSERT_FALSE(result.flight_box.empty());
    // The latest dump need not be the attack's own: an slo-breach dump
    // may follow it. Whichever it is, the attack verdict is in the box.
    FlightBox box;
    ASSERT_TRUE(FlightBox::deserialize(result.flight_box, &box).ok());
    const auto attack_verdict = std::find_if(
        box.entries.begin(), box.entries.end(),
        [](const obs::FlightEntry& entry) {
            return entry.kind == FlightEntryKind::kVerdict &&
                   entry.tenant == "pipeline" && entry.label == "attack";
        });
    EXPECT_NE(attack_verdict, box.entries.end());
}

TEST(FrameworkHealth, SoloGaugesLandInThePipelineStats)
{
    // The facade copies the fleet's tenant.pipeline.health.* gauges into
    // the result it returns; the counter snapshot gains nothing.
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 100;
    core::FrameworkConfig config = streamed_config();
    core::RnrSafeFramework off(workloads::vm_factory(profile), config);
    const core::FrameworkResult result_off = off.run();

    config.health.enabled = true;
    config.health.cadence_ms = 1;
    core::RnrSafeFramework on(workloads::vm_factory(profile), config);
    const core::FrameworkResult result_on = on.run();

    const auto& gauges = result_on.pipeline_stats.gauges();
    EXPECT_NE(gauges.count("tenant.pipeline.health.state"), 0u);
    EXPECT_EQ(result_off.pipeline_stats.gauges().count(
                  "tenant.pipeline.health.state"),
              0u);
    EXPECT_EQ(result_on.pipeline_stats.snapshot(),
              result_off.pipeline_stats.snapshot());
}

}  // namespace
}  // namespace rsafe
