#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/framework.h"
#include "fleet/fleet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

/**
 * @file
 * rsafe-report: observability driver for the Figure 1 pipeline.
 *
 * Runs the replay half of the pipeline over a shipped .rnrlog (or runs
 * the full record+replay pipeline live) with tracing enabled, and
 * renders what the run produced:
 *
 *  - a Chrome/Perfetto trace_event JSON file (--trace) whose flow
 *    arrows link each alarm raised by the CR to the AR span that
 *    classified it — load it in chrome://tracing or ui.perfetto.dev;
 *  - pipeline metrics (--metrics JSON, --prom Prometheus text):
 *    counters, latency histograms with p50/p95/p99, and the replay-lag
 *    time series;
 *  - per-alarm forensic reports (default text, --json for JSON):
 *    where the hijack happened, who mounted it, what was staged.
 *
 * The replayed VM must match the recorded one, so the workload that
 * produced the log is named on the command line: --attack-mix for the
 * shared attack mix (the golden attack.rnrlog), --workload <name> for a
 * golden Table 3 recording.
 */

namespace {

void
usage(std::ostream& os)
{
    os << "usage: rsafe-report [options]\n"
          "\n"
          "Replay a recorded log (or run the attack-mix pipeline live)\n"
          "and render its trace, metrics, and forensic alarm reports.\n"
          "\n"
          "input (pick the workload the log was recorded from):\n"
          "  --log <file.rnrlog>    replay this shipped log\n"
          "  --attack-mix           the shared attack-mix VM (default;\n"
          "                         without --log, records it live first)\n"
          "  --workload <name>      golden Table 3 VM (apache, fileio,\n"
          "                         make, mysql, radiosity)\n"
          "\n"
          "pipeline:\n"
          "  --serial               serial stage scheduling\n"
          "  --workers <n>          AR worker pool size (default 2)\n"
          "\n"
          "health plane:\n"
          "  --flight <file>        decode a flight-recorder dump and\n"
          "                         print it (then exit; --json for JSON)\n"
          "  --fleet-health         run an attack-mix fleet with the\n"
          "                         health plane + telemetry endpoint on;\n"
          "                         prints /healthz JSON to stdout\n"
          "  --snapshot-dir <dir>   telemetry file snapshots land here\n"
          "                         (fleet-health mode; default '.')\n"
          "  --hold-ms <n>          keep the telemetry endpoint up this\n"
          "                         long after the run (default 0)\n"
          "  --flight-out <file>    write the run's flight-box dump here\n"
          "\n"
          "output:\n"
          "  --trace <file>         write the Chrome/Perfetto trace JSON\n"
          "  --check-trace          validate the trace document and exit\n"
          "                         non-zero if it is malformed\n"
          "  --metrics <file>       write pipeline metrics as JSON\n"
          "  --prom <file>          write metrics in Prometheus format\n"
          "  --json                 render forensic reports as JSON\n"
          "  --no-forensics         skip the forensic report dump\n"
          "  -h, --help             show this message\n";
}

bool
read_file(const std::string& path, std::vector<std::uint8_t>* bytes)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return false;
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    bytes->resize(size);
    in.read(reinterpret_cast<char*>(bytes->data()),
            static_cast<std::streamsize>(size));
    return static_cast<bool>(in);
}

bool
write_text(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

bool
write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

/** Decode @p path as a flight-recorder dump and print it. */
int
show_flight(const std::string& path, bool json)
{
    using namespace rsafe;

    std::vector<std::uint8_t> bytes;
    if (!read_file(path, &bytes)) {
        std::cerr << "rsafe-report: cannot read " << path << "\n";
        return 1;
    }
    obs::FlightBox box;
    if (const Status s = obs::FlightBox::deserialize(bytes, &box);
        !s.ok()) {
        std::cerr << "rsafe-report: flight decode failed: " << s.to_string()
                  << "\n";
        return 1;
    }
    std::cout << (json ? box.to_json() + "\n" : box.to_string());
    return 0;
}

/**
 * The health-plane smoke run: a small fleet — one storming attack
 * tenant, two lightened benign tenants — over a deliberately narrow
 * shared pool, with the monitor and the telemetry endpoint live. The
 * attack tenant's alarm storm outruns two workers, so its queue-depth
 * rule escalates and the flight recorder dumps; the run fails loudly if
 * either signal never fires.
 */
int
run_fleet_health(const std::string& snapshot_dir, std::uint32_t hold_ms,
                 const std::string& flight_out)
{
    using namespace rsafe;

    core::FrameworkConfig tenant_config;
    tenant_config.pipeline = core::PipelineMode::kConcurrent;
    tenant_config.cr.checkpoint_interval = 250'000;

    std::vector<fleet::FleetTenant> tenants;
    workloads::AttackMixOptions storm;
    storm.attackers = 8;
    storm.iterations_per_task = 150;
    tenants.push_back(
        {"attacker", workloads::attack_mix(storm).factory, tenant_config});
    for (const char* name : {"mysql", "fileio"}) {
        auto profile = workloads::golden_profile(name);
        profile.iterations_per_task =
            std::max<std::uint64_t>(profile.iterations_per_task / 8, 200);
        profile.setjmp_prob = 0.025;  // a trickle of benign alarms
        tenants.push_back({std::string("benign-") + name,
                           workloads::vm_factory(profile), tenant_config});
    }

    fleet::FleetOptions options;
    options.workers = 2;  // narrow on purpose: let the storm queue up
    options.health.enabled = true;
    options.telemetry.enabled = true;
    options.telemetry.snapshot_dir = snapshot_dir;
    options.telemetry_linger_ms = hold_ms;

    fleet::ReplayFleet fleet(std::move(tenants), options);
    fleet::FleetResult result = fleet.run();

    std::cout << result.healthz << "\n";
    std::cerr << "rsafe-report: fleet-health: telemetry port "
              << result.telemetry_port << ", " << result.health_events.size()
              << " health events, flight box " << result.flight_box.size()
              << " bytes\n";

    if (!flight_out.empty() && !write_bytes(flight_out, result.flight_box)) {
        std::cerr << "rsafe-report: cannot write " << flight_out << "\n";
        return 1;
    }

    // The smoke contract: the attack tenant left healthy, an attack was
    // detected, and the flight dump decodes back losslessly.
    bool attacker_unhealthy = false;
    for (const auto& event : result.health_events) {
        if (event.tenant == "attacker" &&
            event.to != obs::HealthState::kHealthy)
            attacker_unhealthy = true;
    }
    if (!attacker_unhealthy) {
        std::cerr << "rsafe-report: fleet-health FAILED: attack tenant "
                     "never left healthy\n";
        return 1;
    }
    bool attack_found = false;
    for (const auto& tenant : result.tenants)
        if (tenant.name == "attacker" &&
            tenant.result.alarms.attack_detected())
            attack_found = true;
    if (!attack_found) {
        std::cerr << "rsafe-report: fleet-health FAILED: no attack "
                     "verdict on the attack tenant\n";
        return 1;
    }
    obs::FlightBox box;
    if (result.flight_box.empty() ||
        !obs::FlightBox::deserialize(result.flight_box, &box).ok() ||
        box.entries.empty()) {
        std::cerr << "rsafe-report: fleet-health FAILED: flight box "
                     "missing or undecodable\n";
        return 1;
    }
    std::cerr << "rsafe-report: fleet-health OK: flight box '" << box.reason
              << "' (" << box.entries.size() << " entries)\n";
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace rsafe;

    std::string log_path;
    std::string workload;
    std::string trace_path;
    std::string metrics_path;
    std::string prom_path;
    std::string flight_path;
    std::string snapshot_dir = ".";
    std::string flight_out;
    std::uint32_t hold_ms = 0;
    bool fleet_health = false;
    bool check_trace = false;
    bool json = false;
    bool forensics = true;
    bool serial = false;
    std::size_t workers = 2;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--log" && i + 1 < argc) {
            log_path = argv[++i];
        } else if (arg == "--attack-mix") {
            workload.clear();
        } else if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--flight" && i + 1 < argc) {
            flight_path = argv[++i];
        } else if (arg == "--fleet-health") {
            fleet_health = true;
        } else if (arg == "--snapshot-dir" && i + 1 < argc) {
            snapshot_dir = argv[++i];
        } else if (arg == "--hold-ms" && i + 1 < argc) {
            hold_ms = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        } else if (arg == "--flight-out" && i + 1 < argc) {
            flight_out = argv[++i];
        } else if (arg == "--serial") {
            serial = true;
        } else if (arg == "--workers" && i + 1 < argc) {
            workers = static_cast<std::size_t>(std::stoul(argv[++i]));
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--check-trace") {
            check_trace = true;
        } else if (arg == "--metrics" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (arg == "--prom" && i + 1 < argc) {
            prom_path = argv[++i];
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--no-forensics") {
            forensics = false;
        } else if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "rsafe-report: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    try {
        if (!flight_path.empty())
            return show_flight(flight_path, json);
        if (fleet_health)
            return run_fleet_health(snapshot_dir, hold_ms, flight_out);

        core::VmFactory factory;
        if (workload.empty()) {
            factory = workloads::attack_mix().factory;
        } else {
            factory = workloads::vm_factory(
                workloads::golden_profile(workload));
        }

        core::FrameworkConfig config;
        config.pipeline = serial ? core::PipelineMode::kSerial
                                 : core::PipelineMode::kConcurrent;
        config.ar_workers = workers;
        core::RnrSafeFramework framework(factory, config);

        auto& tracer = obs::Tracer::instance();
        tracer.set_enabled(true);
        tracer.begin_session();

        core::FrameworkResult result;
        if (!log_path.empty()) {
            std::vector<std::uint8_t> bytes;
            if (!read_file(log_path, &bytes)) {
                std::cerr << "rsafe-report: cannot read " << log_path
                          << "\n";
                return 1;
            }
            result = framework.replay_wire(bytes);
            if (!result.log_integrity.intact()) {
                std::cerr << "rsafe-report: log integrity: "
                          << result.log_integrity.status.to_string()
                          << " (replayed the recovered prefix)\n";
            }
        } else {
            result = framework.run();
        }
        tracer.set_enabled(false);

        // ---- trace --------------------------------------------------
        const std::string trace_json = tracer.export_chrome_json();
        if (check_trace) {
            std::string error;
            if (!obs::validate_trace_json(trace_json, &error)) {
                std::cerr << "rsafe-report: trace schema violation: "
                          << error << "\n";
                return 1;
            }
        }
        if (!trace_path.empty()) {
            if (!write_text(trace_path, trace_json)) {
                std::cerr << "rsafe-report: cannot write " << trace_path
                          << "\n";
                return 1;
            }
            std::cerr << "rsafe-report: wrote " << trace_path << " ("
                      << tracer.event_count() << " events, "
                      << tracer.dropped() << " dropped)\n";
        }

        // ---- metrics ------------------------------------------------
        const obs::MetricsExporter exporter(result.pipeline_stats);
        if (!metrics_path.empty() &&
            !write_text(metrics_path, exporter.to_json())) {
            std::cerr << "rsafe-report: cannot write " << metrics_path
                      << "\n";
            return 1;
        }
        if (!prom_path.empty() &&
            !write_text(prom_path, exporter.to_prometheus())) {
            std::cerr << "rsafe-report: cannot write " << prom_path
                      << "\n";
            return 1;
        }

        // ---- forensics ----------------------------------------------
        if (forensics) {
            if (json) {
                std::cout << "[";
                for (std::size_t i = 0; i < result.ar_results.size(); ++i)
                    std::cout << (i ? "," : "") << "\n"
                              << result.ar_results[i]
                                     .analysis.forensic.to_json();
                std::cout << (result.ar_results.empty() ? "" : "\n")
                          << "]\n";
            } else {
                if (result.ar_results.empty())
                    std::cout << "no alarms required replay analysis\n";
                for (const auto& ar : result.ar_results)
                    std::cout << ar.analysis.forensic.to_string() << "\n";
            }
        }

        // The exit status answers "was an attack found": 0 either way
        // unless a rendering/validation step failed above.
        std::cerr << "rsafe-report: " << result.alarms_logged
                  << " alarms logged, " << result.underflows_resolved
                  << " auto-resolved, " << result.ar_results.size()
                  << " replayed, attack="
                  << (result.alarms.attack_detected() ? "yes" : "no")
                  << "\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "rsafe-report: " << e.what() << "\n";
        return 1;
    }
}
