/**
 * @file
 * Serial vs concurrent pipeline harness.
 *
 * Runs the full RnR-Safe pipeline over the Table 3 workloads plus a
 * multi-alarm attack workload, once in PipelineMode::kSerial and once in
 * PipelineMode::kConcurrent with 1, 2, and 4 alarm-replayer workers, and
 * reports both measurements of end-to-end latency:
 *
 *  - host wall-clock (milliseconds) — the real time the pipeline took on
 *    this machine; only meaningful as a speedup when the host grants the
 *    process multiple CPUs (host_cpus is recorded in the JSON);
 *  - simulated pipeline latency (cycles) — the deterministic,
 *    machine-independent figure the repo's benches normalize by: serial
 *    latency is record + CR + every alarm replay back to back, concurrent
 *    latency is max(record, CR) (the streamed stages overlap) plus the
 *    alarm-replay makespan over the worker pool, scheduled exactly as the
 *    pool schedules (each worker claims the next alarm as it frees up).
 *
 * Always ends by writing BENCH_pipeline.json (schema
 * rsafe-bench-pipeline-v1). Pass --json-only to skip the table.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/framework.h"
#include "obs/trace.h"
#include "stats/table.h"
#include "workloads/attack_mix.h"
#include "workloads/generator.h"

namespace rsafe::bench {
namespace {

/** The workload set: Table 3 plus the alarm-heavy attack mix. */
struct PipelineWorkload {
    std::string name;
    core::VmFactory factory;
};

/**
 * The shared attack mix (workloads::attack_mix) at bench size: mysql's
 * bench iteration count with @p attackers extra tasks, each mounting the
 * kernel ROP at a staggered delay. Every mounted attack raises its own
 * RAS alarm, so the alarm replays fan out across the worker pool.
 */
core::VmFactory
attack_mix_factory(std::size_t attackers)
{
    workloads::AttackMixOptions options;
    options.attackers = attackers;
    options.iterations_per_task = std::max<std::uint64_t>(
        bench_profile("mysql").iterations_per_task / 4, 150);
    return workloads::attack_mix(options).factory;
}

/** One timed pipeline execution. */
struct PipelineRun {
    double wall_ms = 0.0;
    Cycles record_cycles = 0;
    Cycles cr_cycles = 0;
    std::vector<Cycles> ar_cycles;  ///< per alarm replay, in alarm order
    std::size_t alarms_logged = 0;
    std::uint64_t max_replay_lag = 0;
    std::uint64_t consumer_waits = 0;
};

PipelineRun
run_pipeline(const core::VmFactory& factory, core::PipelineMode mode,
             std::size_t workers, bool health = false)
{
    core::FrameworkConfig config;
    config.pipeline = mode;
    config.ar_workers = workers;
    config.health.enabled = health;
    core::RnrSafeFramework framework(factory, config);

    const auto t0 = std::chrono::steady_clock::now();
    auto result = framework.run();
    const auto t1 = std::chrono::steady_clock::now();

    PipelineRun run;
    run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    run.record_cycles = result.recorded_vm->cpu().cycles();
    run.cr_cycles = result.cr_vm->cpu().cycles();
    for (const auto& ar : result.ar_results)
        run.ar_cycles.push_back(ar.analysis.analysis_cycles);
    run.alarms_logged = result.alarms_logged;
    run.max_replay_lag = result.replay_lag.max_lag;
    run.consumer_waits = result.channel_stats.consumer_waits;
    return run;
}

/** Serial simulated latency: every stage back to back. */
Cycles
serial_latency(const PipelineRun& run)
{
    Cycles total = run.record_cycles + run.cr_cycles;
    for (Cycles c : run.ar_cycles)
        total += c;
    return total;
}

/**
 * Concurrent simulated latency: record and CR overlap (the CR replays the
 * streamed log on the fly), then the alarm replays run on @p workers
 * workers, each claiming the next alarm in log order as it frees up —
 * the greedy schedule the framework's worker pool follows when the CR
 * queues alarms faster than the workers finish them.
 */
Cycles
concurrent_latency(const PipelineRun& run, std::size_t workers)
{
    Cycles latency = std::max(run.record_cycles, run.cr_cycles);
    if (run.ar_cycles.empty() || workers == 0)
        return latency;
    std::vector<Cycles> free_at(std::min(workers, run.ar_cycles.size()), 0);
    for (Cycles c : run.ar_cycles) {
        auto it = std::min_element(free_at.begin(), free_at.end());
        *it += c;
    }
    return latency + *std::max_element(free_at.begin(), free_at.end());
}

struct WorkloadReport {
    std::string name;
    PipelineRun serial;
    std::vector<std::pair<std::size_t, PipelineRun>> concurrent;
};

void
write_json(const char* path, const std::vector<WorkloadReport>& reports)
{
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::size_t max_workers = 0;
    for (const auto& report : reports)
        for (const auto& [workers, run] : report.concurrent)
            max_workers = std::max(max_workers, workers);
    const unsigned host_cpus = std::thread::hardware_concurrency();
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"rsafe-bench-pipeline-v1\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus);
    if (max_workers > host_cpus) {
        // Flat wall-clock curves on a small host are expected, not a
        // concurrency bug; say so in the artifact itself.
        std::fprintf(f,
                     "  \"host_cpus_warning\": \"requested %zu ar_workers "
                     "exceed %u host CPUs; wall_ms cannot show speedup, "
                     "use sim_cycles\",\n",
                     max_workers, host_cpus);
    } else {
        std::fprintf(f, "  \"host_cpus_warning\": null,\n");
    }
    std::fprintf(f, "  \"cycles_per_second\": %llu,\n",
                 static_cast<unsigned long long>(kCyclesPerSecond));
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto& report = reports[i];
        const Cycles serial_sim = serial_latency(report.serial);
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", report.name.c_str());
        std::fprintf(f, "      \"alarms_logged\": %zu,\n",
                     report.serial.alarms_logged);
        std::fprintf(f, "      \"alarm_replays\": %zu,\n",
                     report.serial.ar_cycles.size());
        std::fprintf(f,
                     "      \"serial\": {\"wall_ms\": %.2f, "
                     "\"sim_cycles\": %llu},\n",
                     report.serial.wall_ms,
                     static_cast<unsigned long long>(serial_sim));
        std::fprintf(f, "      \"concurrent\": [\n");
        for (std::size_t j = 0; j < report.concurrent.size(); ++j) {
            const auto& [workers, run] = report.concurrent[j];
            const Cycles sim = concurrent_latency(run, workers);
            std::fprintf(
                f,
                "        {\"ar_workers\": %zu, \"wall_ms\": %.2f, "
                "\"sim_cycles\": %llu, \"sim_speedup\": %.2f, "
                "\"max_replay_lag\": %llu, \"consumer_waits\": %llu}%s\n",
                workers, run.wall_ms,
                static_cast<unsigned long long>(sim),
                sim > 0 ? double(serial_sim) / double(sim) : 0.0,
                static_cast<unsigned long long>(run.max_replay_lag),
                static_cast<unsigned long long>(run.consumer_waits),
                j + 1 < report.concurrent.size() ? "," : "");
        }
        std::fprintf(f, "      ]\n");
        std::fprintf(f, "    }%s\n", i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

void
print_table(const std::vector<WorkloadReport>& reports)
{
    stats::Table table("Pipeline: serial vs concurrent",
                       {"workload", "alarms", "ARs", "serial ms",
                        "conc ms (W=2)", "sim speedup W=1", "W=2", "W=4",
                        "max lag"});
    for (const auto& report : reports) {
        const Cycles serial_sim = serial_latency(report.serial);
        std::vector<std::string> row = {
            report.name,
            std::to_string(report.serial.alarms_logged),
            std::to_string(report.serial.ar_cycles.size()),
            stats::Table::fmt(report.serial.wall_ms, 1),
        };
        std::string conc_ms = "-";
        std::vector<std::string> speedups;
        std::string max_lag = "-";
        for (const auto& [workers, run] : report.concurrent) {
            const Cycles sim = concurrent_latency(run, workers);
            speedups.push_back(stats::Table::fmt(
                sim > 0 ? double(serial_sim) / double(sim) : 0.0, 2));
            if (workers == 2) {
                conc_ms = stats::Table::fmt(run.wall_ms, 1);
                max_lag = std::to_string(run.max_replay_lag);
            }
        }
        row.push_back(conc_ms);
        for (const auto& s : speedups)
            row.push_back(s);
        row.push_back(max_lag);
        table.add_row(row);
    }
    emit(table);
}

/**
 * Observability overhead A/B: run the attack-mix pipeline @p repeats
 * times with the full plane off and on (alternating, to spread
 * thermal/scheduler drift across both arms) and compare median
 * wall-clock. The on-arm carries tracing *and* the live health plane —
 * the <5% gate covers everything PR 5 and the health monitor add.
 * Neither adds simulated cycles by construction — the honest figure is
 * host time.
 */
struct ObsOverhead {
    double off_ms = 0.0;    ///< median wall-clock, plane off
    double on_ms = 0.0;     ///< median wall-clock, tracing + health on
    double overhead_pct = 0.0;
    std::uint64_t events = 0;   ///< trace events in the last traced run
    std::uint64_t dropped = 0;  ///< events shed to buffer exhaustion
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

ObsOverhead
measure_obs_overhead(std::size_t repeats)
{
    const auto factory = attack_mix_factory(4);
    auto& tracer = obs::Tracer::instance();
    ObsOverhead result;
    std::vector<double> off_ms;
    std::vector<double> on_ms;
    for (std::size_t i = 0; i < repeats; ++i) {
        for (const bool traced : {false, true}) {
            tracer.set_enabled(traced);
            tracer.begin_session();
            const auto run = run_pipeline(
                factory, core::PipelineMode::kConcurrent, 2,
                /*health=*/traced);
            tracer.set_enabled(false);
            (traced ? on_ms : off_ms).push_back(run.wall_ms);
            if (traced) {
                result.events = tracer.event_count();
                result.dropped = tracer.dropped();
            }
        }
    }
    result.off_ms = median(off_ms);
    result.on_ms = median(on_ms);
    if (result.off_ms > 0.0) {
        result.overhead_pct =
            100.0 * (result.on_ms - result.off_ms) / result.off_ms;
    }
    return result;
}

void
write_obs_json(const char* path, const ObsOverhead& obs, double gate_pct,
               bool pass, bool wall_gate_skipped)
{
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    // v2: the on-arm now includes the live health plane, and a 1-CPU
    // host records wall_gate_skipped instead of a meaningless verdict.
    std::fprintf(f, "  \"schema\": \"rsafe-bench-obs-v2\",\n");
    std::fprintf(f, "  \"workload\": \"attack-mix\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"health_on\": true,\n");
    std::fprintf(f, "  \"tracing_off_ms\": %.3f,\n", obs.off_ms);
    std::fprintf(f, "  \"tracing_on_ms\": %.3f,\n", obs.on_ms);
    std::fprintf(f, "  \"overhead_pct\": %.2f,\n", obs.overhead_pct);
    std::fprintf(f, "  \"trace_events\": %llu,\n",
                 static_cast<unsigned long long>(obs.events));
    std::fprintf(f, "  \"trace_dropped\": %llu,\n",
                 static_cast<unsigned long long>(obs.dropped));
    std::fprintf(f, "  \"gate_pct\": %.2f,\n", gate_pct);
    std::fprintf(f, "  \"wall_gate_skipped\": %s,\n",
                 wall_gate_skipped ? "true" : "false");
    std::fprintf(f, "  \"pass\": %s\n", pass ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

/**
 * Sanity-check the committed baseline against this run: the schema
 * family must match (any rsafe-bench-obs-* version), and the delta is
 * printed so a drifting overhead is visible in the CI log even while
 * the absolute gate still passes.
 */
bool
check_obs_reference(const std::string& path, const ObsOverhead& obs)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "FAIL: cannot read reference %s\n",
                     path.c_str());
        return false;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.find("\"schema\": \"rsafe-bench-obs-") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: %s is not a rsafe-bench-obs baseline\n",
                     path.c_str());
        return false;
    }
    if (const double ref_overhead = json_number(text, "overhead_pct");
        !std::isnan(ref_overhead)) {
        std::printf("obs reference %s: baseline overhead %.2f%%, "
                    "this run %+.2f%% (delta %+.2f)\n",
                    path.c_str(), ref_overhead, obs.overhead_pct,
                    obs.overhead_pct - ref_overhead);
    }
    return true;
}

}  // namespace
}  // namespace rsafe::bench

int
main(int argc, char** argv)
{
    using namespace rsafe;
    using namespace rsafe::bench;

    bool json_only = false;
    bool obs_only = false;
    bool obs_gate = false;
    std::string reference;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json-only")
            json_only = true;
        else if (arg == "--obs-only")
            obs_only = true;
        else if (arg == "--obs-gate")
            obs_gate = true;
        else if (arg.rfind("--reference=", 0) == 0)
            reference = arg.substr(12);
    }

    const unsigned host_cpus = std::thread::hardware_concurrency();
    const bool single_cpu = host_cpus <= 1;
    if (single_cpu) {
        std::fprintf(stderr,
                     "=============================================\n"
                     "host_cpus_warning: this host exposes a single "
                     "CPU.\nWall-clock comparisons are meaningless here "
                     "(every arm\nis serialized); wall-clock gates are "
                     "SKIPPED and forced\nto pass. Simulated-cycle gates "
                     "still apply.\n"
                     "=============================================\n");
    }

    if (obs_only) {
        // Observability-overhead A/B only: BENCH_obs.json plus an
        // optional pass/fail gate (--obs-gate; threshold
        // RSAFE_OBS_GATE_PCT, default 5%).
        double gate_pct = 5.0;
        if (const char* env = std::getenv("RSAFE_OBS_GATE_PCT"))
            gate_pct = std::atof(env);
        const auto obs = measure_obs_overhead(5);
        // A single-CPU host cannot measure concurrent-pipeline overhead
        // honestly — the wall gate is skipped, not judged.
        const bool pass = single_cpu || obs.overhead_pct < gate_pct;
        write_obs_json("BENCH_obs.json", obs, gate_pct, pass, single_cpu);
        std::printf("obs overhead: off=%.2fms on=%.2fms (%+.2f%%, "
                    "gate %.1f%%) -> %s\n",
                    obs.off_ms, obs.on_ms, obs.overhead_pct, gate_pct,
                    single_cpu ? "skipped (1 cpu)"
                               : (pass ? "pass" : "FAIL"));
        bool ok = pass;
        if (!reference.empty() && !check_obs_reference(reference, obs))
            ok = false;
        return obs_gate && !ok ? 1 : 0;
    }

    std::vector<PipelineWorkload> workloads;
    for (const char* name :
         {"apache", "fileio", "make", "mysql", "radiosity"}) {
        auto profile = bench_profile(name);
        workloads.push_back(
            {name, workloads::vm_factory(profile)});
    }
    workloads.push_back({"attack-mix", attack_mix_factory(4)});

    std::vector<WorkloadReport> reports;
    for (const auto& workload : workloads) {
        WorkloadReport report;
        report.name = workload.name;
        report.serial = run_pipeline(workload.factory,
                                     core::PipelineMode::kSerial, 1);
        for (std::size_t workers : {1u, 2u, 4u})
            report.concurrent.emplace_back(
                workers, run_pipeline(workload.factory,
                                      core::PipelineMode::kConcurrent,
                                      workers));
        reports.push_back(std::move(report));
    }

    if (!json_only)
        print_table(reports);
    write_json("BENCH_pipeline.json", reports);

    // Scaling regression gate: on the alarm-heavy attack mix, growing the
    // pool from 2 to 4 workers must never lengthen the deterministic
    // alarm-replay makespan (the claim path once regressed exactly here:
    // doubled workers, longer wall time). The sim figure is the honest
    // one on small hosts; the batched claim counter keeps the real pool's
    // schedule matching it.
    for (const auto& report : reports) {
        if (report.name != "attack-mix")
            continue;
        Cycles sim2 = 0;
        Cycles sim4 = 0;
        for (const auto& [workers, run] : report.concurrent) {
            if (workers == 2)
                sim2 = concurrent_latency(run, 2);
            else if (workers == 4)
                sim4 = concurrent_latency(run, 4);
        }
        if (sim2 != 0 && sim4 > sim2) {
            std::fprintf(stderr,
                         "FAIL: attack-mix with 4 workers is slower than "
                         "with 2 (%llu > %llu sim cycles)\n",
                         static_cast<unsigned long long>(sim4),
                         static_cast<unsigned long long>(sim2));
            return 1;
        }
        std::printf("attack-mix scaling gate: W=4 %llu <= W=2 %llu "
                    "sim cycles -> pass\n",
                    static_cast<unsigned long long>(sim4),
                    static_cast<unsigned long long>(sim2));
    }
    return 0;
}
