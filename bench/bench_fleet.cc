/**
 * @file
 * ReplayFleet harness: N monitored guests over one shared AR pool.
 *
 * Runs every Table 3 workload (each with a light longjmp-storm bump so
 * the benign tenants raise a handful of false-positive alarms — without
 * it their fairness numbers would be vacuous) plus the attack mix,
 * first solo through the single framework, then all at once through a
 * ReplayFleet, and cross-checks that every tenant's verdicts, state
 * digests and counter snapshots are bit-identical either way.
 *
 * Like bench_pipeline, the headline figures are deterministic simulated
 * cycles, not wall-clock: the host may grant this process one CPU
 * (host_cpus and a warning land in the JSON), so the N-tenant × W-worker
 * sweep replays the fleet's fair-share scheduling model — per-tenant
 * in-flight caps, FIFO admission of capped backlogs, greedy workers —
 * over the measured per-alarm costs and deterministic arrival times
 * (PendingAlarm::queued_at_cycles). Reported per cell: aggregate
 * throughput vs running the tenants sequentially at equal total workers,
 * and per-tenant p50/p99 alarm-to-verdict latency.
 *
 * Gates (exit nonzero on failure):
 *  - aggregate sim-throughput at N=6 must be >= 1.5x sequential;
 *  - every benign tenant's p99 in the full fleet (attack storm running)
 *    must stay within 2x its solo p99;
 *  - fleet-vs-solo determinism must hold;
 *  - with --gate: the committed BENCH_fleet.json is the reference —
 *    neither throughput nor worst benign p99 may regress by more than
 *    RSAFE_BENCH_GATE_TOLERANCE percent (default 10).
 *
 * Always writes BENCH_fleet.json (schema rsafe-bench-fleet-v1).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "core/framework.h"
#include "fleet/fleet.h"
#include "workloads/attack_mix.h"
#include "workloads/generator.h"

namespace rsafe::bench {
namespace {

constexpr std::size_t kFleetWorkers = 4;    ///< headline fleet width
constexpr std::size_t kInflightCap = 2;     ///< per-tenant fair share
constexpr double kThroughputGate = 1.5;     ///< N=6 aggregate vs sequential
constexpr double kFairnessGate = 2.0;       ///< benign p99 vs solo p99

/** One alarm-replay job as the scheduling model sees it. */
struct SimJob {
    Cycles arrive = 0;  ///< CR replay clock when the alarm was queued
    Cycles cost = 0;    ///< measured analysis cycles of its one AR pass
};

/** Everything one solo run measured about a tenant. */
struct TenantMeasure {
    std::string name;
    core::VmFactory factory;
    bool is_attack = false;
    Cycles record_cycles = 0;
    Cycles cr_cycles = 0;
    std::size_t alarms_logged = 0;
    std::vector<SimJob> jobs;  ///< in alarm order
    // Solo digest for the fleet determinism cross-check.
    bool attack_detected = false;
    std::uint64_t rec_hash = 0;
    std::uint64_t cr_hash = 0;
    std::vector<int> causes;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    double solo_wall_ms = 0.0;
};

core::FrameworkConfig
tenant_config()
{
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    config.ar_workers = 2;
    // Frequent checkpoints bound each alarm replay to a short slice —
    // the paper's lever for keeping AR work proportional to alarm count
    // rather than log length. The default 10M-cycle interval would leave
    // these short sessions with a single checkpoint and every alarm
    // replaying from the start of the log.
    config.cr.checkpoint_interval = 250'000;
    return config;
}

/** Table 3 profile with a light longjmp-storm bump (FP alarm source). */
core::VmFactory
benign_tenant_factory(const std::string& name)
{
    auto profile = bench_profile(name);
    profile.iterations_per_task =
        std::max<std::uint64_t>(profile.iterations_per_task / 8, 200);
    // A light, uniform longjmp rate: enough false-positive alarms to make
    // every benign tenant's latency percentiles meaningful, low enough
    // that the shared pool is loaded rather than overloaded (the fairness
    // gate measures contention, not queueing collapse).
    profile.setjmp_prob = 0.025;
    return workloads::vm_factory(profile);
}

core::VmFactory
attack_tenant_factory()
{
    workloads::AttackMixOptions options;
    options.attackers = 4;
    options.iterations_per_task = 150;
    return workloads::attack_mix(options).factory;
}

TenantMeasure
measure_solo(const std::string& name, core::VmFactory factory,
             bool is_attack)
{
    core::RnrSafeFramework framework(factory, tenant_config());
    const auto t0 = std::chrono::steady_clock::now();
    auto result = framework.run();
    const auto t1 = std::chrono::steady_clock::now();

    TenantMeasure m;
    m.name = name;
    m.factory = std::move(factory);
    m.is_attack = is_attack;
    m.record_cycles = result.recorded_vm->cpu().cycles();
    m.cr_cycles = result.cr_vm->cpu().cycles();
    m.alarms_logged = result.alarms_logged;
    const auto& pending = result.cr->pending_alarms();
    if (pending.size() != result.ar_results.size()) {
        std::fprintf(stderr, "%s: pending/ar_results size mismatch\n",
                     name.c_str());
        std::exit(1);
    }
    for (std::size_t i = 0; i < pending.size(); ++i)
        m.jobs.push_back({pending[i].queued_at_cycles,
                          result.ar_results[i].analysis.analysis_cycles});
    m.attack_detected = result.alarms.attack_detected();
    m.rec_hash = result.recorded_vm->state_hash();
    m.cr_hash = result.cr_vm->state_hash();
    for (const auto& ar : result.ar_results)
        m.causes.push_back(static_cast<int>(ar.analysis.cause));
    m.counters = result.pipeline_stats.snapshot();
    m.solo_wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return m;
}

/** Per-tenant latency distribution out of one simulated schedule. */
struct SimResult {
    Cycles makespan = 0;
    std::vector<std::vector<Cycles>> latencies;  ///< per tenant, per job
};

/**
 * Deterministic replay of the fleet's scheduling model: all tenants'
 * sessions start at cycle 0 and overlap; each alarm job arrives at its
 * queued_at_cycles; at most @p cap jobs of one tenant are in flight
 * (excess parks in the tenant's FIFO); admitted jobs start on the
 * earliest-free of @p workers workers. Admission is FIFO over admit
 * times — with per-tenant caps this is the fair-share behaviour the real
 * pool's round-robin takes converge to, minus OS scheduling noise.
 */
SimResult
simulate_fleet(const std::vector<const TenantMeasure*>& tenants,
               std::size_t workers, std::size_t cap)
{
    struct Arrival {
        Cycles t;
        std::size_t tenant;
        std::size_t job;
    };
    std::vector<Arrival> arrivals;
    SimResult out;
    out.latencies.resize(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        out.latencies[t].resize(tenants[t]->jobs.size(), 0);
        out.makespan = std::max(
            out.makespan, std::max(tenants[t]->record_cycles,
                                   tenants[t]->cr_cycles));
        for (std::size_t j = 0; j < tenants[t]->jobs.size(); ++j)
            arrivals.push_back({tenants[t]->jobs[j].arrive, t, j});
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival& a, const Arrival& b) {
                         return std::tie(a.t, a.tenant, a.job) <
                                std::tie(b.t, b.tenant, b.job);
                     });

    constexpr Cycles kNever = std::numeric_limits<Cycles>::max();
    std::vector<Cycles> free_at(workers, 0);
    std::vector<std::deque<std::size_t>> parked(tenants.size());
    std::vector<std::size_t> inflight(tenants.size(), 0);
    struct Admitted {
        std::size_t tenant;
        std::size_t job;
        Cycles admit_t;
    };
    std::deque<Admitted> admitted;
    using Completion = std::tuple<Cycles, std::size_t, std::size_t>;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions;

    const auto dispatch = [&] {
        while (!admitted.empty()) {
            auto it = std::min_element(free_at.begin(), free_at.end());
            const Admitted next = admitted.front();
            const Cycles start = std::max(*it, next.admit_t);
            admitted.pop_front();
            const Cycles done =
                start + tenants[next.tenant]->jobs[next.job].cost;
            *it = done;
            completions.push({done, next.tenant, next.job});
        }
    };

    std::size_t next_arrival = 0;
    while (next_arrival < arrivals.size() || !completions.empty()) {
        const Cycles ta = next_arrival < arrivals.size()
                              ? arrivals[next_arrival].t
                              : kNever;
        const Cycles tc =
            completions.empty() ? kNever : std::get<0>(completions.top());
        if (tc <= ta) {
            const auto [done, t, j] = completions.top();
            completions.pop();
            out.latencies[t][j] = done - tenants[t]->jobs[j].arrive;
            out.makespan = std::max(out.makespan, done);
            --inflight[t];
            if (!parked[t].empty() && inflight[t] < cap) {
                ++inflight[t];
                admitted.push_back({t, parked[t].front(), done});
                parked[t].pop_front();
            }
        } else {
            const Arrival a = arrivals[next_arrival++];
            if (inflight[a.tenant] < cap) {
                ++inflight[a.tenant];
                admitted.push_back({a.tenant, a.job, a.t});
            } else {
                parked[a.tenant].push_back(a.job);
            }
        }
        dispatch();
    }
    return out;
}

/** max(record, cr) + greedy W-worker AR makespan: the single-framework
 *  latency model bench_pipeline uses, for the sequential baseline. */
Cycles
solo_framework_latency(const TenantMeasure& tenant, std::size_t workers)
{
    Cycles latency = std::max(tenant.record_cycles, tenant.cr_cycles);
    if (tenant.jobs.empty())
        return latency;
    std::vector<Cycles> free_at(std::min(workers, tenant.jobs.size()), 0);
    for (const SimJob& job : tenant.jobs)
        *std::min_element(free_at.begin(), free_at.end()) += job.cost;
    return latency + *std::max_element(free_at.begin(), free_at.end());
}

Cycles
percentile(std::vector<Cycles> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    return values[static_cast<std::size_t>(pos + 0.5)];
}

/** One sweep cell: N tenants (list prefix) on W shared workers. */
struct SweepCell {
    std::size_t tenants = 0;
    std::size_t workers = 0;
    Cycles fleet_makespan = 0;
    Cycles sequential_cycles = 0;
    double throughput_x = 0.0;
    struct PerTenant {
        std::string name;
        std::size_t jobs = 0;
        Cycles p50 = 0;
        Cycles p99 = 0;
        Cycles solo_p99 = 0;
        double fairness_x = 0.0;  ///< p99 / solo p99 (0 when no jobs)
    };
    std::vector<PerTenant> per_tenant;
};

SweepCell
sweep_cell(const std::vector<TenantMeasure>& all, std::size_t n,
           std::size_t workers)
{
    std::vector<const TenantMeasure*> subset;
    for (std::size_t i = 0; i < n; ++i)
        subset.push_back(&all[i]);

    SweepCell cell;
    cell.tenants = n;
    cell.workers = workers;
    const SimResult fleet = simulate_fleet(subset, workers, kInflightCap);
    cell.fleet_makespan = fleet.makespan;
    for (std::size_t i = 0; i < n; ++i)
        cell.sequential_cycles += solo_framework_latency(all[i], workers);
    cell.throughput_x =
        fleet.makespan > 0
            ? double(cell.sequential_cycles) / double(fleet.makespan)
            : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        SweepCell::PerTenant pt;
        pt.name = all[i].name;
        pt.jobs = all[i].jobs.size();
        pt.p50 = percentile(fleet.latencies[i], 0.50);
        pt.p99 = percentile(fleet.latencies[i], 0.99);
        const SimResult solo =
            simulate_fleet({&all[i]}, workers, kInflightCap);
        pt.solo_p99 = percentile(solo.latencies[0], 0.99);
        if (pt.solo_p99 > 0)
            pt.fairness_x = double(pt.p99) / double(pt.solo_p99);
        cell.per_tenant.push_back(std::move(pt));
    }
    return cell;
}

/** The one real fleet execution: wall time, pool counters, determinism. */
struct FleetRun {
    double wall_ms = 0.0;
    fleet::PoolStats pool;
    bool determinism_ok = true;
    std::string determinism_detail;
};

FleetRun
run_real_fleet(const std::vector<TenantMeasure>& measures)
{
    std::vector<fleet::FleetTenant> tenants;
    for (const auto& m : measures)
        tenants.push_back({m.name, m.factory, tenant_config()});
    fleet::FleetOptions options;
    options.workers = kFleetWorkers;
    options.tenant_inflight_cap = kInflightCap;
    fleet::ReplayFleet fleet(std::move(tenants), options);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fleet.run();
    const auto t1 = std::chrono::steady_clock::now();

    FleetRun run;
    run.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    run.pool = result.pool;
    for (std::size_t i = 0; i < measures.size(); ++i) {
        const auto& m = measures[i];
        const auto& fr = result.tenants[i].result;
        std::vector<int> causes;
        for (const auto& ar : fr.ar_results)
            causes.push_back(static_cast<int>(ar.analysis.cause));
        const bool ok =
            fr.alarms.attack_detected() == m.attack_detected &&
            fr.recorded_vm->state_hash() == m.rec_hash &&
            fr.cr_vm->state_hash() == m.cr_hash && causes == m.causes &&
            fr.pipeline_stats.snapshot() == m.counters;
        if (!ok) {
            run.determinism_ok = false;
            run.determinism_detail += m.name + " ";
        }
    }
    return run;
}

void
write_json(const char* path, const std::vector<TenantMeasure>& measures,
           const FleetRun& real, const std::vector<SweepCell>& sweep,
           double throughput_n6, Cycles benign_p99_worst,
           double fairness_worst, bool pass)
{
    std::size_t max_workers = 0;
    for (const auto& cell : sweep)
        max_workers = std::max(max_workers, cell.workers);
    const unsigned host_cpus = std::thread::hardware_concurrency();

    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"rsafe-bench-fleet-v1\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus);
    if (max_workers > host_cpus) {
        std::fprintf(f,
                     "  \"host_cpus_warning\": \"requested %zu workers "
                     "exceed %u host CPUs; wall_ms cannot show speedup, "
                     "use sim figures\",\n",
                     max_workers, host_cpus);
    } else {
        std::fprintf(f, "  \"host_cpus_warning\": null,\n");
    }
    std::fprintf(f, "  \"cycles_per_second\": %llu,\n",
                 static_cast<unsigned long long>(kCyclesPerSecond));
    std::fprintf(f, "  \"inflight_cap\": %zu,\n", kInflightCap);

    std::fprintf(f, "  \"tenants\": [\n");
    for (std::size_t i = 0; i < measures.size(); ++i) {
        const auto& m = measures[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"attack\": %s, "
                     "\"alarms_logged\": %zu, \"alarm_replays\": %zu, "
                     "\"record_cycles\": %llu, \"cr_cycles\": %llu, "
                     "\"solo_wall_ms\": %.2f}%s\n",
                     m.name.c_str(), m.is_attack ? "true" : "false",
                     m.alarms_logged, m.jobs.size(),
                     static_cast<unsigned long long>(m.record_cycles),
                     static_cast<unsigned long long>(m.cr_cycles),
                     m.solo_wall_ms,
                     i + 1 < measures.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    std::fprintf(
        f,
        "  \"fleet_run\": {\"workers\": %zu, \"wall_ms\": %.2f, "
        "\"determinism_ok\": %s, \"pool\": {\"submitted\": %llu, "
        "\"executed\": %llu, \"discarded\": %llu, \"starved_waits\": "
        "%llu, \"max_admitted\": %zu}},\n",
        kFleetWorkers, real.wall_ms, real.determinism_ok ? "true" : "false",
        static_cast<unsigned long long>(real.pool.submitted),
        static_cast<unsigned long long>(real.pool.executed),
        static_cast<unsigned long long>(real.pool.discarded),
        static_cast<unsigned long long>(real.pool.starved_waits),
        real.pool.max_admitted);

    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& cell = sweep[i];
        std::fprintf(f,
                     "    {\"tenants\": %zu, \"workers\": %zu, "
                     "\"fleet_makespan\": %llu, \"sequential_cycles\": "
                     "%llu, \"throughput_x\": %.3f, \"per_tenant\": [\n",
                     cell.tenants, cell.workers,
                     static_cast<unsigned long long>(cell.fleet_makespan),
                     static_cast<unsigned long long>(
                         cell.sequential_cycles),
                     cell.throughput_x);
        for (std::size_t j = 0; j < cell.per_tenant.size(); ++j) {
            const auto& pt = cell.per_tenant[j];
            std::fprintf(
                f,
                "      {\"name\": \"%s\", \"jobs\": %zu, \"p50\": %llu, "
                "\"p99\": %llu, \"solo_p99\": %llu, \"fairness_x\": "
                "%.3f}%s\n",
                pt.name.c_str(), pt.jobs,
                static_cast<unsigned long long>(pt.p50),
                static_cast<unsigned long long>(pt.p99),
                static_cast<unsigned long long>(pt.solo_p99),
                pt.fairness_x,
                j + 1 < cell.per_tenant.size() ? "," : "");
        }
        std::fprintf(f, "    ]}%s\n", i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    std::fprintf(f, "  \"gates\": {\n");
    std::fprintf(f, "    \"throughput_n6\": %.3f,\n", throughput_n6);
    std::fprintf(f, "    \"throughput_threshold\": %.2f,\n",
                 kThroughputGate);
    std::fprintf(f, "    \"benign_p99_worst_cycles\": %llu,\n",
                 static_cast<unsigned long long>(benign_p99_worst));
    std::fprintf(f, "    \"fairness_worst_ratio\": %.3f,\n",
                 fairness_worst);
    std::fprintf(f, "    \"fairness_threshold\": %.2f,\n", kFairnessGate);
    std::fprintf(f, "    \"pass\": %s\n", pass ? "true" : "false");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace rsafe::bench

int
main(int argc, char** argv)
{
    using namespace rsafe;
    using namespace rsafe::bench;

    bool gate = false;
    const char* reference = "BENCH_fleet.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--gate") == 0)
            gate = true;
        else if (std::strncmp(argv[i], "--reference=", 12) == 0)
            reference = argv[i] + 12;
    }

    if (std::thread::hardware_concurrency() <= 1) {
        // Every gate below is simulated-cycle based and still applies;
        // only the reported wall_ms columns are degenerate on one CPU.
        std::fprintf(stderr,
                     "=============================================\n"
                     "host_cpus_warning: this host exposes a single "
                     "CPU.\nThe wall_ms columns cannot show fleet "
                     "speedup here;\nread the sim-cycle figures. All "
                     "gates are sim-based\nand still apply.\n"
                     "=============================================\n");
    }

    // Load the committed reference before this run overwrites it.
    BaselineGate regression(gate ? reference : "");
    if (gate && !regression.loaded()) {
        std::fprintf(stderr, "--gate: cannot read %s\n", reference);
        return 1;
    }

    // 1. Solo measurements (also the determinism reference digests).
    std::vector<TenantMeasure> measures;
    for (const char* name :
         {"apache", "fileio", "make", "mysql", "radiosity"})
        measures.push_back(
            measure_solo(name, benign_tenant_factory(name), false));
    measures.push_back(
        measure_solo("attack-mix", attack_tenant_factory(), true));
    std::size_t total_jobs = 0;
    for (const auto& m : measures) {
        std::printf("solo %-10s alarms=%zu replays=%zu (%.0f ms)\n",
                    m.name.c_str(), m.alarms_logged, m.jobs.size(),
                    m.solo_wall_ms);
        total_jobs += m.jobs.size();
    }
    if (total_jobs == 0) {
        std::fprintf(stderr, "no alarm-replay jobs measured\n");
        return 1;
    }

    // 2. The real fleet (pool counters + A/B determinism).
    const FleetRun real = run_real_fleet(measures);
    std::printf("fleet N=%zu W=%zu: %.0f ms, %llu jobs, "
                "%llu starved waits, determinism %s\n",
                measures.size(), kFleetWorkers, real.wall_ms,
                static_cast<unsigned long long>(real.pool.executed),
                static_cast<unsigned long long>(real.pool.starved_waits),
                real.determinism_ok ? "ok" : "BROKEN");

    // 3. The deterministic N x W sweep.
    std::vector<SweepCell> sweep;
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{6}})
        for (const std::size_t w : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}})
            sweep.push_back(sweep_cell(measures, n, w));

    // 4. Gates, from the headline N=6 x W=4 cell.
    double throughput_n6 = 0.0;
    Cycles benign_p99_worst = 0;
    double fairness_worst = 0.0;
    for (const auto& cell : sweep) {
        if (cell.tenants != measures.size() || cell.workers != kFleetWorkers)
            continue;
        throughput_n6 = cell.throughput_x;
        for (std::size_t i = 0; i < cell.per_tenant.size(); ++i) {
            if (measures[i].is_attack || cell.per_tenant[i].jobs == 0)
                continue;
            benign_p99_worst =
                std::max(benign_p99_worst, cell.per_tenant[i].p99);
            fairness_worst =
                std::max(fairness_worst, cell.per_tenant[i].fairness_x);
        }
    }
    bool pass = real.determinism_ok && throughput_n6 >= kThroughputGate &&
                fairness_worst <= kFairnessGate && fairness_worst > 0.0;
    std::printf("gates: throughput N=6 %.2fx (>= %.1fx), benign p99 "
                "worst %llu cycles, fairness %.2fx (<= %.1fx) -> %s\n",
                throughput_n6, kThroughputGate,
                static_cast<unsigned long long>(benign_p99_worst),
                fairness_worst, kFairnessGate, pass ? "pass" : "FAIL");

    // 5. Regression gate against the committed reference.
    if (gate) {
        if (!(regression.baseline("throughput_n6") > 0.0) ||
            !(regression.baseline("benign_p99_worst_cycles") >= 0.0)) {
            std::fprintf(stderr,
                         "--gate: reference lacks gate fields\n");
            return 1;
        }
        regression.at_least("throughput_n6", throughput_n6);
        regression.at_most("benign_p99_worst_cycles",
                           double(benign_p99_worst));
        pass = pass && regression.ok();
    }

    write_json("BENCH_fleet.json", measures, real, sweep, throughput_n6,
               benign_p99_worst, fairness_worst, pass);
    return pass ? 0 : 1;
}
