/**
 * @file
 * End-to-end wall-time benchmark of the RnR-Safe pipeline.
 *
 *   e2ebench --workload <attack-storm|steady-record|fleet-fp>
 *            --seed <n> --seconds <s> --trace <0|1>
 *
 * Every run first builds the workload several times (setup_s), then runs
 * it once through a kSerial RnrSafeFramework per tenant: that run is the
 * reference every later run must match alarm by alarm (cause, is_attack),
 * in both VM state hashes and in the pipeline counter snapshot.
 *
 * --trace 0 repeats the workload through the public entry points
 * (RnrSafeFramework::run, ReplayFleet::run) for --seconds and reports the
 * end-to-end metrics from the median run. --trace 1 instead repeats a
 * single-threaded copy of the serial pipeline that calls each layer's
 * public functions in order and times every call from outside, plus one
 * public-entry run and one untimed-layer serial run per iteration for
 * the counters only those produce and for the timers' overhead.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * (checks against the reference) and the metrics of the selected mode.
 * README.md in this directory explains the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/framework.h"
#include "fleet/fleet.h"
#include "replay/alarm_replayer.h"
#include "replay/checkpoint_replayer.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "rnr/recorder.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe::e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Adds the wall time of its scope to *acc (the traced run's timer). */
class Span {
  public:
    explicit Span(double* acc) : acc_(acc), t0_(Clock::now()) {}
    ~Span() { *acc_ += ms_since(t0_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    double* acc_;
    Clock::time_point t0_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- workloads

struct Tenant {
    std::string name;
    core::VmFactory factory;
    core::FrameworkConfig config;
};

struct Workload {
    std::string name;
    std::vector<Tenant> tenants;
    /** Run through ReplayFleet (else RnrSafeFramework, one tenant). */
    bool fleet = false;
    fleet::FleetOptions fleet_options;
    /** Threads the public-entry run keeps busy at most. */
    std::size_t threads = 1;
    bool expect_attack = false;
};

/** Bench-sized iterations per task (bench/bench_common.cc's table). */
std::uint64_t
bench_iterations(const std::string& name)
{
    return name == "apache" ? 1500 : 2200;  // mysql
}

/**
 * A Table 3 profile whose device inputs (packet sizes and arrivals, disk
 * latencies, timer drift: what the recorder logs) follow @p rng. The
 * guest program keeps its Table 3 seed: the program seed decides how
 * many longjmp alarms a tenant raises (31 or over 100), and a workload
 * whose work swings that much per seed cannot be compared across seeds.
 */
workloads::WorkloadProfile
seeded_profile(const std::string& name, Rng* rng)
{
    workloads::WorkloadProfile profile = workloads::benchmark_profile(name);
    profile.devices.seed = rng->next_range(1, 0xffffff);
    return profile;
}

/**
 * attack-storm: four kernel-ROP attackers over mysql, 16 alarm replays.
 * The attack mix fixes its profile seed, so the seed moves the attacks.
 */
Workload
attack_storm(Rng* rng)
{
    workloads::AttackMixOptions options;
    options.attackers = 4;
    options.iterations_per_task = 550;
    options.delay_iters = rng->next_range(150, 250);
    options.delay_step = rng->next_range(300, 400);
    Workload w;
    w.name = "attack-storm";
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    config.ar_workers = 2;
    w.tenants.push_back({"attack-storm", workloads::attack_mix(options).factory,
                         config});
    w.threads = 4;  // recorder + CR, then two AR workers
    w.expect_attack = true;
    return w;
}

/** steady-record: a long alarm-free mysql session, streamed record->CR. */
Workload
steady_record(Rng* rng)
{
    workloads::WorkloadProfile profile = seeded_profile("mysql", rng);
    profile.iterations_per_task = 16 * bench_iterations("mysql");
    Workload w;
    w.name = "steady-record";
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    config.ar_workers = 2;
    w.tenants.push_back(
        {"steady-record", workloads::vm_factory(profile), config});
    w.threads = 2;  // recorder + CR; the AR pool never starts
    return w;
}

/**
 * fleet-fp: apache + mysql with a light longjmp storm (benign alarms),
 * dense checkpoints, and ARs booted from shipped checkpoint images.
 */
Workload
fleet_fp(Rng* rng)
{
    Workload w;
    w.name = "fleet-fp";
    w.fleet = true;
    w.fleet_options.workers = 2;
    w.fleet_options.tenant_inflight_cap = 2;
    w.fleet_options.ship_checkpoints = true;
    for (const char* name : {"apache", "mysql"}) {
        workloads::WorkloadProfile profile = seeded_profile(name, rng);
        profile.iterations_per_task =
            std::max<std::uint64_t>(bench_iterations(name) / 8, 200);
        profile.setjmp_prob = 0.025;
        core::FrameworkConfig config;
        config.pipeline = core::PipelineMode::kSerial;
        config.cr.checkpoint_interval = 250'000;
        w.tenants.push_back({name, workloads::vm_factory(profile), config});
    }
    w.threads = 4;  // two tenant sessions + two pool workers
    return w;
}

Workload
make_workload(const std::string& name, std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xe2e);
    if (name == "attack-storm")
        return attack_storm(&rng);
    if (name == "steady-record")
        return steady_record(&rng);
    if (name == "fleet-fp")
        return fleet_fp(&rng);
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n", name.c_str());
    std::exit(2);
}

// ------------------------------------------------------------ correctness

/** What a run must reproduce, per tenant. */
struct Digest {
    std::vector<std::pair<int, bool>> verdicts;  ///< (cause, is_attack)
    std::uint64_t rec_hash = 0;
    std::uint64_t cr_hash = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    bool attack = false;
};

Digest
digest_of(const core::FrameworkResult& r)
{
    Digest d;
    for (const auto& ar : r.ar_results)
        d.verdicts.emplace_back(static_cast<int>(ar.analysis.cause),
                                ar.analysis.is_attack);
    d.rec_hash = r.recorded_vm->state_hash();
    d.cr_hash = r.cr_vm->state_hash();
    d.counters = r.pipeline_stats.snapshot();
    d.attack = r.alarms.attack_detected();
    return d;
}

/** Checks attempted and failed over the whole process. */
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "e2ebench: check failed: %s\n",
                         what.c_str());
        }
    }

    /** One check per verdict, per state hash, and the counter snapshot
     *  (skipped for the traced run, which keeps no registry). */
    void compare(const Digest& ref, const Digest& got, bool counters,
                 bool expect_attack, const std::string& who)
    {
        for (std::size_t i = 0; i < ref.verdicts.size(); ++i)
            expect(i < got.verdicts.size() &&
                       got.verdicts[i] == ref.verdicts[i],
                   who + ": verdict " + std::to_string(i));
        if (got.verdicts.size() > ref.verdicts.size())
            expect(false, who + ": extra verdicts");
        expect(got.rec_hash == ref.rec_hash, who + ": recorded-VM hash");
        expect(got.cr_hash == ref.cr_hash, who + ": CR-VM hash");
        if (counters)
            expect(got.counters == ref.counters, who + ": counter snapshot");
        if (expect_attack)
            expect(got.attack, who + ": attack_detected");
    }

    /** A run that threw: every check it would have made failed. */
    void fail_all(const std::vector<Digest>& refs, bool counters,
                  bool expect_attack, const std::string& who,
                  const char* error)
    {
        std::fprintf(stderr, "e2ebench: %s threw: %s\n", who.c_str(), error);
        for (const Digest& ref : refs) {
            const std::uint64_t n = ref.verdicts.size() + 2 +
                                    (counters ? 1 : 0) +
                                    (expect_attack ? 1 : 0);
            attempted += n;
            failed += n;
        }
    }
};

/**
 * Solo kSerial framework run of every tenant: the reference. Adds the
 * wall time of the run() calls to @p run_ms.
 */
std::vector<Digest>
serial_digests(const Workload& w, double* run_ms)
{
    std::vector<Digest> out;
    for (const Tenant& t : w.tenants) {
        core::FrameworkConfig config = t.config;
        config.pipeline = core::PipelineMode::kSerial;
        core::RnrSafeFramework framework(t.factory, config);
        core::FrameworkResult r;
        {
            Span s(run_ms);
            r = framework.run();
        }
        out.push_back(digest_of(r));
    }
    return out;
}

// ------------------------------------------------- public-entry runs

struct PublicRun {
    double wall_ms = 0.0;
    std::vector<Digest> digests;  ///< in tenant order
    std::uint64_t verdicts = 0;   ///< alarm verdicts + one per session
    InstrCount instrs = 0;        ///< recorded guest instructions
    rnr::ChannelStats channel;    ///< summed over tenants
    fleet::PoolStats pool;
    std::uint64_t bytes_shipped = 0;
};

void
account(const core::FrameworkResult& r, PublicRun* run)
{
    run->digests.push_back(digest_of(r));
    run->verdicts += r.ar_results.size() + 1;
    run->instrs += r.recorded_vm->cpu().icount();
    run->channel.producer_waits += r.channel_stats.producer_waits;
    run->channel.consumer_waits += r.channel_stats.consumer_waits;
}

/** One run() through the workload's public entry point; only run() is
 *  timed (building the framework/fleet and dropping the result are not). */
PublicRun
public_run(const Workload& w)
{
    PublicRun run;
    if (!w.fleet) {
        const Tenant& t = w.tenants.front();
        core::RnrSafeFramework framework(t.factory, t.config);
        const auto t0 = Clock::now();
        const core::FrameworkResult r = framework.run();
        run.wall_ms = ms_since(t0);
        account(r, &run);
        return run;
    }
    std::vector<fleet::FleetTenant> tenants;
    for (const Tenant& t : w.tenants)
        tenants.push_back({t.name, t.factory, t.config});
    fleet::ReplayFleet replay_fleet(std::move(tenants), w.fleet_options);
    const auto t0 = Clock::now();
    const fleet::FleetResult r = replay_fleet.run();
    run.wall_ms = ms_since(t0);
    for (const Tenant& t : w.tenants)
        for (const auto& tenant : r.tenants)
            if (tenant.name == t.name) {
                account(tenant.result, &run);
                run.bytes_shipped += tenant.bytes_shipped;
            }
    run.pool = r.pool;
    return run;
}

// ------------------------------------------------------------ traced run

/** Wall time and work of every layer over one traced run. */
struct Layers {
    double vm_build_ms = 0, vm_teardown_ms = 0, record_ms = 0,
           cr_init_ms = 0, cr_exec_ms = 0, restore_ms = 0, ar_exec_ms = 0,
           encode_ms = 0, decode_ms = 0;
    /** Time spent on the benchmark's own checks (excluded from total). */
    double check_ms = 0;
    double total_ms = 0;

    std::uint64_t vms_built = 0, record_instrs = 0, log_records = 0,
                  log_bytes = 0, cr_init_pages = 0, cr_instrs = 0,
                  ckpt_takes = 0, pages_interned = 0, dedup_hits = 0,
                  bytes_stored = 0, ar_passes = 0, deep_reruns = 0,
                  ar_instrs = 0, image_bytes = 0;

    double attributed_ms() const
    {
        return vm_build_ms + vm_teardown_ms + record_ms + cr_init_ms +
               cr_exec_ms + restore_ms + ar_exec_ms + encode_ms + decode_ms;
    }
};

/**
 * One alarm replay as core::ArStage::analyze runs it — a fresh VM,
 * restore, replay to the alarm, and a second, deeper pass when the first
 * lacked user-mode call/ret tracing — with each call timed.
 */
replay::AlarmAnalysis
traced_alarm(const core::VmFactory& factory, const rnr::InputLog& log,
             const replay::Checkpoint& ck, std::size_t log_index,
             rnr::ReplayOptions options, Layers* l)
{
    options.trap_kernel_call_ret = true;
    replay::AlarmAnalysis analysis;
    for (int pass = 0; pass < 2; ++pass) {
        std::unique_ptr<hv::Vm> vm;
        {
            Span s(&l->vm_build_ms);
            vm = factory();
        }
        ++l->vms_built;
        {
            std::unique_ptr<replay::AlarmReplayer> ar;
            {
                Span s(&l->restore_ms);
                ar = std::make_unique<replay::AlarmReplayer>(vm.get(), &log,
                                                             ck, options);
            }
            {
                Span s(&l->ar_exec_ms);
                analysis = ar->analyze(log_index);
            }
        }
        ++l->ar_passes;
        l->ar_instrs += vm->cpu().icount() - ck.icount;
        {
            Span s(&l->vm_teardown_ms);
            vm.reset();
        }
        if (analysis.cause != replay::AlarmCause::kNeedsDeeperAnalysis)
            break;
        options.trap_user_call_ret = true;
        ++l->deep_reruns;
    }
    return analysis;
}

/** The serial pipeline of one tenant, layer by layer. */
Digest
traced_tenant(const Tenant& t, bool ship, Layers* l)
{
    Digest d;
    std::unique_ptr<hv::Vm> rec_vm;
    {
        Span s(&l->vm_build_ms);
        rec_vm = t.factory();
    }
    ++l->vms_built;
    auto recorder =
        std::make_unique<rnr::Recorder>(rec_vm.get(), t.config.recorder);
    {
        Span s(&l->record_ms);
        recorder->run(t.config.max_instructions);
    }
    const rnr::InputLog& log = recorder->log();
    l->record_instrs += rec_vm->cpu().icount();
    l->log_records += log.size();
    l->log_bytes += log.total_bytes();

    std::unique_ptr<hv::Vm> cr_vm;
    {
        Span s(&l->vm_build_ms);
        cr_vm = t.factory();
    }
    ++l->vms_built;
    std::unique_ptr<replay::CheckpointReplayer> cr;
    {
        Span s(&l->cr_init_ms);
        cr = std::make_unique<replay::CheckpointReplayer>(cr_vm.get(), &log,
                                                          t.config.cr);
    }
    const std::uint64_t init_raw = cr->checkpoints().stats().bytes_raw;
    {
        Span s(&l->cr_exec_ms);
        cr->run();
    }
    const replay::CheckpointStoreStats cs = cr->checkpoints().stats();
    l->cr_init_pages += init_raw / kPageSize;
    l->cr_instrs += cr_vm->cpu().icount();
    l->ckpt_takes += cr->checkpoints_taken();
    l->pages_interned += cs.bytes_raw / kPageSize;
    l->dedup_hits += cs.dedup_hits;
    l->bytes_stored += cs.bytes_stored;

    for (const replay::PendingAlarm& pending : cr->pending_alarms()) {
        replay::AlarmAnalysis analysis;
        if (!pending.checkpoint) {
            analysis.cause = replay::AlarmCause::kCheckpointUnavailable;
        } else if (ship) {
            std::vector<std::uint8_t> image;
            {
                Span s(&l->encode_ms);
                image = replay::ckpt::serialize_checkpoint(*pending.checkpoint);
            }
            l->image_bytes += image.size();
            replay::Checkpoint shipped;
            Status status;
            {
                Span s(&l->decode_ms);
                status = replay::ckpt::deserialize_checkpoint(image, &shipped);
            }
            if (status.ok())
                analysis = traced_alarm(t.factory, log, shipped,
                                        pending.log_index,
                                        t.config.cr.replay, l);
            else
                analysis.cause = replay::AlarmCause::kCheckpointUnavailable;
        } else {
            analysis = traced_alarm(t.factory, log, *pending.checkpoint,
                                    pending.log_index, t.config.cr.replay, l);
        }
        d.verdicts.emplace_back(static_cast<int>(analysis.cause),
                                analysis.is_attack);
        d.attack = d.attack || analysis.is_attack;
    }

    {
        Span s(&l->check_ms);
        d.rec_hash = rec_vm->state_hash();
        d.cr_hash = cr_vm->state_hash();
    }
    // Engines go first: they hold pointers into their VMs.
    cr.reset();
    recorder.reset();
    {
        Span s(&l->vm_teardown_ms);
        cr_vm.reset();
        rec_vm.reset();
    }
    return d;
}

std::vector<Digest>
traced_run(const Workload& w, Layers* l)
{
    std::vector<Digest> out;
    const auto t0 = Clock::now();
    for (const Tenant& t : w.tenants)
        out.push_back(traced_tenant(t, w.fleet_options.ship_checkpoints, l));
    // A layer this workload never calls (the AR path on steady-record,
    // image coding outside fleet-fp) is charged one empty span, the
    // timer's own cost: every time reported is measured, never a fixed 0.
    for (double* ms : {&l->vm_build_ms, &l->vm_teardown_ms, &l->record_ms,
                       &l->cr_init_ms, &l->cr_exec_ms, &l->restore_ms,
                       &l->ar_exec_ms, &l->encode_ms, &l->decode_ms})
        if (*ms == 0.0) {
            Span s(ms);
        }
    l->total_ms = ms_since(t0) - l->check_ms;
    return out;
}

// ------------------------------------------------------------ reporting

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
print_json(const Checks& checks, const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** "median, p<k> with >= 10 samples above it, n" for a timing series. */
void
print_timing(const char* name, const char* unit, std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::printf("%-22s median %.3f %s", name, median(v), unit);
    if (v.size() > 10) {
        const std::size_t idx = v.size() - 11;
        std::printf(", p%zu %.3f %s", (idx + 1) * 100 / v.size(), v[idx],
                    unit);
    }
    if (!v.empty())
        std::printf(", min %.3f max %.3f", v.front(), v.back());
    std::printf(" (n=%zu)\n", v.size());
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Layer time per unit of work; a layer with no work reports its time. */
double
per_unit(double ms, std::uint64_t units, double scale)
{
    return ms * scale / static_cast<double>(std::max<std::uint64_t>(units, 1));
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Args
parse_args(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            args.seconds = std::atof(value.c_str());
        } else if (key == "--trace") {
            args.trace = value != "0";
        } else {
            std::fprintf(stderr, "e2ebench: unknown option %s\n",
                         key.c_str());
            std::exit(2);
        }
    }
    if (argc % 2 == 0 || !have_workload || args.seconds <= 0) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n");
        std::exit(2);
    }
    return args;
}

/**
 * Set-up repeats before the reference run. setup_s is the median of these
 * plus one more before every timed run: samples spread over the whole run
 * see the host as the timed runs do, not as it was in one half second.
 */
constexpr int kSetupRepeats = 5;

/** Workload construction plus one VM from each factory. */
double
setup_once(const Args& args)
{
    const auto t0 = Clock::now();
    const Workload w = make_workload(args.workload, args.seed);
    for (const Tenant& t : w.tenants)
        t.factory().reset();
    return ms_since(t0) / 1000.0;
}

int
run(const Args& args)
{
    std::vector<double> setup;
    for (int i = 0; i < kSetupRepeats; ++i)
        setup.push_back(setup_once(args));
    const Workload w = make_workload(args.workload, args.seed);
    const unsigned host_cpus = std::thread::hardware_concurrency();
    std::printf("e2ebench: workload %s seed %llu trace %d host_cpus %u "
                "threads %zu\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, host_cpus, w.threads);

    Checks checks;
    double ref_ms = 0;
    const std::vector<Digest> ref = serial_digests(w, &ref_ms);
    if (w.expect_attack)
        checks.expect(ref.front().attack, "reference attack_detected");
    std::uint64_t ref_alarms = 0;
    for (const Digest& d : ref)
        ref_alarms += d.verdicts.size();
    std::printf("reference: %zu tenant(s), %llu alarm verdicts\n",
                ref.size(), static_cast<unsigned long long>(ref_alarms));

    const auto check_public = [&](const PublicRun& run) {
        if (run.digests.size() != ref.size()) {
            checks.fail_all(ref, true, w.expect_attack, w.name,
                            "tenant results missing");
            return;
        }
        for (std::size_t i = 0; i < ref.size(); ++i)
            checks.compare(ref[i], run.digests[i], /*counters=*/true,
                           w.expect_attack, w.tenants[i].name);
    };
    const auto budget_left = [&, start = Clock::now()](std::size_t done) {
        return done == 0 || ms_since(start) < args.seconds * 1000.0;
    };
    std::vector<Metric> metrics;

    // One checked, untimed run first, so the timed runs start with the
    // allocator and the worker threads' stacks already warm.
    try {
        check_public(public_run(w));
    } catch (const std::exception& e) {
        checks.fail_all(ref, true, w.expect_attack, w.name, e.what());
    }

    if (!args.trace) {
        std::vector<double> wall;
        std::uint64_t verdicts = 0;
        InstrCount instrs = 0;
        while (budget_left(wall.size())) {
            setup.push_back(setup_once(args));
            try {
                const PublicRun run = public_run(w);
                check_public(run);
                wall.push_back(run.wall_ms);
                verdicts = run.verdicts;
                instrs = run.instrs;
            } catch (const std::exception& e) {
                checks.fail_all(ref, true, w.expect_attack, w.name, e.what());
                break;
            }
        }
        const double wall_ms = median(wall);
        print_timing("run_wall_ms", "ms", wall);
        const double wall_s = wall_ms / 1000.0;
        metrics = {
            {"run_wall_ms", wall_ms, "ms"},
            {"verdicts_per_s", wall_s > 0 ? verdicts / wall_s : 0.0, "1/s"},
            {"guest_mips", wall_s > 0 ? instrs / wall_s / 1e6 : 0.0,
             "Minstr/s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
        print_timing("setup_s", "s", setup);
        std::printf("failed_share %.6f (%llu of %llu checks)\n",
                    checks.attempted == 0
                        ? 0.0
                        : double(checks.failed) / double(checks.attempted),
                    static_cast<unsigned long long>(checks.failed),
                    static_cast<unsigned long long>(checks.attempted));
        print_json(checks, metrics);
        return 0;
    }

    // Traced mode: the layer profile, plus per iteration one public-entry
    // run (channel and pool counters) and one serial run without layer
    // timers (the timers' overhead is total - serial).
    std::vector<Layers> traced;
    std::vector<double> serial_wall, public_wall;
    std::vector<double> producer_waits, consumer_waits, starved, steals,
        max_admitted, shipped;
    while (budget_left(traced.size())) {
        try {
            Layers l;
            const std::vector<Digest> got = traced_run(w, &l);
            for (std::size_t i = 0; i < ref.size(); ++i)
                checks.compare(ref[i], got[i], /*counters=*/false,
                               w.expect_attack,
                               w.tenants[i].name + " (traced)");
            traced.push_back(l);

            const PublicRun run = public_run(w);
            check_public(run);
            public_wall.push_back(run.wall_ms);
            producer_waits.push_back(double(run.channel.producer_waits));
            consumer_waits.push_back(double(run.channel.consumer_waits));
            starved.push_back(double(run.pool.starved_waits));
            steals.push_back(double(run.pool.steals));
            max_admitted.push_back(double(run.pool.max_admitted));
            shipped.push_back(double(run.bytes_shipped));

            double serial_ms = 0;
            serial_digests(w, &serial_ms);
            serial_wall.push_back(serial_ms);
        } catch (const std::exception& e) {
            checks.fail_all(ref, true, w.expect_attack, w.name, e.what());
            break;
        }
    }
    if (traced.empty()) {
        print_json(checks, metrics);
        return 0;
    }

    // Medians over iterations; counts are deterministic, so the last
    // iteration's are every iteration's.
    const auto med = [&](double Layers::*field) {
        std::vector<double> v;
        for (const Layers& l : traced)
            v.push_back(l.*field);
        return median(v);
    };
    const Layers& last = traced.back();
    const double total = med(&Layers::total_ms);
    std::vector<double> unattributed_v;
    for (const Layers& l : traced)
        unattributed_v.push_back(l.total_ms - l.attributed_ms());
    const double unattributed = median(unattributed_v);
    const auto share = [&](double ms) {
        return total > 0 ? 100.0 * ms / total : 0.0;
    };

    // One row per layer: wall time, share of the traced total, units of
    // work, and cost per unit.
    struct Row {
        const char* layer;
        double ms;
        std::uint64_t units;
        const char* unit;       ///< one unit of work, e.g. "instr"
        const char* units_key;  ///< metric name of the unit count (null
                                ///< when another metric reports it)
        const char* per_key;    ///< metric name of the per-unit cost
        bool per_us;            ///< per-unit cost in us (else ns)
    };
    const std::vector<Row> rows = {
        {"hv.vm_build", med(&Layers::vm_build_ms), last.vms_built, "VM",
         "count", "us_per_vm", true},
        {"hv.vm_teardown", med(&Layers::vm_teardown_ms), last.vms_built,
         "VM", nullptr, "us_per_vm", true},
        {"rnr.record", med(&Layers::record_ms), last.record_instrs, "instr",
         "instrs", "ns_per_instr", false},
        {"replay.cr_init", med(&Layers::cr_init_ms), last.cr_init_pages,
         "page", "pages", "ns_per_page", false},
        {"replay.cr_exec", med(&Layers::cr_exec_ms), last.cr_instrs, "instr",
         "instrs", "ns_per_instr", false},
        {"replay.ckpt_restore", med(&Layers::restore_ms), last.ar_passes,
         "AR", nullptr, "us_per_ar", true},
        {"replay.ar_exec", med(&Layers::ar_exec_ms), last.ar_instrs, "instr",
         "instrs", "ns_per_instr", false},
        {"ckpt_image.encode", med(&Layers::encode_ms), last.image_bytes,
         "byte", nullptr, "ns_per_byte", false},
        {"ckpt_image.decode", med(&Layers::decode_ms), last.image_bytes,
         "byte", nullptr, "ns_per_byte", false},
    };
    std::printf("\nlayer profile (traced, 1 thread, median of %zu)\n",
                traced.size());
    std::printf("%-20s %10s %7s %16s %16s\n", "layer", "wall ms", "share",
                "units", "per unit");
    for (const Row& r : rows) {
        const double per = per_unit(r.ms, r.units, r.per_us ? 1e3 : 1e6);
        std::printf("%-20s %10.3f %6.1f%% %10llu %-5s", r.layer, r.ms,
                    share(r.ms), static_cast<unsigned long long>(r.units),
                    r.unit);
        if (r.units == 0)
            std::printf(" %10s\n", "-");
        else
            std::printf(" %10.3f %s/%s\n", per, r.per_us ? "us" : "ns",
                        r.unit);
        const std::string name = r.layer;
        metrics.push_back({name + ".ms", r.ms, "ms"});
        metrics.push_back({name + ".share", share(r.ms), "%"});
        if (r.units_key != nullptr)
            metrics.push_back({name + "." + r.units_key, double(r.units),
                               r.unit[0] == 'i' ? "instr" : "count"});
        metrics.push_back({name + "." + r.per_key, per,
                           r.per_us ? "us" : "ns"});
    }
    std::printf("%-20s %10.3f %6.1f%%\n", "(unattributed)", unattributed,
                share(unattributed));
    std::printf("%-20s %10.3f  untraced serial %.3f ms, untraced %s "
                "%.3f ms\n",
                "trace.total", total, median(serial_wall),
                w.fleet ? "fleet" : "framework", median(public_wall));
    if (share(unattributed) > 5.0)
        std::printf("FLAG: %s leaves %.1f%% of the traced run unattributed "
                    "(limit 5%%)\n",
                    w.name.c_str(), share(unattributed));

    const std::vector<Metric> counters = {
        {"rnr.log.records", double(last.log_records), "count"},
        {"rnr.log.bytes", double(last.log_bytes), "bytes"},
        {"rnr.channel.producer_waits", median(producer_waits), "count"},
        {"rnr.channel.consumer_waits", median(consumer_waits), "count"},
        {"replay.ckpt.takes", double(last.ckpt_takes), "count"},
        {"replay.ckpt.pages_interned", double(last.pages_interned), "count"},
        {"replay.ckpt.dedup_hits", double(last.dedup_hits), "count"},
        {"replay.ckpt.bytes_stored", double(last.bytes_stored), "bytes"},
        {"replay.ar.count", double(last.ar_passes), "count"},
        {"replay.ar.deep_reruns", double(last.deep_reruns), "count"},
        {"ckpt_image.bytes", double(last.image_bytes), "bytes"},
        {"fleet.pool.starved_waits", median(starved), "count"},
        {"fleet.pool.steals", median(steals), "count"},
        {"fleet.pool.max_admitted", median(max_admitted), "count"},
        {"fleet.bytes_shipped", median(shipped), "bytes"},
        {"trace.total.ms", total, "ms"},
        {"trace.unattributed.ms", unattributed, "ms"},
        {"trace.unattributed.share", share(unattributed), "%"},
        {"trace.untraced_serial.ms", median(serial_wall), "ms"},
        {"trace.untraced_run.ms", median(public_wall), "ms"},
    };
    metrics.insert(metrics.end(), counters.begin(), counters.end());
    print_json(checks, metrics);
    return 0;
}

}  // namespace
}  // namespace rsafe::e2ebench

int
main(int argc, char** argv)
{
    const rsafe::e2ebench::Args args =
        rsafe::e2ebench::parse_args(argc, argv);
    try {
        return rsafe::e2ebench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
