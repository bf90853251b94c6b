/**
 * @file
 * Checkpoint-storage benchmark and CI gate (BENCH_ckpt.json).
 *
 * Measures what the ckpt_store subsystem actually buys on real
 * workloads: a checkpointing replay of a fileio recording and of the
 * attack mix, reporting the dedup+RLE byte reduction across the whole
 * checkpoint chain, the size of a standalone serialized checkpoint (the
 * export image: a one-image kCheckpointDelta stream) against the raw
 * state it carries, and the latency of booting a fresh VM from the wire
 * image versus from the in-memory checkpoint.
 *
 * Pass --gate <baseline.json> to run as a CI gate: the storage
 * reductions are deterministic functions of the log, so they are gated
 * with hard floors (>= 4x both); the restore-latency ratio is wall-clock
 * and gated relative to the checked-in baseline within
 * RSAFE_BENCH_GATE_TOLERANCE percent (default 10).
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/log.h"
#include "replay/checkpoint.h"
#include "replay/checkpoint_replayer.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "rnr/recorder.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace {

using namespace rsafe;
using Clock = std::chrono::steady_clock;

double
ns_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** One workload's storage + restore measurements. */
struct CkptBench {
    std::string name;
    std::size_t checkpoints = 0;
    replay::CheckpointStoreStats stats;
    std::size_t image_bytes = 0;  ///< serialized latest checkpoint
    std::size_t state_bytes = 0;  ///< raw pages+blocks it carries
    double restore_mem_ns = 0.0;    ///< fresh VM from in-memory ckpt
    double restore_image_ns = 0.0;  ///< fresh VM from the wire image

    double byte_reduction() const
    {
        return stats.bytes_stored == 0
                   ? 0.0
                   : static_cast<double>(stats.bytes_raw) /
                         static_cast<double>(stats.bytes_stored);
    }
    double image_reduction() const
    {
        return image_bytes == 0 ? 0.0
                                : static_cast<double>(state_bytes) /
                                      static_cast<double>(image_bytes);
    }
    /** In-memory over image restore time: how close the wire path is to
     *  the native one (1.0 = free shipping; includes the decode). */
    double restore_ratio() const
    {
        return restore_image_ns == 0.0 ? 0.0
                                       : restore_mem_ns / restore_image_ns;
    }
};

using VmFactory = std::function<std::unique_ptr<hv::Vm>()>;

CkptBench
measure_workload(const std::string& name, const VmFactory& factory,
                 Cycles interval)
{
    CkptBench out;
    out.name = name;

    // Record the workload, then run the checkpointing replayer over the
    // finished log with an unlimited chain so dedup works across the
    // whole history — the shape the byte-reduction figures describe.
    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    if (recorder.run(~static_cast<InstrCount>(0)) != hv::RunResult::kHalted)
        fatal("bench_ckpt: recording did not halt");
    const rnr::InputLog& log = recorder.log();

    replay::CrOptions options;
    options.checkpoint_interval = interval;
    options.store.max_keep = 0;
    auto cr_vm = factory();
    replay::CheckpointReplayer cr(cr_vm.get(), &log, options);
    if (cr.run() != rnr::ReplayOutcome::kFinished)
        fatal("bench_ckpt: checkpointing replay did not finish");

    out.checkpoints = cr.checkpoints().size();
    out.stats = cr.checkpoints().stats();

    const auto ck = cr.checkpoints().latest();
    if (ck == nullptr)
        fatal("bench_ckpt: no checkpoint taken");
    const std::vector<std::uint8_t> image =
        replay::ckpt::serialize_checkpoint(*ck);
    out.image_bytes = image.size();
    for (const replay::StoreSnapshot& store : ck->stores)
        out.state_bytes += store.slots.size() * kPageSize;

    // Restore latency, best of three: a fresh VM booted from the
    // in-memory checkpoint (full rewrite) versus from the wire image
    // (decode + full rewrite) — the remote-AR boot path.
    for (int round = 0; round < 3; ++round) {
        auto mem_vm = factory();
        rnr::Replayer mem_env(mem_vm.get(), &log, ck->log_pos,
                              rnr::ReplayOptions{});
        const auto t0 = Clock::now();
        replay::restore_checkpoint(*ck, mem_vm.get(), &mem_env);
        const auto t1 = Clock::now();
        const double mem_ns = ns_between(t0, t1);
        if (round == 0 || mem_ns < out.restore_mem_ns)
            out.restore_mem_ns = mem_ns;

        auto img_vm = factory();
        rnr::Replayer img_env(img_vm.get(), &log, ck->log_pos,
                              rnr::ReplayOptions{});
        const auto t2 = Clock::now();
        replay::Checkpoint shipped;
        if (!replay::ckpt::deserialize_checkpoint(image, &shipped).ok())
            fatal("bench_ckpt: freshly serialized image did not decode");
        replay::restore_checkpoint(shipped, img_vm.get(), &img_env);
        const auto t3 = Clock::now();
        const double img_ns = ns_between(t2, t3);
        if (round == 0 || img_ns < out.restore_image_ns)
            out.restore_image_ns = img_ns;

        if (img_vm->state_hash() != mem_vm->state_hash())
            fatal("bench_ckpt: wire restore diverged from in-memory");
    }
    return out;
}

/** Everything that lands in BENCH_ckpt.json. */
struct BenchResults {
    std::vector<CkptBench> workloads;

    /** Worst case across workloads: the gate covers every workload. */
    double min_byte_reduction() const
    {
        double min = 0.0;
        for (const auto& w : workloads)
            if (min == 0.0 || w.byte_reduction() < min)
                min = w.byte_reduction();
        return min;
    }
    double min_image_reduction() const
    {
        double min = 0.0;
        for (const auto& w : workloads)
            if (min == 0.0 || w.image_reduction() < min)
                min = w.image_reduction();
        return min;
    }
    double min_restore_ratio() const
    {
        double min = 0.0;
        for (const auto& w : workloads)
            if (min == 0.0 || w.restore_ratio() < min)
                min = w.restore_ratio();
        return min;
    }
};

BenchResults
measure_all()
{
    BenchResults r;
    auto fileio = workloads::benchmark_profile("fileio");
    fileio.iterations_per_task = 400;
    r.workloads.push_back(
        measure_workload("fileio", workloads::vm_factory(fileio),
                         1'000'000));

    workloads::AttackMixOptions attack;
    attack.iterations_per_task = 150;
    r.workloads.push_back(measure_workload(
        "attack", workloads::attack_mix(attack).factory, 100'000));
    return r;
}

void
write_bench_json(const BenchResults& r, const char* path)
{
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"rsafe-bench-ckpt-v1\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"workloads\": {\n");
    for (std::size_t i = 0; i < r.workloads.size(); ++i) {
        const auto& w = r.workloads[i];
        std::fprintf(f, "    \"%s\": {\n", w.name.c_str());
        std::fprintf(f, "      \"checkpoints\": %zu,\n", w.checkpoints);
        std::fprintf(f, "      \"bytes_raw\": %llu,\n",
                     static_cast<unsigned long long>(w.stats.bytes_raw));
        std::fprintf(f, "      \"bytes_stored\": %llu,\n",
                     static_cast<unsigned long long>(w.stats.bytes_stored));
        std::fprintf(f, "      \"dedup_hits\": %llu,\n",
                     static_cast<unsigned long long>(w.stats.dedup_hits));
        std::fprintf(f, "      \"live_bytes\": %llu,\n",
                     static_cast<unsigned long long>(w.stats.live_bytes));
        std::fprintf(f, "      \"image_bytes\": %zu,\n", w.image_bytes);
        std::fprintf(f, "      \"state_bytes\": %zu,\n", w.state_bytes);
        std::fprintf(f, "      \"restore_mem_ns\": %.0f,\n",
                     w.restore_mem_ns);
        std::fprintf(f, "      \"restore_image_ns\": %.0f\n",
                     w.restore_image_ns);
        std::fprintf(f, "    }%s\n",
                     i + 1 < r.workloads.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"ratios\": {\n");
    std::fprintf(f, "    \"byte_reduction\": %.3f,\n",
                 r.min_byte_reduction());
    std::fprintf(f, "    \"image_reduction\": %.3f,\n",
                 r.min_image_reduction());
    std::fprintf(f, "    \"restore_image_ratio\": %.3f\n",
                 r.min_restore_ratio());
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (byte reduction %.1fx, image %.1fx, "
                "wire restore at %.0f%% of native)\n",
                path, r.min_byte_reduction(), r.min_image_reduction(),
                r.min_restore_ratio() * 100.0);
}

/**
 * CI gate: the storage reductions carry hard floors (they are
 * deterministic functions of the log); the wall-clock restore ratio is
 * relative to the baseline within the tolerance.
 * @return the process exit code (0 = pass).
 */
int
run_gate(const BenchResults& r, const char* baseline_path)
{
    bench::BaselineGate gate(baseline_path);
    if (!gate.loaded()) {
        std::fprintf(stderr, "gate: cannot read baseline %s\n",
                     baseline_path);
        return 2;
    }
    gate.at_least("byte_reduction", r.min_byte_reduction(), 4.0);
    gate.at_least("image_reduction", r.min_image_reduction(), 4.0);
    gate.at_least("restore_image_ratio", r.min_restore_ratio());
    return gate.ok() ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const char* gate_baseline = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--gate" && i + 1 < argc)
            gate_baseline = argv[++i];
    }
    const BenchResults results = measure_all();
    write_bench_json(results, "BENCH_ckpt.json");
    if (gate_baseline != nullptr)
        return run_gate(results, gate_baseline);
    return 0;
}
