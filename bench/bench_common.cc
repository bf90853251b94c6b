#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "common/log.h"

namespace rsafe::bench {

const char*
rec_mode_name(RecMode mode)
{
    switch (mode) {
      case RecMode::kNoRecPV: return "NoRecPV";
      case RecMode::kNoRec: return "NoRec";
      case RecMode::kRecNoRAS: return "RecNoRAS";
      case RecMode::kRec: return "Rec";
    }
    return "<bad>";
}

namespace {

double
scale_factor()
{
    const char* env = std::getenv("RSAFE_BENCH_SCALE");
    if (env == nullptr)
        return 1.0;
    const double value = std::atof(env);
    return value > 0 ? value : 1.0;
}

/** Iterations per task, sized for runs of roughly 10M instructions. */
std::uint64_t
bench_iterations(const std::string& name)
{
    if (name == "apache") return 1500;
    if (name == "fileio") return 350;
    if (name == "make") return 1500;
    if (name == "mysql") return 2200;
    if (name == "radiosity") return 3500;
    return 1000;
}

}  // namespace

workloads::WorkloadProfile
bench_profile(const std::string& name)
{
    auto profile = workloads::benchmark_profile(name);
    profile.iterations_per_task = static_cast<std::uint64_t>(
        double(bench_iterations(name)) * scale_factor());
    return profile;
}

RunResult
run_recording(const workloads::WorkloadProfile& profile, RecMode mode)
{
    RunResult result;
    result.vm = workloads::make_vm(profile);
    if (mode == RecMode::kRec || mode == RecMode::kRecNoRAS) {
        rnr::RecorderOptions options;
        if (mode == RecMode::kRecNoRAS) {
            options.manage_backras = false;
            options.ras_alarms = false;
            options.evict_exits = false;
            options.whitelists = false;
        }
        result.recorder =
            std::make_unique<rnr::Recorder>(result.vm.get(), options);
        const auto run = result.recorder->run(~static_cast<InstrCount>(0));
        if (run != hv::RunResult::kHalted)
            fatal("bench recording did not halt (" + profile.name + ")");
    } else {
        hv::HvOptions options;
        options.mediate_io = mode == RecMode::kNoRec;
        options.manage_backras = false;
        hv::Hypervisor hv(result.vm.get(), options);
        const auto run = hv.run(~static_cast<InstrCount>(0));
        if (run != hv::RunResult::kHalted)
            fatal("bench baseline did not halt (" + profile.name + ")");
    }
    result.cycles = result.vm->cpu().cycles();
    result.instructions = result.vm->cpu().icount();
    return result;
}

ReplayResult
run_checkpoint_replay(const workloads::WorkloadProfile& profile,
                      const rnr::InputLog& log, double interval_seconds)
{
    auto vm = workloads::make_vm(profile);
    replay::CrOptions options;
    options.checkpoint_interval = static_cast<Cycles>(
        interval_seconds * double(kCyclesPerSecond));
    options.store.max_keep = 0;
    replay::CheckpointReplayer cr(vm.get(), &log, options);
    const auto outcome = cr.run();
    if (outcome != rnr::ReplayOutcome::kFinished)
        fatal("bench replay did not finish (" + profile.name + ")");

    ReplayResult result;
    result.cycles = vm->cpu().cycles();
    result.checkpoints = cr.checkpoints_taken();
    result.copies = cr.checkpoints().total_copies();
    result.overhead = cr.overhead();
    result.single_steps = cr.single_steps();
    result.underflows_resolved = cr.underflows_resolved();
    result.pending_alarms = cr.pending_alarms().size();
    return result;
}

double
geo_mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / double(values.size()));
}

void
emit(const stats::Table& table)
{
    std::fputs(table.to_string().c_str(), stdout);
    std::fputc('\n', stdout);
}

double
json_number(const std::string& text, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle);
    if (pos == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

BaselineGate::BaselineGate(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    loaded_ = in.is_open();
    text_.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    if (const char* env = std::getenv("RSAFE_BENCH_GATE_TOLERANCE");
        env != nullptr && env[0] != '\0') {
        tolerance_ = std::strtod(env, nullptr) / 100.0;
    }
}

double
BaselineGate::baseline(const std::string& key) const
{
    return json_number(text_, key);
}

void
BaselineGate::at_least(const std::string& key, double fresh,
                       double hard_floor)
{
    // A missing key fails in report() rather than gating on the floor
    // alone, so renaming a key cannot switch its gate off.
    const double ref = baseline(key);
    const double need = std::max(ref * (1.0 - tolerance_), hard_floor);
    report(key, fresh, ref, ">=", need, fresh >= need);
}

void
BaselineGate::at_most(const std::string& key, double fresh)
{
    const double ref = baseline(key);
    const double need = ref * (1.0 + tolerance_);
    report(key, fresh, ref, "<=", need, fresh <= need);
}

void
BaselineGate::report(const std::string& key, double fresh, double ref,
                     const char* op, double need, bool pass)
{
    // A key missing from the baseline always fails.
    pass = pass && !std::isnan(ref);
    if (std::isnan(ref)) {
        std::printf("gate: %-26s %10.2f (baseline missing) REGRESSION\n",
                    key.c_str(), fresh);
    } else {
        std::printf(
            "gate: %-26s %10.2f (baseline %10.2f, need %s %.2f) %s\n",
            key.c_str(), fresh, ref, op, need, pass ? "ok" : "REGRESSION");
    }
    ok_ = ok_ && pass;
}

}  // namespace rsafe::bench
