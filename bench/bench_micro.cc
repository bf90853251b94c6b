/**
 * @file
 * Micro-benchmarks (google-benchmark) of the substrate's hot paths:
 * interpreter and translation-block engine throughput, RAS operations,
 * log serialization, and checkpoint page copying.
 *
 * Besides the google-benchmark suite, the binary always finishes by
 * writing machine-readable results to BENCH_micro.json: instructions/sec
 * and ns/instr for the TB engine and for the reference interpreter
 * (TB off, single-stepping Cpu::exec_one), full/incremental checkpoint
 * costs, and machine-independent TB-over-interpreter speedup ratios.
 * The throughput figures are the median of kRepetitions short in-process
 * repetitions, and each ratio is the median of the per-repetition
 * ratios (TB and interpreter measured back to back), so a burst of load
 * on a shared host moves the gated value far less than it moves any one
 * measurement. Pass --json-only to skip the google-benchmark suite and
 * emit just the JSON.
 *
 * Pass --gate <baseline.json> to run as a CI perf gate: the fresh
 * median ratios are compared against the checked-in baseline and the
 * process exits non-zero on a regression beyond the tolerance
 * (RSAFE_BENCH_GATE_TOLERANCE, percent, default 10) or on a gated key
 * missing from the baseline. Ratios — not absolute throughput — are
 * gated so the check is meaningful across machines of different speeds.
 * The TB-over-interpreter ALU speedup additionally has an absolute floor
 * of 10x.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cpu/cpu.h"
#include "cpu/ras.h"
#include "isa/assembler.h"
#include "mem/phys_mem.h"
#include "replay/checkpoint.h"
#include "rnr/log_record.h"
#include "rnr/replayer.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace {

using namespace rsafe;

class NullEnv : public cpu::CpuEnv {
  public:
    Word on_rdtsc() override { return 0; }
    Word on_io_in(std::uint16_t) override { return 0; }
    void on_io_out(std::uint16_t, Word) override {}
    Word on_mmio_read(Addr) override { return 0; }
    void on_mmio_write(Addr, Word) override {}
    void on_breakpoint(Addr) override {}
    void on_ras_alarm(const cpu::RasAlarm&) override {}
    void on_ras_evict(Addr) override {}
    void on_call_ret(const cpu::CallRetEvent&) override {}
};

void
BM_InterpreterAluLoop(benchmark::State& state)
{
    isa::Assembler a(0x1000);
    a.ldi(isa::R1, 1);
    a.label("loop");
    a.add(isa::R2, isa::R2, isa::R1);
    a.xori(isa::R2, isa::R2, 0x55);
    a.shli(isa::R3, isa::R2, 3);
    a.jmp("loop");
    auto image = a.link();

    mem::PhysMem mem(1 << 20);
    mem.load_image(image);
    mem.set_perms(0x1000, image.size(), mem::kPermRX);
    cpu::Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.state().pc = 0x1000;
    cpu.state().sp = 0x80000;

    for (auto _ : state) {
        cpu.run(~static_cast<Cycles>(0), cpu.icount() + 100000);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cpu.icount()));
}
BENCHMARK(BM_InterpreterAluLoop);

void
BM_InterpreterAluLoopNoTb(benchmark::State& state)
{
    isa::Assembler a(0x1000);
    a.ldi(isa::R1, 1);
    a.label("loop");
    a.add(isa::R2, isa::R2, isa::R1);
    a.xori(isa::R2, isa::R2, 0x55);
    a.shli(isa::R3, isa::R2, 3);
    a.jmp("loop");
    auto image = a.link();

    mem::PhysMem mem(1 << 20);
    mem.load_image(image);
    mem.set_perms(0x1000, image.size(), mem::kPermRX);
    cpu::Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.set_tb_enabled(false);
    cpu.state().pc = 0x1000;
    cpu.state().sp = 0x80000;

    for (auto _ : state) {
        cpu.run(~static_cast<Cycles>(0), cpu.icount() + 100000);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cpu.icount()));
}
BENCHMARK(BM_InterpreterAluLoopNoTb);

void
BM_InterpreterCallRet(benchmark::State& state)
{
    isa::Assembler a(0x1000);
    a.label("loop");
    a.call("fn");
    a.jmp("loop");
    a.func_begin("fn");
    a.ret();
    a.func_end();
    auto image = a.link();

    mem::PhysMem mem(1 << 20);
    mem.load_image(image);
    mem.set_perms(0x1000, image.size(), mem::kPermRX);
    cpu::Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.state().pc = 0x1000;
    cpu.state().sp = 0x80000;

    for (auto _ : state)
        cpu.run(~static_cast<Cycles>(0), cpu.icount() + 100000);
    state.SetItemsProcessed(static_cast<std::int64_t>(cpu.icount()));
}
BENCHMARK(BM_InterpreterCallRet);

void
BM_RasPushPredict(benchmark::State& state)
{
    cpu::Ras ras(48);
    Addr predicted;
    for (auto _ : state) {
        ras.push(0x1234);
        benchmark::DoNotOptimize(ras.predict(0, 0x1234, &predicted));
    }
}
BENCHMARK(BM_RasPushPredict);

void
BM_RasSaveRestore(benchmark::State& state)
{
    cpu::Ras ras(48);
    for (int i = 0; i < 48; ++i)
        ras.push(0x1000 + i);
    for (auto _ : state) {
        auto saved = ras.save_and_clear();
        ras.load(saved);
    }
}
BENCHMARK(BM_RasSaveRestore);

void
BM_LogRecordSerialize(benchmark::State& state)
{
    rnr::LogRecord record;
    record.type = rnr::RecordType::kNicDma;
    record.icount = 123456;
    record.addr = 0x10000;
    record.payload.assign(1500, 0xab);
    std::vector<std::uint8_t> out;
    for (auto _ : state) {
        out.clear();
        record.serialize(&out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * out.size()));
}
BENCHMARK(BM_LogRecordSerialize);

void
BM_MemContentHash(benchmark::State& state)
{
    mem::PhysMem mem(8 << 20);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.store().content_hash());
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * mem.size()));
}
BENCHMARK(BM_MemContentHash);

// --- Machine-readable results (BENCH_micro.json) ---

/** Timed measurement of one metric. */
struct InterpResult {
    double instr_per_sec = 0.0;
    double ns_per_instr = 0.0;
};

/** The VMCS controls a measurement arms. */
enum class Arming {
    kNone,
    /** The recorder's: RAS alarms, eviction exits and whitelists (one
     *  ret PC, three targets, none of them in the loop). */
    kMonitored,
    /** The alarm replayer's: kernel call/ret traced, the guest in kernel
     *  mode, so every call and ret takes a trap into a no-op handler. */
    kTraced,
};

/** Run @p instrs guest instructions of a loop program and time them. */
InterpResult
measure_interpreter(const isa::Image& image, bool tb, InstrCount instrs,
                    Arming arming = Arming::kNone)
{
    mem::PhysMem mem(1 << 20);
    mem.load_image(image);
    mem.set_perms(image.base(), image.size(), mem::kPermRX);
    cpu::Cpu cpu(&mem);
    NullEnv env;
    cpu.set_env(&env);
    cpu.set_tb_enabled(tb);
    if (arming == Arming::kMonitored) {
        cpu.vmcs().controls.ras_alarm_enabled = true;
        cpu.vmcs().controls.ras_evict_exit = true;
        cpu.vmcs().controls.whitelist_enabled = true;
        cpu.ras().set_ret_whitelist({0x800});
        cpu.ras().set_tar_whitelist({0x900, 0x908, 0x910});
    }
    if (arming == Arming::kTraced) {
        cpu.vmcs().controls.trap_kernel_call_ret = true;
        cpu.state().mode = cpu::Mode::kKernel;
    }
    cpu.state().pc = image.base();
    cpu.state().sp = 0x80000;

    cpu.run(~static_cast<Cycles>(0), instrs / 10);  // warm up
    const InstrCount start = cpu.icount();
    const auto t0 = std::chrono::steady_clock::now();
    cpu.run(~static_cast<Cycles>(0), start + instrs);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    const double executed = static_cast<double>(cpu.icount() - start);
    return {executed / (ns * 1e-9), ns / executed};
}

isa::Image
alu_loop_image()
{
    isa::Assembler a(0x1000);
    a.ldi(isa::R1, 1);
    a.label("loop");
    a.add(isa::R2, isa::R2, isa::R1);
    a.xori(isa::R2, isa::R2, 0x55);
    a.shli(isa::R3, isa::R2, 3);
    a.jmp("loop");
    return a.link();
}

isa::Image
call_ret_image()
{
    isa::Assembler a(0x1000);
    a.label("loop");
    a.call("fn");
    a.jmp("loop");
    a.func_begin("fn");
    a.ret();
    a.func_end();
    return a.link();
}

/** Wall-clock costs of the checkpoint paths. */
struct CheckpointResult {
    double full_take_ns = 0.0;
    std::size_t full_pages = 0;
    double incremental_take_ns = 0.0;
    std::size_t dirty_pages = 0;
    double rollback_restore_ns = 0.0;
};

CheckpointResult
measure_checkpoint()
{
    auto profile = workloads::benchmark_profile("radiosity");
    profile.rdtsc_prob = 0.0;
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(4);
    vm->cpu().run(~static_cast<Cycles>(0), 1000);

    CheckpointResult out;
    const auto t0 = std::chrono::steady_clock::now();
    auto first = store.take(*vm, env, 0);
    const auto t1 = std::chrono::steady_clock::now();
    out.full_take_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    out.full_pages = first->copies;

    // Dirty a small, fixed working set; an O(dirty) incremental take
    // should cost orders of magnitude less than the full copy above.
    constexpr std::size_t kDirty = 8;
    out.dirty_pages = kDirty;
    for (std::size_t i = 0; i < kDirty; ++i)
        vm->mem().write_raw(0x40000 + i * kPageSize, 8, i + 1);
    const auto t2 = std::chrono::steady_clock::now();
    auto second = store.take(*vm, env, 1);
    const auto t3 = std::chrono::steady_clock::now();
    out.incremental_take_ns =
        std::chrono::duration<double, std::nano>(t3 - t2).count();

    // Rollback restore into the same VM: the epoch filter should touch
    // only the pages dirtied since the checkpoint.
    for (std::size_t i = 0; i < kDirty; ++i)
        vm->mem().write_raw(0x80000 + i * kPageSize, 8, i + 1);
    const auto t4 = std::chrono::steady_clock::now();
    replay::restore_checkpoint(*second, vm.get(), &env);
    const auto t5 = std::chrono::steady_clock::now();
    out.rollback_restore_ns =
        std::chrono::duration<double, std::nano>(t5 - t4).count();
    return out;
}

/** One back-to-back TB and interpreter measurement of each loop. */
struct Repetition {
    InterpResult tb_alu;
    InterpResult tb_callret;
    InterpResult tb_callret_mon;
    InterpResult tb_callret_traced;
    InterpResult interp_alu;
    InterpResult interp_callret;
    InterpResult interp_callret_mon;
    InterpResult interp_callret_traced;
};

/** In-process repetitions behind every throughput figure and ratio. */
constexpr int kRepetitions = 15;

/** The median of @p values (upper median for an even count). */
double
median(std::vector<double> values)
{
    const auto mid = values.begin() + values.size() / 2;
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

/** Everything that lands in BENCH_micro.json. */
struct BenchResults {
    std::vector<Repetition> reps;
    CheckpointResult ck;

    /** Median over the repetitions of @p field. */
    InterpResult median_of(InterpResult Repetition::*field) const
    {
        std::vector<double> ips;
        std::vector<double> ns;
        for (const Repetition& rep : reps) {
            ips.push_back((rep.*field).instr_per_sec);
            ns.push_back((rep.*field).ns_per_instr);
        }
        return {median(ips), median(ns)};
    }

    /** Median over the repetitions of @p tb's speedup over @p interp. */
    double median_speedup(InterpResult Repetition::*tb,
                          InterpResult Repetition::*interp) const
    {
        std::vector<double> ratios;
        for (const Repetition& rep : reps) {
            ratios.push_back((rep.*tb).instr_per_sec /
                             (rep.*interp).instr_per_sec);
        }
        return median(ratios);
    }

    double tb_speedup_alu() const
    {
        return median_speedup(&Repetition::tb_alu, &Repetition::interp_alu);
    }
    double tb_speedup_call_ret() const
    {
        return median_speedup(&Repetition::tb_callret,
                              &Repetition::interp_callret);
    }
    double tb_speedup_call_ret_monitored() const
    {
        return median_speedup(&Repetition::tb_callret_mon,
                              &Repetition::interp_callret_mon);
    }
    double tb_speedup_call_ret_traced() const
    {
        return median_speedup(&Repetition::tb_callret_traced,
                              &Repetition::interp_callret_traced);
    }
};

BenchResults
measure_all()
{
    BenchResults r;
    for (int i = 0; i < kRepetitions; ++i) {
        Repetition rep;
        rep.tb_alu = measure_interpreter(alu_loop_image(), true, 20000000);
        rep.interp_alu = measure_interpreter(alu_loop_image(), false, 1000000);
        rep.tb_callret = measure_interpreter(call_ret_image(), true, 4000000);
        rep.interp_callret =
            measure_interpreter(call_ret_image(), false, 1000000);
        rep.tb_callret_mon = measure_interpreter(call_ret_image(), true,
                                                 4000000, Arming::kMonitored);
        rep.interp_callret_mon = measure_interpreter(
            call_ret_image(), false, 1000000, Arming::kMonitored);
        rep.tb_callret_traced = measure_interpreter(call_ret_image(), true,
                                                    4000000, Arming::kTraced);
        rep.interp_callret_traced = measure_interpreter(
            call_ret_image(), false, 1000000, Arming::kTraced);
        r.reps.push_back(rep);
    }
    r.ck = measure_checkpoint();
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
    const auto metric = [f](const char* name, const InterpResult& m,
                            const char* sep) {
        std::fprintf(f,
                     "    \"%s\": {\"instr_per_sec\": %.0f, "
                     "\"ns_per_instr\": %.3f}%s\n",
                     name, m.instr_per_sec, m.ns_per_instr, sep);
    };
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"rsafe-bench-micro-v2\",\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"repetitions\": %d,\n", kRepetitions);
    std::fprintf(f, "  \"tb\": {\n");
    metric("alu_loop", r.median_of(&Repetition::tb_alu), ",");
    metric("call_ret", r.median_of(&Repetition::tb_callret), ",");
    metric("call_ret_monitored", r.median_of(&Repetition::tb_callret_mon),
           ",");
    metric("call_ret_traced", r.median_of(&Repetition::tb_callret_traced),
           "");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"interpreter\": {\n");
    metric("alu_loop", r.median_of(&Repetition::interp_alu), ",");
    metric("call_ret", r.median_of(&Repetition::interp_callret), ",");
    metric("call_ret_monitored",
           r.median_of(&Repetition::interp_callret_mon), ",");
    metric("call_ret_traced",
           r.median_of(&Repetition::interp_callret_traced), "");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"ratios\": {\n");
    std::fprintf(f, "    \"tb_speedup_alu\": %.3f,\n", r.tb_speedup_alu());
    std::fprintf(f, "    \"tb_speedup_call_ret\": %.3f,\n",
                 r.tb_speedup_call_ret());
    std::fprintf(f, "    \"tb_speedup_call_ret_monitored\": %.3f,\n",
                 r.tb_speedup_call_ret_monitored());
    std::fprintf(f, "    \"tb_speedup_call_ret_traced\": %.3f\n",
                 r.tb_speedup_call_ret_traced());
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"checkpoint\": {\n");
    std::fprintf(f, "    \"full_take_ns\": %.0f,\n", r.ck.full_take_ns);
    std::fprintf(f, "    \"full_pages_copied\": %zu,\n", r.ck.full_pages);
    std::fprintf(f, "    \"incremental_take_ns\": %.0f,\n",
                 r.ck.incremental_take_ns);
    std::fprintf(f, "    \"incremental_dirty_pages\": %zu,\n",
                 r.ck.dirty_pages);
    std::fprintf(f, "    \"rollback_restore_ns\": %.0f\n",
                 r.ck.rollback_restore_ns);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf(
        "wrote %s (tb %.1f Minstr/s, interp %.1f, tb speedup %.2fx)\n",
        path, r.median_of(&Repetition::tb_alu).instr_per_sec / 1e6,
        r.median_of(&Repetition::interp_alu).instr_per_sec / 1e6,
        r.tb_speedup_alu());
}

/**
 * CI perf gate: compare the fresh median speedup ratios against the
 * checked-in baseline. @return the process exit code (0 = pass).
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
    // The TB ALU speedup over single-stepping carries an absolute floor
    // of 10x on top of the relative check; the other ratio only guards
    // against relative regressions.
    gate.at_least("tb_speedup_alu", r.tb_speedup_alu(), 10.0);
    gate.at_least("tb_speedup_call_ret_monitored",
                  r.tb_speedup_call_ret_monitored());
    return gate.ok() ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json_only = false;
    const char* gate_baseline = nullptr;
    for (int i = 1; i < argc;) {
        const std::string arg = argv[i];
        int consumed = 0;
        if (arg == "--json-only") {
            json_only = true;
            consumed = 1;
        } else if (arg == "--gate" && i + 1 < argc) {
            gate_baseline = argv[i + 1];
            consumed = 2;
        }
        if (consumed == 0) {
            ++i;
            continue;
        }
        for (int j = i; j + consumed < argc; ++j)
            argv[j] = argv[j + consumed];
        argc -= consumed;
    }
    if (!json_only && gate_baseline == nullptr) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }
    const BenchResults results = measure_all();
    write_bench_json(results, "BENCH_micro.json");
    if (gate_baseline != nullptr)
        return run_gate(results, gate_baseline);
    return 0;
}
