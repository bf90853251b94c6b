#ifndef RSAFE_BENCH_BENCH_COMMON_H_
#define RSAFE_BENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared machinery for the figure/table harnesses.
 *
 * Every bench binary regenerates one table or figure from the paper's
 * evaluation (Section 8). Runs are fixed-work: each benchmark executes a
 * fixed number of workload iterations to completion, and execution-time
 * comparisons are ratios of simulated cycles for that same work — the
 * same normalization the paper's figures use.
 *
 * Environment knobs:
 *   RSAFE_BENCH_SCALE  multiply the per-benchmark iteration counts
 *                      (default 1; larger = longer, smoother runs).
 *   RSAFE_BENCH_GATE_TOLERANCE
 *                      relative slack, in percent, of every --gate
 *                      check against a committed BENCH_*.json
 *                      (default 10).
 */

#include <memory>
#include <string>
#include <vector>

#include "replay/checkpoint_replayer.h"
#include "rnr/recorder.h"
#include "stats/table.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe::bench {

/** Cycles per simulated second (checkpoint cadence, MB/s reporting). */
inline constexpr Cycles kCyclesPerSecond = 4'000'000;

/** The four Figure 5(a) recording setups. */
enum class RecMode { kNoRecPV, kNoRec, kRecNoRAS, kRec };

/** @return display name of @p mode. */
const char* rec_mode_name(RecMode mode);

/** @return the benchmark's profile with bench-sized iteration counts. */
workloads::WorkloadProfile bench_profile(const std::string& name);

/** One completed execution in some mode. */
struct RunResult {
    Cycles cycles = 0;
    InstrCount instructions = 0;
    /** Populated for recording modes only. @{ */
    std::unique_ptr<rnr::Recorder> recorder;
    std::unique_ptr<hv::Vm> vm;
    /** @} */
};

/** Execute @p profile to completion under @p mode. */
RunResult run_recording(const workloads::WorkloadProfile& profile,
                        RecMode mode);

/** One completed checkpointing replay of @p log. */
struct ReplayResult {
    Cycles cycles = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t copies = 0;
    rnr::ReplayOverhead overhead;
    std::uint64_t single_steps = 0;
    std::uint64_t underflows_resolved = 0;
    std::uint64_t pending_alarms = 0;
};

/**
 * Replay @p log with checkpoints every @p interval_seconds (0 = none).
 */
ReplayResult run_checkpoint_replay(const workloads::WorkloadProfile& profile,
                                   const rnr::InputLog& log,
                                   double interval_seconds);

/** Geometric mean of @p values (the paper's "mean" bars). */
double geo_mean(const std::vector<double>& values);

/** Print the table and also write CSV next to the binary if asked. */
void emit(const stats::Table& table);

/** `"key": <number>` scanned out of @p text; NaN when the key is absent. */
double json_number(const std::string& text, const std::string& key);

/**
 * A --gate run against one committed BENCH_*.json: each check prints
 * one line and any failure makes ok() false. Relative checks use the
 * RSAFE_BENCH_GATE_TOLERANCE slack.
 */
class BaselineGate {
  public:
    /** Reads @p path whole; loaded() says whether that worked. */
    explicit BaselineGate(const std::string& path);

    bool loaded() const { return loaded_; }

    /** The baseline's `"key": <number>`; NaN when absent. */
    double baseline(const std::string& key) const;

    /** Require @p fresh >= max(baseline * (1 - tol), @p hard_floor);
     *  fails when the key is absent from the baseline. */
    void at_least(const std::string& key, double fresh,
                  double hard_floor = 0.0);

    /** Require @p fresh <= baseline * (1 + tol); fails when absent. */
    void at_most(const std::string& key, double fresh);

    bool ok() const { return ok_; }

  private:
    void report(const std::string& key, double fresh, double ref,
                const char* op, double need, bool pass);

    std::string text_;
    double tolerance_ = 0.10;
    bool loaded_ = false;
    bool ok_ = true;
};

}  // namespace rsafe::bench

#endif  // RSAFE_BENCH_BENCH_COMMON_H_
