/**
 * @file
 * Section 8.4: the time window to respond to an attack.
 *
 * Mounts the Section 6 kernel ROP under a background workload, runs the
 * full RnR-Safe pipeline, and reports: the time from the alarm being
 * logged to the alarm replayer confirming the ROP, the input-log bytes
 * generated inside that window, and the number of checkpoints that must
 * be retained (window-seconds + 2, per the paper's argument).
 */

#include "attack/attack_mounter.h"
#include "bench_common.h"
#include "common/log.h"
#include "core/framework.h"
#include "kernel/layout.h"
#include "replay/alarm_replayer.h"
#include "stats/table.h"

using namespace rsafe;
using stats::Table;

int
main()
{
    Table table("Section 8.4: attack-to-confirmation response window",
                {"quantity", "value"});

    // Background load + attacker.
    auto profile = bench::bench_profile("mysql");
    const auto kernel = kernel::build_kernel();
    const Addr atk_code = kernel::kUserCodeBase + 0x40000;
    const Addr atk_buf = kernel::kUserDataBase + 15 * 0x10000;
    const auto program = attack::build_attacker_program(
        kernel, atk_code, atk_buf, /*delay_iters=*/300'000);
    auto factory =
        workloads::vm_factory(profile, {program.image}, {program.entry});

    core::FrameworkConfig config;
    config.cr.checkpoint_interval = bench::kCyclesPerSecond;  // 1 s
    core::RnrSafeFramework framework(factory, config);
    auto result = framework.run();
    if (!result.alarms.attack_detected())
        rsafe::fatal("the attack was not detected");

    // The first confirmed attack alarm.
    const replay::AlarmAnalysis* attack = result.alarms.attacks()[0];
    const auto& log = result.recorder->log();
    const auto alarm_indices = log.find_all(rnr::RecordType::kRasAlarm);
    std::size_t alarm_index = alarm_indices[0];
    const InstrCount alarm_icount = log.at(alarm_index).icount;

    // Response window: the CR replays up to the alarm (lag behind the
    // recorder is bounded by the replay slowdown) and the AR then replays
    // from the preceding checkpoint and analyzes. We report the AR part
    // plus one checkpoint interval (the worst-case roll-back distance).
    const double ar_seconds = double(attack->analysis_cycles) /
                              double(bench::kCyclesPerSecond);
    const double window_seconds =
        ar_seconds + double(config.cr.checkpoint_interval) /
                         double(bench::kCyclesPerSecond);

    // Log volume generated in the window around the attack.
    const Cycles window_cycles = static_cast<Cycles>(
        window_seconds * double(bench::kCyclesPerSecond));
    (void)window_cycles;
    const double log_mb_per_s =
        double(log.total_bytes()) /
        (double(result.recorded_vm->cpu().cycles()) /
         double(bench::kCyclesPerSecond)) /
        1e6;
    const double window_log_mb = log_mb_per_s * window_seconds;

    const std::size_t checkpoints_needed =
        static_cast<std::size_t>(window_seconds) + 2;

    table.add_row({"alarm log index", std::to_string(alarm_index)});
    table.add_row({"alarm at instruction",
                   std::to_string(alarm_icount)});
    table.add_row({"alarm-replay analysis (s)",
                   Table::fmt(ar_seconds, 3)});
    table.add_row({"response window (s)", Table::fmt(window_seconds, 3)});
    table.add_row({"log generated in window (MB)",
                   Table::fmt(window_log_mb, 3)});
    table.add_row({"checkpoints to retain (window + 2)",
                   std::to_string(checkpoints_needed)});
    table.add_row({"attack confirmed", attack->is_attack ? "yes" : "no"});
    table.add_row({"faulting function", attack->forensic.faulting_function});
    table.add_row({"gadget chain length",
                   std::to_string(attack->forensic.gadgets.size())});
    bench::emit(table);

    std::fputs("\n--- alarm replayer forensic report ---\n", stdout);
    std::fputs(attack->report.c_str(), stdout);
    return 0;
}
