/**
 * @file
 * The Section 6 scenario end to end: mount a kernel ROP attack against
 * the vulnerable sys_logmsg while a benign workload runs, record the
 * execution, replay it with the checkpointing replayer, launch an alarm
 * replayer on the alarm, and print the forensic report (where the attack
 * happened, who mounted it, and the gadget chain it used).
 */

#include <cstdio>

#include "attack/attack_mounter.h"
#include "core/framework.h"
#include "kernel/layout.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

using namespace rsafe;
namespace k = rsafe::kernel;

int
main()
{
    // A benign mysql-like workload...
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 200;
    profile.num_tasks = 2;

    // ...plus the attacker task, built by scanning the kernel image for
    // gadgets and laying out the Figure 10 overflow payload.
    const auto kernel = k::build_kernel();
    const auto program = attack::build_attacker_program(
        kernel, k::kUserCodeBase + 0x40000,
        k::kUserDataBase + 15 * 0x10000, /*delay_iters=*/5000);
    std::printf("attacker built: G1=0x%llx G2=0x%llx G3=0x%llx "
                "payload=%zu bytes\n",
                (unsigned long long)program.chain.g1,
                (unsigned long long)program.chain.g2,
                (unsigned long long)program.chain.g3,
                program.chain.payload.size());

    // Run the full RnR-Safe pipeline of Figure 1.
    auto factory =
        workloads::vm_factory(profile, {program.image}, {program.entry});
    core::FrameworkConfig config;
    core::RnrSafeFramework framework(factory, config);
    auto result = framework.run();

    std::printf("recording: %llu instructions, %zu log records, "
                "%zu alarm markers\n",
                (unsigned long long)result.recorded_vm->cpu().icount(),
                result.recorder->log().size(), result.alarms_logged);
    std::printf("checkpointing replay: %llu checkpoints, "
                "%llu underflow alarms auto-resolved\n",
                (unsigned long long)result.cr->checkpoints_taken(),
                (unsigned long long)result.underflows_resolved);
    std::printf("alarm replays launched: %zu\n\n", result.ar_results.size());

    std::printf("%s\n", result.alarms.summary().c_str());

    const bool root = result.recorded_vm->mem().read_raw(
                          k::kKernelRootFlag, 8) != 0;
    std::printf("kernel root flag after the run: %s\n",
                root ? "SET (the gadget chain executed)" : "clear");
    return result.alarms.attack_detected() ? 0 : 1;
}
