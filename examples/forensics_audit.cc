/**
 * @file
 * Execution auditing (Section 3.2): replay an execution window that has
 * already happened, from any retained checkpoint, to audit what the
 * system did — here, which kernel functions dominated execution in each
 * checkpoint interval, reconstructed entirely from the log and the
 * checkpoint chain.
 */

#include <cstdio>

#include "replay/audit.h"
#include "replay/checkpoint_replayer.h"
#include "rnr/recorder.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

using namespace rsafe;

int
main()
{
    auto profile = workloads::benchmark_profile("make");
    profile.iterations_per_task = 250;
    auto factory = workloads::vm_factory(profile);

    // 1. The monitored execution happened some time ago...
    auto rec_vm = factory();
    rnr::Recorder recorder(rec_vm.get(), rnr::RecorderOptions{});
    if (recorder.run(~static_cast<InstrCount>(0)) !=
        hv::RunResult::kHalted) {
        std::fprintf(stderr, "recording failed\n");
        return 1;
    }

    // 2. ...and the checkpointing replayer retained its history.
    auto cr_vm = factory();
    replay::CrOptions cr_options;
    cr_options.checkpoint_interval = 400'000;
    cr_options.store.max_keep = 0;  // keep the entire history
    replay::CheckpointReplayer cr(cr_vm.get(), &recorder.log(),
                                  cr_options);
    cr.run();
    std::printf("history: %zu checkpoints over %llu instructions\n",
                cr.checkpoints().size(),
                (unsigned long long)cr_vm->cpu().icount());

    // 3. Audit: pick a mid-history checkpoint and profile the kernel's
    //    call targets from there to the end of the log.
    const auto ck = cr.checkpoints().at(cr.checkpoints().size() / 2);
    std::printf("auditing from checkpoint #%llu (instruction %llu)\n",
                (unsigned long long)ck->id,
                (unsigned long long)ck->icount);

    auto audit_vm = factory();
    replay::ExecutionAuditor auditor(audit_vm.get(), &recorder.log(), *ck);
    const auto activity = auditor.audit();

    std::printf("\nkernel activity in the audited window:\n%s",
                activity.to_string().c_str());
    std::printf("dominant kernel function: %s\n",
                activity.dominant_function().c_str());

    // The audit replay is bit-faithful: it ends in the recorded state.
    const bool faithful =
        audit_vm->state_hash() == rec_vm->state_hash();
    std::printf("\naudit replay faithful to the recording: %s\n",
                faithful ? "yes" : "NO");
    return faithful ? 0 : 1;
}
