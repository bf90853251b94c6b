#ifndef RSAFE_CORE_FRAMEWORK_H_
#define RSAFE_CORE_FRAMEWORK_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/alarm.h"
#include "core/ar_stage.h"
#include "core/detector.h"
#include "hv/vm.h"
#include "obs/health.h"
#include "obs/telemetry.h"
#include "replay/checkpoint_replayer.h"
#include "rnr/recorder.h"
#include "rnr/wire.h"
#include "stats/stats.h"

/**
 * @file
 * The RnR-Safe framework facade: the full Figure 1 pipeline.
 *
 * One call to run() performs:
 *  1. monitored recording — a Recorder executes the workload in the
 *     recorded VM with the RAS security hardware armed, producing the
 *     input log with alarm/evict markers;
 *  2. checkpointing replay — a CheckpointReplayer re-executes the log,
 *     takes periodic incremental checkpoints, and auto-resolves
 *     underflow alarms against Evict records;
 *  3. alarm replay — for every remaining alarm, one AlarmReplayer is
 *     launched from the checkpoint preceding it, tracing kernel call/ret
 *     and, for a user-mode RAS alarm, user call/ret too: the alarm record
 *     names the mode, so the one analysis level of Section 4.6.2 that
 *     can classify it is chosen up front.
 *
 * Every call runs the stages as a ReplayFleet of one tenant named
 * "pipeline" (fleet/fleet.h), so the single pipeline and the fleet share
 * one alarm scheduler, one health-plane wiring and one result fold. Two
 * pipeline shapes (FrameworkConfig::pipeline):
 *
 *  - kSerial records, then replays the finished log, while one pool
 *    worker replays the alarms in the order the CR queues them — the
 *    reference for determinism A/B testing;
 *  - kConcurrent is the paper's actual deployment shape: the CR runs on
 *    its own thread and reads the recorder's one input log in place
 *    *while recording is still in progress* (replay lag, not a post-hoc
 *    batch pass, bounds detection latency; the recorder never waits for
 *    the CR), and the pending alarms fan out across ar_workers pool
 *    workers as the CR queues them. Results are merged back in alarm
 *    order, so both shapes produce bit-identical outcomes.
 *
 * The caller supplies a VmFactory that builds identically-configured VMs
 * (same images, tasks, and device seeds); the recorded VM, the CR VM, and
 * each AR VM are separate instances of it. The factory is invoked from
 * session and pool threads and must therefore be thread-safe (the
 * workloads::vm_factory() factories are: each call derives everything
 * from per-call seeded state).
 */

namespace rsafe::core {

// VmFactory and AlarmReplayResult moved to core/ar_stage.h (the
// detachable alarm-replay stage); both remain visible here.

/** Stage scheduling of the pipeline. */
enum class PipelineMode {
    kSerial,      ///< record, then replay; one alarm-replay worker
    kConcurrent,  ///< stream record->CR, fan alarm replays onto workers
};

/** Pipeline configuration. */
struct FrameworkConfig {
    rnr::RecorderOptions recorder;
    replay::CrOptions cr;
    /** Stop the recorded run after this many guest instructions. */
    InstrCount max_instructions = ~static_cast<InstrCount>(0);
    /** Stage scheduling (see PipelineMode). */
    PipelineMode pipeline = PipelineMode::kSerial;
    /**
     * Width of the alarm-replay worker pool in the concurrent pipeline
     * (0 counts as 1); the serial pipeline always uses one worker.
     */
    std::size_t ar_workers = 2;
    /**
     * Pluggable detector complement (see core/detector.h). When set, the
     * framework arms every detector on the recorded VM before recording
     * starts and routes the resulting kDetectorAlarm records to the same
     * detectors' classifiers during alarm replay. Null keeps the
     * RAS-only baseline.
     */
    std::shared_ptr<DetectorSet> detectors;
    /**
     * The live health plane for a solo run (off by default): the
     * fleet's monitor / flight recorder / telemetry endpoint watching
     * the one tenant named "pipeline". Passive — the A/B gates hold
     * with it on or off.
     */
    obs::HealthOptions health;
    obs::TelemetryOptions telemetry;
};

/** Everything the pipeline produced. */
struct FrameworkResult {
    hv::RunResult record_result = hv::RunResult::kHalted;
    rnr::ReplayOutcome cr_outcome = rnr::ReplayOutcome::kFinished;
    AlarmManager alarms;

    /** Raw alarm markers in the log. */
    std::size_t alarms_logged = 0;
    /** Underflow alarms the CR resolved itself. */
    std::uint64_t underflows_resolved = 0;
    /** Per-alarm AR outputs, ordered by alarm position in the log: one
     *  alarm replay per entry. */
    std::vector<AlarmReplayResult> ar_results;

    /** How far the CR trailed the recorder (meaningful when streaming;
     *  against a finished log it is the distance to the recording end). */
    rnr::ReplayLag replay_lag;

    /** Recorder->CR traffic (concurrent pipeline only). */
    rnr::ChannelStats channel_stats;

    /** Pipeline-wide counters, merged from per-component and per-alarm
     *  registries after join. */
    stats::StatRegistry pipeline_stats;

    /**
     * Integrity verdict of the input log this run replayed. In-process
     * recordings are trusted and stay intact; replay_wire() fills this
     * with the forensic report of the shipped image — when the image was
     * damaged, the CR replayed only the recovered prefix and a
     * kLogIntegrity alarm carrying this report's detail was raised.
     */
    rnr::wire::LoadReport log_integrity;

    // The pipeline components, kept alive for inspection by callers.
    // Destruction order is deliberately irrelevant for the detectors:
    // the framework disarms every detector (dropping VM listener
    // registrations) as soon as recording finishes, and the shared_ptr
    // may anyway outlive this struct via FrameworkConfig.
    std::shared_ptr<DetectorSet> detectors;
    std::unique_ptr<hv::Vm> recorded_vm;
    std::unique_ptr<rnr::Recorder> recorder;
    std::unique_ptr<hv::Vm> cr_vm;
    std::unique_ptr<replay::CheckpointReplayer> cr;

    /** The deserialized shipped log (replay_wire() runs only). */
    std::shared_ptr<const rnr::InputLog> shipped_log;

    /** Health-plane outputs (empty when the plane was off). @{ */
    std::string healthz;
    std::vector<obs::HealthEvent> health_events;
    std::vector<std::uint8_t> flight_box;
    /** @} */
};

/** The RnR-Safe pipeline: a facade over a one-tenant ReplayFleet. */
class RnrSafeFramework {
  public:
    RnrSafeFramework(VmFactory factory, FrameworkConfig config);

    /** Run record -> checkpointing replay -> alarm replays. Each call
     *  builds its VMs afresh, so repeated calls return identical results. */
    FrameworkResult run();

    /**
     * The replay-machine half of Figure 1 for a log that arrived over the
     * wire: deserialize @p bytes tolerantly, run the checkpointing replay
     * over the recovered records, and fan out alarm replays per the
     * configured pipeline mode. A damaged image never aborts: the CR
     * stops at the corruption boundary and the damage is surfaced as a
     * kLogIntegrity alarm plus the forensic FrameworkResult::log_integrity
     * report.
     */
    FrameworkResult replay_wire(const std::vector<std::uint8_t>& bytes);

  private:
    /** Run a fresh one-tenant fleet that records live, or replays @p log
     *  when it is set, and return that tenant's result. */
    FrameworkResult run_tenant(std::shared_ptr<const rnr::InputLog> log);

    VmFactory factory_;
    FrameworkConfig config_;
};

}  // namespace rsafe::core

#endif  // RSAFE_CORE_FRAMEWORK_H_
