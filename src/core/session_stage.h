#ifndef RSAFE_CORE_SESSION_STAGE_H_
#define RSAFE_CORE_SESSION_STAGE_H_

#include <memory>
#include <string>

#include "core/ar_stage.h"
#include "hv/vm.h"
#include "replay/checkpoint_replayer.h"
#include "rnr/log_source.h"
#include "rnr/recorder.h"

/**
 * @file
 * The recorder+CR front half of the pipeline as a detachable stage.
 *
 * One SessionStage owns one guest session: the recorded VM with its
 * Recorder, and the checkpointing-replayer VM consuming the recorder's
 * log in place — either on its own thread while recording is still in
 * progress (the paper's deployment shape) or back-to-back over the
 * finished log (the serial reference used for determinism A/B testing).
 * Both shapes build the CR at construction over the same one log; the
 * recorder never waits for the CR.
 *
 * What makes it a *stage* rather than a whole pipeline is what it does
 * with alarms: it does not replay them. Every alarm the CR cannot
 * resolve is handed to the installed alarm sink (set_alarm_sink) as soon
 * as the CR reaches it. The PendingAlarm names its checkpoint and its
 * alarm's log index; an alarm-replay worker reads that range of log()
 * in place, which the CR has already read, so it never waits on the
 * recorder. ReplayFleet runs N stages over one shared fair-share pool;
 * RnrSafeFramework is a fleet of one.
 *
 * A stage built over a shipped log (the second constructor) has no
 * recorded VM and no recorder: run() replays that log on the calling
 * thread, which is the replay-machine half of Figure 1 for a log that
 * arrived over the wire.
 */

namespace rsafe::core {

class DetectorSet;

/** SessionStage configuration (the front half of FrameworkConfig). */
struct SessionOptions {
    rnr::RecorderOptions recorder;
    replay::CrOptions cr;
    /** Stop the recorded run after this many guest instructions. */
    InstrCount max_instructions = ~static_cast<InstrCount>(0);
    /** true = record and replay on two threads; false = back-to-back. */
    bool streamed = true;
    /**
     * Tenant name used to prefix this session's trace-track names
     * ("<name>.recorder", "<name>.cr"). Empty keeps the bare stage names
     * ("recorder", "cr").
     */
    std::string name;
};

/** What one session run produced (components stay owned by the stage). */
struct SessionResult {
    hv::RunResult record_result = hv::RunResult::kHalted;
    rnr::ReplayOutcome cr_outcome = rnr::ReplayOutcome::kFinished;
    /** Raw alarm markers in the log. */
    std::size_t alarms_logged = 0;
    /** Recorder->CR traffic (streamed mode only). */
    rnr::ChannelStats channel_stats;
    /** True if a request_stop() cut recording or replay short. */
    bool stopped = false;
};

/** One guest session: recorder + checkpointing replayer. */
class SessionStage {
  public:
    /**
     * Builds the session's VMs and engines. @p detectors (may be null)
     * is armed on the recorded VM unless it is empty; run() disarms it
     * when recording finishes.
     */
    SessionStage(VmFactory factory, SessionOptions options,
                 std::shared_ptr<DetectorSet> detectors);

    /**
     * A replay-only session over @p log (not null): nothing is recorded
     * or armed, and run() replays the log on the calling thread whatever
     * options.streamed says. @p detectors still supplies the classifiers
     * for the log's kDetectorAlarm records.
     */
    SessionStage(VmFactory factory, SessionOptions options,
                 std::shared_ptr<DetectorSet> detectors,
                 std::shared_ptr<const rnr::InputLog> log);

    /**
     * Install the alarm sink, fired on the CR's thread for every alarm
     * the CR queues, mid-replay. Must be called before run().
     */
    void set_alarm_sink(replay::CheckpointReplayer::AlarmSink sink)
    {
        cr_->set_alarm_sink(std::move(sink));
    }

    /** Record (unless replaying a shipped log) + checkpointing-replay
     *  this session (blocking). */
    SessionResult run();

    /**
     * Ask a run() in progress to wind down: the recorder stops at its
     * next exit boundary (which closes the stream), and the CR stops at
     * its next positional segment. Callable from any thread.
     */
    void request_stop();

    /** The one log this session's replayers read (the recorder's or
     *  the shipped one); lives as long as the recorder or shipped log. */
    const rnr::InputLog& log() const { return *log_; }

    /** The in-effect detector set (null when none or empty). */
    const DetectorSet* active_detectors() const { return active_detectors_; }

    /** Attach the live health probe the CR publishes into. Call before
     *  run(). */
    void set_health_probe(obs::HealthProbe* probe);

    /** Component access (valid until the matching release_*()). @{ */
    hv::Vm* recorded_vm() { return recorded_vm_.get(); }
    rnr::Recorder* recorder() { return recorder_.get(); }
    hv::Vm* cr_vm() { return cr_vm_.get(); }
    replay::CheckpointReplayer* cr() { return cr_.get(); }
    /** @} */

    /** Hand the components over (e.g. into a FrameworkResult). @{ */
    std::unique_ptr<hv::Vm> release_recorded_vm();
    std::unique_ptr<rnr::Recorder> release_recorder();
    std::unique_ptr<hv::Vm> release_cr_vm();
    std::unique_ptr<replay::CheckpointReplayer> release_cr();
    /** @} */

  private:
    /** Build the CR (+VM) reading @p log in place. */
    void build_cr(const rnr::InputLog* log);

    void disarm_detectors();

    VmFactory factory_;
    SessionOptions options_;
    std::shared_ptr<DetectorSet> detectors_;
    const DetectorSet* active_detectors_ = nullptr;
    bool detectors_armed_ = false;

    bool ran_ = false;

    /** The shipped log a replay-only session runs over (else null). */
    std::shared_ptr<const rnr::InputLog> shipped_log_;
    std::unique_ptr<hv::Vm> recorded_vm_;
    std::unique_ptr<rnr::Recorder> recorder_;
    /** Wakes the CR as the recorder appends (streamed shape; else null). */
    std::unique_ptr<rnr::LogStream> stream_;
    /** The one log (recorder's or shipped). */
    const rnr::InputLog* log_ = nullptr;
    std::unique_ptr<hv::Vm> cr_vm_;
    std::unique_ptr<replay::CheckpointReplayer> cr_;
};

}  // namespace rsafe::core

#endif  // RSAFE_CORE_SESSION_STAGE_H_
