#ifndef RSAFE_CORE_SESSION_STAGE_H_
#define RSAFE_CORE_SESSION_STAGE_H_

#include <memory>
#include <string>

#include "core/framework.h"

/**
 * @file
 * The recorder+CR front half of the pipeline as a detachable stage.
 *
 * One SessionStage owns one guest session: the recorded VM with its
 * Recorder, and the checkpointing-replayer VM consuming the recorder's
 * log in place — either on its own thread while recording is still in
 * progress (kConcurrent, the paper's deployment shape) or back-to-back
 * over the finished log (kSerial, the reference used for determinism
 * A/B testing). Both shapes build the CR at construction over the same
 * one log; the recorder never waits for the CR.
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
 * A stage built over a shipped log has no recorded VM and no recorder:
 * run() replays that log on the calling thread, which is the
 * replay-machine half of Figure 1 for a log that arrived over the wire.
 *
 * The stage keeps its components and outputs in the FrameworkResult that
 * take_result() hands over; the caller only folds in the alarm replays.
 */

namespace rsafe::core {

/** One guest session: recorder + checkpointing replayer. */
class SessionStage {
  public:
    /**
     * Builds the session's VMs and engines from @p config: recorder and
     * CR options, max_instructions, the shape (`pipeline`: kConcurrent
     * streams record->CR on two threads) and the detectors (armed on the
     * recorded VM unless empty; run() disarms them when recording
     * finishes). @p name prefixes this session's trace-track names
     * ("<name>.recorder", "<name>.cr"; empty keeps the bare ones).
     *
     * A non-null @p log makes this a replay-only session: nothing is
     * recorded or armed, and run() replays @p log on the calling thread
     * whatever the shape. The detectors still supply the classifiers for
     * the log's kDetectorAlarm records.
     */
    SessionStage(VmFactory factory, const FrameworkConfig& config,
                 std::string name, std::shared_ptr<const rnr::InputLog> log);

    /**
     * Install the alarm sink, fired on the CR's thread for every alarm
     * the CR queues, mid-replay. Must be called before run().
     */
    void set_alarm_sink(replay::CheckpointReplayer::AlarmSink sink)
    {
        result_.cr->set_alarm_sink(std::move(sink));
    }

    /** Record (unless replaying a shipped log) + checkpointing-replay
     *  this session (blocking). */
    void run();

    /**
     * Ask a run() in progress to wind down: the recorder stops at its
     * next exit boundary (which closes the log), and the CR stops at
     * its next positional segment. Callable from any thread until
     * take_result().
     */
    void request_stop();

    /** True once run() returned, if a request_stop() (or a damaged log)
     *  cut recording or replay short. */
    bool stopped() const { return stopped_; }

    /**
     * Hand over what the session produced: its outputs (record and CR
     * outcomes, alarms_logged, underflows_resolved, replay_lag,
     * channel_stats) and its components (VMs, recorder, CR, the in-effect
     * detectors, the shipped log). Alarm results and pipeline counters
     * are the caller's to fold in. Call once, after run().
     */
    FrameworkResult take_result() { return std::move(result_); }

    /** The one log this session's replayers read (the recorder's or
     *  the shipped one); lives as long as the recorder or shipped log. */
    const rnr::InputLog& log() const { return *log_; }

    /** The in-effect detector set (null when none or empty). */
    const DetectorSet* active_detectors() const
    {
        return result_.detectors.get();
    }

    /** Attach the live health probe the CR publishes into. Call before
     *  run(). */
    void set_health_probe(obs::HealthProbe* probe);

    /** Component access (valid until take_result()). @{ */
    hv::Vm* recorded_vm() { return result_.recorded_vm.get(); }
    rnr::Recorder* recorder() { return result_.recorder.get(); }
    hv::Vm* cr_vm() { return result_.cr_vm.get(); }
    replay::CheckpointReplayer* cr() { return result_.cr.get(); }
    /** @} */

  private:
    void disarm_detectors();

    InstrCount max_instructions_;
    std::string name_;
    bool detectors_armed_ = false;
    bool ran_ = false;
    bool stopped_ = false;
    /** Record and replay on two threads over the open log (kConcurrent
     *  with a recorder). */
    bool concurrent_ = false;

    /** The one log (recorder's or shipped). */
    const rnr::InputLog* log_ = nullptr;
    /** Components and outputs, handed over by take_result(). */
    FrameworkResult result_;
};

}  // namespace rsafe::core

#endif  // RSAFE_CORE_SESSION_STAGE_H_
