#ifndef RSAFE_CORE_AR_STAGE_H_
#define RSAFE_CORE_AR_STAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "hv/vm.h"
#include "replay/alarm_replayer.h"
#include "replay/checkpoint_replayer.h"
#include "rnr/log_io.h"
#include "stats/stats.h"

/**
 * @file
 * The detachable alarm-replay stage.
 *
 * One ArStage holds everything needed to turn a PendingAlarm into a
 * verdict: the VM factory, the base replay options, and the active
 * detector complement. The stage itself holds no per-call state, so a
 * single instance is safely shared by any number of worker threads —
 * the fleet's shared pool calls it from every worker.
 *
 * What may outlive a call is the caller's LiveAr: one worker's live
 * alarm replay. analyze() given a LiveAr leaves the replayer and its VM
 * in it, stopped at the alarm it just classified. When the next alarm
 * the worker takes belongs to the same tenant and checkpoint, needs the
 * same tracing level, and lies further on in the log, analyze() goes on
 * replaying from there instead of restoring the checkpoint into a fresh
 * VM. A replayer stopped at alarm k is in the state a fresh one from the
 * same checkpoint reaches there, so the verdict is the solo verdict,
 * analysis_cycles included (it counts from the restore): the simulated
 * model stays one AR per alarm, booted from the checkpoint before it.
 *
 * The replayer reads the tenant's one input log in place, and only its
 * [checkpoint, alarm] range: a pool worker may run while the recorder
 * is still appending further records to the same log.
 */

namespace rsafe::core {

class DetectorSet;

/** Builds one more identically-configured VM. */
using VmFactory = std::function<std::unique_ptr<hv::Vm>()>;

/** Everything one alarm replay produced (satellite of result.alarms). */
struct AlarmReplayResult {
    /** Index of the alarm record in the input log. */
    std::size_t log_index = 0;
    /** The final classification, forensics, and report. */
    replay::AlarmAnalysis analysis;
    /** The replay went on in a LiveAr instead of restoring. How a job
     *  was scheduled, not what it found: it varies with the worker
     *  count, so it never reaches a counter. */
    bool continued = false;
};

class ArStage;

/**
 * One worker's live alarm replay: a VM, the AlarmReplayer running on it,
 * and the key that says which later alarms it may go on to classify —
 * the tenant (its ArStage and the log it reads), Checkpoint::id, whether
 * user call/ret is traced, and the index of the last alarm classified.
 * Owned and used by one thread at a time; empty until an analyze() that
 * was given it classifies an alarm.
 */
class LiveAr {
  public:
    /** Drop the replayer, then its VM. */
    void reset()
    {
        ar_.reset();
        vm_.reset();
    }

  private:
    friend class ArStage;

    /** @return true if the alarm at @p log_index may go on in this
     *  replay under the given key. */
    bool continues(const ArStage* stage, const rnr::InputLog* log,
                   std::uint64_t checkpoint_id, bool user_tracing,
                   std::size_t log_index) const
    {
        return ar_ != nullptr && stage_ == stage && log_ == log &&
               checkpoint_id_ == checkpoint_id &&
               user_tracing_ == user_tracing && log_index > last_index_;
    }

    // Declared before ar_, so the replayer is destroyed first.
    std::unique_ptr<hv::Vm> vm_;
    std::unique_ptr<replay::AlarmReplayer> ar_;
    const ArStage* stage_ = nullptr;
    const rnr::InputLog* log_ = nullptr;
    std::uint64_t checkpoint_id_ = 0;
    bool user_tracing_ = false;
    std::size_t last_index_ = 0;
};

/** The alarm-replay stage: PendingAlarm -> AlarmReplayResult. */
class ArStage {
  public:
    /**
     * The `ar.verdict_latency` histogram of @p stats (geometry
     * obs::kVerdictLatencyHist*), created empty if absent: every verdict
     * analyze() returns samples its analysis_cycles there (0 for a
     * checkpoint-unavailable one).
     */
    static stats::Histogram& verdict_latency(stats::StatRegistry* stats);

    /**
     * The `ar.verdict_host_us` histogram of @p stats (geometry
     * obs::kVerdictHostUsHist*), created empty if absent: the host µs
     * from the CR queueing an alarm to its verdict, including the time
     * the job waited behind earlier alarms on its worker.
     */
    static stats::Histogram& verdict_host_us(stats::StatRegistry* stats);

    /**
     * @param factory       builds the AR VMs; must be thread-safe when
     *                      analyze() is called from worker threads.
     * @param base_options  the CR's replay options; the alarm replayer
     *                      layers its instrumentation on top (kernel
     *                      call/ret traps, plus user traps for a user-mode
     *                      RAS alarm).
     * @param detectors     the active detector complement (may be null);
     *                      must outlive this stage.
     */
    ArStage(VmFactory factory, rnr::ReplayOptions base_options,
            const DetectorSet* detectors);

    /**
     * Classify @p pending by alarm replay, reading @p log in place, and
     * account it into @p local_stats. Every record up to and including
     * @p pending's alarm must be in @p log. The replayer picks its
     * tracing level from the alarm record, so every alarm takes exactly
     * one pass. Thread-safe, given one @p live per thread.
     *
     * With @p live, the alarm goes on in its replay when the key matches
     * (see LiveAr); otherwise its VM is dropped first and a fresh VM is
     * restored from the checkpoint. Either way @p live then holds the
     * replay, stopped at this alarm. A call that throws or yields a
     * checkpoint-unavailable verdict leaves @p live empty. Without
     * @p live, every call replays on a fresh VM.
     *
     * A pending alarm with no checkpoint (checkpointing disabled, or the
     * store recycled past the alarm), or with one whose geometry does not
     * fit the factory's VM, yields a clean
     * AlarmCause::kCheckpointUnavailable verdict, never a crash.
     */
    AlarmReplayResult analyze(const replay::PendingAlarm& pending,
                              const rnr::InputLog& log,
                              stats::StatRegistry* local_stats,
                              LiveAr* live = nullptr) const;

    /**
     * The remote-AR primitive: boot from a checkpoint that arrived over
     * the wire in any form instead of @p pending's in-memory one;
     * @p decoded is how decoding it went. A failed decode classifies as
     * kCheckpointUnavailable with the error in the report: shipping
     * corruption must surface as a verdict, not UB. Otherwise this is
     * analyze() of @p pending booted from @p checkpoint, with identical
     * counter accounting, so shipped and in-memory paths stay A/B
     * bit-identical. A shipped image carries its Checkpoint::id, so
     * @p live chains shipped alarms as it chains in-memory ones.
     */
    AlarmReplayResult analyze_shipped(
        const replay::PendingAlarm& pending, const Status& decoded,
        std::shared_ptr<const replay::Checkpoint> checkpoint,
        const rnr::InputLog& log, stats::StatRegistry* local_stats,
        LiveAr* live = nullptr) const;

  private:
    /** The no-checkpoint verdict shared by the paths above. */
    AlarmReplayResult unavailable(const replay::PendingAlarm& pending,
                                  const std::string& why,
                                  stats::StatRegistry* local_stats) const;
    VmFactory factory_;
    rnr::ReplayOptions base_options_;
    const DetectorSet* detectors_;
};

}  // namespace rsafe::core

#endif  // RSAFE_CORE_AR_STAGE_H_
