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
 * detector complement. It is stateless across calls (every analyze()
 * builds one fresh VM), so a single instance is safely shared by any
 * number of worker threads — the fleet's shared pool calls it from every
 * worker.
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
     * Launch one alarm replayer for @p pending on a fresh VM, reading
     * @p log in place, and account it into @p local_stats. Every record
     * up to and including @p pending's alarm must be in @p log. The
     * replayer picks its tracing level from the alarm record, so every
     * alarm takes exactly one pass. Thread-safe.
     *
     * A pending alarm with no checkpoint (checkpointing disabled, or the
     * store recycled past the alarm), or with one whose geometry does not
     * fit the factory's VM, yields a clean
     * AlarmCause::kCheckpointUnavailable verdict, never a crash.
     */
    AlarmReplayResult analyze(const replay::PendingAlarm& pending,
                              const rnr::InputLog& log,
                              stats::StatRegistry* local_stats) const;

    /**
     * The remote-AR primitive: boot from a checkpoint that arrived over
     * the wire in any form instead of @p pending's in-memory one;
     * @p decoded is how decoding it went. A failed decode classifies as
     * kCheckpointUnavailable with the error in the report: shipping
     * corruption must surface as a verdict, not UB. Otherwise this is
     * analyze() of @p pending booted from @p checkpoint, with identical
     * counter accounting, so shipped and in-memory paths stay A/B
     * bit-identical.
     */
    AlarmReplayResult analyze_shipped(
        const replay::PendingAlarm& pending, const Status& decoded,
        std::shared_ptr<const replay::Checkpoint> checkpoint,
        const rnr::InputLog& log, stats::StatRegistry* local_stats) const;

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
