#ifndef RSAFE_REPLAY_ALARM_REPLAYER_H_
#define RSAFE_REPLAY_ALARM_REPLAYER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/forensic.h"
#include "replay/checkpoint.h"
#include "replay/shadow_ras.h"
#include "rnr/replayer.h"

/**
 * @file
 * The Alarm Replayer (Section 4.6.2).
 *
 * Launched from the checkpoint immediately preceding an alarm, the AR
 * re-executes the log range while trapping on every (kernel) call and
 * return instruction and modelling an unbounded software RAS initialized
 * from the checkpoint's BackRAS. At the alarm marker it classifies the
 * mismatch: a false positive (imperfect nesting, deep underflow, hardware
 * artifact) or a real ROP — in which case it assembles a forensic report:
 * where the attack happened, which thread mounted it, and the gadget
 * chain sitting on the corrupted stack (Section 6's where/who/what).
 *
 * A verdict keeps those facts in one place, its obs::ForensicReport;
 * the text report is rendered from it. Function names and bounds come
 * from the kernel image's symbol table, which the static analysis
 * (analysis::FunctionTable::verify_against) proves equal to the bounds
 * a CFG recovers, so no verdict rebuilds a CFG.
 */

namespace rsafe::core {
class DetectorSet;  // core/detector.h; full type not needed here
}  // namespace rsafe::core

namespace rsafe::replay {

/** Classification of an analyzed alarm. */
enum class AlarmCause {
    kRopAttack,         ///< only explainable as a hijacked return
    kImperfectNesting,  ///< longjmp-style unwinding (false positive)
    kBenignUnderflow,   ///< matched an Evict record (false positive)
    kHardwareArtifact,  ///< software RAS predicted correctly (false pos.)
    kWhitelistViolation,///< non-procedural return to an illegal target
    kNeedsDeeperAnalysis, ///< a fully traced replay did not end on the
                          ///< alarm's return (unclassified, benign)
    kLogIntegrity,      ///< the input log itself failed integrity checks
    kJopTableMiss,      ///< legal under the full table/policy (false pos.)
    kJopAttack,         ///< stray transfer no table or policy explains
    kCfiTableMiss,      ///< in the static target set, not the hw excerpt
    kCfiHijack,         ///< outside the site's static target set
    kWxJitBenign,       ///< sanctioned JIT-region entry (false positive)
    kWxInjection,       ///< fetched freshly written non-JIT code
    kCheckpointUnavailable, ///< no checkpoint covers the alarm (recycled
                            ///< past it, or checkpointing disabled)
};

/** @return a short name for @p cause. */
const char* alarm_cause_name(AlarmCause cause);

/** The outcome of one alarm replay. */
struct AlarmAnalysis {
    bool is_attack = false;
    AlarmCause cause = AlarmCause::kHardwareArtifact;
    rnr::LogRecord alarm_record;
    std::string report;  ///< human-readable summary

    /** The verdict's where/who/what facts (wire-serializable). */
    obs::ForensicReport forensic;

    /** Cycles the alarm replay itself consumed. */
    Cycles analysis_cycles = 0;
};

/** The on-demand alarm replayer. */
class AlarmReplayer : public rnr::Replayer {
  public:
    /**
     * @param vm          a freshly built VM of the same configuration;
     *                    the constructor restores @p checkpoint into it.
     * @param log         the input log, read in place; only records up
     *                    to the target alarm are read, so the recorder
     *                    may still be appending past it.
     * @param checkpoint  the AR's start point.
     * @param options     replay options; trap_kernel_call_ret is forced
     *                    on (that is what an AR is), and analyze() adds
     *                    trap_user_call_ret for a user-mode RAS alarm.
     */
    AlarmReplayer(hv::Vm* vm, const rnr::InputLog* log,
                  const Checkpoint& checkpoint,
                  const rnr::ReplayOptions& options);

    /**
     * Replay up to the alarm record at @p alarm_log_index and classify it,
     * in one pass. The record picks the tracing level: a user-mode
     * kRasAlarm also traces user call/ret, every other alarm kernel
     * call/ret only. kRasAlarm records go through the shadow-RAS
     * analysis; kDetectorAlarm records are routed to the registered
     * detector's classifier (see set_detectors), which runs with the
     * replayed machine stopped exactly at the alarm.
     *
     * The replay stays stopped at the alarm, so a later analyze() of an
     * alarm further on in the log goes on from there. That gives the
     * verdict a fresh replayer from the same checkpoint would, so long
     * as both alarms take the same tracing level: run() stops at an
     * alarm exactly where passing through it would have left the
     * machine, and analysis_cycles still counts from the restore.
     */
    AlarmAnalysis analyze(std::size_t alarm_log_index);

    /**
     * Register the detector complement whose classifiers resolve
     * kDetectorAlarm records. The set must outlive this replayer; without
     * one, detector alarms classify as benign-unclassified.
     */
    void set_detectors(const core::DetectorSet* detectors)
    {
        detectors_ = detectors;
    }

    /** The replayed machine (detector classifiers inspect its state,
     *  read-only, so a classified replay can go on to a later alarm). */
    const hv::Vm& vm() const { return *vm_; }

    /** The software RAS (exposed for tests). */
    const ShadowRas& shadow() const { return shadow_; }

    void on_call_ret(const cpu::CallRetEvent& event) override;

  protected:
    void hook_context_switch(ThreadId tid) override;
    bool hook_positional_record(const rnr::LogRecord& record) override;

  private:
    static rnr::ReplayOptions force_tracing(rnr::ReplayOptions options);

    AlarmAnalysis build_analysis(const rnr::LogRecord& record) const;
    AlarmAnalysis classify_detector(const rnr::LogRecord& record) const;
    void build_forensic(const rnr::LogRecord& record,
                        AlarmAnalysis* analysis) const;

    ShadowRas shadow_;
    const core::DetectorSet* detectors_ = nullptr;

    /** Shadow depth per thread as restored from the checkpoint. */
    std::map<ThreadId, std::size_t> initial_depth_;
    std::size_t target_index_ = ~static_cast<std::size_t>(0);
    Cycles start_cycles_ = 0;

    /** Verdict of the most recent traced return. */
    std::optional<RetVerdict> last_ret_verdict_;
    cpu::CallRetEvent last_ret_event_;
    Addr last_ret_expected_ = 0;
    bool reached_target_ = false;
};

}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_ALARM_REPLAYER_H_
