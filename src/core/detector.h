#ifndef RSAFE_CORE_DETECTOR_H_
#define RSAFE_CORE_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/policy.h"
#include "common/types.h"
#include "core/jop_detector.h"
#include "hv/vm.h"
#include "mem/phys_mem.h"
#include "replay/alarm_replayer.h"
#include "rnr/log_record.h"

/**
 * @file
 * The pluggable detector framework.
 *
 * RnR-Safe's architecture (Section 3) is detector-agnostic: any cheap,
 * imprecise hardware monitor can raise alarms during recording as long
 * as a replay-side analysis exists that classifies each alarm precisely.
 * A Detector packages both halves behind one interface:
 *
 *  - the *hardware model* runs inside the recorded VM: arm() programs
 *    the VMCS exit controls, and the trigger_*() predicates decide — per
 *    monitored event — whether the (deliberately small and imprecise)
 *    hardware would have raised an alarm;
 *  - the *replay classifier* runs in an alarm replayer launched from the
 *    checkpoint preceding the alarm: classify() has the full static
 *    policy and the replayed machine state at its disposal and renders
 *    the precise verdict the hardware could not.
 *
 * The static-policy detectors (CFI, W^X, the policy-aware JOP guard)
 * consume an analysis::StaticPolicy produced ahead of time by the
 * value-set pass (`rsafe-analyze --emit-policy`); the hardware checks
 * only a bounded subset of it (small target tables, single watch bits),
 * so false positives are expected and the replay classifier absorbs
 * them, exactly as the paper's RAS hardware over-raises and the AR
 * sorts the alarms out.
 *
 * Determinism: detector hardware never alters guest-visible state — a
 * trigger only appends a kDetectorAlarm record and charges (record-side
 * only) cycles, so recorded and replayed instruction streams stay
 * bit-identical with any detector set registered, and the replayers
 * consume the alarm records purely positionally.
 */

namespace rsafe::core {

/** Stable wire identity of each detector (LogRecord::value payload). */
enum class DetectorId : std::uint8_t {
    kRopRas = 0,  ///< reserved: the paper's RAS monitor, whose alarms
                  ///< arrive as kRasAlarm records, not detector alarms
    kJop = 1,     ///< function-bounds indirect-branch table
    kCfi = 2,     ///< value-set CFI target tables
    kWx = 3,      ///< W^X written-then-fetched watcher
};

/** @return the short stable name of @p id (metrics keys, reports). */
const char* detector_id_name(DetectorId id);

/** One pluggable record/replay detector pair. */
class Detector {
  public:
    virtual ~Detector() = default;

    virtual DetectorId id() const = 0;

    /** Short stable name (metrics keys, forensic reports). */
    const char* name() const { return detector_id_name(id()); }

    /**
     * Program the recorded VM's hardware (VMCS exit controls, memory
     * watch plumbing). Called once per recording, after the VM is
     * finalized and before the first instruction executes. A detector
     * instance arms at most one VM at a time.
     */
    virtual void arm(hv::Vm& vm) { (void)vm; }

    /**
     * Release any binding to the armed VM (listeners, watch plumbing).
     * Called by the framework once recording finishes — the hardware
     * model is only live during recording, and the armed VM may be
     * destroyed before the detector set is.
     */
    virtual void disarm() {}

    /**
     * Hardware model for an executed indirect branch/call: @return true
     * when the first-line hardware would raise an alarm for the
     * transfer @p pc -> @p target.
     */
    virtual bool trigger_indirect(Addr pc, Addr target, bool is_call)
    {
        (void)pc;
        (void)target;
        (void)is_call;
        return false;
    }

    /**
     * Hardware model for a W^X fetch exit (first fetch from a page
     * written since it was armed): @return true to raise an alarm.
     */
    virtual bool trigger_wx_fetch(Addr pc)
    {
        (void)pc;
        return false;
    }

    /**
     * Replay-side classification of one alarm this detector raised.
     * Runs inside @p ar, stopped exactly at the alarm record; the
     * implementation fills verdict, cause, report and the forensic
     * where facts (addresses and function names). The caller
     * (AlarmReplayer::analyze) stamps alarm_record, analysis_cycles and
     * the forensic identification fields. @p ar is read-only: a
     * classified replay leaves the machine as it found it, so it can go
     * on to the next alarm of its checkpoint.
     */
    virtual replay::AlarmAnalysis classify(
        const rnr::LogRecord& record,
        const replay::AlarmReplayer& ar) const = 0;
};

/** The registered detector complement of one pipeline run. */
class DetectorSet {
  public:
    /** Register @p detector; fatal on a duplicate DetectorId. */
    void add(std::unique_ptr<Detector> detector);

    /** @return the registered detector with @p id, or nullptr. */
    const Detector* find(DetectorId id) const;

    const std::vector<std::unique_ptr<Detector>>& all() const
    {
        return detectors_;
    }

    bool empty() const { return detectors_.empty(); }

  private:
    std::vector<std::unique_ptr<Detector>> detectors_;
};

/**
 * The JOP detector of Table 1 on the framework interface: the hardware
 * check consults the small function table; the replay classifier
 * consults the full table plus the static policy (fallback targets such
 * as longjmp continuations, sanctioned JIT entry) before declaring an
 * attack.
 */
class JopGuardDetector : public Detector {
  public:
    JopGuardDetector(JopDetector table,
                     std::shared_ptr<const analysis::StaticPolicy> policy);

    DetectorId id() const override { return DetectorId::kJop; }
    void arm(hv::Vm& vm) override;
    bool trigger_indirect(Addr pc, Addr target, bool is_call) override;
    replay::AlarmAnalysis classify(
        const rnr::LogRecord& record,
        const replay::AlarmReplayer& ar) const override;

  private:
    JopDetector table_;
    std::shared_ptr<const analysis::StaticPolicy> policy_;
};

/**
 * Value-set CFI. The hardware monitors only *resolved* policy sites and
 * holds at most kHardwareSlots targets per site (the "small table"
 * imprecision); a transfer from a resolved site outside its hardware
 * subset, or from a site the policy has never seen, raises an alarm.
 * The replay classifier distinguishes a hardware table miss (target in
 * the full static set — false positive) from a genuine hijack.
 */
class CfiDetector : public Detector {
  public:
    /** Per-site target slots the modeled hardware table holds. */
    static constexpr std::size_t kHardwareSlots = 4;

    explicit CfiDetector(
        std::shared_ptr<const analysis::StaticPolicy> policy);

    DetectorId id() const override { return DetectorId::kCfi; }
    void arm(hv::Vm& vm) override;
    bool trigger_indirect(Addr pc, Addr target, bool is_call) override;
    replay::AlarmAnalysis classify(
        const rnr::LogRecord& record,
        const replay::AlarmReplayer& ar) const override;

  private:
    bool in_hardware_subset(const analysis::IndirectSite& site,
                            Addr target) const;

    std::shared_ptr<const analysis::StaticPolicy> policy_;
};

/**
 * W^X watcher. arm() registers a code-write listener on the recorded
 * VM's memory; a write into a statically executable region (policy code
 * map or a declared JIT region) arms a one-shot fetch watch on the
 * page, and the first fetch from a watched page VM-exits *before* the
 * written instruction executes and raises an alarm. The replay
 * classifier sanctions fetches entering a declared JIT region at its
 * base (runtime code generation policy) and declares everything else
 * code injection.
 */
class WxDetector : public Detector, public mem::CodeWriteListener {
  public:
    explicit WxDetector(
        std::shared_ptr<const analysis::StaticPolicy> policy);
    ~WxDetector() override;

    DetectorId id() const override { return DetectorId::kWx; }
    void arm(hv::Vm& vm) override;
    void disarm() override;
    bool trigger_wx_fetch(Addr pc) override;
    replay::AlarmAnalysis classify(
        const rnr::LogRecord& record,
        const replay::AlarmReplayer& ar) const override;

    // mem::CodeWriteListener
    void on_code_page_touched(Addr page) override;

  private:
    bool statically_executable(Addr addr) const;

    std::shared_ptr<const analysis::StaticPolicy> policy_;
    hv::Vm* armed_vm_ = nullptr;
};

/**
 * Build the standard detector complement for one trusted image group:
 * JOP guard (function table from @p images, @p jop_hardware_slots
 * entries), CFI and W^X driven by @p policy. The paper's RAS monitor
 * needs no entry: its alarms are kRasAlarm records, which the alarm
 * replayer classifies with its shadow RAS.
 *
 * The returned set is stateful per recording (the W^X watcher binds to
 * the VM it arms): build a fresh set per pipeline run.
 */
std::shared_ptr<DetectorSet> standard_detectors(
    const std::vector<const isa::Image*>& images,
    std::shared_ptr<const analysis::StaticPolicy> policy,
    std::size_t jop_hardware_slots = 64);

}  // namespace rsafe::core

#endif  // RSAFE_CORE_DETECTOR_H_
