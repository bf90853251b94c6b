#include "replay/alarm_replayer.h"

#include <sstream>

#include "common/log.h"
#include "core/detector.h"
#include "isa/disassembler.h"

namespace rsafe::replay {

namespace {

/** What primitive the instruction at the head of a gadget provides. */
obs::GadgetClass
classify_gadget(const std::optional<isa::Instr>& instr)
{
    if (!instr)
        return obs::GadgetClass::kUnknown;
    switch (instr->op) {
      case isa::Opcode::kRet:
        return obs::GadgetClass::kChain;
      case isa::Opcode::kLd:
      case isa::Opcode::kLdb:
      case isa::Opcode::kLdi:
      case isa::Opcode::kLdiu:
      case isa::Opcode::kMov:
        return obs::GadgetClass::kLoad;
      case isa::Opcode::kSt:
      case isa::Opcode::kStb:
        return obs::GadgetClass::kStore;
      case isa::Opcode::kAdd: case isa::Opcode::kSub:
      case isa::Opcode::kMul: case isa::Opcode::kDivu:
      case isa::Opcode::kAnd: case isa::Opcode::kOr:
      case isa::Opcode::kXor: case isa::Opcode::kShl:
      case isa::Opcode::kShr: case isa::Opcode::kAddi:
      case isa::Opcode::kAndi: case isa::Opcode::kOri:
      case isa::Opcode::kXori: case isa::Opcode::kShli:
      case isa::Opcode::kShri:
        return obs::GadgetClass::kAlu;
      case isa::Opcode::kPush: case isa::Opcode::kPop:
      case isa::Opcode::kGetsp: case isa::Opcode::kSetsp:
      case isa::Opcode::kAddsp:
        return obs::GadgetClass::kStackPivot;
      case isa::Opcode::kJmp: case isa::Opcode::kJmpr:
      case isa::Opcode::kCall: case isa::Opcode::kCallr:
      case isa::Opcode::kBeq: case isa::Opcode::kBne:
      case isa::Opcode::kBlt: case isa::Opcode::kBge:
      case isa::Opcode::kBltu: case isa::Opcode::kBgeu:
        return obs::GadgetClass::kBranch;
      case isa::Opcode::kSyscall: case isa::Opcode::kIret:
      case isa::Opcode::kIn: case isa::Opcode::kOut:
        return obs::GadgetClass::kSystem;
      default:
        return obs::GadgetClass::kUnknown;
    }
}

}  // namespace

const char*
alarm_cause_name(AlarmCause cause)
{
    switch (cause) {
      case AlarmCause::kRopAttack: return "ROP-ATTACK";
      case AlarmCause::kImperfectNesting: return "imperfect-nesting";
      case AlarmCause::kBenignUnderflow: return "benign-underflow";
      case AlarmCause::kHardwareArtifact: return "hardware-artifact";
      case AlarmCause::kWhitelistViolation: return "whitelist-violation";
      case AlarmCause::kNeedsDeeperAnalysis: return "needs-deeper-analysis";
      case AlarmCause::kLogIntegrity: return "LOG-INTEGRITY";
      case AlarmCause::kJopTableMiss: return "jop-table-miss";
      case AlarmCause::kJopAttack: return "JOP-ATTACK";
      case AlarmCause::kCfiTableMiss: return "cfi-table-miss";
      case AlarmCause::kCfiHijack: return "CFI-HIJACK";
      case AlarmCause::kWxJitBenign: return "wx-jit-benign";
      case AlarmCause::kWxInjection: return "WX-INJECTION";
      case AlarmCause::kCheckpointUnavailable:
          return "checkpoint-unavailable";
    }
    return "<bad>";
}

rnr::ReplayOptions
AlarmReplayer::force_tracing(rnr::ReplayOptions options)
{
    options.trap_kernel_call_ret = true;
    return options;
}

AlarmReplayer::AlarmReplayer(hv::Vm* vm, const rnr::InputLog* log,
                             const Checkpoint& checkpoint,
                             const rnr::ReplayOptions& options)
    : rnr::Replayer(vm, log, checkpoint.log_pos, force_tracing(options)),
      shadow_({vm->guest_kernel().switch_ret_pc},
              {vm->guest_kernel().finish_resched,
               vm->guest_kernel().finish_fork,
               vm->guest_kernel().finish_kthread})
{
    restore_checkpoint(checkpoint, vm_, this);
    start_cycles_ = vm_->cpu().cycles();

    // "It reads the checkpoint's BackRAS into a software data structure
    // that it uses to simulate the RAS" (Section 4.6.2).
    for (const auto& [tid, saved] : checkpoint.backras)
        shadow_.init_thread(tid, saved);
    if (checkpoint.have_current_tid) {
        shadow_.init_thread(checkpoint.current_tid, checkpoint.ras);
        shadow_.switch_to(checkpoint.current_tid);
    }

    // Snapshot the as-restored shadow depths: the forensic report states
    // each thread's depth change between the checkpoint and the alarm.
    for (const auto& [tid, saved] : checkpoint.backras)
        initial_depth_[tid] = shadow_.depth(tid);
    if (checkpoint.have_current_tid) {
        initial_depth_[checkpoint.current_tid] =
            shadow_.depth(checkpoint.current_tid);
    }
}

void
AlarmReplayer::on_call_ret(const cpu::CallRetEvent& event)
{
    if (event.is_call) {
        shadow_.on_call(event.link);
        return;
    }
    Addr expected = 0;
    const RetVerdict verdict =
        shadow_.on_ret(event.pc, event.target, &expected);
    last_ret_verdict_ = verdict;
    last_ret_event_ = event;
    last_ret_expected_ = expected;
}

void
AlarmReplayer::hook_context_switch(ThreadId tid)
{
    shadow_.switch_to(tid);
}

bool
AlarmReplayer::hook_positional_record(const rnr::LogRecord& record)
{
    if (record.type == rnr::RecordType::kRasEvict) {
        shadow_.note_evict(record.tid, record.addr);
        return true;
    }
    if (record.type == rnr::RecordType::kRasAlarm ||
        record.type == rnr::RecordType::kDetectorAlarm) {
        if (log_pos() - 1 == target_index_) {
            reached_target_ = true;
            // Stop: the state at the alarm is now live. run() returns
            // before its hook_exit_boundary(), which this class leaves
            // empty, so a later analyze() resumes exactly as passing
            // through would have gone on.
            return false;
        }
        // Any other alarm is passed through: an earlier one was already
        // classified, by this replay or another; a later one may be
        // classified by a later analyze() of this replay.
    }
    return true;
}

AlarmAnalysis
AlarmReplayer::analyze(std::size_t alarm_log_index)
{
    target_index_ = alarm_log_index;
    reached_target_ = false;
    // Every record up to the alarm was published before this job
    // existed, so the replay never waits on the log's end state.
    if (alarm_log_index >= log_->size())
        panic("AlarmReplayer: the log holds no target alarm record");
    // The alarm record names the mode its return ran in, so it picks the
    // one analysis level that can classify it: a user-mode RAS alarm
    // needs user call/ret traced too (Section 4.6.2's deeper level).
    // The CPU reads the control at run time, so it is set after the
    // restore.
    const rnr::LogRecord& record = log_->at(alarm_log_index);
    if (record.type == rnr::RecordType::kRasAlarm &&
        !record.alarm.kernel_mode)
        vm_->cpu().vmcs().controls.trap_user_call_ret = true;
    const auto outcome = run();
    if (!reached_target_ || outcome != rnr::ReplayOutcome::kStopRequested) {
        panic("AlarmReplayer: did not reach the target alarm record");
    }
    AlarmAnalysis analysis = record.type == rnr::RecordType::kDetectorAlarm
                                 ? classify_detector(record)
                                 : build_analysis(record);
    analysis.alarm_record = record;
    analysis.analysis_cycles = vm_->cpu().cycles() - start_cycles_;

    // Identify the verdict in its forensic record, whichever classifier
    // rendered it. A return the traced replay never reached has no
    // forensic facts, so its record stays empty.
    if (analysis.cause == AlarmCause::kNeedsDeeperAnalysis)
        return analysis;
    obs::ForensicReport& forensic = analysis.forensic;
    forensic.log_index = target_index_;
    forensic.icount = record.icount;
    forensic.cause = alarm_cause_name(analysis.cause);
    forensic.is_attack = analysis.is_attack;
    forensic.kernel_mode = record.alarm.kernel_mode;
    forensic.tid = record.tid;
    // Count every thread the shadow saw, not just the ones the
    // checkpoint seeded: early checkpoints carry no BackRAS yet.
    forensic.threads_tracked = shadow_.num_threads();
    return analysis;
}

AlarmAnalysis
AlarmReplayer::classify_detector(const rnr::LogRecord& record) const
{
    const core::Detector* detector =
        detectors_ != nullptr
            ? detectors_->find(static_cast<core::DetectorId>(record.value))
            : nullptr;
    if (detector != nullptr)
        return detector->classify(record, *this);

    // No classifier registered (e.g. a shipped log replayed without the
    // matching detector complement): surface the alarm benignly rather
    // than guessing an attack verdict.
    AlarmAnalysis analysis;
    analysis.is_attack = false;
    analysis.cause = AlarmCause::kHardwareArtifact;
    analysis.forensic.ret_pc = record.alarm.ret_pc;
    analysis.forensic.actual_target = record.alarm.actual;
    analysis.report = "detector alarm without a registered "
                      "classifier; left unconfirmed (benign)";
    return analysis;
}

AlarmAnalysis
AlarmReplayer::build_analysis(const rnr::LogRecord& record) const
{
    AlarmAnalysis analysis;
    if (!last_ret_verdict_ || last_ret_event_.pc != record.alarm.ret_pc) {
        // The last traced return is not the one the alarm names, so the
        // shadow RAS has nothing to classify.
        analysis.cause = AlarmCause::kNeedsDeeperAnalysis;
        analysis.is_attack = false;
        analysis.report = "traced replay did not end on the alarm's "
                          "return; left unclassified (benign)";
        return analysis;
    }

    switch (*last_ret_verdict_) {
      case RetVerdict::kMatch:
        analysis.cause = AlarmCause::kHardwareArtifact;
        break;
      case RetVerdict::kWhitelistOk:
        analysis.cause = AlarmCause::kHardwareArtifact;
        break;
      case RetVerdict::kImperfectNesting:
        analysis.cause = AlarmCause::kImperfectNesting;
        break;
      case RetVerdict::kUnderflowBenign:
        analysis.cause = AlarmCause::kBenignUnderflow;
        break;
      case RetVerdict::kWhitelistViolation:
        analysis.cause = AlarmCause::kWhitelistViolation;
        analysis.is_attack = true;
        break;
      case RetVerdict::kRopDetected:
        analysis.cause = AlarmCause::kRopAttack;
        analysis.is_attack = true;
        break;
    }
    build_forensic(record, &analysis);

    const obs::ForensicReport& forensic = analysis.forensic;
    std::ostringstream report;
    report << "alarm @icount " << record.icount << " tid " << record.tid
           << (record.alarm.kernel_mode ? " [kernel]" : " [user]") << ": "
           << alarm_cause_name(analysis.cause) << "\n";
    if (analysis.is_attack) {
        report << "  hijacked return at 0x" << std::hex << forensic.ret_pc
               << std::dec;
        if (!forensic.faulting_function.empty())
            report << " in <" << forensic.faulting_function << ">";
        report << "\n  legitimate call site: 0x" << std::hex
               << forensic.expected_target << std::dec;
        if (!forensic.call_site_function.empty())
            report << " in <" << forensic.call_site_function << ">";
        report << "\n  control redirected to 0x" << std::hex
               << forensic.actual_target << std::dec;
        if (!forensic.target_function.empty())
            report << " (inside <" << forensic.target_function << ">)";
        report << "\n  gadget chain on the corrupted stack:";
        for (const obs::GadgetInfo& gadget : forensic.gadgets) {
            report << "\n    0x" << std::hex << gadget.pc << std::dec;
            if (!gadget.disasm.empty())
                report << "  " << gadget.disasm;
        }
        report << "\n";
    }
    analysis.report = report.str();
    return analysis;
}

void
AlarmReplayer::build_forensic(const rnr::LogRecord& record,
                              AlarmAnalysis* out) const
{
    // Where: the return the shadow RAS judged, the call site it owed
    // control to, and where control went instead.
    obs::ForensicReport& forensic = out->forensic;
    const auto& image = vm_->guest_kernel().image;
    forensic.ret_pc = record.alarm.ret_pc;
    forensic.faulting_function = image.function_at(forensic.ret_pc);
    forensic.expected_target = last_ret_expected_;
    forensic.call_site_function =
        image.function_at(forensic.expected_target);
    forensic.actual_target = record.alarm.actual;
    forensic.target_function = image.function_at(forensic.actual_target);

    // Who: the mounting thread's shadow depth, and its change since the
    // checkpoint.
    forensic.shadow_depth = shadow_.depth(record.tid);
    const auto it = initial_depth_.find(record.tid);
    const auto initial = static_cast<std::int64_t>(
        it == initial_depth_.end() ? 0 : it->second);
    forensic.shadow_delta =
        static_cast<std::int64_t>(forensic.shadow_depth) - initial;

    if (!out->is_attack)
        return;

    // Where, precisely: the faulting function's bounds, read from the
    // symbol table that the static analysis proves equal to the bounds
    // a CFG recovers (FunctionTable::verify_against).
    if (const auto fn = image.find_function(forensic.faulting_function)) {
        forensic.function_begin = fn->begin;
        forensic.function_end = fn->end;
    }
    // What: walk the corrupted stack upward; every word that points into
    // kernel code is (part of) the gadget chain the attacker staged, and
    // its first instruction says what primitive it provides.
    for (int i = 0; i < 16; ++i) {
        const Addr addr = record.alarm.sp_after + 8 * i;
        if (addr + 8 > vm_->mem().size())
            break;
        const Addr pc = vm_->mem().read_raw(addr, 8);
        if (pc < image.base() || pc >= image.end())
            continue;
        obs::GadgetInfo gadget;
        gadget.pc = pc;
        const auto instr = image.instr_at(pc);
        gadget.cls = classify_gadget(instr);
        if (instr)
            gadget.disasm = isa::disassemble(*instr);
        gadget.function = image.function_at(pc);
        forensic.gadgets.push_back(std::move(gadget));
    }
}

}  // namespace rsafe::replay
