#include "core/detector.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"

namespace rsafe::core {

using analysis::Region;

namespace {

/** @return the name of the function containing @p addr in any image. */
std::string
function_at_any(const hv::Vm& vm, Addr addr)
{
    std::string name = vm.guest_kernel().image.function_at(addr);
    if (!name.empty())
        return name;
    for (const isa::Image& image : vm.user_images()) {
        name = image.function_at(addr);
        if (!name.empty())
            return name;
    }
    return name;
}

/** Seed the common fields of a detector verdict. */
replay::AlarmAnalysis
base_analysis(const rnr::LogRecord& record)
{
    replay::AlarmAnalysis analysis;
    analysis.forensic.ret_pc = record.alarm.ret_pc;
    analysis.forensic.actual_target = record.alarm.actual;
    return analysis;
}

std::string
render_report(const char* detector, const rnr::LogRecord& record,
              const replay::AlarmAnalysis& analysis, const char* detail)
{
    std::ostringstream out;
    out << detector << " alarm @icount " << record.icount << " tid "
        << record.tid << (record.alarm.kernel_mode ? " [kernel]" : " [user]")
        << ": " << replay::alarm_cause_name(analysis.cause) << "\n  site 0x"
        << std::hex << analysis.forensic.ret_pc << " -> target 0x"
        << analysis.forensic.actual_target << std::dec << "\n  " << detail
        << "\n";
    return out.str();
}

}  // namespace

const char*
detector_id_name(DetectorId id)
{
    switch (id) {
      case DetectorId::kRopRas: return "rop-ras";
      case DetectorId::kJop: return "jop";
      case DetectorId::kCfi: return "cfi";
      case DetectorId::kWx: return "wx";
    }
    return "<bad>";
}

void
DetectorSet::add(std::unique_ptr<Detector> detector)
{
    if (detector == nullptr)
        fatal("DetectorSet: null detector");
    if (find(detector->id()) != nullptr)
        fatal("DetectorSet: duplicate detector id");
    detectors_.push_back(std::move(detector));
}

const Detector*
DetectorSet::find(DetectorId id) const
{
    for (const auto& detector : detectors_) {
        if (detector->id() == id)
            return detector.get();
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// JopGuardDetector
// ---------------------------------------------------------------------------

JopGuardDetector::JopGuardDetector(
    JopDetector table, std::shared_ptr<const analysis::StaticPolicy> policy)
    : table_(std::move(table)), policy_(std::move(policy))
{
    if (policy_ == nullptr)
        fatal("JopGuardDetector: null policy");
}

void
JopGuardDetector::arm(hv::Vm& vm)
{
    vm.cpu().vmcs().controls.trap_indirect_branch = true;
}

bool
JopGuardDetector::trigger_indirect(Addr pc, Addr target, bool is_call)
{
    (void)is_call;
    return table_.check_hardware(pc, target) == JopVerdict::kAlarm;
}

replay::AlarmAnalysis
JopGuardDetector::classify(const rnr::LogRecord& record,
                           replay::AlarmReplayer& ar) const
{
    replay::AlarmAnalysis analysis = base_analysis(record);
    const Addr site = record.alarm.ret_pc;
    const Addr target = record.alarm.actual;

    const char* detail = nullptr;
    if (table_.check_full(site, target) != JopVerdict::kAlarm) {
        // Legal under the complete function table: the hardware table was
        // merely too small to hold the target's function.
        analysis.cause = replay::AlarmCause::kJopTableMiss;
        detail = "target legal under the full function table";
    } else if (policy_->fallback_contains(target)) {
        // A call continuation / address-taken location the function table
        // cannot express but the static policy sanctions (longjmp).
        analysis.cause = replay::AlarmCause::kJopTableMiss;
        detail = "target is in the static policy fallback set";
    } else if (const Region* jit = policy_->jit_region_of(target)) {
        if (target == jit->begin) {
            analysis.cause = replay::AlarmCause::kJopTableMiss;
            detail = "sanctioned JIT region entry";
        } else {
            analysis.cause = replay::AlarmCause::kJopAttack;
            analysis.is_attack = true;
            detail = "transfer into the middle of a JIT region";
        }
    } else {
        analysis.cause = replay::AlarmCause::kJopAttack;
        analysis.is_attack = true;
        detail = "target outside every known function, fallback target "
                 "and JIT entry";
    }
    analysis.forensic.faulting_function = function_at_any(ar.vm(), site);
    analysis.report = render_report("JOP", record, analysis, detail);
    return analysis;
}

// ---------------------------------------------------------------------------
// CfiDetector
// ---------------------------------------------------------------------------

CfiDetector::CfiDetector(std::shared_ptr<const analysis::StaticPolicy> policy)
    : policy_(std::move(policy))
{
    if (policy_ == nullptr)
        fatal("CfiDetector: null policy");
}

void
CfiDetector::arm(hv::Vm& vm)
{
    vm.cpu().vmcs().controls.trap_indirect_branch = true;
}

bool
CfiDetector::in_hardware_subset(const analysis::IndirectSite& site,
                                Addr target) const
{
    // The modeled hardware holds the first kHardwareSlots targets of the
    // (sorted) static set — a bounded, imprecise excerpt of the policy.
    const std::size_t slots = std::min(kHardwareSlots, site.targets.size());
    for (std::size_t i = 0; i < slots; ++i) {
        if (site.targets[i] == target)
            return true;
    }
    return false;
}

bool
CfiDetector::trigger_indirect(Addr pc, Addr target, bool is_call)
{
    (void)is_call;
    const analysis::IndirectSite* site = policy_->find_site(pc);
    if (site == nullptr)
        return true;  // transfer from code the policy has never seen
    if (!site->resolved)
        return false;  // unmonitored site (RAS/JOP cover it)
    return !in_hardware_subset(*site, target);
}

replay::AlarmAnalysis
CfiDetector::classify(const rnr::LogRecord& record,
                      replay::AlarmReplayer& ar) const
{
    replay::AlarmAnalysis analysis = base_analysis(record);
    const Addr site_pc = record.alarm.ret_pc;
    const Addr target = record.alarm.actual;

    const analysis::IndirectSite* site = policy_->find_site(site_pc);
    const char* detail = nullptr;
    if (site == nullptr) {
        analysis.cause = replay::AlarmCause::kCfiHijack;
        analysis.is_attack = true;
        detail = "indirect transfer from code outside the static policy";
    } else if (site->resolved &&
               std::binary_search(site->targets.begin(), site->targets.end(),
                                  target)) {
        // In the full static set, beyond the hardware's few slots.
        analysis.cause = replay::AlarmCause::kCfiTableMiss;
        detail = "target in the full static target set (hardware "
                 "table miss)";
    } else if (!site->resolved && policy_->fallback_contains(target)) {
        analysis.cause = replay::AlarmCause::kCfiTableMiss;
        detail = "unresolved site, target in the fallback set";
    } else {
        analysis.cause = replay::AlarmCause::kCfiHijack;
        analysis.is_attack = true;
        detail = "target outside the site's static target set";
    }
    analysis.forensic.faulting_function =
        function_at_any(ar.vm(), site_pc);
    if (analysis.is_attack) {
        analysis.forensic.call_site_function =
            function_at_any(ar.vm(), target);
    }
    analysis.report = render_report("CFI", record, analysis, detail);
    return analysis;
}

// ---------------------------------------------------------------------------
// WxDetector
// ---------------------------------------------------------------------------

WxDetector::WxDetector(std::shared_ptr<const analysis::StaticPolicy> policy)
    : policy_(std::move(policy))
{
    if (policy_ == nullptr)
        fatal("WxDetector: null policy");
}

WxDetector::~WxDetector()
{
    disarm();
}

void
WxDetector::disarm()
{
    if (armed_vm_ != nullptr) {
        armed_vm_->mem().remove_code_listener(this);
        armed_vm_ = nullptr;
    }
}

bool
WxDetector::statically_executable(Addr addr) const
{
    for (const Region& region : policy_->code) {
        if (region.contains(addr))
            return true;
    }
    return policy_->jit_region_of(addr) != nullptr;
}

void
WxDetector::arm(hv::Vm& vm)
{
    if (armed_vm_ != nullptr)
        fatal("WxDetector: already armed (build a fresh set per run)");
    armed_vm_ = &vm;
    vm.cpu().vmcs().controls.wx_fetch_exit = true;
    vm.mem().add_code_listener(this);
}

void
WxDetector::on_code_page_touched(Addr page)
{
    // The memory layer reports every privileged write to a page as
    // well (DMA, checkpoint restore); the watch hardware only covers
    // pages the static W^X map calls executable.
    if (armed_vm_ == nullptr)
        return;
    if (!statically_executable(page * kPageSize))
        return;
    armed_vm_->cpu().vmcs().wx_watch_pages.insert(page);
}

bool
WxDetector::trigger_wx_fetch(Addr pc)
{
    (void)pc;
    return true;  // every fetch from a written executable page alarms
}

replay::AlarmAnalysis
WxDetector::classify(const rnr::LogRecord& record,
                     replay::AlarmReplayer& ar) const
{
    replay::AlarmAnalysis analysis = base_analysis(record);
    const Addr pc = record.alarm.actual;

    const Region* jit = policy_->jit_region_of(pc);
    const char* detail = nullptr;
    if (jit != nullptr && pc == jit->begin) {
        // Sanctioned runtime code generation: the JIT dispatches to its
        // region's published entry point.
        analysis.cause = replay::AlarmCause::kWxJitBenign;
        detail = "fetch enters a declared JIT region at its base";
    } else {
        analysis.cause = replay::AlarmCause::kWxInjection;
        analysis.is_attack = true;
        detail = jit != nullptr
                     ? "fetch lands mid-JIT-region (not the published "
                       "entry)"
                     : "fetch from a written page outside every JIT "
                       "region";
    }
    analysis.forensic.faulting_function = function_at_any(ar.vm(), pc);
    analysis.report = render_report("W^X", record, analysis, detail);
    return analysis;
}

// ---------------------------------------------------------------------------
// Standard complement
// ---------------------------------------------------------------------------

std::shared_ptr<DetectorSet>
standard_detectors(const std::vector<const isa::Image*>& images,
                   std::shared_ptr<const analysis::StaticPolicy> policy,
                   std::size_t jop_hardware_slots)
{
    if (policy == nullptr)
        fatal("standard_detectors: null policy");
    JopDetector jop_table;
    if (const Status status =
            JopDetector::create(images, jop_hardware_slots, &jop_table);
        !status.ok()) {
        fatal("standard_detectors: " + status.to_string());
    }
    auto set = std::make_shared<DetectorSet>();
    set->add(std::make_unique<JopGuardDetector>(std::move(jop_table),
                                                policy));
    set->add(std::make_unique<CfiDetector>(policy));
    set->add(std::make_unique<WxDetector>(std::move(policy)));
    return set;
}

}  // namespace rsafe::core
