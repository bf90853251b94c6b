#include "rnr/recorder.h"

#include <utility>

#include "core/detector.h"
#include "obs/trace.h"

namespace rsafe::rnr {

using cpu::Costs;

hv::HvOptions
Recorder::make_hv_options(const RecorderOptions& options)
{
    hv::HvOptions hv_options;
    hv_options.mediate_io = true;   // recording requires mediated I/O
    hv_options.trap_rdtsc = true;   // rdtsc is a logged input
    hv_options.manage_backras = options.manage_backras;
    hv_options.whitelists = options.whitelists;
    hv_options.ras_alarms = options.ras_alarms;
    hv_options.evict_exits = options.evict_exits;
    return hv_options;
}

Recorder::Recorder(hv::Vm* vm, const RecorderOptions& options)
    : hv::Hypervisor(vm, make_hv_options(options)), rec_options_(options)
{
}

Cycles
Recorder::charge_log_write(LogRecord record)
{
    const Cycles cost =
        Costs::kLogRecord +
        Costs::kLogPer8Bytes * (record.serialized_size() / 8);
    vm_->cpu().add_cycles(cost);
    log_.append(std::move(record));
    return cost;
}

void
Recorder::hook_rdtsc(Word value)
{
    LogRecord record;
    record.type = RecordType::kRdtsc;
    record.icount = vm_->cpu().icount();
    record.value = value;
    // NoRec does not trap rdtsc at all, so the whole VM transition plus
    // the log write is recording overhead.
    overhead_.rdtsc += Costs::kVmTransition + charge_log_write(std::move(record));
}

void
Recorder::hook_io_in(std::uint16_t port, Word value)
{
    LogRecord record;
    record.type = RecordType::kIoIn;
    record.icount = vm_->cpu().icount();
    record.addr = port;
    record.value = value;
    // The trap itself exists under plain mediated I/O too; only the log
    // write is recording overhead.
    overhead_.pio_mmio += charge_log_write(std::move(record));
}

void
Recorder::hook_mmio_read(Addr addr, Word value)
{
    LogRecord record;
    record.type = RecordType::kMmioRead;
    record.icount = vm_->cpu().icount();
    record.addr = addr;
    record.value = value;
    overhead_.pio_mmio += charge_log_write(std::move(record));
}

void
Recorder::hook_nic_dma(Addr addr, const std::vector<std::uint8_t>& data)
{
    LogRecord record;
    record.type = RecordType::kNicDma;
    record.icount = vm_->cpu().icount();
    record.addr = addr;
    record.payload = data;
    // Packet contents dominate the log (Section 8.1).
    overhead_.network += charge_log_write(std::move(record));
}

void
Recorder::hook_irq_inject(std::uint8_t vector)
{
    LogRecord record;
    record.type = RecordType::kIrqInject;
    record.icount = vm_->cpu().icount();
    record.value = vector;
    overhead_.interrupt += charge_log_write(std::move(record));
}

void
Recorder::hook_disk_complete()
{
    LogRecord record;
    record.type = RecordType::kDiskComplete;
    record.icount = vm_->cpu().icount();
    overhead_.interrupt += charge_log_write(std::move(record));
}

void
Recorder::hook_ras_alarm(const cpu::RasAlarm& alarm)
{
    LogRecord record;
    record.type = RecordType::kRasAlarm;
    record.icount = vm_->cpu().icount();
    record.tid = have_current_tid() ? current_tid() : 0;
    record.alarm.kind = alarm.kind;
    record.alarm.ret_pc = alarm.ret_pc;
    record.alarm.predicted = alarm.predicted;
    record.alarm.actual = alarm.actual;
    record.alarm.sp_after = alarm.sp_after;
    record.alarm.kernel_mode = alarm.mode == cpu::Mode::kKernel;
    obs::Tracer::instance().instant("record.ras_alarm", "record", "icount",
                                    record.icount);
    overhead_.ras += Costs::kVmTransition + charge_log_write(std::move(record));
    if (rec_options_.stop_on_alarm) {
        alarm_stop_ = true;
        // Freeze the VM before the next instruction retires: the gadget
        // the hijacked return targets must never execute. (Clearing
        // vmcs().perf_stop resumes the machine if the alarm proves
        // false.)
        vm_->cpu().vmcs().perf_stop = 0;
    }
}

void
Recorder::log_detector_alarm(const core::Detector& detector, Addr site,
                             Addr target)
{
    LogRecord record;
    record.type = RecordType::kDetectorAlarm;
    record.icount = vm_->cpu().icount();
    record.tid = have_current_tid() ? current_tid() : 0;
    record.value = static_cast<Word>(detector.id());
    record.alarm.ret_pc = site;
    record.alarm.actual = target;
    record.alarm.kernel_mode =
        vm_->cpu().state().mode == cpu::Mode::kKernel;
    obs::Tracer::instance().instant("record.detector_alarm",
                                    detector.name(), "icount",
                                    record.icount);
    overhead_.detectors += Costs::kVmTransition + charge_log_write(std::move(record));
    if (rec_options_.stop_on_alarm) {
        alarm_stop_ = true;
        vm_->cpu().vmcs().perf_stop = 0;
    }
}

void
Recorder::on_indirect_branch(Addr pc, Addr target, bool is_call)
{
    if (detectors_ == nullptr)
        return;
    for (const auto& detector : detectors_->all()) {
        if (detector->trigger_indirect(pc, target, is_call))
            log_detector_alarm(*detector, pc, target);
    }
}

void
Recorder::on_wx_fetch(Addr pc)
{
    if (detectors_ == nullptr)
        return;
    for (const auto& detector : detectors_->all()) {
        if (detector->trigger_wx_fetch(pc))
            log_detector_alarm(*detector, pc, pc);
    }
}

void
Recorder::hook_ras_evict(Addr evicted)
{
    LogRecord record;
    record.type = RecordType::kRasEvict;
    record.icount = vm_->cpu().icount();
    record.addr = evicted;
    record.tid = have_current_tid() ? current_tid() : 0;
    obs::Tracer::instance().instant("record.ras_evict", "record", "icount",
                                    record.icount);
    overhead_.ras += Costs::kVmTransition + charge_log_write(std::move(record));
}

void
Recorder::hook_halt()
{
    LogRecord record;
    record.type = RecordType::kHalt;
    record.icount = vm_->cpu().icount();
    obs::Tracer::instance().instant("record.halt", "record", "icount",
                                    record.icount);
    charge_log_write(std::move(record));
}

void
Recorder::hook_context_switch(ThreadId tid)
{
    (void)tid;
    // The context-switch trap and RAS microcode exist only because of the
    // RnR-Safe RAS extensions: NoRec pays none of this.
    overhead_.ras += Costs::kVmTransition + Costs::kRasSave +
                     Costs::kRasRestore;
}

}  // namespace rsafe::rnr
