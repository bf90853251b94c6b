#include "rnr/replayer.h"

#include "common/log.h"
#include "dev/device_hub.h"
#include "obs/trace.h"

namespace rsafe::rnr {

using cpu::Costs;

Replayer::Replayer(hv::Vm* vm, const InputLog* log, std::size_t start_pos,
                   const ReplayOptions& options, LogStream* stream)
    : hv::VmEnvBase(vm, options.manage_backras, options.whitelists),
      source_(log, stream),
      cursor_(start_pos),
      options_(options),
      skid_rng_(options.seed)
{
    auto& cpu = vm_->cpu();
    cpu.vmcs().controls.exit_on_io = true;
    cpu.vmcs().controls.exit_on_rdtsc = true;
    // Safe platform: no alarms, no eviction exits (Section 4.6.1).
    cpu.vmcs().controls.ras_alarm_enabled = false;
    cpu.vmcs().controls.ras_evict_exit = false;
    cpu.vmcs().controls.trap_kernel_call_ret = options.trap_kernel_call_ret;
    cpu.vmcs().controls.trap_user_call_ret = options.trap_user_call_ret;
}

bool
Replayer::is_positional(RecordType type) const
{
    switch (type) {
      case RecordType::kIrqInject:
      case RecordType::kRasAlarm:
      case RecordType::kRasEvict:
      case RecordType::kHalt:
      case RecordType::kDiskComplete:
      case RecordType::kDetectorAlarm:
        return true;
      default:
        return false;
    }
}

std::size_t
Replayer::next_positional()
{
    // Blocks (streaming source) until a positional record is visible or
    // the producer finished: the replayer cannot arm its perf counter
    // without knowing the next injection point, so the pipeline overlaps
    // at positional-segment granularity.
    for (std::size_t i = cursor_; source_.await(i); ++i)
        if (is_positional(source_.at(i).type))
            return i;
    return kNoMore;
}

void
Replayer::sample_lag()
{
    const InstrCount produced = source_.producer_icount();
    const InstrCount here = vm_->cpu().icount();
    const InstrCount lag = produced > here ? produced - here : 0;
    lag_.record(here, lag);
    if (health_probe_ != nullptr)
        health_probe_->replay_lag.store(lag, std::memory_order_relaxed);
    // Decimated counter track: one trace event per 16 samples keeps the
    // hot path cheap while still drawing the lag curve in the viewer.
    if ((lag_.samples & 0xf) == 1)
        obs::Tracer::instance().counter("replay_lag", "replay", lag);
}

void
Replayer::divergence(const std::string& detail)
{
    panic(strcat_args("replay divergence at icount ", vm_->cpu().icount(),
                      " pc=0x", std::hex, vm_->cpu().state().pc, std::dec,
                      " log_pos=", cursor_, ": ", detail));
}

const LogRecord&
Replayer::expect_sync(RecordType type)
{
    if (!source_.await(cursor_))
        divergence(strcat_args("log exhausted, expected ",
                               record_type_name(type)));
    const LogRecord& record = source_.at(cursor_);
    if (record.type != type)
        divergence(strcat_args("expected ", record_type_name(type), ", log has ",
                               record.to_string()));
    if (record.icount != vm_->cpu().icount())
        divergence(strcat_args("icount mismatch for ", record.to_string()));
    ++cursor_;
    return record;
}

Word
Replayer::on_rdtsc()
{
    overhead_.rdtsc += Costs::kVmTransition;
    return expect_sync(RecordType::kRdtsc).value;
}

Word
Replayer::on_io_in(std::uint16_t port)
{
    overhead_.pio_mmio += Costs::kVmTransition;
    const LogRecord& record = expect_sync(RecordType::kIoIn);
    if (record.addr != port)
        divergence("pio port mismatch");
    return record.value;
}

void
Replayer::on_io_out(std::uint16_t port, Word value)
{
    overhead_.pio_mmio += Costs::kVmTransition;
    // Drive the replica DMA controller: its data path is deterministic
    // (replica disk + replayed guest memory), so only timing comes from
    // the log.
    vm_->hub().io_write(port, value, vm_->cpu().cycles());
}

Word
Replayer::on_mmio_read(Addr addr)
{
    overhead_.pio_mmio += Costs::kVmTransition;
    const LogRecord& record = expect_sync(RecordType::kMmioRead);
    if (record.addr != addr)
        divergence("mmio address mismatch");
    return record.value;
}

void
Replayer::on_mmio_write(Addr addr, Word value)
{
    (void)value;
    overhead_.pio_mmio += Costs::kVmTransition;
    // NIC receive: the packet bytes come from the log, not from the
    // replica NIC (whose traffic generator is recording-side state).
    if (addr == dev::kMmioBase + dev::kNicRxBuf) {
        if (source_.await(cursor_)) {
            const LogRecord& record = source_.at(cursor_);
            if (record.type == RecordType::kNicDma &&
                record.icount == vm_->cpu().icount()) {
                vm_->mem().write_block(record.addr, record.payload.data(),
                                       record.payload.size());
                overhead_.network += Costs::kVmTransition;
                ++cursor_;
            }
        }
    }
    // Other MMIO writes (TX, RX-length side effects) have no replayed
    // side effects beyond the guest-visible values already injected.
}

void
Replayer::on_ras_alarm(const cpu::RasAlarm& alarm)
{
    (void)alarm;
    panic("replay platform raised a RAS alarm (alarms must be disabled)");
}

void
Replayer::on_ras_evict(Addr evicted)
{
    (void)evicted;
    panic("replay platform took an eviction exit (must be disabled)");
}

void
Replayer::on_call_ret(const cpu::CallRetEvent& event)
{
    (void)event;  // Overridden by the alarm replayer.
}

bool
Replayer::hook_positional_record(const LogRecord& record)
{
    (void)record;
    return true;
}

void
Replayer::hook_exit_boundary()
{
}

void
Replayer::hook_replay_end()
{
}

void
Replayer::approach(InstrCount target)
{
    auto& cpu = vm_->cpu();
    if (cpu.icount() >= target)
        return;
    // Arm the perf counter short of the target (the counter has skid),
    // then single-step the rest (Section 7.3).
    const std::uint64_t skid = skid_rng_.next_below(options_.max_skid + 1);
    InstrCount arm = target;
    if (target - cpu.icount() > skid)
        arm = target - skid;
    cpu.vmcs().perf_stop = arm;
    const auto reason =
        cpu.run(~static_cast<Cycles>(0), ~static_cast<InstrCount>(0));
    cpu.vmcs().perf_stop = ~static_cast<InstrCount>(0);
    if (reason == cpu::StopReason::kMemFault ||
        reason == cpu::StopReason::kBadInstr) {
        divergence("guest fault while approaching injection point: " +
                   cpu.fault_reason());
    }
    if (reason != cpu::StopReason::kPerfStop)
        divergence("guest halted before reaching the injection point");
    // The perf-counter VMExit itself.
    cpu.add_cycles(Costs::kVmTransition);
    overhead_.interrupt += Costs::kVmTransition;
    while (cpu.icount() < target) {
        cpu.add_cycles(Costs::kSingleStep);
        overhead_.interrupt += Costs::kSingleStep;
        ++single_steps_;
        const auto step_reason = cpu.step();
        if (step_reason != cpu::StopReason::kInstrLimit)
            divergence("guest stopped while single-stepping");
    }
}

void
Replayer::handle_irq(const LogRecord& record)
{
    auto& cpu = vm_->cpu();
    cpu.add_cycles(Costs::kVmTransition);
    overhead_.interrupt += Costs::kVmTransition;
    if (cpu.vmcs().pending_irq)
        divergence("irq injection while another is pending");
    cpu.vmcs().pending_irq = static_cast<std::uint8_t>(record.value);
    ++stats_.irq_injections;
}

void
Replayer::handle_disk_complete()
{
    // The replica controller completes now; read DMA pulls replica-disk
    // data into guest memory — bit-identical to the recorded DMA, since
    // the replica disk and the replayed guest memory are deterministic.
    auto completion = vm_->hub().force_disk_completion();
    if (!completion)
        divergence("disk completion with no in-flight replica transfer");
    if (completion->is_read) {
        vm_->mem().write_block(completion->guest_addr,
                               completion->data.data(),
                               completion->data.size());
    }
}

ReplayOutcome
Replayer::run()
{
    auto& cpu = vm_->cpu();
    while (true) {
        if (stop_requested_.load(std::memory_order_relaxed))
            return ReplayOutcome::kStopRequested;
        const std::size_t pos = next_positional();
        if (pos == kNoMore) {
            if (source_.aborted()) {
                // The recorder died mid-stream (poisoned stream): the
                // recording is invalid, stop where we are.
                return ReplayOutcome::kLogAborted;
            }
            // No positional records left; consume any trailing
            // synchronous records (a recording stopped by an instruction
            // budget has no halt marker).
            if (cursor_ < source_.visible()) {
                const InstrCount last =
                    source_.at(source_.visible() - 1).icount;
                cpu.run(~static_cast<Cycles>(0), last + 1);
            }
            hook_replay_end();
            return ReplayOutcome::kLogExhausted;
        }
        const LogRecord& record = source_.at(pos);

        if (record.type == RecordType::kHalt) {
            const auto reason = cpu.run(~static_cast<Cycles>(0),
                                        record.icount + 1);
            if (reason == cpu::StopReason::kMemFault ||
                reason == cpu::StopReason::kBadInstr) {
                return ReplayOutcome::kGuestFault;
            }
            if (reason != cpu::StopReason::kHalt)
                divergence("guest did not halt at the halt marker");
            if (cursor_ != pos)
                divergence("unconsumed sync records at halt");
            cursor_ = pos + 1;
            hook_replay_end();
            return ReplayOutcome::kFinished;
        }

        approach(record.icount);
        if (cursor_ != pos)
            divergence(strcat_args("unconsumed sync records before ",
                                   record.to_string()));
        ++cursor_;

        switch (record.type) {
          case RecordType::kIrqInject:
            handle_irq(record);
            break;
          case RecordType::kDiskComplete:
            handle_disk_complete();
            break;
          case RecordType::kRasAlarm:
          case RecordType::kRasEvict:
          case RecordType::kDetectorAlarm:
            if (!hook_positional_record(record))
                return ReplayOutcome::kStopRequested;
            break;
          default:
            divergence("unexpected positional record");
        }
        hook_exit_boundary();
    }
}

}  // namespace rsafe::rnr
