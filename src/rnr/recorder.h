#ifndef RSAFE_RNR_RECORDER_H_
#define RSAFE_RNR_RECORDER_H_

#include "hv/hypervisor.h"
#include "rnr/log_io.h"
#include "rnr/log_source.h"

/**
 * @file
 * The recording hypervisor (the left side of Figure 1).
 *
 * Extends the live hypervisor with input logging and the RnR-Safe alarm
 * machinery: rdtsc values, pio/MMIO read values, NIC DMA payloads, and
 * asynchronous interrupt injection points are appended to the input log;
 * RAS alarms and Evict records become log markers for the replayers.
 *
 * The recorder also keeps a per-category cycle-overhead attribution that
 * reproduces the Figure 5(b) breakdown: every cycle the recorder charges
 * beyond the NoRec baseline is attributed to rdtsc, pio/mmio, interrupts,
 * network-content logging, or the RAS extensions.
 */

namespace rsafe::core {
class Detector;      // core/detector.h; full type not needed here
class DetectorSet;
}  // namespace rsafe::core

namespace rsafe::rnr {

/** Recording configuration. */
struct RecorderOptions {
    /** Save/restore the RAS at context switches (off = RecNoRAS). */
    bool manage_backras = true;
    /** Raise and log ROP alarms (the RnR-Safe hardware). */
    bool ras_alarms = true;
    /** Log about-to-be-evicted RAS entries (Section 4.5). */
    bool evict_exits = true;
    /** Install the Ret/Tar whitelists (ablation hook). */
    bool whitelists = true;
    /** Stop the recorded VM at the first alarm (risk-averse mode). */
    bool stop_on_alarm = false;
};

/** Cycle attribution mirroring the Figure 5(b) categories. */
struct RecordOverhead {
    Cycles rdtsc = 0;
    Cycles pio_mmio = 0;
    Cycles interrupt = 0;
    Cycles network = 0;
    Cycles ras = 0;
    /** Pluggable-detector alarm exits (CFI, W^X, JOP triggers). */
    Cycles detectors = 0;

    Cycles total() const
    {
        return rdtsc + pio_mmio + interrupt + network + ras + detectors;
    }
};

/** The recording hypervisor. */
class Recorder : public hv::Hypervisor {
  public:
    Recorder(hv::Vm* vm, const RecorderOptions& options);

    /**
     * The input log built so far: the one copy, which an on-the-fly
     * checkpointing replayer reads in place while recording continues.
     */
    const InputLog& log() const { return log_; }

    /**
     * notify() @p stream after every append, so a replayer awaiting the
     * log on another thread wakes. The caller keeps ownership of the
     * stream and close()s or poison()s it when the recording ends.
     */
    void attach_stream(LogStream* stream) { stream_ = stream; }

    /** Per-category overhead attribution (Figure 5b). */
    const RecordOverhead& overhead() const { return overhead_; }

    /** @return true if an alarm requested a stop (stop_on_alarm). */
    bool alarm_stop_requested() const { return alarm_stop_; }

    /**
     * Register the armed detector complement. Each detector's hardware
     * trigger is consulted at the matching VM exit; a positive trigger
     * logs a kDetectorAlarm record for the alarm replayers. The set must
     * outlive this recorder (the framework owns it via shared_ptr).
     */
    void set_detectors(const core::DetectorSet* detectors)
    {
        detectors_ = detectors;
    }

  protected:
    void hook_rdtsc(Word value) override;
    void hook_io_in(std::uint16_t port, Word value) override;
    void hook_mmio_read(Addr addr, Word value) override;
    void hook_nic_dma(Addr addr,
                      const std::vector<std::uint8_t>& data) override;
    void hook_irq_inject(std::uint8_t vector) override;
    void hook_disk_complete() override;
    void hook_ras_alarm(const cpu::RasAlarm& alarm) override;
    void hook_ras_evict(Addr evicted) override;
    void hook_halt() override;
    void hook_context_switch(ThreadId tid) override;

    void on_indirect_branch(Addr pc, Addr target, bool is_call) override;
    void on_wx_fetch(Addr pc) override;

  private:
    /** Charge the simulated cost of appending @p record; @return cost. */
    Cycles charge_log_write(LogRecord record);

    /** Log a kDetectorAlarm raised by @p detector at @p site. */
    void log_detector_alarm(const core::Detector& detector, Addr site,
                            Addr target);

    static hv::HvOptions make_hv_options(const RecorderOptions& options);

    RecorderOptions rec_options_;
    InputLog log_;
    LogStream* stream_ = nullptr;
    RecordOverhead overhead_;
    const core::DetectorSet* detectors_ = nullptr;
    bool alarm_stop_ = false;
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_RECORDER_H_
