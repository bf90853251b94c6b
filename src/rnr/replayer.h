#ifndef RSAFE_RNR_REPLAYER_H_
#define RSAFE_RNR_REPLAYER_H_

#include <atomic>
#include <vector>

#include "common/random.h"
#include "hv/hypervisor.h"
#include "obs/health_probe.h"
#include "rnr/log_io.h"
#include "stats/stats.h"

/**
 * @file
 * The deterministic replayer (the right side of Figure 1).
 *
 * A Replayer drives a fresh (or checkpoint-restored) VM through the input
 * log:
 *
 *  - synchronous events (rdtsc, pio reads, MMIO reads, NIC DMA payloads)
 *    are injected when the guest traps at the matching instruction —
 *    "with similar configuration of the controls on the replaying system,
 *    these events are deterministically reproduced" (Section 7.3);
 *  - asynchronous events (interrupt injections) will not re-trap at the
 *    same instruction by themselves; the replayer arms a performance
 *    counter that stops close to the recorded instruction count and then
 *    single-steps to the exact injection point, paying ~1000 cycles per
 *    step (Section 7.3) — the source of the interrupt-dominated replay
 *    overhead of Figure 7(b);
 *  - RnR-Safe markers (alarms, evict records) are positional: the
 *    replayer stops at their instruction count and hands them to hooks
 *    that the checkpointing and alarm replayers override.
 *
 * The replayed VM is a "safe platform": its hardware raises no ROP alarms
 * and takes no eviction exits, but it still dumps the RAS at context
 * switches so checkpoints can capture the full BackRAS (Section 4.6.1).
 */

namespace rsafe::rnr {

/** Replay configuration. */
struct ReplayOptions {
    /** Maintain BackRAS at context switches (needed for checkpoints). */
    bool manage_backras = true;
    /** Honor the Ret/Tar whitelists. */
    bool whitelists = true;
    /** Trap kernel call/ret (alarm replayer analysis mode). */
    bool trap_kernel_call_ret = false;
    /** Also trap user call/ret (deep analysis of user-mode alarms). */
    bool trap_user_call_ret = false;
    /** Seed of the perf-counter skid model. */
    std::uint64_t seed = 0x5eed;
    /** Max undershoot (instructions) of the armed perf counter. */
    std::uint32_t max_skid = 32;
};

/** Why a replay run ended. */
enum class ReplayOutcome {
    kFinished,      ///< reached the halt marker; guest halted
    kLogExhausted,  ///< ran out of log records (no halt marker)
    kStopRequested, ///< a hook asked to stop (e.g., alarm under analysis)
    kGuestFault,    ///< replayed guest faulted
    kLogAborted,    ///< drained a poisoned log (the recorder died)
};

/**
 * How far the replayer trails the recorder, in guest instructions.
 * Sampled at every positional-record boundary against the producer's
 * newest emitted icount; in the streaming pipeline this bounds detection
 * latency (the paper's on-the-fly property). Against a finished log the
 * lag is simply the distance to the end of the recording.
 */
struct ReplayLag {
    InstrCount max_lag = 0;
    std::uint64_t sum_lag = 0;
    /** The newest Gauge::kDefaultCapacity observations, oldest first:
     *  t is the replayer's icount, value the lag. Its observations()
     *  is the sample count. */
    stats::Gauge series;

    double mean() const
    {
        const std::uint64_t samples = series.observations();
        if (samples == 0)
            return 0.0;
        return static_cast<double>(sum_lag) / static_cast<double>(samples);
    }

    /** Fold one observation into max/mean and the series. */
    void record(InstrCount icount, InstrCount lag)
    {
        if (lag > max_lag)
            max_lag = lag;
        sum_lag += lag;
        series.set(icount, lag);
    }
};

/** Per-category replay cycle attribution (feeds Figure 7b). */
struct ReplayOverhead {
    Cycles rdtsc = 0;
    Cycles pio_mmio = 0;
    Cycles interrupt = 0;
    Cycles network = 0;
    Cycles ras = 0;
    Cycles chk = 0;  ///< filled by the checkpointing replayer
};

/** The base deterministic replayer. */
class Replayer : public hv::VmEnvBase {
  public:
    /**
     * @param vm         the replay VM (fresh boot or checkpoint-restored).
     * @param log        the input log, read in place (must outlive the
     *                   replayer); while it is open() another thread may
     *                   still be appending to it (the streamed CR).
     * @param start_pos  log index to start consuming at (InputLogPtr).
     */
    Replayer(hv::Vm* vm, const InputLog* log, std::size_t start_pos,
             const ReplayOptions& options);

    /** Replay until the log ends, the guest halts, or a hook stops us. */
    ReplayOutcome run();

    /**
     * Ask a run() in progress to stop at the next positional-segment
     * boundary; run() returns kStopRequested. Callable from any thread
     * (fleet shutdown). A replayer blocked in an open log's await()
     * wakes only when the recorder appends or the log is closed or
     * poisoned — stop the recorder first.
     */
    void request_stop()
    {
        stop_requested_.store(true, std::memory_order_relaxed);
    }

    /** @return true once request_stop() was called. */
    bool stop_requested() const
    {
        return stop_requested_.load(std::memory_order_relaxed);
    }

    /** @return the current log cursor (the InputLogPtr). */
    std::size_t log_pos() const { return cursor_; }

    /** @return the log this replayer reads in place. */
    const InputLog& log() const { return *log_; }

    /**
     * @return instructions-behind-the-recorder statistics. Only the
     * checkpointing replayer samples them; any other replayer reads zero
     * samples.
     */
    const ReplayLag& lag() const { return lag_; }

    /**
     * Attach the live health probe this replayer publishes into (null
     * detaches). lag() is replay-thread state the monitor must not
     * read mid-run; the probe's relaxed atomics are the safe window.
     * Subclasses extend this with their own signals.
     */
    virtual void set_health_probe(obs::HealthProbe* probe)
    {
        health_probe_ = probe;
    }

    /** @return total single-steps taken for async injections. */
    std::uint64_t single_steps() const { return single_steps_; }

    /** @return per-category attributed cycles. */
    const ReplayOverhead& overhead() const { return overhead_; }

    // CpuEnv: log-driven injection.
    Word on_rdtsc() override;
    Word on_io_in(std::uint16_t port) override;
    void on_io_out(std::uint16_t port, Word value) override;
    Word on_mmio_read(Addr addr) override;
    void on_mmio_write(Addr addr, Word value) override;
    void on_ras_alarm(const cpu::RasAlarm& alarm) override;
    void on_ras_evict(Addr evicted) override;
    void on_call_ret(const cpu::CallRetEvent& event) override;

  protected:
    /**
     * A positional marker (alarm or evict record) was reached.
     * @return false to stop the replay here.
     */
    virtual bool hook_positional_record(const LogRecord& record);

    /**
     * Called at each clean between-instructions VM exit (after handling a
     * positional record); the checkpointing replayer takes checkpoints
     * here.
     */
    virtual void hook_exit_boundary();

    /** Called once when run() finishes the log or reaches its halt. */
    virtual void hook_replay_end();

    /**
     * Record how far the replay trails the recorder, publish it to the
     * health probe and draw it as the "replay_lag" trace counter.
     */
    void sample_lag();

    /** The next logged record of any synchronous-injection type. */
    const LogRecord& expect_sync(RecordType type);

    [[noreturn]] void divergence(const std::string& detail);

    /** The one log, read in place. */
    const InputLog* log_;
    std::size_t cursor_;
    ReplayOptions options_;
    ReplayOverhead overhead_;
    Rng skid_rng_;
    std::uint64_t single_steps_ = 0;
    obs::HealthProbe* health_probe_ = nullptr;

  private:
    /** next_positional() result when the log ended first. */
    static constexpr std::size_t kNoMore = ~static_cast<std::size_t>(0);

    bool is_positional(RecordType type) const;
    std::size_t next_positional();
    void approach(InstrCount target);
    void handle_irq(const LogRecord& record);
    void handle_disk_complete();

    ReplayLag lag_;
    std::atomic<bool> stop_requested_{false};
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_REPLAYER_H_
