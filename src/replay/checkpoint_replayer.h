#ifndef RSAFE_REPLAY_CHECKPOINT_REPLAYER_H_
#define RSAFE_REPLAY_CHECKPOINT_REPLAYER_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "replay/checkpoint.h"
#include "rnr/replayer.h"

/**
 * @file
 * The Checkpointing Replayer (Section 4.6.1).
 *
 * Runs all the time at roughly recording speed, deterministically
 * re-executing the log while taking periodic incremental checkpoints.
 * It additionally resolves RAS-underflow alarms itself by matching them
 * against Evict records ("it is simpler if the CR handles this special
 * case itself", Section 4.6.2); every other alarm is queued together
 * with the checkpoint immediately preceding it, ready for an alarm
 * replayer to be launched.
 */

namespace rsafe::replay {

/** CheckpointReplayer configuration. */
struct CrOptions {
    rnr::ReplayOptions replay;
    /** Cycles between checkpoints (0 disables checkpointing). */
    Cycles checkpoint_interval = 10'000'000;
    /** Checkpoint retention and byte budget; keeps the 8 newest
     *  checkpoints by default. */
    CheckpointStoreOptions store{.max_keep = 8};
};

/** An alarm the CR could not resolve itself. */
struct PendingAlarm {
    std::size_t log_index = 0;  ///< index of the alarm record in the log
    rnr::LogRecord record;
    /** The checkpoint immediately preceding the alarm (AR start point). */
    std::shared_ptr<const Checkpoint> checkpoint;
    /**
     * The CR's replay cycle clock when the alarm was queued. A pure
     * function of the log, so it is deterministic across runs and
     * pipeline shapes; the fleet's scheduling model uses it as the job's
     * arrival time when computing alarm-to-verdict latency.
     */
    Cycles queued_at_cycles = 0;
};

/** The always-on checkpointing replayer. */
class CheckpointReplayer : public rnr::Replayer {
  public:
    /**
     * Replay @p log in place from its start. With @p stream the CR
     * consumes records on the fly while the recorder is still appending
     * them (Figure 1's arrow); both must outlive the replayer.
     */
    CheckpointReplayer(hv::Vm* vm, const rnr::InputLog* log,
                       const CrOptions& options,
                       rnr::LogStream* stream = nullptr);

    /** Checkpoints taken so far. */
    CheckpointStore& checkpoints() { return store_; }
    const CheckpointStore& checkpoints() const { return store_; }

    /** Alarms awaiting alarm-replayer analysis. */
    const std::vector<PendingAlarm>& pending_alarms() const
    {
        return pending_;
    }

    /**
     * Install a callback fired (on the CR's thread, mid-replay) for every
     * alarm queued to pending_alarms(). This is the stage-detachment
     * hook: a fleet session forwards each alarm to the shared worker
     * pool as soon as the CR reaches it, instead of batching all alarm
     * replays behind the CR's completion.
     */
    using AlarmSink = std::function<void(const PendingAlarm&)>;
    void set_alarm_sink(AlarmSink sink) { alarm_sink_ = std::move(sink); }

    /** Underflow alarms auto-resolved by Evict matching. */
    std::uint64_t underflows_resolved() const
    {
        return underflows_resolved_;
    }

    /** Checkpoints taken (excluding the initial full one). */
    std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

    /** Cycles spent copying checkpoint pages/blocks. */
    Cycles checkpoint_cycles() const { return overhead().chk; }

    /**
     * Attach the live health probe: publishes the current store
     * occupancy immediately and refreshes it after every checkpoint,
     * and counts queued alarms. All relaxed stores on paths the CR
     * already executes — no new synchronization.
     */
    void set_health_probe(obs::HealthProbe* probe) override;

  protected:
    bool hook_positional_record(const rnr::LogRecord& record) override;
    void hook_exit_boundary() override;
    void hook_replay_end() override;

  private:
    void take_initial_checkpoint();
    void maybe_checkpoint();
    void publish_occupancy();

    CrOptions cr_options_;
    CheckpointStore store_;
    Cycles last_checkpoint_cycles_ = 0;
    std::uint64_t checkpoints_taken_ = 0;
    std::uint64_t underflows_resolved_ = 0;
    /** Per-thread outstanding Evict records (oldest first). */
    std::map<ThreadId, std::vector<Addr>> evicts_;
    std::vector<PendingAlarm> pending_;
    AlarmSink alarm_sink_;
};

}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_CHECKPOINT_REPLAYER_H_
