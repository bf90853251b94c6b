#ifndef RSAFE_RNR_LOG_SOURCE_H_
#define RSAFE_RNR_LOG_SOURCE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "rnr/log_io.h"

/**
 * @file
 * Where a replayer's records come from.
 *
 * The paper's CR runs *on the fly*: it consumes the input log while the
 * recorded VM is still producing it, so detection latency is bounded by
 * replay lag rather than by a post-hoc batch pass. There is one log, the
 * recorder's InputLog, and the CR reads it in place: LogSource is an
 * indexable, *awaitable* view of a record stream, and LogStream carries
 * the wait/wake state of a log that another thread is still appending
 * to. Two sources:
 *
 *  - InputLogSource reads an InputLog in place. Without a LogStream the
 *    log is complete (the serial pipeline, alarm replayers re-reading
 *    ranges, shipped logs, every test/bench that replays a finished
 *    recording); with one, await() blocks until the recorder appends
 *    the requested record or ends the stream;
 *  - SliceLogSource owns a copy of a contiguous range (fleet AR jobs).
 *
 * Both are single-consumer objects: exactly one replayer thread may call
 * await()/at()/visible() on a given source.
 */

namespace rsafe::rnr {

/**
 * Recorder->CR traffic of one streamed session (read after the run).
 * The recorder never waits for the CR, so producer_waits is always 0;
 * it stays for the reports that still print it.
 */
struct ChannelStats {
    /** Times the producer waited for the consumer (always 0). */
    std::uint64_t producer_waits = 0;
    /** Times the consumer blocked because the record was not there yet. */
    std::uint64_t consumer_waits = 0;
};

/**
 * The live end of an InputLog that one thread is still appending to.
 *
 * Holds no records: the producer appends to the log and then calls
 * notify(); the consumer reads the same log in place after await()
 * says the record exists. close() ends the stream normally, poison()
 * marks it aborted (the recorder died). Nothing here ever blocks the
 * producer.
 */
class LogStream {
  public:
    // -- Producer side (the appending thread) --

    /** Wake a consumer waiting for a record; call after each append. */
    void notify();

    /** Every record is appended: the consumer drains the rest. */
    void close();

    /** The recording is invalid: the consumer stops at once. */
    void poison();

    // -- Consumer side (one thread) --

    /**
     * Block until @p log holds record @p index or the stream ended.
     * @return true iff at(index) is valid; always false once poisoned.
     */
    bool await(const InputLog& log, std::size_t index);

    // -- Observers (any thread) --

    /** @return true once poison() ran. */
    bool aborted() const
    {
        return state_.load(std::memory_order_acquire) == State::kPoisoned;
    }

    /** Times await() blocked. */
    std::uint64_t consumer_waits() const
    {
        return consumer_waits_.load(std::memory_order_relaxed);
    }

  private:
    enum class State : std::uint8_t { kOpen, kClosed, kPoisoned };

    /** Move to @p state and wake the consumer. */
    void end(State state);

    std::atomic<State> state_{State::kOpen};
    std::atomic<std::uint64_t> consumer_waits_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    /** The consumer is (about to be) asleep on cv_; guarded by mu_. */
    bool waiting_ = false;
};

/** An indexable, awaitable stream of log records. */
class LogSource {
  public:
    virtual ~LogSource() = default;

    /**
     * Block until record @p index exists or the stream is over.
     * @return true iff at(index) is now valid.
     */
    virtual bool await(std::size_t index) = 0;

    /** Record @p index; requires a prior await(index) == true. */
    virtual const LogRecord& at(std::size_t index) const = 0;

    /** Records visible so far (the final count once await() fails). */
    virtual std::size_t visible() const = 0;

    /** @return true if the producer aborted (poisoned stream). */
    virtual bool aborted() const = 0;

    /** icount of the newest record the producer has emitted (lag base). */
    virtual InstrCount producer_icount() const = 0;
};

/**
 * A LogSource reading an InputLog in place.
 *
 * Without @p stream the log is complete and await() never blocks. With
 * one, the log may still be growing on another thread: await() waits on
 * the stream, and at(i) returns the very record the recorder appended.
 */
class InputLogSource final : public LogSource {
  public:
    /** @param log and @p stream (may be null) must outlive this source. */
    explicit InputLogSource(const InputLog* log, LogStream* stream = nullptr);

    bool await(std::size_t index) override;
    const LogRecord& at(std::size_t index) const override;
    std::size_t visible() const override;
    bool aborted() const override;
    /** The newest record's icount, read at call time. */
    InstrCount producer_icount() const override;

  private:
    const InputLog* log_;
    LogStream* stream_;
};

/**
 * A LogSource over an *owned* contiguous slice of a larger log,
 * preserving the original absolute indices: at(base + i) returns the
 * i-th owned record, and the stream ends after the slice.
 *
 * This is how fleet alarm-replay jobs travel: the checkpointing replayer
 * copies the records between an alarm's originating checkpoint and the
 * alarm itself (a range bounded by the checkpoint interval) into the
 * job, so a pool worker replays from a self-contained snapshot that
 * could equally have crossed a wire to a remote AR tier.
 */
class SliceLogSource final : public LogSource {
  public:
    /** @param base the absolute log index of @p records.front(). */
    SliceLogSource(std::size_t base, std::vector<LogRecord> records);

    bool await(std::size_t index) override;
    const LogRecord& at(std::size_t index) const override;
    std::size_t visible() const override { return base_ + records_.size(); }
    bool aborted() const override { return false; }
    InstrCount producer_icount() const override { return last_icount_; }

    /** The absolute index of the first owned record. */
    std::size_t base() const { return base_; }

  private:
    std::size_t base_;
    std::vector<LogRecord> records_;
    InstrCount last_icount_ = 0;
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_LOG_SOURCE_H_
