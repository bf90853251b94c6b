#ifndef RSAFE_RNR_LOG_SOURCE_H_
#define RSAFE_RNR_LOG_SOURCE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "rnr/log_io.h"

/**
 * @file
 * Where a replayer's records come from.
 *
 * The paper's CR runs *on the fly*: it consumes the input log while the
 * recorded VM is still producing it, so detection latency is bounded by
 * replay lag rather than by a post-hoc batch pass. There is one log, the
 * recorder's InputLog, and every replayer reads it in place through an
 * InputLogSource: the CR (with a LogStream while the recorder is still
 * appending, without one over a finished or shipped log), each alarm
 * replayer over its [checkpoint, alarm] range, and the auditor.
 *
 * An alarm replayer needs no stream even while the recorder runs on:
 * it reads only up to its target alarm record, which the CR had already
 * read before it queued the job, so every record it touches is below a
 * size() published before the job existed.
 *
 * An InputLogSource is a single-consumer object: exactly one replayer
 * thread calls await()/at()/visible() on a given source.
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

/**
 * An indexable, awaitable view of an InputLog read in place.
 *
 * Without @p stream the log is complete up to what size() shows and
 * await() never blocks. With one, the log may still be growing on
 * another thread: await() waits on the stream, and at(i) returns the
 * very record the recorder appended.
 */
class InputLogSource {
  public:
    /** @param log and @p stream (may be null) must outlive this source. */
    explicit InputLogSource(const InputLog* log, LogStream* stream = nullptr);

    /**
     * Block (streamed only) until record @p index exists or the stream
     * is over. @return true iff at(index) is now valid.
     */
    bool await(std::size_t index)
    {
        if (stream_ != nullptr)
            return stream_->await(*log_, index);
        return index < log_->size();
    }

    /** Record @p index; requires a prior await(index) == true. */
    const LogRecord& at(std::size_t index) const { return log_->at(index); }

    /** Records visible so far (the final count once await() fails). */
    std::size_t visible() const { return log_->size(); }

    /** @return true if the producer aborted (poisoned stream). */
    bool aborted() const { return stream_ != nullptr && stream_->aborted(); }

    /** icount of the newest record appended so far (the lag base). */
    InstrCount producer_icount() const;

  private:
    const InputLog* log_;
    LogStream* stream_;
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_LOG_SOURCE_H_
