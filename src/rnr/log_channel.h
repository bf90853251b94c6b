#ifndef RSAFE_RNR_LOG_CHANNEL_H_
#define RSAFE_RNR_LOG_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "rnr/log_record.h"

/**
 * @file
 * The streaming log channel between the recorder and the checkpointing
 * replayer.
 *
 * The paper's CR runs *on the fly*: it consumes the input log while the
 * recorded VM is still producing it, so detection latency is bounded by
 * replay lag rather than by a post-hoc batch pass. LogChannel is the
 * transport that makes that concurrent shape real: a bounded
 * single-producer/single-consumer queue of LogRecord chunks.
 *
 *  - The producer (the recorder thread) appends records; they are
 *    batched into chunks of chunk_records and published under one lock
 *    acquisition, keeping the per-record hot path lock-free.
 *  - The queue is bounded by capacity_records: a producer that runs far
 *    ahead of the consumer blocks (backpressure), so an unconsumed log
 *    can never grow without bound in the channel.
 *  - close() publishes any partial chunk and marks the stream complete;
 *    the consumer drains everything already queued, then sees kClosed.
 *  - poison() marks the stream aborted (the recorder died); the consumer
 *    sees kPoisoned immediately, before any still-queued data.
 *  - abandon() is the consumer-side exit (the replayer died); subsequent
 *    producer pushes are discarded instead of blocking forever.
 */

namespace rsafe::rnr {

/** LogChannel configuration. */
struct ChannelOptions {
    /** Backpressure bound: records buffered in the channel at once. */
    std::size_t capacity_records = 4096;
    /** Records batched per published chunk (1 = publish immediately). */
    std::size_t chunk_records = 64;
};

/** Counters describing one channel's traffic (read after the run). */
struct ChannelStats {
    std::uint64_t records_pushed = 0;
    std::uint64_t chunks_published = 0;
    /** Times the producer blocked on a full queue (backpressure). */
    std::uint64_t producer_waits = 0;
    /** Times the consumer blocked on an empty queue. */
    std::uint64_t consumer_waits = 0;
    /** High-water mark of records queued at once. */
    std::size_t max_queued_records = 0;
    /** Records discarded because the consumer abandoned the stream. */
    std::uint64_t records_dropped = 0;
};

/** Bounded SPSC channel of LogRecord chunks. */
class LogChannel {
  public:
    explicit LogChannel(const ChannelOptions& options = {});

    // -- Producer side (exactly one thread) --

    /** Append one record (may block on backpressure). */
    void push(LogRecord record);

    /** Publish any partial chunk now (may block on backpressure). */
    void flush();

    /** Publish the partial chunk and mark the stream complete. */
    void close();

    /** Mark the stream aborted; queued data is not delivered. */
    void poison();

    // -- Consumer side (exactly one thread) --

    /** What pop() delivered. */
    enum class PopResult {
        kData,      ///< @p out holds the next chunk
        kClosed,    ///< stream complete and fully drained
        kPoisoned,  ///< producer aborted
    };

    /** Block for the next chunk (moved into @p out), end, or abort. */
    PopResult pop(std::vector<LogRecord>* out);

    /** Consumer gives up; unblock and no-op all further producer calls. */
    void abandon();

    // -- Observers (any thread) --

    /** icount of the newest pushed record (the recorder's progress). */
    InstrCount producer_icount() const
    {
        return producer_icount_.load(std::memory_order_relaxed);
    }

    /** @return true once poison() ran. */
    bool poisoned() const;

    /** Traffic counters (coherent once producer and consumer stopped). */
    ChannelStats stats() const;

  private:
    /** Queue the open chunk; blocks while over capacity. Lock not held. */
    void publish_chunk();

    ChannelOptions options_;

    mutable std::mutex mu_;
    std::condition_variable can_publish_;
    std::condition_variable can_pop_;
    std::deque<std::vector<LogRecord>> queue_;
    std::size_t queued_records_ = 0;
    bool closed_ = false;
    bool poisoned_ = false;
    bool abandoned_ = false;
    ChannelStats stats_;

    /** Producer-thread-local accumulation; published under mu_. */
    std::vector<LogRecord> open_chunk_;

    std::atomic<InstrCount> producer_icount_{0};
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_LOG_CHANNEL_H_
