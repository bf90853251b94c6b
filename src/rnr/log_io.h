#ifndef RSAFE_RNR_LOG_IO_H_
#define RSAFE_RNR_LOG_IO_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rnr/log_record.h"
#include "rnr/wire.h"

/**
 * @file
 * The input log container and its binary file format.
 *
 * The log is the channel between the recorded VM and the replayer VMs
 * (Figure 1): the recorder appends records, the checkpointing replayer
 * consumes them by index (the checkpoint's InputLogPtr is such an index),
 * and alarm replayers re-read ranges of it. Byte accounting feeds the log
 * generation-rate results (Figure 6a).
 *
 * There is one copy of the log. Records live in geometrically growing
 * segments that are never moved, so the checkpointing replayer can read
 * a log in place while the recorder is still appending to it: one thread
 * may append while any thread reads records below size(). The log also
 * carries its own end state, so a reader that runs ahead of the appender
 * waits on the log itself (await()) until the record lands or the log
 * ends.
 *
 * On disk the log uses the hardened wire format (rnr/wire.h): a
 * versioned, checksummed header plus one CRC32C-sealed, sequence-numbered
 * frame per record. Parsing never aborts the process: strict APIs return
 * a Status, and the tolerant APIs recover every record before the first
 * defect so a replayer can run up to the corruption boundary while the
 * LoadReport says exactly what was lost. Legacy version-1 images (bare
 * magic + count + records, no checksums) are no longer read: they fail
 * the header check with kBadMagic.
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
 * An append-only sequence of log records with byte accounting and an
 * end state.
 *
 * A record never moves once appended, so a reference from at() stays
 * valid for the log's lifetime. append() publishes the new size with a
 * release store and size() reads it with acquire: a reader on another
 * thread may call at(i) for any i below a size() it has observed while
 * the single appending thread keeps going. Everything else (and any
 * second appender) needs the appends to have ended.
 *
 * A log is complete unless open() marked it as still being appended to.
 * While it is open, await() sleeps until the record lands, and append()
 * wakes a sleeping reader. close() ends the log; poison() ends it too
 * and marks it aborted (the appender died). Either way every reader
 * drains the records already appended and then sees the end. Nothing
 * here ever blocks the appender on a reader.
 */
class InputLog {
  public:
    InputLog() = default;
    ~InputLog();
    InputLog(const InputLog&) = delete;
    InputLog& operator=(const InputLog&) = delete;

    /** Append one record and wake a waiting reader. @return its index. */
    std::size_t append(LogRecord record);

    /** @return number of records (safe from any thread). */
    std::size_t size() const { return size_.load(std::memory_order_acquire); }

    /** @return record @p index (fatal if out of range). */
    const LogRecord& at(std::size_t index) const;

    /** @return icount of the newest record appended so far (0 if none):
     *  the base a reader measures its lag against. */
    InstrCount producer_icount() const
    {
        const std::size_t n = size();
        return n > 0 ? at(n - 1).icount : 0;
    }

    /** @return total serialized bytes of all records (appending thread,
     *  or once the appends ended). */
    std::uint64_t total_bytes() const { return total_bytes_; }

    /** @return indices of all records of @p type. */
    std::vector<std::size_t> find_all(RecordType type) const;

    // -- End state: the appending side --

    /** More records are coming; call before any reader thread starts. */
    void open() { state_.store(State::kOpen, std::memory_order_release); }

    /** Every record is appended: readers drain the rest, then end. */
    void close() { end(State::kClosed); }

    /** The recording is invalid: close, and mark the log aborted. */
    void poison() { end(State::kPoisoned); }

    // -- End state: the reading side (one reader may wait at a time) --

    /**
     * Block while the log is open and record @p index is not there yet.
     * @return true iff at(index) is valid; never waits on a log that is
     * not open.
     */
    bool await(std::size_t index) const;

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

    /** Serialize the whole log in wire format v2 (CRC-framed records). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Strict parse: any integrity defect (truncation, bit rot, duplicate
     * or reordered records, version mismatch) is an error and @p out is
     * left empty.
     */
    static Status deserialize(const std::vector<std::uint8_t>& bytes,
                              InputLog* out);

    /**
     * Tolerant parse: recover the longest intact record prefix into
     * @p out and report where and why decoding stopped. Never throws on
     * malformed input.
     */
    static wire::LoadReport deserialize_tolerant(
        const std::vector<std::uint8_t>& bytes, InputLog* out);

  private:
    /** Segment k holds kFirstSegment << k records; 40 segments address
     *  far more records than memory can hold. */
    static constexpr unsigned kFirstSegmentBits = 6;
    static constexpr std::size_t kFirstSegment = std::size_t{1}
                                                 << kFirstSegmentBits;
    static constexpr std::size_t kSegments = 40;

    struct FreeSegment {
        void operator()(LogRecord* segment) const;
    };
    using Segment = std::unique_ptr<LogRecord, FreeSegment>;

    /** The segment holding record @p index and its offset there. */
    static std::pair<std::size_t, std::size_t> locate(std::size_t index);

    /** Record slot @p index (allocated; constructed iff below size()). */
    LogRecord* slot(std::size_t index) const;

    /** Destroy every record and release every segment. */
    void clear();

    enum class State : std::uint8_t { kOpen, kClosed, kPoisoned };

    /** Move to @p state (a poisoned log stays poisoned); wake a reader. */
    void end(State state);

    /** Wake the reader asleep in await(), if any. */
    void wake();

    /** Raw storage, constructed in place by append(); never moved. */
    std::array<Segment, kSegments> segments_;
    std::atomic<std::size_t> size_{0};
    std::uint64_t total_bytes_ = 0;

    /** Complete until open(); written by the appending side only. */
    std::atomic<State> state_{State::kClosed};
    mutable std::atomic<std::uint64_t> consumer_waits_{0};
    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    /** A reader is (about to be) asleep on cv_; guarded by mu_. */
    mutable bool waiting_ = false;
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_LOG_IO_H_
