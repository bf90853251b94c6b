#ifndef RSAFE_RNR_LOG_IO_H_
#define RSAFE_RNR_LOG_IO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
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
 * may append while any thread reads records below size() (see
 * rnr/log_source.h for the wait side).
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
 * An append-only sequence of log records with byte accounting.
 *
 * A record never moves once appended, so a reference from at() stays
 * valid for the log's lifetime. append() publishes the new size with a
 * release store and size() reads it with acquire: a reader on another
 * thread may call at(i) for any i below a size() it has observed while
 * the single appending thread keeps going. Everything else (and any
 * second appender) needs the appends to have ended.
 */
class InputLog {
  public:
    InputLog() = default;
    ~InputLog();
    InputLog(InputLog&& other) noexcept;
    InputLog& operator=(InputLog&& other) noexcept;
    InputLog(const InputLog&) = delete;
    InputLog& operator=(const InputLog&) = delete;

    /** Append one record. @return its index. */
    std::size_t append(LogRecord record);

    /** @return number of records (safe from any thread). */
    std::size_t size() const { return size_.load(std::memory_order_acquire); }

    /** @return record @p index (fatal if out of range). */
    const LogRecord& at(std::size_t index) const;

    /** @return total serialized bytes of all records (appending thread,
     *  or once the appends ended). */
    std::uint64_t total_bytes() const { return total_bytes_; }

    /** @return indices of all records of @p type. */
    std::vector<std::size_t> find_all(RecordType type) const;

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

    /** Write to / read from a file (strict and tolerant variants). @{ */
    Status save(const std::string& path) const;
    static Status load(const std::string& path, InputLog* out);
    static wire::LoadReport load_tolerant(const std::string& path,
                                          InputLog* out);
    /** @} */

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

    /** Raw storage, constructed in place by append(); never moved. */
    std::array<Segment, kSegments> segments_;
    std::atomic<std::size_t> size_{0};
    std::uint64_t total_bytes_ = 0;
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_LOG_IO_H_
