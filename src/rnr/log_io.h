#ifndef RSAFE_RNR_LOG_IO_H_
#define RSAFE_RNR_LOG_IO_H_

#include <cstdint>
#include <string>
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

/** An append-only sequence of log records with byte accounting. */
class InputLog {
  public:
    /** Append one record. @return its index. */
    std::size_t append(LogRecord record);

    /** @return number of records. */
    std::size_t size() const { return records_.size(); }

    /** @return record @p index (fatal if out of range). */
    const LogRecord& at(std::size_t index) const;

    /** @return total serialized bytes of all records. */
    std::uint64_t total_bytes() const { return total_bytes_; }

    /** @return serialized bytes of records in [first, last). */
    std::uint64_t bytes_in_range(std::size_t first, std::size_t last) const;

    /** @return index of the first record of @p type at or after @p from,
     *  or size() if none. */
    std::size_t find_next(RecordType type, std::size_t from) const;

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
    std::vector<LogRecord> records_;
    std::uint64_t total_bytes_ = 0;
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_LOG_IO_H_
