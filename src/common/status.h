#ifndef RSAFE_COMMON_STATUS_H_
#define RSAFE_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

/**
 * @file
 * Recoverable-error reporting for deserialization and I/O paths.
 *
 * panic()/fatal() (common/log.h) are for states the framework cannot
 * continue from. Parsing a log or checkpoint image that arrived over the
 * wire is different: malformed input is an *expected* event the framework
 * must degrade gracefully on (replay the intact prefix, raise a
 * kLogIntegrity alarm), never a reason to abort the process. Functions on
 * those paths return a Status carrying a machine-checkable code plus a
 * human-readable forensic message.
 */

namespace rsafe {

/** Why an operation failed (kOk means it did not). */
enum class StatusCode : std::uint8_t {
    kOk = 0,
    kInvalidArgument,   ///< caller error (bad parameters, unusable input)
    kIoError,           ///< file could not be opened / read / written
    kBadMagic,          ///< image does not start with the wire magic
    kBadVersion,        ///< wire version this build does not speak
    kHeaderCorrupt,     ///< header checksum mismatch
    kTruncated,         ///< input ends mid-structure
    kChecksumMismatch,  ///< frame checksum mismatch (bit rot / tampering)
    kMalformedRecord,   ///< frame payload is not a well-formed record
    kDuplicateRecord,   ///< frame sequence number repeats
    kReorderedRecord,   ///< frame sequence number out of order
    kTrailingBytes,     ///< well-formed image followed by garbage
    kUnknownKey,        ///< stream names a page key the receiver lacks
    kRetiredKey,        ///< stream names a page key already retired
    kWrongBase,         ///< stream image is not based on the last one
};

/** @return a short stable name for @p code (diagnostics, forensics). */
inline const char*
status_code_name(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk: return "ok";
      case StatusCode::kInvalidArgument: return "invalid-argument";
      case StatusCode::kIoError: return "io-error";
      case StatusCode::kBadMagic: return "bad-magic";
      case StatusCode::kBadVersion: return "bad-version";
      case StatusCode::kHeaderCorrupt: return "header-corrupt";
      case StatusCode::kTruncated: return "truncated";
      case StatusCode::kChecksumMismatch: return "checksum-mismatch";
      case StatusCode::kMalformedRecord: return "malformed-record";
      case StatusCode::kDuplicateRecord: return "duplicate-record";
      case StatusCode::kReorderedRecord: return "reordered-record";
      case StatusCode::kTrailingBytes: return "trailing-bytes";
      case StatusCode::kUnknownKey: return "unknown-key";
      case StatusCode::kRetiredKey: return "retired-key";
      case StatusCode::kWrongBase: return "wrong-base";
    }
    return "<bad>";
}

/** A success/error code with a forensic message. */
class Status {
  public:
    /** Success. */
    Status() = default;

    /** An error (or explicit kOk) with a message. */
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    bool ok() const { return code_ == StatusCode::kOk; }
    StatusCode code() const { return code_; }
    const std::string& message() const { return message_; }

    /** "code: message" (or "ok"). */
    std::string to_string() const
    {
        if (ok())
            return "ok";
        std::string out = status_code_name(code_);
        if (!message_.empty()) {
            out += ": ";
            out += message_;
        }
        return out;
    }

    friend bool operator==(const Status& a, const Status& b)
    {
        return a.code_ == b.code_;
    }

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

}  // namespace rsafe

#endif  // RSAFE_COMMON_STATUS_H_
