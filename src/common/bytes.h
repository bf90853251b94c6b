#ifndef RSAFE_COMMON_BYTES_H_
#define RSAFE_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/status.h"

/**
 * @file
 * The little-endian byte codec every wire payload is written and read
 * with (log records, checkpoint images and deltas, digests, policies,
 * forensic reports, flight boxes, and the wire envelope itself).
 *
 * ByteWriter appends fixed-width fields to a byte vector. ByteReader
 * reads them back from one frame with a sticky status: the first read
 * that fails records its code, its byte position and the codec's label,
 * and every later read is a no-op that yields 0. A decoder reads a run of
 * fields and checks ok() only where a value decides what happens next
 * (an allocation, a range check, a branch); reject() records a decoder's
 * own verdict on a value under the same first-error-wins rule.
 *
 * One error rule holds in every codec:
 *   - kTruncated: a field runs past the end of its frame;
 *   - kMalformedRecord: an impossible count (above its cap, or more
 *     elements than the rest of the frame can hold), a flag that is not
 *     0 or 1, a string over its cap, or bytes left after the last field
 *     (done()).
 */

namespace rsafe {

/** Unaligned little-endian load and store. @{ */
inline std::uint32_t
load_le32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

inline void
store_le(std::uint8_t* p, std::uint64_t v, std::size_t width)
{
    for (std::size_t i = 0; i < width; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
/** @} */

/** Appends little-endian fields to a byte vector. */
class ByteWriter {
  public:
    explicit ByteWriter(std::vector<std::uint8_t>* out) : out_(out) {}

    void u8(std::uint8_t v) { out_->push_back(v); }
    void u16(std::uint16_t v) { le(v, 2); }
    void u32(std::uint32_t v) { le(v, 4); }
    void u64(std::uint64_t v) { le(v, 8); }

    /** A strict boolean: a u64 that is 0 or 1. */
    void flag(bool v) { u64(v ? 1 : 0); }

    void bytes(const std::uint8_t* data, std::size_t n)
    {
        out_->insert(out_->end(), data, data + n);
    }
    void bytes(const std::vector<std::uint8_t>& data)
    {
        bytes(data.data(), data.size());
    }

    /** u32 length, then the bytes. */
    void string(const std::string& s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    }

  private:
    void le(std::uint64_t v, std::size_t width)
    {
        std::uint8_t buf[8];
        store_le(buf, v, width);
        out_->insert(out_->end(), buf, buf + width);
    }

    std::vector<std::uint8_t>* out_;
};

/** Bounds-checked little-endian reads over one frame, sticky status. */
class ByteReader {
  public:
    /** Reads bytes [pos, len) of @p data (none if pos > len); @p label
     *  names the codec in every error ("policy frame", "log record"). */
    ByteReader(const std::uint8_t* data, std::size_t len, const char* label,
               std::size_t pos = 0)
        : data_(data), len_(len), pos_(pos < len ? pos : len), label_(label)
    {
    }

    bool ok() const { return code_ == StatusCode::kOk; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return len_ - pos_; }

    /** kOk, or the first failure with its label and byte position. */
    Status status() const
    {
        return ok() ? Status() : Status(code_, message_);
    }

    std::uint8_t u8() { return static_cast<std::uint8_t>(le(1, "u8")); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(le(2, "u16")); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(le(4, "u32")); }
    std::uint64_t u64() { return le(8, "u64"); }

    /** A u64 that must be exactly 0 or 1. */
    bool flag()
    {
        const std::uint64_t v = u64();
        if (v > 1)
            reject(strcat_args("flag is ", v, ", want 0 or 1"));
        return v == 1;
    }

    /** The next @p n bytes in place, or nullptr if they overrun. */
    const std::uint8_t* bytes(std::size_t n)
    {
        if (remaining() < n) [[unlikely]] {
            overrun(n, "byte run");
            return nullptr;
        }
        const std::uint8_t* p = data_ + pos_;
        pos_ += n;
        return p;
    }

    /** u32 length (at most @p max), then that many bytes. */
    std::string string(std::uint32_t max)
    {
        const std::uint32_t n = u32();
        if (n > max) {
            reject(strcat_args("string length ", n, " exceeds cap ", max));
            return std::string();
        }
        const std::uint8_t* p = bytes(n);
        return p ? std::string(reinterpret_cast<const char*>(p), n)
                 : std::string();
    }

    /**
     * A u64 element count, rejected before anything is allocated if it
     * exceeds @p max or if that many @p elem_bytes-byte elements (at
     * least 1 byte each) cannot fit in the rest of the frame.
     * @return 0 on any failure.
     */
    std::uint64_t count(std::size_t elem_bytes, std::uint64_t max)
    {
        return checked_count(u64(), elem_bytes, max);
    }

    /** count() for a u32 count field. */
    std::uint32_t count32(std::size_t elem_bytes, std::uint32_t max)
    {
        return static_cast<std::uint32_t>(
            checked_count(u32(), elem_bytes, max));
    }

    /**
     * Record a decoder's rejection of a value (kMalformedRecord) unless
     * an earlier failure already stands. @return status(), so a decoder
     * can `return in.reject(...)`.
     */
    Status reject(const std::string& why)
    {
        fail(StatusCode::kMalformedRecord, why);
        return status();
    }

    /** status(), or kMalformedRecord if bytes follow the last field. */
    Status done()
    {
        if (ok() && pos_ != len_)
            fail(StatusCode::kMalformedRecord,
                 strcat_args(len_ - pos_, " trailing bytes"));
        return status();
    }

  private:
    std::uint64_t le(std::size_t width, const char* what)
    {
        if (remaining() < width) [[unlikely]] {
            overrun(width, what);
            return 0;
        }
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += width;
        return v;
    }

    std::uint64_t checked_count(std::uint64_t n, std::size_t elem_bytes,
                                std::uint64_t max)
    {
        if (n > max) {
            reject(strcat_args("count ", n, " exceeds its cap ", max));
            return 0;
        }
        if (n > remaining() / elem_bytes) {
            reject(strcat_args("count ", n, " of ", elem_bytes,
                               "-byte elements overruns the frame's ",
                               remaining(), " remaining bytes"));
            return 0;
        }
        return n;
    }

    [[gnu::cold, gnu::noinline]] void overrun(std::size_t n,
                                              const char* what)
    {
        if (ok())
            fail(StatusCode::kTruncated,
                 strcat_args(n, "-byte ", what, " overruns the frame's ",
                             remaining(), " remaining bytes"));
    }

    /** First failure wins; the window then closes so later reads are
     *  no-ops yielding 0. */
    [[gnu::cold, gnu::noinline]] void fail(StatusCode code,
                                           const std::string& why)
    {
        if (!ok())
            return;
        code_ = code;
        message_ = strcat_args(label_, " at byte ", pos_, ": ", why);
        len_ = pos_;
    }

    const std::uint8_t* data_;
    std::size_t len_;
    std::size_t pos_;
    const char* label_;
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

}  // namespace rsafe

#endif  // RSAFE_COMMON_BYTES_H_
