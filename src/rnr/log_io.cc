#include "rnr/log_io.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <new>
#include <utility>

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::rnr {

InputLog::~InputLog()
{
    clear();
}

InputLog::InputLog(InputLog&& other) noexcept
{
    *this = std::move(other);
}

InputLog&
InputLog::operator=(InputLog&& other) noexcept
{
    if (this == &other)
        return *this;
    clear();
    segments_ = std::move(other.segments_);
    size_.store(other.size_.exchange(0, std::memory_order_relaxed),
                std::memory_order_relaxed);
    total_bytes_ = std::exchange(other.total_bytes_, 0);
    return *this;
}

void
InputLog::FreeSegment::operator()(LogRecord* segment) const
{
    ::operator delete(segment);
}

std::pair<std::size_t, std::size_t>
InputLog::locate(std::size_t index)
{
    // Segment k starts at kFirstSegment * (2^k - 1).
    const std::size_t k =
        std::bit_width((index >> kFirstSegmentBits) + 1) - 1;
    return {k, index + kFirstSegment - (kFirstSegment << k)};
}

LogRecord*
InputLog::slot(std::size_t index) const
{
    const auto [segment, offset] = locate(index);
    return segments_[segment].get() + offset;
}

void
InputLog::clear()
{
    const std::size_t n = size_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i)
        slot(i)->~LogRecord();
    for (Segment& segment : segments_)
        segment.reset();
    size_.store(0, std::memory_order_relaxed);
    total_bytes_ = 0;
}

std::size_t
InputLog::append(LogRecord record)
{
    const std::size_t index = size_.load(std::memory_order_relaxed);
    const auto [segment, offset] = locate(index);
    if (segment >= kSegments)
        panic("InputLog::append: log full");
    if (offset == 0) {
        const std::size_t records = kFirstSegment << segment;
        segments_[segment].reset(static_cast<LogRecord*>(
            ::operator new(records * sizeof(LogRecord))));
    }
    total_bytes_ += record.serialized_size();
    new (segments_[segment].get() + offset) LogRecord(std::move(record));
    // Publish: a reader that sees the new size sees the whole record.
    size_.store(index + 1, std::memory_order_release);
    return index;
}

const LogRecord&
InputLog::at(std::size_t index) const
{
    const std::size_t n = size();
    if (index >= n)
        panic(strcat_args("InputLog::at(", index, ") out of range (size=",
                          n, ")"));
    return *slot(index);
}

std::vector<std::size_t>
InputLog::find_all(RecordType type) const
{
    std::vector<std::size_t> out;
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i)
        if (slot(i)->type == type)
            out.push_back(i);
    return out;
}

std::vector<std::uint8_t>
InputLog::serialize() const
{
    std::vector<std::uint8_t> out;
    const std::size_t n = size();
    out.reserve(wire::kHeaderSize + total_bytes_ +
                n * wire::kFrameHeaderSize);
    wire::Header header;
    header.kind = wire::PayloadKind::kInputLog;
    header.frame_count = n;
    wire::encode_header(header, &out);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t frame =
            wire::begin_frame(static_cast<std::uint32_t>(i), &out);
        slot(i)->serialize(&out);
        wire::end_frame(frame, &out);
    }
    return out;
}

wire::LoadReport
InputLog::deserialize_tolerant(const std::vector<std::uint8_t>& bytes,
                               InputLog* out)
{
    obs::ScopedSpan span("wire.load", "wire");
    out->clear();

    auto report = wire::read_frames(
        bytes, wire::PayloadKind::kInputLog,
        [&](std::uint64_t seq, std::size_t offset, std::size_t length) {
            std::size_t pos = offset;
            LogRecord record;
            const Status status = LogRecord::decode(bytes, &pos, &record);
            if (!status.ok()) {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("record #", seq, ": ",
                                          status.message()));
            }
            if (pos != offset + length) {
                return Status(
                    StatusCode::kMalformedRecord,
                    strcat_args("record #", seq, ": frame is ", length,
                                " bytes but record encoding is ",
                                pos - offset));
            }
            out->append(std::move(record));
            return Status();
        });
    if (!report.intact()) {
        obs::Tracer::instance().instant("wire.integrity_failure", "wire",
                                        "recovered",
                                        report.frames_recovered);
    }
    return report;
}

Status
InputLog::deserialize(const std::vector<std::uint8_t>& bytes, InputLog* out)
{
    const wire::LoadReport report = deserialize_tolerant(bytes, out);
    if (!report.intact()) {
        out->clear();
        return report.status;
    }
    return Status();
}

Status
InputLog::save(const std::string& path) const
{
    const auto bytes = serialize();
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        return Status(StatusCode::kIoError,
                      "InputLog::save: cannot open " + path);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!file)
        return Status(StatusCode::kIoError,
                      "InputLog::save: write failed for " + path);
    return Status();
}

namespace {

/** Slurp @p path into @p bytes (kIoError on any file-level failure). */
Status
read_file(const std::string& path, std::vector<std::uint8_t>* bytes)
{
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file)
        return Status(StatusCode::kIoError, "cannot open " + path);
    const auto size = static_cast<std::size_t>(file.tellg());
    file.seekg(0);
    bytes->resize(size);
    file.read(reinterpret_cast<char*>(bytes->data()),
              static_cast<std::streamsize>(size));
    if (!file)
        return Status(StatusCode::kIoError, "read failed for " + path);
    return Status();
}

}  // namespace

Status
InputLog::load(const std::string& path, InputLog* out)
{
    std::vector<std::uint8_t> bytes;
    const Status io = read_file(path, &bytes);
    if (!io.ok())
        return io;
    return deserialize(bytes, out);
}

wire::LoadReport
InputLog::load_tolerant(const std::string& path, InputLog* out)
{
    std::vector<std::uint8_t> bytes;
    const Status io = read_file(path, &bytes);
    if (!io.ok()) {
        wire::LoadReport report;
        report.status = io;
        return report;
    }
    return deserialize_tolerant(bytes, out);
}

}  // namespace rsafe::rnr
