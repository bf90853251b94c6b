#include "rnr/log_io.h"

#include <bit>
#include <new>
#include <utility>

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::rnr {

InputLog::~InputLog()
{
    clear();
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
    // Only the appending side changes the state of an open log, so a
    // relaxed load suffices; a complete log has no reader to wake.
    if (state_.load(std::memory_order_relaxed) == State::kOpen)
        wake();
    return index;
}

void
InputLog::wake()
{
    // await() sets waiting_ under mu_ after its last look at size(), so
    // a record published before this lock is either seen there or finds
    // waiting_ set here.
    std::lock_guard<std::mutex> lock(mu_);
    if (waiting_)
        cv_.notify_one();
}

void
InputLog::end(State state)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.load(std::memory_order_relaxed) != State::kPoisoned)
        state_.store(state, std::memory_order_release);
    cv_.notify_all();
}

bool
InputLog::await(std::size_t index) const
{
    // The state is read before the size: once it says ended, the size
    // read after it is final.
    const auto settled = [&] {
        return state_.load(std::memory_order_acquire) != State::kOpen ||
               index < size();
    };
    if (!settled()) {
        std::unique_lock<std::mutex> lock(mu_);
        while (!settled()) {
            consumer_waits_.fetch_add(1, std::memory_order_relaxed);
            obs::Tracer::instance().instant("log.starved", "replay",
                                            "index", index);
            waiting_ = true;
            cv_.wait(lock);
            waiting_ = false;
        }
    }
    // Closed or poisoned, the records already appended are still read.
    return index < size();
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

}  // namespace rsafe::rnr
