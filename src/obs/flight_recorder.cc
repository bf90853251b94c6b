#include "obs/flight_recorder.h"

#include <chrono>
#include <sstream>

#include "common/bytes.h"
#include "common/log.h"
#include "obs/trace.h"
#include "rnr/wire.h"

namespace rsafe::obs {

namespace {

using rnr::wire::PayloadKind;

/** Upper bound on an embedded string (decode sanity check). */
constexpr std::uint32_t kMaxStringLength = 1u << 16;

constexpr const char* kLabel = "flight frame";

}  // namespace

const char*
flight_entry_kind_name(FlightEntryKind kind)
{
    switch (kind) {
      case FlightEntryKind::kNote: return "note";
      case FlightEntryKind::kSample: return "sample";
      case FlightEntryKind::kTransition: return "transition";
      case FlightEntryKind::kVerdict: return "verdict";
      case FlightEntryKind::kShutdown: return "shutdown";
    }
    return "<bad>";
}

std::vector<std::uint8_t>
FlightBox::serialize() const
{
    // Frame 0 carries the dump scalars; frames 1..N carry one entry
    // each, so a damaged entry frame loses only that moment.
    std::vector<std::uint8_t> out;
    rnr::wire::Header header;
    header.kind = PayloadKind::kFlightBox;
    header.frame_count = 1 + entries.size();
    rnr::wire::encode_header(header, &out);
    ByteWriter w(&out);
    const std::size_t head = rnr::wire::begin_frame(0, &out);
    w.string(reason);
    w.u64(total_appended);
    w.u64(dropped);
    rnr::wire::end_frame(head, &out);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::size_t frame =
            rnr::wire::begin_frame(static_cast<std::uint32_t>(i + 1), &out);
        w.u8(static_cast<std::uint8_t>(entries[i].kind));
        w.u64(entries[i].t_ms);
        w.u64(entries[i].value);
        w.string(entries[i].tenant);
        w.string(entries[i].label);
        w.string(entries[i].detail);
        rnr::wire::end_frame(frame, &out);
    }
    return out;
}

Status
FlightBox::deserialize(const std::vector<std::uint8_t>& bytes,
                       FlightBox* out)
{
    *out = FlightBox();
    const auto report = rnr::wire::read_frames(
        bytes, PayloadKind::kFlightBox,
        [&](std::uint64_t seq, std::size_t offset,
            std::size_t length) -> Status {
            ByteReader in(bytes.data() + offset, length, kLabel);
            if (seq == 0) {
                out->reason = in.string(kMaxStringLength);
                out->total_appended = in.u64();
                out->dropped = in.u64();
                return in.done();
            }
            FlightEntry entry;
            const std::uint8_t kind = in.u8();
            if (kind > static_cast<std::uint8_t>(FlightEntryKind::kShutdown))
                return in.reject(strcat_args("flight frame ", seq,
                                             ": bad entry kind ",
                                             static_cast<unsigned>(kind)));
            entry.kind = static_cast<FlightEntryKind>(kind);
            entry.t_ms = in.u64();
            entry.value = in.u64();
            entry.tenant = in.string(kMaxStringLength);
            entry.label = in.string(kMaxStringLength);
            entry.detail = in.string(kMaxStringLength);
            if (const Status s = in.done(); !s.ok())
                return s;
            out->entries.push_back(std::move(entry));
            return Status();
        });
    return report.status;
}

std::string
FlightBox::to_string() const
{
    std::ostringstream os;
    os << "flight box: " << reason << " (" << entries.size()
       << " retained of " << total_appended << " appended, " << dropped
       << " shed)\n";
    for (const FlightEntry& entry : entries) {
        os << "  [" << entry.t_ms << "ms] "
           << flight_entry_kind_name(entry.kind);
        if (!entry.tenant.empty())
            os << " tenant=" << entry.tenant;
        if (!entry.label.empty())
            os << " " << entry.label;
        os << " value=" << entry.value;
        if (!entry.detail.empty())
            os << "  " << entry.detail;
        os << "\n";
    }
    return os.str();
}

std::string
FlightBox::to_json() const
{
    std::string out = "{\"reason\": \"";
    append_json_escaped(&out, reason);
    out += "\", \"total_appended\": " + std::to_string(total_appended);
    out += ", \"dropped\": " + std::to_string(dropped);
    out += ", \"entries\": [";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += "{\"t_ms\": " + std::to_string(entries[i].t_ms);
        out += ", \"kind\": \"";
        out += flight_entry_kind_name(entries[i].kind);
        out += "\", \"tenant\": \"";
        append_json_escaped(&out, entries[i].tenant);
        out += "\", \"label\": \"";
        append_json_escaped(&out, entries[i].label);
        out += "\", \"value\": " + std::to_string(entries[i].value);
        out += ", \"detail\": \"";
        append_json_escaped(&out, entries[i].detail);
        out += "\"}";
    }
    out += "]}";
    return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      t0_ms_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()))
{
    ring_.reserve(capacity_);
}

std::uint64_t
FlightRecorder::now_ms() const
{
    const std::uint64_t now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    return now >= t0_ms_ ? now - t0_ms_ : 0;
}

void
FlightRecorder::record(FlightEntryKind kind, const std::string& tenant,
                       const std::string& label, std::uint64_t value,
                       const std::string& detail)
{
    FlightEntry entry;
    entry.kind = kind;
    entry.t_ms = now_ms();
    entry.tenant = tenant;
    entry.label = label;
    entry.value = value;
    entry.detail = detail;

    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(entry));
    } else {
        ring_[next_] = std::move(entry);
        wrapped_ = true;
    }
    next_ = (next_ + 1) % capacity_;
    ++total_appended_;
}

FlightBox
FlightRecorder::dump(const std::string& reason)
{
    FlightBox box;
    box.reason = reason;

    std::lock_guard<std::mutex> lock(mu_);
    box.total_appended = total_appended_;
    box.dropped = total_appended_ - ring_.size();
    box.entries.reserve(ring_.size());
    if (wrapped_) {
        // Oldest entry sits at next_ once the ring has wrapped.
        for (std::size_t i = 0; i < ring_.size(); ++i)
            box.entries.push_back(ring_[(next_ + i) % capacity_]);
    } else {
        box.entries = ring_;
    }
    latest_ = box.serialize();
    ++dumps_;
    return box;
}

std::vector<std::uint8_t>
FlightRecorder::latest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latest_;
}

std::uint64_t
FlightRecorder::dumps() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dumps_;
}

std::uint64_t
FlightRecorder::appended() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_appended_;
}

}  // namespace rsafe::obs
