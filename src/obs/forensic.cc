#include "obs/forensic.h"

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

constexpr const char* kLabel = "forensic frame";

std::string
hex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

}  // namespace

const char*
gadget_class_name(GadgetClass cls)
{
    switch (cls) {
      case GadgetClass::kUnknown: return "unknown";
      case GadgetClass::kChain: return "chain";
      case GadgetClass::kLoad: return "load";
      case GadgetClass::kStore: return "store";
      case GadgetClass::kAlu: return "alu";
      case GadgetClass::kStackPivot: return "stack-pivot";
      case GadgetClass::kBranch: return "branch";
      case GadgetClass::kSystem: return "system";
    }
    return "<bad>";
}

std::vector<std::uint8_t>
ForensicReport::serialize() const
{
    // Frame 0 carries the scalar/string fields; frames 1..N carry one
    // gadget each, so a damaged gadget frame loses only that link.
    std::vector<std::uint8_t> out;
    rnr::wire::Header header;
    header.kind = PayloadKind::kForensicReport;
    header.frame_count = 1 + gadgets.size();
    rnr::wire::encode_header(header, &out);
    ByteWriter w(&out);
    const std::size_t head = rnr::wire::begin_frame(0, &out);
    w.u64(log_index);
    w.u64(icount);
    w.u8(is_attack ? 1 : 0);
    w.u8(kernel_mode ? 1 : 0);
    w.string(cause);
    w.u64(ret_pc);
    w.string(faulting_function);
    w.u64(function_begin);
    w.u64(function_end);
    w.u64(expected_target);
    w.string(call_site_function);
    w.u64(actual_target);
    w.string(target_function);
    w.u64(static_cast<std::uint64_t>(tid));
    w.u64(shadow_depth);
    w.u64(static_cast<std::uint64_t>(shadow_delta));
    w.u64(threads_tracked);
    rnr::wire::end_frame(head, &out);
    for (std::size_t i = 0; i < gadgets.size(); ++i) {
        const std::size_t frame =
            rnr::wire::begin_frame(static_cast<std::uint32_t>(i + 1), &out);
        w.u64(gadgets[i].pc);
        w.u8(static_cast<std::uint8_t>(gadgets[i].cls));
        w.string(gadgets[i].disasm);
        w.string(gadgets[i].function);
        rnr::wire::end_frame(frame, &out);
    }
    return out;
}

Status
ForensicReport::deserialize(const std::vector<std::uint8_t>& bytes,
                            ForensicReport* out)
{
    *out = ForensicReport();
    const auto report = rnr::wire::read_frames(
        bytes, PayloadKind::kForensicReport,
        [&](std::uint64_t seq, std::size_t offset,
            std::size_t length) -> Status {
            ByteReader in(bytes.data() + offset, length, kLabel);
            if (seq == 0) {
                out->log_index = in.u64();
                out->icount = in.u64();
                out->is_attack = in.u8() != 0;
                out->kernel_mode = in.u8() != 0;
                out->cause = in.string(kMaxStringLength);
                out->ret_pc = in.u64();
                out->faulting_function = in.string(kMaxStringLength);
                out->function_begin = in.u64();
                out->function_end = in.u64();
                out->expected_target = in.u64();
                out->call_site_function = in.string(kMaxStringLength);
                out->actual_target = in.u64();
                out->target_function = in.string(kMaxStringLength);
                out->tid = static_cast<ThreadId>(in.u64());
                out->shadow_depth = in.u64();
                out->shadow_delta = static_cast<std::int64_t>(in.u64());
                out->threads_tracked = in.u64();
                return in.done();
            }
            GadgetInfo gadget;
            gadget.pc = in.u64();
            const std::uint8_t cls = in.u8();
            if (cls > static_cast<std::uint8_t>(GadgetClass::kSystem))
                return in.reject(strcat_args("gadget frame ", seq,
                                             ": bad class ",
                                             static_cast<unsigned>(cls)));
            gadget.cls = static_cast<GadgetClass>(cls);
            gadget.disasm = in.string(kMaxStringLength);
            gadget.function = in.string(kMaxStringLength);
            if (const Status s = in.done(); !s.ok())
                return s;
            out->gadgets.push_back(std::move(gadget));
            return Status();
        });
    return report.status;
}

std::string
ForensicReport::to_string() const
{
    std::ostringstream os;
    os << "forensic report: alarm #" << log_index << " @icount " << icount
       << (kernel_mode ? " [kernel]" : " [user]") << " -> " << cause
       << (is_attack ? " (ATTACK)" : "") << "\n";
    os << "  where: ret at " << hex(ret_pc);
    if (!faulting_function.empty()) {
        os << " in <" << faulting_function << ">";
        if (function_end != 0)
            os << " [" << hex(function_begin) << ", " << hex(function_end)
               << ")";
    }
    os << "\n         expected " << hex(expected_target);
    if (!call_site_function.empty())
        os << " in <" << call_site_function << ">";
    os << ", redirected to " << hex(actual_target);
    if (!target_function.empty())
        os << " in <" << target_function << ">";
    os << "\n  who:   tid " << tid << ", shadow depth " << shadow_depth
       << " (delta " << (shadow_delta >= 0 ? "+" : "") << shadow_delta
       << " since checkpoint), " << threads_tracked
       << " thread(s) tracked\n";
    os << "  what:  " << gadgets.size() << " gadget(s) staged";
    for (const GadgetInfo& gadget : gadgets) {
        os << "\n         " << hex(gadget.pc) << " ["
           << gadget_class_name(gadget.cls) << "]";
        if (!gadget.disasm.empty())
            os << "  " << gadget.disasm;
        if (!gadget.function.empty())
            os << "  <" << gadget.function << ">";
    }
    os << "\n";
    return os.str();
}

std::string
ForensicReport::to_json() const
{
    std::string out = "{";
    out += "\"log_index\": " + std::to_string(log_index);
    out += ", \"icount\": " + std::to_string(icount);
    out += ", \"cause\": \"";
    append_json_escaped(&out, cause);
    out += "\", \"is_attack\": ";
    out += is_attack ? "true" : "false";
    out += ", \"kernel_mode\": ";
    out += kernel_mode ? "true" : "false";
    out += ", \"where\": {\"ret_pc\": \"" + hex(ret_pc) + "\"";
    out += ", \"faulting_function\": \"";
    append_json_escaped(&out, faulting_function);
    out += "\", \"function_begin\": \"" + hex(function_begin) + "\"";
    out += ", \"function_end\": \"" + hex(function_end) + "\"";
    out += ", \"expected_target\": \"" + hex(expected_target) + "\"";
    out += ", \"call_site_function\": \"";
    append_json_escaped(&out, call_site_function);
    out += "\", \"actual_target\": \"" + hex(actual_target) + "\"";
    out += ", \"target_function\": \"";
    append_json_escaped(&out, target_function);
    out += "\"}";
    out += ", \"who\": {\"tid\": " + std::to_string(tid);
    out += ", \"shadow_depth\": " + std::to_string(shadow_depth);
    out += ", \"shadow_delta\": " + std::to_string(shadow_delta);
    out += ", \"threads_tracked\": " + std::to_string(threads_tracked);
    out += "}";
    out += ", \"what\": {\"gadgets\": [";
    for (std::size_t i = 0; i < gadgets.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += "{\"pc\": \"" + hex(gadgets[i].pc) + "\"";
        out += ", \"class\": \"";
        out += gadget_class_name(gadgets[i].cls);
        out += "\", \"disasm\": \"";
        append_json_escaped(&out, gadgets[i].disasm);
        out += "\", \"function\": \"";
        append_json_escaped(&out, gadgets[i].function);
        out += "\"}";
    }
    out += "]}}";
    return out;
}

}  // namespace rsafe::obs
