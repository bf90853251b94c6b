#include "replay/ckpt_store/ckpt_image.h"

#include <cstring>
#include <map>
#include <utility>

#include "isa/encoding.h"
#include "replay/checkpoint.h"
#include "replay/ckpt_store/compress.h"
#include "replay/ckpt_store/page_pool.h"
#include "rnr/wire.h"

namespace rsafe::replay::ckpt {

namespace {

namespace wire = rnr::wire;

// ---------------------------------------------------------------------
// Little-endian field helpers (the meta frame is a flat u8/u32/u64
// stream; the strict cursor makes every read bounds-checked).

void
put_u32(std::vector<std::uint8_t>* out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xff));
}

void
put_u64(std::vector<std::uint8_t>* out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xff));
}

void
put_flag(std::vector<std::uint8_t>* out, bool value)
{
    put_u64(out, value ? 1 : 0);
}

/** Bounds-checked reader over one frame's payload. */
class Cursor {
  public:
    Cursor(const std::uint8_t* data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    std::size_t remaining() const { return len_ - pos_; }

    Status u32(std::uint32_t* out)
    {
        if (remaining() < 4)
            return truncated("u32");
        *out = 0;
        for (int i = 0; i < 4; ++i)
            *out |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return Status();
    }

    Status u64(std::uint64_t* out)
    {
        if (remaining() < 8)
            return truncated("u64");
        *out = 0;
        for (int i = 0; i < 8; ++i)
            *out |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return Status();
    }

    /** A u64 that must be exactly 0 or 1 (strict boolean). */
    Status flag(bool* out)
    {
        std::uint64_t value = 0;
        if (const Status status = u64(&value); !status.ok())
            return status;
        if (value > 1)
            return Status(StatusCode::kMalformedRecord,
                          strcat_args("checkpoint image flag is ", value,
                                      ", want 0 or 1"));
        *out = value != 0;
        return Status();
    }

    Status bytes(std::uint8_t* out, std::size_t n)
    {
        if (remaining() < n)
            return truncated("byte run");
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
        return Status();
    }

    Status done() const
    {
        if (pos_ != len_)
            return Status(StatusCode::kMalformedRecord,
                          strcat_args("checkpoint image frame has ",
                                      len_ - pos_, " trailing bytes"));
        return Status();
    }

  private:
    Status truncated(const char* what) const
    {
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image field (", what,
                                  ") overruns its frame"));
    }

    const std::uint8_t* data_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// SavedRas encoding.

void
put_saved_ras(std::vector<std::uint8_t>* out, const cpu::SavedRas& ras)
{
    put_u64(out, ras.entries.size());
    for (const auto& entry : ras.entries) {
        put_u64(out, entry.addr);
        put_flag(out, entry.restored);
    }
}

Status
get_saved_ras(Cursor* cursor, cpu::SavedRas* out)
{
    std::uint64_t count = 0;
    if (const Status status = cursor->u64(&count); !status.ok())
        return status;
    // Every entry is 16 bytes; a count the frame cannot possibly hold is
    // a lying length, rejected before the reserve below can OOM.
    if (count > kMaxImageRasEntries || count * 16 > cursor->remaining())
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image claims ", count,
                                  " RAS entries, frame cannot hold them"));
    out->entries.clear();
    out->entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        cpu::RasEntry entry;
        if (const Status status = cursor->u64(&entry.addr); !status.ok())
            return status;
        if (const Status status = cursor->flag(&entry.restored);
            !status.ok())
            return status;
        out->entries.push_back(entry);
    }
    return Status();
}

// ---------------------------------------------------------------------
// The meta frame (frame 0).

std::vector<std::uint8_t>
encode_meta(const Checkpoint& ck, std::uint64_t unique_count)
{
    std::vector<std::uint8_t> meta;
    put_u64(&meta, ck.id);
    put_u64(&meta, ck.icount);
    put_u64(&meta, ck.cycles);
    put_u64(&meta, ck.log_pos);
    put_u64(&meta, ck.copies);

    put_u64(&meta, isa::kNumRegs);
    for (const Word reg : ck.cpu_state.regs)
        put_u64(&meta, reg);
    put_u64(&meta, ck.cpu_state.pc);
    put_u64(&meta, ck.cpu_state.sp);
    put_u64(&meta, static_cast<std::uint64_t>(ck.cpu_state.mode));
    put_flag(&meta, ck.cpu_state.iflag);
    put_flag(&meta, ck.cpu_state.halted);
    put_u64(&meta, ck.pending_irq ? 0x100u + *ck.pending_irq : 0);

    put_flag(&meta, ck.blockdev.busy);
    put_flag(&meta, ck.blockdev.is_read);
    put_u64(&meta, ck.blockdev.block);
    put_u64(&meta, ck.blockdev.guest_addr);
    put_u64(&meta, ck.blockdev.cmd_block);
    put_u64(&meta, ck.blockdev.cmd_addr);
    put_u64(&meta, ck.blockdev.write_payload.size());
    meta.insert(meta.end(), ck.blockdev.write_payload.begin(),
                ck.blockdev.write_payload.end());

    put_saved_ras(&meta, ck.ras);
    put_u64(&meta, ck.backras.size());
    for (const auto& [tid, saved] : ck.backras) {
        put_u64(&meta, tid);
        put_saved_ras(&meta, saved);
    }
    put_u64(&meta, ck.current_tid);
    put_flag(&meta, ck.have_current_tid);
    put_flag(&meta, ck.context_dying);

    put_u64(&meta, ck.pages.size());
    put_u64(&meta, ck.blocks.size());
    put_u64(&meta, unique_count);
    return meta;
}

Status
decode_meta(const std::uint8_t* data, std::size_t len, Checkpoint* out,
            std::uint64_t* unique_count)
{
    Cursor cursor(data, len);
    Status status;
    if (!(status = cursor.u64(&out->id)).ok())
        return status;
    if (!(status = cursor.u64(&out->icount)).ok())
        return status;
    if (!(status = cursor.u64(&out->cycles)).ok())
        return status;
    std::uint64_t log_pos = 0;
    if (!(status = cursor.u64(&log_pos)).ok())
        return status;
    out->log_pos = static_cast<std::size_t>(log_pos);
    std::uint64_t copies = 0;
    if (!(status = cursor.u64(&copies)).ok())
        return status;
    out->copies = static_cast<std::size_t>(copies);

    std::uint64_t num_regs = 0;
    if (!(status = cursor.u64(&num_regs)).ok())
        return status;
    if (num_regs != isa::kNumRegs)
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image has ", num_regs,
                                  " registers, want ", isa::kNumRegs));
    for (auto& reg : out->cpu_state.regs)
        if (!(status = cursor.u64(&reg)).ok())
            return status;
    if (!(status = cursor.u64(&out->cpu_state.pc)).ok())
        return status;
    if (!(status = cursor.u64(&out->cpu_state.sp)).ok())
        return status;
    std::uint64_t mode = 0;
    if (!(status = cursor.u64(&mode)).ok())
        return status;
    if (mode > static_cast<std::uint64_t>(cpu::Mode::kKernel))
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image mode ", mode,
                                  " is not a privilege mode"));
    out->cpu_state.mode = static_cast<cpu::Mode>(mode);
    if (!(status = cursor.flag(&out->cpu_state.iflag)).ok())
        return status;
    if (!(status = cursor.flag(&out->cpu_state.halted)).ok())
        return status;
    std::uint64_t irq = 0;
    if (!(status = cursor.u64(&irq)).ok())
        return status;
    if (irq == 0) {
        out->pending_irq.reset();
    } else if (irq >= 0x100 && irq <= 0x1ff) {
        out->pending_irq = static_cast<std::uint8_t>(irq - 0x100);
    } else {
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image pending irq ", irq,
                                  " out of range"));
    }

    if (!(status = cursor.flag(&out->blockdev.busy)).ok())
        return status;
    if (!(status = cursor.flag(&out->blockdev.is_read)).ok())
        return status;
    if (!(status = cursor.u64(&out->blockdev.block)).ok())
        return status;
    if (!(status = cursor.u64(&out->blockdev.guest_addr)).ok())
        return status;
    if (!(status = cursor.u64(&out->blockdev.cmd_block)).ok())
        return status;
    if (!(status = cursor.u64(&out->blockdev.cmd_addr)).ok())
        return status;
    std::uint64_t payload_len = 0;
    if (!(status = cursor.u64(&payload_len)).ok())
        return status;
    if (payload_len > cursor.remaining())
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image DMA payload of ",
                                  payload_len, " bytes overruns its frame"));
    out->blockdev.write_payload.resize(
        static_cast<std::size_t>(payload_len));
    if (payload_len > 0 &&
        !(status = cursor.bytes(out->blockdev.write_payload.data(),
                                static_cast<std::size_t>(payload_len)))
             .ok())
        return status;

    if (!(status = get_saved_ras(&cursor, &out->ras)).ok())
        return status;
    std::uint64_t backras_count = 0;
    if (!(status = cursor.u64(&backras_count)).ok())
        return status;
    // A thread entry is at least 16 bytes (tid + empty-RAS count).
    if (backras_count > kMaxImageRasEntries ||
        backras_count * 16 > cursor.remaining())
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image claims ", backras_count,
                                  " BackRAS threads, frame cannot hold"
                                  " them"));
    out->backras.clear();
    ThreadId prev_tid = 0;
    for (std::uint64_t i = 0; i < backras_count; ++i) {
        std::uint64_t tid = 0;
        if (!(status = cursor.u64(&tid)).ok())
            return status;
        if (tid > 0xffffffffull)
            return Status(StatusCode::kMalformedRecord,
                          strcat_args("checkpoint image tid ", tid,
                                      " overflows ThreadId"));
        // std::map iteration order is ascending, so a canonical image
        // lists threads strictly ascending; anything else is a lying or
        // duplicated entry.
        if (i > 0 && static_cast<ThreadId>(tid) <= prev_tid)
            return Status(StatusCode::kMalformedRecord,
                          "checkpoint image BackRAS threads out of order");
        prev_tid = static_cast<ThreadId>(tid);
        cpu::SavedRas saved;
        if (!(status = get_saved_ras(&cursor, &saved)).ok())
            return status;
        out->backras.emplace(prev_tid, std::move(saved));
    }
    std::uint64_t current_tid = 0;
    if (!(status = cursor.u64(&current_tid)).ok())
        return status;
    if (current_tid > 0xffffffffull)
        return Status(StatusCode::kMalformedRecord,
                      "checkpoint image current tid overflows ThreadId");
    out->current_tid = static_cast<ThreadId>(current_tid);
    if (!(status = cursor.flag(&out->have_current_tid)).ok())
        return status;
    if (!(status = cursor.flag(&out->context_dying)).ok())
        return status;

    std::uint64_t num_pages = 0;
    std::uint64_t num_blocks = 0;
    if (!(status = cursor.u64(&num_pages)).ok())
        return status;
    if (!(status = cursor.u64(&num_blocks)).ok())
        return status;
    if (num_pages > kMaxImageSlots || num_blocks > kMaxImageSlots ||
        num_pages + num_blocks > kMaxImageSlots)
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image geometry ", num_pages,
                                  "+", num_blocks, " slots exceeds the ",
                                  kMaxImageSlots, "-slot bound"));
    out->pages = StoredPageTable(static_cast<std::size_t>(num_pages));
    out->blocks = StoredPageTable(static_cast<std::size_t>(num_blocks));
    if (!(status = cursor.u64(unique_count)).ok())
        return status;
    // Every unique page must be referenced by a slot, so U can never
    // exceed the slot count (and a canonical image needs U frames).
    if (*unique_count > num_pages + num_blocks)
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image claims ", *unique_count,
                                  " unique pages for ",
                                  num_pages + num_blocks, " slots"));
    return cursor.done();
}

}  // namespace

std::vector<std::uint8_t>
serialize_checkpoint(const Checkpoint& checkpoint)
{
    // Unique pages in first-use order (slot walk: pages, then blocks).
    // The pool already collapsed equal content into shared StoredPages,
    // so pointer identity is content identity here.
    std::map<const StoredPage*, std::uint32_t> unique_index;
    std::vector<const StoredPage*> uniques;
    std::vector<std::uint8_t> slot_map;
    slot_map.reserve((checkpoint.pages.size() + checkpoint.blocks.size()) *
                     4);
    const auto add_slot = [&](const StoredPageRef& ref) {
        if (!ref) {
            put_u32(&slot_map, kNullSlot);
            return;
        }
        const auto [it, inserted] = unique_index.emplace(
            ref.get(), static_cast<std::uint32_t>(uniques.size()));
        if (inserted)
            uniques.push_back(ref.get());
        put_u32(&slot_map, it->second);
    };
    for (std::uint64_t i = 0; i < checkpoint.pages.size(); ++i)
        add_slot(checkpoint.pages.at(i));
    for (std::uint64_t i = 0; i < checkpoint.blocks.size(); ++i)
        add_slot(checkpoint.blocks.at(i));

    const std::vector<std::uint8_t> meta =
        encode_meta(checkpoint, uniques.size());

    std::vector<std::uint8_t> out;
    wire::Header header;
    header.kind = wire::PayloadKind::kCheckpointImage;
    header.frame_count = 2 + uniques.size();
    wire::encode_header(header, &out);
    wire::append_frame(0, meta.data(), meta.size(), &out);
    wire::append_frame(1, slot_map.data(), slot_map.size(), &out);
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < uniques.size(); ++i) {
        const StoredPage* page = uniques[i];
        frame.clear();
        frame.push_back(static_cast<std::uint8_t>(page->encoding()));
        frame.insert(frame.end(), page->encoded().begin(),
                     page->encoded().end());
        wire::append_frame(static_cast<std::uint32_t>(2 + i), frame.data(),
                           frame.size(), &out);
    }
    return out;
}

Status
deserialize_checkpoint(const std::vector<std::uint8_t>& bytes,
                       Checkpoint* out)
{
    *out = Checkpoint();
    std::uint64_t unique_count = 0;
    std::vector<StoredPageRef> uniques;
    std::vector<std::uint32_t> slots;
    bool saw_meta = false;
    bool saw_slots = false;

    const wire::LoadReport report = wire::read_frames(
        bytes, wire::PayloadKind::kCheckpointImage,
        [&](std::uint64_t seq, std::size_t offset, std::size_t length) {
            const std::uint8_t* frame = bytes.data() + offset;
            if (seq == 0) {
                const Status status =
                    decode_meta(frame, length, out, &unique_count);
                if (status.ok())
                    saw_meta = true;
                return status;
            }
            if (!saw_meta)
                return Status(StatusCode::kMalformedRecord,
                              "checkpoint image frame before its meta");
            if (seq == 1) {
                const std::uint64_t slot_count =
                    out->pages.size() + out->blocks.size();
                if (length != slot_count * 4) {
                    return Status(
                        StatusCode::kMalformedRecord,
                        strcat_args("checkpoint image slot map is ",
                                    length, " bytes, want ",
                                    slot_count * 4));
                }
                slots.resize(static_cast<std::size_t>(slot_count));
                for (std::size_t i = 0; i < slots.size(); ++i) {
                    std::uint32_t value = 0;
                    for (int b = 0; b < 4; ++b)
                        value |= static_cast<std::uint32_t>(
                                     frame[i * 4 + b])
                                 << (8 * b);
                    if (value != kNullSlot && value >= unique_count) {
                        return Status(
                            StatusCode::kMalformedRecord,
                            strcat_args("checkpoint image slot ", i,
                                        " references unique page ", value,
                                        " of ", unique_count));
                    }
                    slots[i] = value;
                }
                saw_slots = true;
                return Status();
            }
            if (!saw_slots)
                return Status(StatusCode::kMalformedRecord,
                              "checkpoint image page before its slot map");
            if (seq - 2 >= unique_count)
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("checkpoint image has more than ",
                                          unique_count, " unique pages"));
            if (length < 1)
                return Status(StatusCode::kMalformedRecord,
                              "checkpoint image page frame is empty");
            const auto encoding = static_cast<PageEncoding>(frame[0]);
            std::vector<std::uint8_t> encoded(frame + 1, frame + length);
            if (encoding == PageEncoding::kRaw) {
                if (encoded.size() != kPageSize) {
                    return Status(
                        StatusCode::kMalformedRecord,
                        strcat_args("checkpoint image raw page is ",
                                    encoded.size(), " bytes, want ",
                                    kPageSize));
                }
            } else if (encoding == PageEncoding::kRle) {
                // Validate the stream; the decoded bytes are not kept.
                std::uint8_t raw[kPageSize];
                const Status status = rle_decompress(
                    encoded.data(), encoded.size(), raw, kPageSize);
                if (!status.ok())
                    return status;
            } else {
                return Status(StatusCode::kMalformedRecord,
                              strcat_args("checkpoint image page encoding ",
                                          frame[0], " is unknown"));
            }
            uniques.push_back(std::make_shared<const StoredPage>(
                encoding, std::move(encoded)));
            return Status();
        });
    if (!report.intact())
        return report.status;
    if (!saw_meta || !saw_slots)
        return Status(StatusCode::kMalformedRecord,
                      "checkpoint image is missing its meta or slot map");
    if (uniques.size() != unique_count) {
        return Status(StatusCode::kTruncated,
                      strcat_args("checkpoint image has ", uniques.size(),
                                  " of ", unique_count, " unique pages"));
    }

    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i] == kNullSlot)
            continue;
        const StoredPageRef& ref = uniques[slots[i]];
        if (i < out->pages.size())
            out->pages.set(i, ref);
        else
            out->blocks.set(i - out->pages.size(), ref);
    }
    return Status();
}

}  // namespace rsafe::replay::ckpt
