#include "replay/ckpt_store/ckpt_image.h"

#include <cstring>
#include <map>
#include <unordered_set>
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
// The machine state: the head of both image kinds' meta frame.

void
put_machine(std::vector<std::uint8_t>* out, const Checkpoint& ck)
{
    std::vector<std::uint8_t>& meta = *out;
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
}

/** Parse put_machine()'s fields into @p out (tables untouched). */
Status
get_machine(Cursor* in, Checkpoint* out)
{
    Cursor& cursor = *in;
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
    return cursor.flag(&out->context_dying);
}

/** Parse the page/block geometry, rejecting lying sizes. */
Status
get_geometry(Cursor* cursor, std::uint64_t* num_pages,
             std::uint64_t* num_blocks)
{
    Status status;
    if (!(status = cursor->u64(num_pages)).ok())
        return status;
    if (!(status = cursor->u64(num_blocks)).ok())
        return status;
    if (*num_pages > kMaxImageSlots || *num_blocks > kMaxImageSlots ||
        *num_pages + *num_blocks > kMaxImageSlots)
        return Status(StatusCode::kMalformedRecord,
                      strcat_args("checkpoint image geometry ", *num_pages,
                                  "+", *num_blocks, " slots exceeds the ",
                                  kMaxImageSlots, "-slot bound"));
    return Status();
}

// ---------------------------------------------------------------------
// The full image's meta frame (frame 0).

std::vector<std::uint8_t>
encode_meta(const Checkpoint& ck, std::uint64_t unique_count)
{
    std::vector<std::uint8_t> meta;
    put_machine(&meta, ck);
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
    if (!(status = get_machine(&cursor, out)).ok())
        return status;
    std::uint64_t num_pages = 0;
    std::uint64_t num_blocks = 0;
    if (!(status = get_geometry(&cursor, &num_pages, &num_blocks)).ok())
        return status;
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

/**
 * Validate one stored page: a known encoding tag, kPageSize raw bytes or
 * an RLE stream decoding to exactly kPageSize (decoded into @p scratch;
 * raw pages leave it untouched).
 */
Status
check_page(std::uint8_t tag, const std::uint8_t* data, std::size_t len,
           std::uint8_t* scratch)
{
    const auto encoding = static_cast<PageEncoding>(tag);
    if (encoding == PageEncoding::kRaw) {
        if (len != kPageSize)
            return Status(StatusCode::kMalformedRecord,
                          strcat_args("checkpoint image raw page is ", len,
                                      " bytes, want ", kPageSize));
        return Status();
    }
    if (encoding == PageEncoding::kRle)
        return rle_decompress(data, len, scratch, kPageSize);
    return Status(StatusCode::kMalformedRecord,
                  strcat_args("checkpoint image page encoding ", tag,
                              " is unknown"));
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
            // Validate the stream; the decoded bytes are not kept.
            std::uint8_t raw[kPageSize];
            if (const Status status =
                    check_page(frame[0], frame + 1, length - 1, raw);
                !status.ok())
                return status;
            uniques.push_back(std::make_shared<const StoredPage>(
                static_cast<PageEncoding>(frame[0]),
                std::vector<std::uint8_t>(frame + 1, frame + length)));
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

// ---------------------------------------------------------------------
// The delta image (PayloadKind::kCheckpointDelta).

namespace {

/** Wire bytes of one slot run: u32 first slot, u32 count, u64 key. */
constexpr std::size_t kRunBytes = 16;

/** Wire bytes ahead of a carried page's encoding: u64 key, u32 CRC. */
constexpr std::size_t kCarriedHeadBytes = 12;

Status
delta_malformed(std::string what)
{
    return Status(StatusCode::kMalformedRecord,
                  "checkpoint delta " + std::move(what));
}

/** The counts frame 0 declares for the frames after it. */
struct DeltaCounts {
    std::uint64_t retired = 0;
    std::uint64_t runs = 0;
    std::uint64_t carried = 0;
};

Status
decode_delta_meta(const std::uint8_t* data, std::size_t len,
                  Checkpoint* machine, CheckpointDelta* delta,
                  DeltaCounts* counts)
{
    Cursor cursor(data, len);
    Status status;
    if (!(status = cursor.u64(&delta->base_id)).ok())
        return status;
    if (!(status = get_machine(&cursor, machine)).ok())
        return status;
    if (!(status = get_geometry(&cursor, &delta->num_pages,
                                &delta->num_blocks))
             .ok())
        return status;
    if (!(status = cursor.u64(&counts->retired)).ok())
        return status;
    if (!(status = cursor.u64(&counts->runs)).ok())
        return status;
    if (!(status = cursor.u64(&counts->carried)).ok())
        return status;
    // Runs are disjoint and non-empty, and every carried page is named
    // by a run, so neither count can exceed the one that bounds it.
    const std::uint64_t slots = delta->num_pages + delta->num_blocks;
    if (counts->runs > slots)
        return delta_malformed(strcat_args("claims ", counts->runs,
                                           " slot runs for ", slots,
                                           " slots"));
    if (counts->carried > counts->runs)
        return delta_malformed(strcat_args("claims ", counts->carried,
                                           " carried pages for ",
                                           counts->runs, " slot runs"));
    return cursor.done();
}

Status
decode_retired(const std::uint8_t* data, std::size_t len,
               std::uint64_t count, std::vector<std::uint64_t>* out)
{
    if (count > len / 8 || count * 8 != len)
        return delta_malformed(strcat_args("retired-key frame is ", len,
                                           " bytes for ", count, " keys"));
    Cursor cursor(data, len);
    out->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t key = 0;
        if (const Status status = cursor.u64(&key); !status.ok())
            return status;
        if (key == 0 || (!out->empty() && key <= out->back()))
            return delta_malformed(strcat_args(
                "retired key ", key, " is zero or out of order"));
        out->push_back(key);
    }
    return Status();
}

Status
decode_runs(const std::uint8_t* data, std::size_t len, std::uint64_t count,
            std::uint64_t slots, std::vector<DeltaRun>* out,
            std::unordered_set<std::uint64_t>* keys)
{
    if (count * kRunBytes != len)
        return delta_malformed(strcat_args("slot-run frame is ", len,
                                           " bytes for ", count, " runs"));
    Cursor cursor(data, len);
    out->reserve(static_cast<std::size_t>(count));
    std::uint64_t end = 0;  // one past the previous run
    for (std::uint64_t i = 0; i < count; ++i) {
        DeltaRun run;
        Status status;
        if (!(status = cursor.u32(&run.first_slot)).ok() ||
            !(status = cursor.u32(&run.count)).ok() ||
            !(status = cursor.u64(&run.key)).ok())
            return status;
        if (run.count == 0 || run.first_slot < end)
            return delta_malformed(strcat_args(
                "slot run ", i, " is empty or overlaps its predecessor"));
        end = std::uint64_t{run.first_slot} + run.count;
        if (end > slots)
            return delta_malformed(strcat_args("slot run ", i, " ends at ",
                                               end, ", past the ", slots,
                                               " slots"));
        if (run.key != 0)
            keys->insert(run.key);
        out->push_back(run);
    }
    return Status();
}

Status
decode_carried(const std::uint8_t* data, std::size_t len,
               const std::unordered_set<std::uint64_t>& run_keys,
               std::vector<StoredPageRef>* out)
{
    if (len < kCarriedHeadBytes + 1)
        return delta_malformed("carried page frame is too short");
    Cursor cursor(data, kCarriedHeadBytes);
    std::uint64_t key = 0;
    std::uint32_t crc = 0;
    (void)cursor.u64(&key);
    (void)cursor.u32(&crc);
    if (key == 0 || (!out->empty() && key <= out->back()->key()))
        return delta_malformed(strcat_args("carried key ", key,
                                           " is zero or out of order"));
    if (run_keys.count(key) == 0)
        return delta_malformed(strcat_args("carried key ", key,
                                           " is named by no slot run"));
    const std::uint8_t tag = data[kCarriedHeadBytes];
    const std::uint8_t* bytes = data + kCarriedHeadBytes + 1;
    const std::size_t n = len - kCarriedHeadBytes - 1;
    std::uint8_t scratch[kPageSize];
    if (const Status status = check_page(tag, bytes, n, scratch);
        !status.ok())
        return status;
    const auto encoding = static_cast<PageEncoding>(tag);
    const std::uint32_t actual =
        wire::crc32c(encoding == PageEncoding::kRaw ? bytes : scratch,
                     kPageSize);
    if (actual != crc)
        return Status(StatusCode::kChecksumMismatch,
                      strcat_args("checkpoint delta carried key ", key,
                                  " has CRC32C ", actual, ", image says ",
                                  crc));
    out->push_back(std::make_shared<const StoredPage>(
        encoding, std::vector<std::uint8_t>(bytes, bytes + n), key, crc));
    return Status();
}

}  // namespace

std::vector<std::uint8_t>
serialize_delta(const Checkpoint& machine, const CheckpointDelta& delta)
{
    std::vector<std::uint8_t> meta;
    put_u64(&meta, delta.base_id);
    put_machine(&meta, machine);
    put_u64(&meta, delta.num_pages);
    put_u64(&meta, delta.num_blocks);
    put_u64(&meta, delta.retired.size());
    put_u64(&meta, delta.runs.size());
    put_u64(&meta, delta.carried.size());

    std::vector<std::uint8_t> retired;
    retired.reserve(delta.retired.size() * 8);
    for (const std::uint64_t key : delta.retired)
        put_u64(&retired, key);
    std::vector<std::uint8_t> runs;
    runs.reserve(delta.runs.size() * kRunBytes);
    for (const DeltaRun& run : delta.runs) {
        put_u32(&runs, run.first_slot);
        put_u32(&runs, run.count);
        put_u64(&runs, run.key);
    }

    // Sized exactly: images can wait in the receiver's queue.
    std::size_t total = wire::kHeaderSize + 3 * wire::kFrameHeaderSize +
                        meta.size() + retired.size() + runs.size();
    for (const StoredPageRef& page : delta.carried)
        total += wire::kFrameHeaderSize + kCarriedHeadBytes + 1 +
                 page->stored_bytes();
    std::vector<std::uint8_t> out;
    out.reserve(total);
    wire::Header header;
    header.kind = wire::PayloadKind::kCheckpointDelta;
    header.frame_count = 3 + delta.carried.size();
    wire::encode_header(header, &out);
    wire::append_frame(0, meta.data(), meta.size(), &out);
    wire::append_frame(1, retired.data(), retired.size(), &out);
    wire::append_frame(2, runs.data(), runs.size(), &out);
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < delta.carried.size(); ++i) {
        const StoredPage& page = *delta.carried[i];
        frame.clear();
        put_u64(&frame, page.key());
        put_u32(&frame, page.crc());
        frame.push_back(static_cast<std::uint8_t>(page.encoding()));
        frame.insert(frame.end(), page.encoded().begin(),
                     page.encoded().end());
        wire::append_frame(static_cast<std::uint32_t>(3 + i), frame.data(),
                           frame.size(), &out);
    }
    return out;
}

Status
deserialize_delta(const std::vector<std::uint8_t>& bytes,
                  Checkpoint* machine, CheckpointDelta* delta)
{
    *machine = Checkpoint();
    *delta = CheckpointDelta();
    DeltaCounts counts;
    std::unordered_set<std::uint64_t> run_keys;
    std::uint64_t frames = 0;
    // read_frames() feeds frames in consecutive sequence order and stops
    // at the first rejection, so each frame below follows accepted ones.
    const wire::LoadReport report = wire::read_frames(
        bytes, wire::PayloadKind::kCheckpointDelta,
        [&](std::uint64_t seq, std::size_t offset, std::size_t length) {
            const std::uint8_t* frame = bytes.data() + offset;
            Status status;
            if (seq == 0)
                status = decode_delta_meta(frame, length, machine, delta,
                                           &counts);
            else if (seq == 1)
                status = decode_retired(frame, length, counts.retired,
                                        &delta->retired);
            else if (seq == 2)
                status = decode_runs(frame, length, counts.runs,
                                     delta->num_pages + delta->num_blocks,
                                     &delta->runs, &run_keys);
            else if (seq - 3 >= counts.carried)
                status = delta_malformed(strcat_args(
                    "has more than ", counts.carried, " carried pages"));
            else
                status = decode_carried(frame, length, run_keys,
                                        &delta->carried);
            if (status.ok())
                ++frames;
            return status;
        });
    if (!report.intact())
        return report.status;
    if (frames < 3 || delta->carried.size() != counts.carried)
        return Status(StatusCode::kTruncated,
                      strcat_args("checkpoint delta has ", frames,
                                  " frames, want ", 3 + counts.carried));
    return Status();
}

}  // namespace rsafe::replay::ckpt
