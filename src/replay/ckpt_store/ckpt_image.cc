#include "replay/ckpt_store/ckpt_image.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "common/bytes.h"
#include "common/log.h"
#include "isa/encoding.h"
#include "replay/checkpoint.h"
#include "replay/ckpt_store/ckpt_stream.h"
#include "replay/ckpt_store/compress.h"
#include "replay/ckpt_store/page_pool.h"
#include "rnr/wire.h"

namespace rsafe::replay::ckpt {

namespace {

namespace wire = rnr::wire;

/** Room reserved for a meta frame: a machine state with a short RAS
 *  and no in-flight DMA payload fits. */
constexpr std::size_t kMetaReserve = 1024;

// ---------------------------------------------------------------------
// The machine state: the head of the meta frame.

void
put_saved_ras(ByteWriter* w, const cpu::SavedRas& ras)
{
    w->u64(ras.entries.size());
    for (const auto& entry : ras.entries) {
        w->u64(entry.addr);
        w->flag(entry.restored);
    }
}

void
get_saved_ras(ByteReader* in, cpu::SavedRas* out)
{
    // Every entry is 16 bytes; a count the frame cannot hold is a lying
    // length, rejected before the reserve below.
    const std::uint64_t count = in->count(16, kMaxImageRasEntries);
    out->entries.clear();
    out->entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        cpu::RasEntry entry;
        entry.addr = in->u64();
        entry.restored = in->flag();
        out->entries.push_back(entry);
    }
}

void
put_machine(ByteWriter* w, const Checkpoint& ck)
{
    w->u64(ck.id);
    w->u64(ck.icount);
    w->u64(ck.cycles);
    w->u64(ck.log_pos);
    w->u64(ck.copies);

    w->u64(isa::kNumRegs);
    for (const Word reg : ck.cpu_state.regs)
        w->u64(reg);
    w->u64(ck.cpu_state.pc);
    w->u64(ck.cpu_state.sp);
    w->u64(static_cast<std::uint64_t>(ck.cpu_state.mode));
    w->flag(ck.cpu_state.iflag);
    w->flag(ck.cpu_state.halted);
    w->u64(ck.pending_irq ? 0x100u + *ck.pending_irq : 0);

    w->flag(ck.blockdev.busy);
    w->flag(ck.blockdev.is_read);
    w->u64(ck.blockdev.block);
    w->u64(ck.blockdev.guest_addr);
    w->u64(ck.blockdev.cmd_block);
    w->u64(ck.blockdev.cmd_addr);
    w->u64(ck.blockdev.write_payload.size());
    w->bytes(ck.blockdev.write_payload);

    put_saved_ras(w, ck.ras);
    w->u64(ck.backras.size());
    for (const auto& [tid, saved] : ck.backras) {
        w->u64(tid);
        put_saved_ras(w, saved);
    }
    w->u64(ck.current_tid);
    w->flag(ck.have_current_tid);
    w->flag(ck.context_dying);
}

/** Parse put_machine()'s fields into @p out (tables untouched). */
Status
get_machine(ByteReader* in, Checkpoint* out)
{
    out->id = in->u64();
    out->icount = in->u64();
    out->cycles = in->u64();
    out->log_pos = static_cast<std::size_t>(in->u64());
    out->copies = static_cast<std::size_t>(in->u64());

    const std::uint64_t num_regs = in->u64();
    if (num_regs != isa::kNumRegs)
        return in->reject(strcat_args("checkpoint image has ", num_regs,
                                      " registers, want ", isa::kNumRegs));
    for (auto& reg : out->cpu_state.regs)
        reg = in->u64();
    out->cpu_state.pc = in->u64();
    out->cpu_state.sp = in->u64();
    const std::uint64_t mode = in->u64();
    if (mode > static_cast<std::uint64_t>(cpu::Mode::kKernel))
        return in->reject(strcat_args("checkpoint image mode ", mode,
                                      " is not a privilege mode"));
    out->cpu_state.mode = static_cast<cpu::Mode>(mode);
    out->cpu_state.iflag = in->flag();
    out->cpu_state.halted = in->flag();
    const std::uint64_t irq = in->u64();
    if (irq == 0) {
        out->pending_irq.reset();
    } else if (irq >= 0x100 && irq <= 0x1ff) {
        out->pending_irq = static_cast<std::uint8_t>(irq - 0x100);
    } else {
        return in->reject(strcat_args("checkpoint image pending irq ", irq,
                                      " out of range"));
    }

    out->blockdev.busy = in->flag();
    out->blockdev.is_read = in->flag();
    out->blockdev.block = in->u64();
    out->blockdev.guest_addr = in->u64();
    out->blockdev.cmd_block = in->u64();
    out->blockdev.cmd_addr = in->u64();
    const std::uint64_t payload_len = in->u64();
    const std::uint8_t* payload =
        in->bytes(static_cast<std::size_t>(payload_len));
    if (payload == nullptr)
        return in->status();
    out->blockdev.write_payload.assign(payload, payload + payload_len);

    get_saved_ras(in, &out->ras);
    // A thread entry is at least 16 bytes (tid + empty-RAS count).
    const std::uint64_t backras_count = in->count(16, kMaxImageRasEntries);
    out->backras.clear();
    ThreadId prev_tid = 0;
    for (std::uint64_t i = 0; i < backras_count && in->ok(); ++i) {
        const std::uint64_t tid = in->u64();
        if (tid > 0xffffffffull)
            return in->reject(strcat_args("checkpoint image tid ", tid,
                                          " overflows ThreadId"));
        // std::map iteration order is ascending, so a canonical image
        // lists threads strictly ascending; anything else is a lying or
        // duplicated entry.
        if (i > 0 && static_cast<ThreadId>(tid) <= prev_tid)
            return in->reject(
                "checkpoint image BackRAS threads out of order");
        prev_tid = static_cast<ThreadId>(tid);
        get_saved_ras(in, &out->backras[prev_tid]);
    }
    const std::uint64_t current_tid = in->u64();
    if (current_tid > 0xffffffffull)
        return in->reject("checkpoint image current tid overflows ThreadId");
    out->current_tid = static_cast<ThreadId>(current_tid);
    out->have_current_tid = in->flag();
    out->context_dying = in->flag();
    return in->status();
}

/** Parse the page/block geometry, rejecting lying sizes. */
Status
get_geometry(ByteReader* in, std::array<std::uint64_t, kNumStores>* out)
{
    for (std::uint64_t& slots : *out)
        slots = in->u64();
    const std::uint64_t pages = (*out)[kRamStore];
    const std::uint64_t blocks = (*out)[kDiskStore];
    if (pages > kMaxImageSlots || blocks > kMaxImageSlots ||
        pages + blocks > kMaxImageSlots)
        return in->reject(strcat_args("checkpoint image geometry ", pages,
                                      "+", blocks, " slots exceeds the ",
                                      kMaxImageSlots, "-slot bound"));
    return in->status();
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

// ---------------------------------------------------------------------
// The delta image's frames.

/** Wire bytes of one slot run: u32 first slot, u32 count, u64 key. */
constexpr std::size_t kRunBytes = 16;

/** Wire bytes ahead of a carried page's encoding: u64 key, u32 CRC. */
constexpr std::size_t kCarriedHeadBytes = 12;

constexpr const char* kDeltaLabel = "checkpoint delta";

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
    ByteReader in(data, len, kDeltaLabel);
    delta->base_id = in.u64();
    if (const Status status = get_machine(&in, machine); !status.ok())
        return status;
    if (const Status status = get_geometry(&in, &delta->geometry);
        !status.ok())
        return status;
    counts->retired = in.u64();
    counts->runs = in.u64();
    counts->carried = in.u64();
    // Runs are disjoint and non-empty, and every carried page is named
    // by a run, so neither count can exceed the one that bounds it.
    const std::uint64_t slots = delta->total_slots();
    if (counts->runs > slots)
        return in.reject(strcat_args("claims ", counts->runs,
                                     " slot runs for ", slots, " slots"));
    if (counts->carried > counts->runs)
        return in.reject(strcat_args("claims ", counts->carried,
                                     " carried pages for ", counts->runs,
                                     " slot runs"));
    return in.done();
}

Status
decode_retired(const std::uint8_t* data, std::size_t len,
               std::uint64_t count, std::vector<std::uint64_t>* out)
{
    ByteReader in(data, len, kDeltaLabel);
    if (count > len / 8 || count * 8 != len)
        return in.reject(strcat_args("retired-key frame is ", len,
                                     " bytes for ", count, " keys"));
    out->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t key = in.u64();
        if (key == 0 || (!out->empty() && key <= out->back()))
            return in.reject(strcat_args("retired key ", key,
                                         " is zero or out of order"));
        out->push_back(key);
    }
    return in.done();
}

Status
decode_runs(const std::uint8_t* data, std::size_t len, std::uint64_t count,
            std::uint64_t slots, std::vector<DeltaRun>* out,
            std::unordered_set<std::uint64_t>* keys)
{
    ByteReader in(data, len, kDeltaLabel);
    if (count > len / kRunBytes || count * kRunBytes != len)
        return in.reject(strcat_args("slot-run frame is ", len,
                                     " bytes for ", count, " runs"));
    out->reserve(static_cast<std::size_t>(count));
    std::uint64_t end = 0;  // one past the previous run
    for (std::uint64_t i = 0; i < count; ++i) {
        DeltaRun run;
        run.first_slot = in.u32();
        run.count = in.u32();
        run.key = in.u64();
        if (run.count == 0 || run.first_slot < end)
            return in.reject(strcat_args(
                "slot run ", i, " is empty or overlaps its predecessor"));
        end = std::uint64_t{run.first_slot} + run.count;
        if (end > slots)
            return in.reject(strcat_args("slot run ", i, " ends at ", end,
                                         ", past the ", slots, " slots"));
        if (run.key != 0)
            keys->insert(run.key);
        out->push_back(run);
    }
    return in.done();
}

Status
decode_carried(const std::uint8_t* data, std::size_t len,
               const std::unordered_set<std::uint64_t>& run_keys,
               std::vector<StoredPageRef>* out)
{
    ByteReader in(data, len, kDeltaLabel);
    const std::uint64_t key = in.u64();
    const std::uint32_t crc = in.u32();
    const std::uint8_t tag = in.u8();
    if (key == 0 || (!out->empty() && key <= out->back()->key()))
        return in.reject(strcat_args("carried key ", key,
                                     " is zero or out of order"));
    if (run_keys.count(key) == 0)
        return in.reject(strcat_args("carried key ", key,
                                     " is named by no slot run"));
    const std::size_t n = in.remaining();
    const std::uint8_t* bytes = in.bytes(n);
    if (!in.ok())
        return in.status();
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
    std::vector<std::uint8_t> out;
    out.reserve(wire::kHeaderSize + wire::kFrameHeaderSize + kMetaReserve);
    wire::Header header;
    header.kind = wire::PayloadKind::kCheckpointDelta;
    header.frame_count = 3 + delta.carried.size();
    wire::encode_header(header, &out);
    ByteWriter w(&out);
    const std::size_t meta = wire::begin_frame(0, &out);
    w.u64(delta.base_id);
    put_machine(&w, machine);
    for (const std::uint64_t slots : delta.geometry)
        w.u64(slots);
    w.u64(delta.retired.size());
    w.u64(delta.runs.size());
    w.u64(delta.carried.size());
    wire::end_frame(meta, &out);

    // Sized exactly: images can wait in the receiver's queue. The meta
    // frame just written moves once into the exact allocation.
    std::size_t total = out.size() + 2 * wire::kFrameHeaderSize +
                        delta.retired.size() * 8 +
                        delta.runs.size() * kRunBytes;
    for (const StoredPageRef& page : delta.carried)
        total += wire::kFrameHeaderSize + kCarriedHeadBytes + 1 +
                 page->stored_bytes();
    if (out.capacity() != total) {
        std::vector<std::uint8_t> exact;
        exact.reserve(total);
        exact.assign(out.begin(), out.end());
        out.swap(exact);
    }
    const std::size_t retired = wire::begin_frame(1, &out);
    for (const std::uint64_t key : delta.retired)
        w.u64(key);
    wire::end_frame(retired, &out);
    const std::size_t runs = wire::begin_frame(2, &out);
    for (const DeltaRun& run : delta.runs) {
        w.u32(run.first_slot);
        w.u32(run.count);
        w.u64(run.key);
    }
    wire::end_frame(runs, &out);
    for (std::size_t i = 0; i < delta.carried.size(); ++i) {
        const StoredPage& page = *delta.carried[i];
        const std::size_t frame =
            wire::begin_frame(static_cast<std::uint32_t>(3 + i), &out);
        w.u64(page.key());
        w.u32(page.crc());
        w.u8(static_cast<std::uint8_t>(page.encoding()));
        w.bytes(page.encoded());
        wire::end_frame(frame, &out);
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
                                     delta->total_slots(),
                                     &delta->runs, &run_keys);
            else if (seq - 3 >= counts.carried)
                status = Status(StatusCode::kMalformedRecord,
                                strcat_args("checkpoint delta has more than ",
                                            counts.carried,
                                            " carried pages"));
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

// ---------------------------------------------------------------------
// Building deltas, and the standalone image.

CheckpointDelta
diff_checkpoint(const Checkpoint* base, const Checkpoint& checkpoint,
                const std::function<bool(const StoredPage&)>& carry)
{
    CheckpointDelta delta;
    delta.base_id = base != nullptr ? base->id : kNoBase;
    const auto add = [&](std::uint64_t slot, const StoredPageRef& ref) {
        std::uint64_t key = 0;
        if (ref) {
            key = ref->key();
            if (key == 0)
                panic("checkpoint delta: page was not stored by a pool");
            if (carry(*ref))
                delta.carried.push_back(ref);
        }
        if (!delta.runs.empty()) {
            DeltaRun& last = delta.runs.back();
            if (last.key == key && last.first_slot + last.count == slot) {
                ++last.count;
                return;
            }
        }
        delta.runs.push_back({static_cast<std::uint32_t>(slot), 1, key});
    };
    // A first image diffs against empty tables: every slot changed.
    // Slots number the stores in order, so each store's slots start
    // where the previous store's end.
    const StoredPageTable none;
    std::uint64_t first = 0;
    for (std::size_t s = 0; s < kNumStores; ++s) {
        const StoredPageTable& table = checkpoint.stores[s];
        table.for_each_change(
            base != nullptr ? base->stores[s] : none,
            [&](std::uint64_t i, const StoredPageRef& ref) {
                add(first + i, ref);
            });
        delta.geometry[s] = table.size();
        first += table.size();
    }
    std::sort(delta.carried.begin(), delta.carried.end(),
              [](const StoredPageRef& a, const StoredPageRef& b) {
                  return a->key() < b->key();
              });
    return delta;
}

std::vector<std::uint8_t>
serialize_checkpoint(const Checkpoint& checkpoint)
{
    std::unordered_set<std::uint64_t> carried;
    return serialize_delta(
        checkpoint,
        diff_checkpoint(nullptr, checkpoint, [&](const StoredPage& page) {
            return carried.insert(page.key()).second;
        }));
}

Status
deserialize_checkpoint(const std::vector<std::uint8_t>& bytes,
                       Checkpoint* out)
{
    CheckpointStreamReceiver receiver;
    std::shared_ptr<const Checkpoint> checkpoint;
    const Status status =
        receiver.take(receiver.enqueue(bytes), &checkpoint);
    if (status.ok())
        *out = *checkpoint;
    return status;
}

}  // namespace rsafe::replay::ckpt
