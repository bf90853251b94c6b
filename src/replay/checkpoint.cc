#include "replay/checkpoint.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "obs/trace.h"
#include "rnr/wire.h"

namespace rsafe::replay {

namespace {

CheckpointStoreOptions
options_for_max_keep(std::size_t max_keep)
{
    CheckpointStoreOptions options;
    options.max_keep = max_keep;
    return options;
}

}  // namespace

CheckpointStore::CheckpointStore(std::size_t max_keep)
    : CheckpointStore(options_for_max_keep(max_keep))
{
}

CheckpointStore::CheckpointStore(const CheckpointStoreOptions& options)
    : options_(options), pool_(ckpt::PagePoolOptions{options.compress})
{
}

std::shared_ptr<const Checkpoint>
CheckpointStore::take(hv::Vm& vm, const hv::VmEnvBase& env,
                      std::size_t log_pos)
{
    auto ck = std::make_shared<Checkpoint>();
    ck->id = next_id_++;

    auto& mem = vm.mem();
    auto& disk = vm.hub().disk();
    const auto prev = latest();

    if (!prev) {
        // First checkpoint: every page and block. One the guest never
        // wrote is all zeros: all of those take the pool's zero page in
        // one unread intern, and the table starts out as that page in
        // one shared chunk, so this reads, hashes and stores only the
        // touched pages.
        const auto capture = [this](std::uint64_t n, const auto& untouched,
                                    const auto& data) {
            std::uint64_t zeros = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                zeros += untouched(i) ? 1 : 0;
            ckpt::StoredPageTable table(
                n, zeros != 0 ? pool_.intern_zeros(zeros) : nullptr);
            for (std::uint64_t i = 0; i < n; ++i) {
                if (untouched(i))
                    continue;
                ckpt::StoredPageRef ref = pool_.intern(data(i));
                if (table.at(i) != ref)
                    table.set(i, std::move(ref));
            }
            return table;
        };
        ck->pages = capture(
            mem.num_pages(), [&](Addr p) { return mem.page_untouched(p); },
            [&](Addr p) { return mem.page_data(p); });
        ck->blocks = capture(
            disk.num_blocks(),
            [&](BlockNum b) { return disk.block_untouched(b); },
            [&](BlockNum b) { return disk.block_data(b); });
        ck->copies = mem.num_pages() + disk.num_blocks();
    } else {
        // Incremental: share unmodified pages with the previous
        // checkpoint and copy only what was dirtied in this interval.
        // Assigning a table shares its chunks, so this is O(dirty),
        // not O(all pages).
        ck->pages = prev->pages;
        ck->blocks = prev->blocks;
        for (const Addr page : mem.dirty_pages()) {
            ck->pages.set(page, pool_.intern(mem.page_data(page)));
            ++ck->copies;
        }
        for (const BlockNum block : disk.dirty_blocks()) {
            ck->blocks.set(block, pool_.intern(disk.block_data(block)));
            ++ck->copies;
        }
    }
    mem.clear_dirty();
    disk.clear_dirty();
    ck->mem_id = mem.id();
    ck->mem_epoch = mem.epoch();
    ck->disk_id = disk.id();
    ck->disk_epoch = disk.epoch();

    auto& cpu = vm.cpu();
    ck->cpu_state = cpu.state();
    ck->cycles = cpu.cycles();
    ck->icount = cpu.icount();
    ck->pending_irq = cpu.vmcs().pending_irq;
    ck->blockdev = vm.hub().blockdev().export_state();
    ck->log_pos = log_pos;

    // The hardware dumps the RAS at checkpoint time so the checkpoint
    // holds the complete, up-to-date BackRAS (Section 4.6.1).
    ck->ras = cpu.ras().peek();
    ck->backras = env.backras().entries();
    ck->current_tid = env.current_tid();
    ck->have_current_tid = env.have_current_tid();
    ck->context_dying = env.context_dying();

    checkpoints_.push_back(ck);
    enforce_budget();
    return ck;
}

void
CheckpointStore::enforce_budget()
{
    if (options_.max_keep != 0) {
        while (checkpoints_.size() > options_.max_keep) {
            checkpoints_.pop_front();
            ++count_evictions_;
        }
    }
    // Recycling a checkpoint frees only the pages no later checkpoint
    // (or in-flight alarm job) still shares, so each pop may reclaim
    // anything from nothing to the checkpoint's whole dirty delta; keep
    // popping until the live encoded bytes fit. The newest checkpoint
    // is never recycled — the budget trims history, not the present.
    if (options_.byte_budget == 0)
        return;
    while (checkpoints_.size() > 1 &&
           pool_.stats().live_bytes > options_.byte_budget) {
        checkpoints_.pop_front();
        ++budget_evictions_;
    }
}

CheckpointStoreStats
CheckpointStore::stats() const
{
    const ckpt::PagePoolStats pool = pool_.stats();
    CheckpointStoreStats out;
    out.bytes_raw = pool.bytes_raw;
    out.bytes_stored = pool.bytes_stored;
    out.dedup_hits = pool.dedup_hits;
    out.compressed_pages = pool.compressed_pages;
    out.live_bytes = pool.live_bytes;
    out.live_pages = pool.live_pages;
    out.budget_evictions = budget_evictions_;
    out.count_evictions = count_evictions_;
    return out;
}

std::shared_ptr<const Checkpoint>
CheckpointStore::latest() const
{
    return checkpoints_.empty() ? nullptr : checkpoints_.back();
}

std::shared_ptr<const Checkpoint>
CheckpointStore::latest_at_or_before(InstrCount icount) const
{
    const auto it = std::upper_bound(
        checkpoints_.begin(), checkpoints_.end(), icount,
        [](InstrCount value, const std::shared_ptr<const Checkpoint>& ck) {
            return value < ck->icount;
        });
    if (it == checkpoints_.begin())
        return nullptr;
    return *(it - 1);
}

std::shared_ptr<const Checkpoint>
CheckpointStore::at(std::size_t i) const
{
    if (i >= checkpoints_.size())
        panic("CheckpointStore::at out of range");
    return checkpoints_[i];
}

void
restore_checkpoint(const Checkpoint& checkpoint, hv::Vm* vm,
                   hv::VmEnvBase* env)
{
    obs::ScopedSpan span("checkpoint.restore", "cr");
    auto& mem = vm->mem();
    auto& disk = vm->hub().disk();
    if (checkpoint.pages.size() != mem.num_pages() ||
        checkpoint.blocks.size() != disk.num_blocks()) {
        fatal("restore_checkpoint: VM geometry mismatch");
    }
    // When rolling back the same memory the checkpoint was taken from,
    // a page can only differ from the checkpointed copy if it was
    // dirtied in this or a later epoch; everything older is untouched
    // RAM and need not be rewritten (or its translations invalidated).
    // Likewise a zero slot over a page nothing ever wrote: it already
    // holds zeros, so an AR's fresh VM decodes only non-zero pages.
    // Stored pages decode through a stack buffer: compressed, deduped,
    // and raw storage all restore the same raw bytes, which the A/B
    // determinism gates hold bit-identical.
    std::uint8_t raw[kPageSize];
    const bool mem_delta = checkpoint.mem_id == mem.id();
    for (Addr page = 0; page < checkpoint.pages.size(); ++page) {
        if (mem_delta && mem.page_epoch(page) < checkpoint.mem_epoch)
            continue;
        const auto& ref = checkpoint.pages.at(page);
        if (!ref)
            continue;  // only possible in a hand-built partial image
        if (ref->is_zero() && mem.page_untouched(page))
            continue;
        ref->copy_to(raw);
        mem.restore_page(page, raw);
    }
    const bool disk_delta = checkpoint.disk_id == disk.id();
    for (BlockNum block = 0; block < checkpoint.blocks.size(); ++block) {
        if (disk_delta && disk.block_epoch(block) < checkpoint.disk_epoch)
            continue;
        const auto& ref = checkpoint.blocks.at(block);
        if (!ref || (ref->is_zero() && disk.block_untouched(block)))
            continue;
        ref->copy_to(raw);
        disk.write_block(block, raw);
    }
    mem.clear_dirty();
    disk.clear_dirty();

    auto& cpu = vm->cpu();
    cpu.state() = checkpoint.cpu_state;
    cpu.set_clocks(checkpoint.cycles, checkpoint.icount);
    cpu.vmcs().pending_irq = checkpoint.pending_irq;
    vm->hub().blockdev().import_state(checkpoint.blockdev);

    cpu.ras().load(checkpoint.ras);
    env->backras().restore(checkpoint.backras);
    env->restore_context(checkpoint.current_tid,
                         checkpoint.have_current_tid,
                         checkpoint.context_dying);
}

namespace {

namespace wire = rnr::wire;

/** Hash one page table's raw contents in index order (nulls included).
 *  Hashing the decoded bytes keeps digests independent of how pages are
 *  stored: compressed, deduped, and raw chains digest identically. The
 *  zero page hashes as kPageSize zero bytes without being decoded. */
std::uint64_t
hash_page_table(const ckpt::StoredPageTable& table)
{
    std::uint64_t hash = wire::kFnvOffset;
    std::uint8_t raw[kPageSize];
    for (std::uint64_t i = 0; i < table.size(); ++i) {
        const auto& ref = table.at(i);
        if (!ref) {
            hash = wire::fnv1a64_u64(0x6e756c6cULL /* "null" */, hash);
            continue;
        }
        if (ref->is_zero()) {
            hash *= kFnvZeroPageFactor;
            continue;
        }
        ref->copy_to(raw);
        hash = wire::fnv1a64(raw, kPageSize, hash);
    }
    return hash;
}

std::uint64_t
hash_saved_ras(const cpu::SavedRas& ras, std::uint64_t hash)
{
    hash = wire::fnv1a64_u64(ras.entries.size(), hash);
    for (const auto& entry : ras.entries) {
        hash = wire::fnv1a64_u64(entry.addr, hash);
        hash = wire::fnv1a64_u64(entry.restored ? 1 : 0, hash);
    }
    return hash;
}

}  // namespace

CheckpointDigest
digest_of(const Checkpoint& checkpoint)
{
    CheckpointDigest digest;
    digest.id = checkpoint.id;
    digest.icount = checkpoint.icount;
    digest.cycles = checkpoint.cycles;
    digest.log_pos = checkpoint.log_pos;

    std::uint64_t cpu = wire::kFnvOffset;
    for (const Word reg : checkpoint.cpu_state.regs)
        cpu = wire::fnv1a64_u64(reg, cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.pc, cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.sp, cpu);
    cpu = wire::fnv1a64_u64(
        static_cast<std::uint64_t>(checkpoint.cpu_state.mode), cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.iflag ? 1 : 0, cpu);
    cpu = wire::fnv1a64_u64(checkpoint.cpu_state.halted ? 1 : 0, cpu);
    cpu = wire::fnv1a64_u64(
        checkpoint.pending_irq ? 0x100u + *checkpoint.pending_irq : 0, cpu);
    digest.cpu_hash = cpu;

    digest.pages_hash = hash_page_table(checkpoint.pages);
    digest.blocks_hash = hash_page_table(checkpoint.blocks);

    std::uint64_t ras = wire::kFnvOffset;
    ras = hash_saved_ras(checkpoint.ras, ras);
    ras = wire::fnv1a64_u64(checkpoint.backras.size(), ras);
    for (const auto& [tid, saved] : checkpoint.backras) {
        ras = wire::fnv1a64_u64(tid, ras);
        ras = hash_saved_ras(saved, ras);
    }
    ras = wire::fnv1a64_u64(checkpoint.current_tid, ras);
    ras = wire::fnv1a64_u64(checkpoint.have_current_tid ? 1 : 0, ras);
    ras = wire::fnv1a64_u64(checkpoint.context_dying ? 1 : 0, ras);
    digest.ras_hash = ras;
    return digest;
}

std::uint64_t
CheckpointDigest::hash() const
{
    std::uint64_t hash = wire::kFnvOffset;
    for (const std::uint64_t field : {id, icount, cycles, log_pos, cpu_hash,
                                      pages_hash, blocks_hash, ras_hash})
        hash = wire::fnv1a64_u64(field, hash);
    return hash;
}

std::string
CheckpointDigest::to_string() const
{
    std::ostringstream os;
    os << "chk#" << id << " icount=" << icount << " cycles=" << cycles
       << " log_pos=" << log_pos << std::hex << " cpu=0x" << cpu_hash
       << " pages=0x" << pages_hash << " blocks=0x" << blocks_hash
       << " ras=0x" << ras_hash << std::dec;
    return os.str();
}

}  // namespace rsafe::replay
