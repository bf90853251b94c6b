#include "replay/checkpoint.h"

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

/** @p vm's page stores, in Checkpoint::stores order. */
std::array<mem::PageStore*, ckpt::kNumStores>
live_stores(hv::Vm& vm)
{
    return {&vm.mem().store(), &vm.hub().disk()};
}

}  // namespace

CheckpointStore::CheckpointStore(std::size_t max_keep)
    : CheckpointStore(options_for_max_keep(max_keep))
{
}

CheckpointStore::CheckpointStore(const CheckpointStoreOptions& options)
    : options_(options)
{
}

std::shared_ptr<const Checkpoint>
CheckpointStore::take(hv::Vm& vm, const hv::VmEnvBase& env,
                      std::size_t log_pos)
{
    auto ck = std::make_shared<Checkpoint>();
    ck->id = next_id_++;

    const auto prev = latest();
    const auto live = live_stores(vm);
    for (std::size_t s = 0; s < ckpt::kNumStores; ++s) {
        mem::PageStore& store = *live[s];
        ckpt::StoredPageTable& slots = ck->stores[s];
        if (!prev) {
            // First checkpoint: every slot. One the guest never wrote is
            // all zeros: all of those take the pool's zero page in one
            // unread intern, and the table starts out as that page in one
            // shared chunk, so this reads, hashes and stores only the
            // touched slots.
            const std::uint64_t n = store.num_slots();
            std::uint64_t zeros = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                zeros += store.untouched(i) ? 1 : 0;
            slots = ckpt::StoredPageTable(
                n, zeros != 0 ? pool_.intern_zeros(zeros) : nullptr);
            for (std::uint64_t i = 0; i < n; ++i) {
                if (store.untouched(i))
                    continue;
                ckpt::StoredPageRef ref = pool_.intern(store.slot(i));
                if (slots.at(i) != ref)
                    slots.set(i, std::move(ref));
            }
            ck->copies += n;
        } else {
            // Incremental: share unmodified slots with the previous
            // checkpoint and copy only what was dirtied in this interval.
            // Assigning a table shares its chunks, so this is O(dirty),
            // not O(all slots).
            slots = prev->stores[s];
            for (const std::uint64_t i : store.dirty_slots())
                slots.set(i, pool_.intern(store.slot(i)));
            ck->copies += store.dirty_count();
        }
        store.clear_dirty();
    }

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
CheckpointStore::at(std::size_t i) const
{
    if (i >= checkpoints_.size())
        panic("CheckpointStore::at out of range");
    return checkpoints_[i];
}

std::string
geometry_mismatch(const Checkpoint& checkpoint, const hv::Vm& vm)
{
    const std::uint64_t slots[ckpt::kNumStores] = {
        vm.mem().num_pages(), vm.hub().disk().num_slots()};
    for (std::size_t s = 0; s < ckpt::kNumStores; ++s) {
        if (checkpoint.stores[s].size() != slots[s])
            return strcat_args(
                "checkpoint geometry ",
                checkpoint.stores[ckpt::kRamStore].size(), "+",
                checkpoint.stores[ckpt::kDiskStore].size(),
                " pages+blocks, VM geometry ", slots[ckpt::kRamStore], "+",
                slots[ckpt::kDiskStore]);
    }
    return "";
}

void
restore_checkpoint(const Checkpoint& checkpoint, hv::Vm* vm,
                   hv::VmEnvBase* env)
{
    obs::ScopedSpan span("checkpoint.restore", "cr");
    if (const std::string why = geometry_mismatch(checkpoint, *vm);
        !why.empty())
        fatal("restore_checkpoint: " + why);
    const auto live = live_stores(*vm);
    for (std::size_t s = 0; s < ckpt::kNumStores; ++s) {
        const ckpt::StoredPageTable& slots = checkpoint.stores[s];
        mem::PageStore& store = *live[s];
        // A zero slot over a slot nothing ever wrote already holds
        // zeros, so an AR's fresh VM decodes only non-zero pages. A null
        // slot only occurs in a hand-built partial image.
        for (std::uint64_t i = 0; i < slots.size(); ++i) {
            const auto& ref = slots.at(i);
            if (!ref || (ref->is_zero() && store.untouched(i)))
                continue;
            // Decode in place: compressed and raw pages restore the same
            // bytes, which the determinism gates hold bit-identical.
            ref->copy_to(store.overwrite(i));
            if (s == ckpt::kRamStore)
                vm->mem().notify_code_write(i);
        }
        store.clear_dirty();
    }

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

    std::uint64_t* const store_hash[ckpt::kNumStores] = {&digest.pages_hash,
                                                         &digest.blocks_hash};
    for (std::size_t s = 0; s < ckpt::kNumStores; ++s)
        *store_hash[s] = hash_page_table(checkpoint.stores[s]);

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
