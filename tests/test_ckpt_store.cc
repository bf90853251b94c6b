/** @file Checkpoint-store tests: the RLE codec, content-hash dedup and
 *  its refcounted live accounting, byte-budget recycling, restore into
 *  both page stores, the shippable-checkpoint path (ArStage booting from
 *  a deserialized standalone image with bit-identical verdicts, or
 *  refusing one that does not fit), and checkpoint streams
 *  (kCheckpointDelta images by page key, and the fleet shipping through
 *  them). */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/log.h"
#include "core/ar_stage.h"
#include "core/framework.h"
#include "fleet/fleet.h"
#include "obs/trace.h"
#include "replay/checkpoint.h"
#include "replay/checkpoint_replayer.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "replay/ckpt_store/ckpt_stream.h"
#include "replay/ckpt_store/compress.h"
#include "replay/ckpt_store/page_pool.h"
#include "rnr/recorder.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

using replay::ckpt::kDiskStore;
using replay::ckpt::kNumStores;
using replay::ckpt::kRamStore;
using replay::ckpt::rle_compress;
using replay::ckpt::rle_decompress;

workloads::WorkloadProfile
small_profile(const std::string& name = "fileio", std::uint64_t iters = 150)
{
    auto profile = workloads::benchmark_profile(name);
    profile.iterations_per_task = iters;
    return profile;
}

struct Recorded {
    std::unique_ptr<hv::Vm> vm;
    std::unique_ptr<rnr::Recorder> recorder;
};

Recorded
record(const workloads::WorkloadProfile& profile)
{
    Recorded out;
    out.vm = workloads::make_vm(profile);
    out.recorder =
        std::make_unique<rnr::Recorder>(out.vm.get(), rnr::RecorderOptions{});
    EXPECT_EQ(out.recorder->run(~static_cast<InstrCount>(0)),
              hv::RunResult::kHalted);
    return out;
}

std::vector<std::uint8_t>
round_trip(const std::vector<std::uint8_t>& raw)
{
    const auto encoded = rle_compress(raw.data(), raw.size());
    std::vector<std::uint8_t> decoded(raw.size());
    const Status status = rle_decompress(encoded.data(), encoded.size(),
                                         decoded.data(), decoded.size());
    EXPECT_TRUE(status.ok()) << status.to_string();
    return decoded;
}

// ---------------------------------------------------------------------
// The RLE codec.

TEST(Rle, RoundTripsRepresentativePages)
{
    // The zero page — the dominant content in a full checkpoint.
    std::vector<std::uint8_t> zero(kPageSize, 0);
    const auto zero_encoded = rle_compress(zero.data(), zero.size());
    EXPECT_LE(zero_encoded.size(), kPageSize / 64);
    EXPECT_EQ(round_trip(zero), zero);

    // A constant non-zero page.
    std::vector<std::uint8_t> constant(kPageSize, 0xa5);
    EXPECT_EQ(round_trip(constant), constant);

    // A runless page: compression cannot win, but must stay correct.
    std::vector<std::uint8_t> runless(kPageSize);
    for (std::size_t i = 0; i < runless.size(); ++i)
        runless[i] = static_cast<std::uint8_t>(7 * i + 13);
    EXPECT_EQ(round_trip(runless), runless);

    // Mixed content from a deterministic LCG, with runs spliced in.
    std::vector<std::uint8_t> mixed(kPageSize);
    std::uint64_t state = 0x5EED;
    for (auto& byte : mixed) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        byte = static_cast<std::uint8_t>(state >> 56);
    }
    std::memset(mixed.data() + 100, 0x11, 200);
    std::memset(mixed.data() + 2000, 0x22, 5);
    EXPECT_EQ(round_trip(mixed), mixed);
}

TEST(Rle, BoundaryRunLengths)
{
    // Runs of length kMinRun-1 (literal), kMinRun (shortest repeat
    // token), kMaxRun (longest), and kMaxRun+1 (split) all round-trip.
    for (const std::size_t run : {replay::ckpt::kMinRun - 1,
                                  replay::ckpt::kMinRun,
                                  replay::ckpt::kMaxRun,
                                  replay::ckpt::kMaxRun + 1}) {
        std::vector<std::uint8_t> buf;
        buf.push_back(0x01);
        buf.insert(buf.end(), run, 0x42);
        buf.push_back(0x02);
        EXPECT_EQ(round_trip(buf), buf) << "run length " << run;
    }
    // Literal stretches around the 128-byte token limit.
    for (const std::size_t len : {std::size_t{127}, std::size_t{128},
                                  std::size_t{129}}) {
        std::vector<std::uint8_t> buf(len);
        for (std::size_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(3 * i + 1);
        EXPECT_EQ(round_trip(buf), buf) << "literal length " << len;
    }
}

TEST(Rle, StrictDecodeRejectsDefects)
{
    std::uint8_t out[16];

    // Literal token promising more bytes than the stream holds.
    const std::uint8_t truncated_literal[] = {0x07, 0xaa};
    EXPECT_EQ(rle_decompress(truncated_literal, sizeof(truncated_literal),
                             out, sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // Repeat token with its value byte cut off.
    const std::uint8_t headless_repeat[] = {0x80};
    EXPECT_EQ(rle_decompress(headless_repeat, sizeof(headless_repeat), out,
                             sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // Stream decoding past the output size.
    const std::uint8_t overflow[] = {0xff, 0x55};  // 131-byte run
    EXPECT_EQ(rle_decompress(overflow, sizeof(overflow), out, sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // Stream producing fewer bytes than required.
    const std::uint8_t short_stream[] = {0x01, 0x10, 0x20};
    EXPECT_EQ(rle_decompress(short_stream, sizeof(short_stream), out,
                             sizeof(out))
                  .code(),
              StatusCode::kMalformedRecord);

    // The empty stream is only valid for an empty output.
    EXPECT_TRUE(rle_decompress(nullptr, 0, out, 0).ok());
    EXPECT_EQ(rle_decompress(nullptr, 0, out, sizeof(out)).code(),
              StatusCode::kMalformedRecord);
}

// ---------------------------------------------------------------------
// The dedup pool.

TEST(PagePool, DedupSharesEqualContentAndTracksLiveBytes)
{
    replay::ckpt::PagePool pool;
    std::vector<std::uint8_t> zero(kPageSize, 0);
    std::vector<std::uint8_t> other(kPageSize, 0);
    other[17] = 0x99;

    auto a = pool.intern(zero.data());
    auto b = pool.intern(zero.data());
    auto c = pool.intern(other.data());
    EXPECT_EQ(a.get(), b.get()) << "equal content must share one page";
    EXPECT_NE(a.get(), c.get());

    auto stats = pool.stats();
    EXPECT_EQ(stats.pages_interned, 3u);
    EXPECT_EQ(stats.dedup_hits, 1u);
    EXPECT_EQ(stats.bytes_raw, 3u * kPageSize);
    EXPECT_EQ(stats.live_pages, 2u);
    EXPECT_GT(stats.live_bytes, 0u);
    EXPECT_LT(stats.live_bytes, 2u * kPageSize) << "zero-ish pages RLE";

    // Decoded content is intact.
    std::vector<std::uint8_t> decoded(kPageSize);
    c->copy_to(decoded.data());
    EXPECT_EQ(decoded, other);

    // Dropping every reference returns the bytes (deleter accounting).
    a.reset();
    b.reset();
    c.reset();
    stats = pool.stats();
    EXPECT_EQ(stats.live_pages, 0u);
    EXPECT_EQ(stats.live_bytes, 0u);
}

TEST(PagePool, RleAndRawPagesDecodeLosslessly)
{
    // RLE when it shrinks the page, raw when it cannot.
    replay::ckpt::PagePool pool;
    const std::vector<std::uint8_t> runs(kPageSize, 0x5a);
    std::vector<std::uint8_t> runless(kPageSize);
    for (std::size_t i = 0; i < kPageSize; ++i)
        runless[i] = static_cast<std::uint8_t>(7 * i + 13);

    const auto rle_page = pool.intern(runs.data());
    const auto raw_page = pool.intern(runless.data());
    EXPECT_EQ(rle_page->encoding(), replay::ckpt::PageEncoding::kRle);
    EXPECT_LE(rle_page->stored_bytes(), kPageSize / 64);
    EXPECT_EQ(raw_page->encoding(), replay::ckpt::PageEncoding::kRaw);
    EXPECT_EQ(raw_page->stored_bytes(), kPageSize);

    std::vector<std::uint8_t> a(kPageSize), b(kPageSize);
    rle_page->copy_to(a.data());
    raw_page->copy_to(b.data());
    EXPECT_EQ(a, runs);
    EXPECT_EQ(b, runless);
    EXPECT_EQ(pool.stats().compressed_pages, 1u);
    EXPECT_EQ(pool.stats().bytes_stored,
              rle_page->stored_bytes() + raw_page->stored_bytes());
}

// ---------------------------------------------------------------------
// The zero-page singleton and O(touched pages) take/restore.

TEST(PagePool, PageWrittenBackToZeroInternsToTheZeroSingleton)
{
    replay::ckpt::PagePool pool;
    std::vector<std::uint8_t> page(kPageSize, 0);
    const auto untouched = pool.intern_zero();
    page[100] = 7;
    const auto dirty = pool.intern(page.data());
    page[100] = 0;  // written back to all zeros
    const auto reverted = pool.intern(page.data());

    EXPECT_EQ(reverted.get(), untouched.get());
    EXPECT_EQ(pool.intern_zero().get(), untouched.get());
    EXPECT_TRUE(untouched->is_zero());
    EXPECT_FALSE(dirty->is_zero());
    const auto stats = pool.stats();
    EXPECT_EQ(stats.pages_interned, 4u);
    EXPECT_EQ(stats.dedup_hits, 2u);
    EXPECT_EQ(stats.live_pages, 2u);
}

/** A booted VM plus an empty replay environment to checkpoint it with. */
struct BootedVm {
    std::unique_ptr<hv::Vm> vm;
    rnr::InputLog empty_log;
    std::unique_ptr<rnr::Replayer> env;

    explicit BootedVm(std::unique_ptr<hv::Vm> built) : vm(std::move(built))
    {
        env = std::make_unique<rnr::Replayer>(vm.get(), &empty_log, 0,
                                              rnr::ReplayOptions{});
    }
};

TEST(CheckpointStore, InitialTakeMatchesInterningEveryPage)
{
    BootedVm booted(workloads::make_vm(small_profile()));
    hv::Vm& vm = *booted.vm;
    replay::CheckpointStore store(0);
    const auto ck = store.take(vm, *booted.env, 0);

    // Reference: read and intern every page and block.
    replay::ckpt::PagePool pool;
    replay::Checkpoint reference = *ck;
    const mem::PageStore* const live[kNumStores] = {&vm.mem().store(),
                                                    &vm.hub().disk()};
    for (std::size_t s = 0; s < kNumStores; ++s)
        for (std::uint64_t i = 0; i < live[s]->num_slots(); ++i)
            reference.stores[s].slots.set(i, pool.intern(live[s]->slot(i)));

    const auto got = store.stats();
    const auto want = pool.stats();
    EXPECT_EQ(store.total_copies(), want.pages_interned);
    EXPECT_EQ(got.dedup_hits, want.dedup_hits);
    EXPECT_EQ(got.bytes_raw, want.bytes_raw);
    EXPECT_EQ(got.bytes_stored, want.bytes_stored);
    EXPECT_EQ(got.compressed_pages, want.compressed_pages);
    EXPECT_EQ(got.live_pages, want.live_pages);
    EXPECT_EQ(replay::ckpt::serialize_checkpoint(*ck),
              replay::ckpt::serialize_checkpoint(reference));
}

TEST(CheckpointStore, PageWrittenBackToZeroSharesTheZeroPage)
{
    BootedVm booted(workloads::make_vm(small_profile()));
    auto& mem = booted.vm->mem();
    const Addr last = mem.num_pages() - 1;
    ASSERT_TRUE(mem.store().untouched(last));

    replay::CheckpointStore store(0);
    const auto first = store.take(*booted.vm, *booted.env, 0);
    mem.write_raw(last * kPageSize, 8, 0xfeed);
    const auto second = store.take(*booted.vm, *booted.env, 1);
    mem.write_raw(last * kPageSize, 8, 0);
    const auto third = store.take(*booted.vm, *booted.env, 2);

    const auto& pages = third->stores[kRamStore].slots;
    EXPECT_NE(second->stores[kRamStore].slots.at(last),
              first->stores[kRamStore].slots.at(last));
    EXPECT_EQ(pages.at(last), first->stores[kRamStore].slots.at(last));
    EXPECT_EQ(pages.at(last), pages.at(0))
        << "the null page is untouched too: one zero page for both";
}

TEST(CheckpointRestore, FreshVmRewritesOnlyNonZeroSlots)
{
    const auto factory = workloads::vm_factory(small_profile());
    BootedVm src(factory());
    auto& src_mem = src.vm->mem();
    // A non-zero page where the fresh VM has none, and a zero page where
    // the fresh VM's boot image has content: both must be rewritten.
    const Addr last = src_mem.num_pages() - 1;
    src_mem.write_raw(last * kPageSize, 8, 0xabc);
    Addr booted_page = 0;
    while (src_mem.store().untouched(booted_page))
        ++booted_page;
    src_mem.write_block(booted_page * kPageSize,
                        std::vector<std::uint8_t>(kPageSize, 0).data(),
                        kPageSize);
    std::memset(src.vm->hub().disk().overwrite(7), 0x5a, kDiskBlockSize);

    replay::CheckpointStore store(0);
    const auto ck = store.take(*src.vm, *src.env, 0);
    ASSERT_TRUE(ck->stores[kRamStore].slots.at(booted_page)->is_zero());

    BootedVm dst(factory());
    const mem::PageStore* const live[kNumStores] = {
        &dst.vm->mem().store(), &dst.vm->hub().disk()};
    std::vector<bool> untouched[kNumStores];
    std::uint64_t epoch[kNumStores];
    for (std::size_t s = 0; s < kNumStores; ++s) {
        for (std::uint64_t i = 0; i < live[s]->num_slots(); ++i)
            untouched[s].push_back(live[s]->untouched(i));
        epoch[s] = live[s]->epoch();
    }
    ASSERT_FALSE(untouched[kRamStore][booted_page]);
    replay::restore_checkpoint(*ck, dst.vm.get(), dst.env.get());

    // Restore stamps every slot it rewrites with the current epoch.
    std::size_t rewritten[kNumStores] = {};
    for (std::size_t s = 0; s < kNumStores; ++s) {
        const auto& slots = ck->stores[s].slots;
        for (std::uint64_t i = 0; i < slots.size(); ++i) {
            const bool skip = slots.at(i)->is_zero() && untouched[s][i];
            EXPECT_EQ(live[s]->epoch_of(i) == epoch[s], !skip)
                << "store " << s << " slot " << i;
            rewritten[s] += skip ? 0 : 1;
        }
    }
    EXPECT_LT(rewritten[kRamStore], 64u) << "O(non-zero pages), not O(RAM)";
    EXPECT_EQ(rewritten[kDiskStore], 1u) << "only block 7";
    EXPECT_EQ(dst.vm->state_hash(), src.vm->state_hash());
}

TEST(CheckpointRestore, RewrittenRamPagesNotifyCodeListeners)
{
    // Restore decodes straight into the stores; every RAM page it
    // rewrites must still drop its translations, and a skipped page or
    // a disk block must not.
    struct Recorder : mem::CodeWriteListener {
        void on_code_page_touched(Addr page) override
        {
            pages.push_back(page);
        }
        std::vector<Addr> pages;
    };
    const auto factory = workloads::vm_factory(small_profile());
    BootedVm src(factory());
    src.vm->mem().write_raw(src.vm->mem().size() - 8, 8, 0xabc);
    std::memset(src.vm->hub().disk().overwrite(3), 0x5a, kDiskBlockSize);
    replay::CheckpointStore store(0);
    const auto ck = store.take(*src.vm, *src.env, 0);

    BootedVm dst(factory());
    const mem::PageStore& ram = dst.vm->mem().store();
    Recorder recorder;
    dst.vm->mem().add_code_listener(&recorder);
    const std::uint64_t epoch = ram.epoch();
    replay::restore_checkpoint(*ck, dst.vm.get(), dst.env.get());
    dst.vm->mem().remove_code_listener(&recorder);

    std::vector<Addr> rewritten;
    for (Addr p = 0; p < ram.num_slots(); ++p)
        if (ram.epoch_of(p) == epoch)
            rewritten.push_back(p);
    EXPECT_FALSE(rewritten.empty());
    EXPECT_EQ(recorder.pages, rewritten);
}

// ---------------------------------------------------------------------
// Byte-budget recycling.

TEST(CheckpointStore, ByteBudgetRecyclesOldestFirstAndKeepsNewest)
{
    auto profile = small_profile("radiosity");
    profile.rdtsc_prob = 0.0;
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});

    // Budget sized from the initial full checkpoint, with headroom for
    // roughly two deltas — later takes must push the oldest ones out.
    replay::CheckpointStore probe(
        replay::CheckpointStoreOptions{/*max_keep=*/0, /*byte_budget=*/0});
    probe.take(*vm, env, 0);
    const std::uint64_t base_bytes = probe.stats().live_bytes;

    replay::CheckpointStoreOptions options;
    options.byte_budget = base_bytes + 128;
    replay::CheckpointStore store(options);

    const std::size_t takes = 8;
    for (std::size_t i = 0; i < takes; ++i) {
        vm->cpu().run(~static_cast<Cycles>(0), vm->cpu().icount() + 500);
        // Fresh incompressible content each round: the budget must fill.
        for (int j = 0; j < 4; ++j)
            vm->mem().write_raw(0x100000 + j * kPageSize, 8,
                                0xdead0000 + i * 16 + j);
        store.take(*vm, env, i);
    }

    const auto stats = store.stats();
    EXPECT_GT(stats.budget_evictions, 0u);
    EXPECT_LT(store.size(), takes);
    // The newest checkpoint always survives...
    ASSERT_NE(store.latest(), nullptr);
    EXPECT_EQ(store.latest()->log_pos, takes - 1);
    // ...and an alarm older than the oldest survivor gets a clean null,
    // never a stale or out-of-range checkpoint.
    const auto oldest = store.at(0);
    EXPECT_EQ(store.latest_at_or_before(oldest->icount - 1), nullptr);
    EXPECT_EQ(store.latest_at_or_before(oldest->icount), oldest);
}

TEST(CheckpointStore, ImpossibleBudgetStillKeepsTheNewestCheckpoint)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});

    replay::CheckpointStoreOptions options;
    options.byte_budget = 1;  // nothing fits: budget bounds depth, not
                              // correctness
    replay::CheckpointStore store(options);
    for (int i = 0; i < 4; ++i) {
        vm->mem().write_raw(0x100000, 8, 100 + i);
        store.take(*vm, env, i);
        ASSERT_EQ(store.size(), 1u);
        EXPECT_EQ(store.latest()->log_pos, static_cast<std::size_t>(i));
    }
    EXPECT_EQ(store.stats().budget_evictions, 3u);
}

TEST(CheckpointStore, CountRecyclingGetsByteAccounting)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});

    replay::CheckpointStore store(2);
    std::uint64_t live_at_three = 0;
    for (int i = 0; i < 6; ++i) {
        // Two fresh pages per take, each unique content.
        vm->mem().write_raw(0x100000, 8, 0x1111000 + i);
        vm->mem().write_raw(0x100000 + kPageSize, 8, 0x2222000 + i);
        store.take(*vm, env, i);
        if (i == 2)
            live_at_three = store.stats().live_bytes;
    }
    const auto stats = store.stats();
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(stats.count_evictions, 4u);
    EXPECT_EQ(stats.budget_evictions, 0u);
    // Recycled checkpoints actually freed their unshared pages: live
    // bytes stay bounded instead of accumulating per take.
    EXPECT_LE(store.stats().live_bytes, live_at_three);
    // Cumulative stored bytes keep the full history (they are a
    // traffic counter, not a live gauge).
    EXPECT_GT(stats.bytes_stored, 0u);
    EXPECT_GT(stats.bytes_raw, stats.bytes_stored);
}

// ---------------------------------------------------------------------
// The standalone checkpoint image (a one-image stream).

TEST(CkptImage, WireRoundTripIsCanonicalAndRestorable)
{
    const auto profile = small_profile("fileio", 200);
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);
    const auto& log = recorded.recorder->log();

    auto cr_vm = factory();
    replay::CrOptions options;
    options.checkpoint_interval = 1'500'000;
    options.store.max_keep = 0;
    replay::CheckpointReplayer cr(cr_vm.get(), &log, options);
    ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
    ASSERT_GE(cr.checkpoints().size(), 2u);

    const auto ck = cr.checkpoints().at(cr.checkpoints().size() / 2);
    const auto image = replay::ckpt::serialize_checkpoint(*ck);

    replay::Checkpoint shipped;
    const Status status =
        replay::ckpt::deserialize_checkpoint(image, &shipped);
    ASSERT_TRUE(status.ok()) << status.to_string();

    // Same machine instant, canonical bytes, identity dropped.
    EXPECT_EQ(replay::digest_of(shipped), replay::digest_of(*ck));
    EXPECT_EQ(replay::ckpt::serialize_checkpoint(shipped), image);
    for (const replay::StoreSnapshot& store : shipped.stores) {
        EXPECT_EQ(store.source_id, 0u);
        EXPECT_EQ(store.epoch, 0u);
    }
    // The decoder flags the zero page from its encoding alone.
    const auto& pages = shipped.stores[kRamStore].slots;
    EXPECT_TRUE(pages.at(pages.size() - 1)->is_zero());
    EXPECT_FALSE(pages.at(ck->cpu_state.pc / kPageSize)->is_zero());

    // A VM restored from the *deserialized* checkpoint replays to the
    // recorded machine's exact final state — the remote-AR property.
    auto resume_vm = factory();
    rnr::Replayer resume(resume_vm.get(), &log, shipped.log_pos,
                         rnr::ReplayOptions{});
    replay::restore_checkpoint(shipped, resume_vm.get(), &resume);
    EXPECT_EQ(resume_vm->cpu().icount(), ck->icount);
    ASSERT_EQ(resume.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(resume_vm->state_hash(), recorded.vm->state_hash());
}

TEST(CkptImage, DamageLandsInStatusNeverAborts)
{
    auto profile = small_profile();
    auto vm = workloads::make_vm(profile);
    rnr::InputLog empty_log;
    rnr::Replayer env(vm.get(), &empty_log, 0, rnr::ReplayOptions{});
    replay::CheckpointStore store(1);
    const auto ck = store.take(*vm, env, 0);
    const auto image = replay::ckpt::serialize_checkpoint(*ck);

    replay::Checkpoint out;
    // Every truncation point decodes to a clean error.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, std::size_t{16},
          std::size_t{31}, image.size() / 2, image.size() - 1}) {
        const std::vector<std::uint8_t> cut(image.begin(),
                                            image.begin() + keep);
        EXPECT_FALSE(replay::ckpt::deserialize_checkpoint(cut, &out).ok())
            << "kept " << keep << " bytes";
    }
    // Bit flips across the image: header, meta, slot runs, page frames.
    for (std::size_t pos = 0; pos < image.size();
         pos += image.size() / 97 + 1) {
        std::vector<std::uint8_t> flipped = image;
        flipped[pos] ^= 0x20;
        (void)replay::ckpt::deserialize_checkpoint(flipped, &out);
    }
    // A standalone image starts from empty tables, so a slot no run
    // names would be unspecified: such an image is malformed.
    replay::Checkpoint machine;
    replay::ckpt::CheckpointDelta delta;
    ASSERT_TRUE(
        replay::ckpt::deserialize_delta(image, &machine, &delta).ok());
    const auto run =
        std::find_if(delta.runs.begin(), delta.runs.end(),
                     [](const auto& r) { return r.count > 1; });
    ASSERT_NE(run, delta.runs.end());
    --run->count;
    const Status gap = replay::ckpt::deserialize_checkpoint(
        replay::ckpt::serialize_delta(machine, delta), &out);
    EXPECT_EQ(gap.code(), StatusCode::kMalformedRecord) << gap.to_string();
    EXPECT_NE(gap.message().find("names"), std::string::npos)
        << gap.to_string();
    // A file of a retired payload kind (2, a digest; 5, a slot-map
    // image) is a kind mismatch, never misread.
    for (const std::uint16_t retired : {2, 5}) {
        rnr::wire::Header header;
        ASSERT_TRUE(rnr::wire::decode_header(image, &header).ok());
        header.kind = static_cast<rnr::wire::PayloadKind>(retired);
        std::vector<std::uint8_t> old;
        rnr::wire::encode_header(header, &old);
        old.insert(old.end(), image.begin() + rnr::wire::kHeaderSize,
                   image.end());
        EXPECT_EQ(replay::ckpt::deserialize_checkpoint(old, &out).code(),
                  StatusCode::kMalformedRecord)
            << "kind " << retired;
    }
}

// ---------------------------------------------------------------------
// Checkpoint streams: delta images by page key.

using replay::ckpt::CheckpointDelta;
using replay::ckpt::CheckpointStreamReceiver;
using replay::ckpt::CheckpointStreamSender;

/** Ship @p ck through @p sender into @p receiver; @return the decoded
 *  copy (and the image in @p image when asked). */
std::shared_ptr<const replay::Checkpoint>
ship(CheckpointStreamSender* sender, CheckpointStreamReceiver* receiver,
     std::shared_ptr<const replay::Checkpoint> ck,
     std::vector<std::uint8_t>* image = nullptr)
{
    std::vector<std::uint8_t> bytes = sender->encode(std::move(ck));
    if (image != nullptr)
        *image = bytes;
    std::shared_ptr<const replay::Checkpoint> out;
    const Status status =
        receiver->take(receiver->enqueue(std::move(bytes)), &out);
    EXPECT_TRUE(status.ok()) << status.to_string();
    return out;
}

CheckpointDelta
parse_delta(const std::vector<std::uint8_t>& image,
            replay::Checkpoint* machine = nullptr)
{
    replay::Checkpoint scratch;
    CheckpointDelta delta;
    const Status status = replay::ckpt::deserialize_delta(
        image, machine != nullptr ? machine : &scratch, &delta);
    EXPECT_TRUE(status.ok()) << status.to_string();
    return delta;
}

TEST(CkptStream, ReceiverRebuildsEveryCheckpointOfAReplayChain)
{
    // A real CR chain shipped checkpoint by checkpoint: every decoded
    // copy is the same machine instant with the same standalone image,
    // every page crosses the stream exactly once (history is unlimited,
    // so nothing retires), and a slot that did not change keeps the
    // receiver's page object (decode copies no page).
    const auto profile = small_profile("fileio", 200);
    auto recorded = record(profile);
    auto cr_vm = workloads::make_vm(profile);
    replay::CrOptions options;
    options.checkpoint_interval = 1'500'000;
    options.store.max_keep = 0;
    replay::CheckpointReplayer cr(cr_vm.get(), &recorded.recorder->log(),
                                  options);
    ASSERT_EQ(cr.run(), rnr::ReplayOutcome::kFinished);
    const std::size_t n = cr.checkpoints().size();
    ASSERT_GE(n, 3u);

    CheckpointStreamSender sender(&cr.checkpoints().pool());
    CheckpointStreamReceiver receiver;
    std::set<std::uint64_t> chain_keys;    // every non-null slot's key
    std::set<std::uint64_t> carried_keys;  // every key an image carried
    std::shared_ptr<const replay::Checkpoint> prev, prev_decoded;
    for (std::size_t i = 0; i < n; ++i) {
        const auto ck = cr.checkpoints().at(i);
        std::vector<std::uint8_t> image;
        const auto decoded = ship(&sender, &receiver, ck, &image);
        ASSERT_NE(decoded, nullptr);
        EXPECT_EQ(replay::digest_of(*decoded), replay::digest_of(*ck));
        EXPECT_EQ(replay::ckpt::serialize_checkpoint(*decoded),
                  replay::ckpt::serialize_checkpoint(*ck))
            << "checkpoint " << i;
        for (const replay::StoreSnapshot& store : ck->stores)
            for (std::uint64_t slot = 0; slot < store.slots.size(); ++slot)
                if (const auto& ref = store.slots.at(slot))
                    chain_keys.insert(ref->key());
        const CheckpointDelta delta = parse_delta(image);
        for (const auto& page : delta.carried)
            EXPECT_TRUE(carried_keys.insert(page->key()).second)
                << "key " << page->key() << " carried again by checkpoint "
                << i;
        if (prev) {
            EXPECT_EQ(delta.base_id, prev->id);
            for (std::size_t s = 0; s < kNumStores; ++s) {
                const auto& slots = ck->stores[s].slots;
                for (std::uint64_t j = 0; j < slots.size(); ++j) {
                    if (slots.at(j) != prev->stores[s].slots.at(j))
                        continue;
                    ASSERT_EQ(decoded->stores[s].slots.at(j),
                              prev_decoded->stores[s].slots.at(j))
                        << "store " << s << " slot " << j
                        << " of checkpoint " << i;
                }
            }
        }
        prev = ck;
        prev_decoded = decoded;
    }
    EXPECT_EQ(carried_keys, chain_keys);
}

/** A booted VM checkpointed into a max_keep-1 store and shipped. */
struct RecyclingStream {
    BootedVm booted{workloads::make_vm(small_profile())};
    replay::CheckpointStore store{1};
    CheckpointStreamSender sender{&store.pool()};
    CheckpointStreamReceiver receiver;
    std::vector<std::vector<std::uint8_t>> images;
    std::size_t takes = 0;

    static constexpr Addr kAddr = 0x100000;

    /** Write @p value at @p addr, take a checkpoint and ship it. */
    std::shared_ptr<const replay::Checkpoint>
    step(Word value, Addr addr = kAddr)
    {
        booted.vm->mem().write_raw(addr, 8, value);
        auto ck = store.take(*booted.vm, *booted.env, takes++);
        images.emplace_back();
        ship(&sender, &receiver, ck, &images.back());
        return ck;
    }
};

TEST(CkptStream, RecycledPagesRetireAndReturningContentShipsAnew)
{
    // With max_keep 1 the store recycles every checkpoint at the next
    // take. Content X is shipped, overwritten, and recycled: the next
    // image retires its key at the receiver. When X comes back it is a
    // new page to the pool, so it ships again under a new key.
    RecyclingStream stream;
    constexpr Addr kPage = RecyclingStream::kAddr / kPageSize;
    const std::uint64_t x_key =
        stream.step(0x5eed0001)->stores[kRamStore].slots.at(kPage)->key();
    EXPECT_TRUE(stream.receiver.holds(x_key));
    stream.step(0x5eed0002);  // X now lives only in the sender's base
    EXPECT_TRUE(stream.receiver.holds(x_key));

    const auto back = stream.step(0x5eed0001);
    const std::uint64_t new_key =
        back->stores[kRamStore].slots.at(kPage)->key();
    EXPECT_NE(new_key, x_key);
    const CheckpointDelta delta = parse_delta(stream.images.back());
    EXPECT_EQ(delta.retired, std::vector<std::uint64_t>{x_key});
    ASSERT_EQ(delta.carried.size(), 1u);
    EXPECT_EQ(delta.carried.front()->key(), new_key);
    EXPECT_FALSE(stream.receiver.holds(x_key));
    EXPECT_TRUE(stream.receiver.holds(new_key));
}

/** Re-frame @p image with the @p back-th trailing u64 of its meta frame
 *  (the counts) bumped by one. */
std::vector<std::uint8_t>
bump_meta_count(const std::vector<std::uint8_t>& image, std::size_t back)
{
    namespace wire = rnr::wire;
    wire::Header header;
    EXPECT_TRUE(wire::decode_header(image, &header).ok());
    std::vector<std::vector<std::uint8_t>> frames;
    wire::read_frames(image, header.kind,
                      [&](std::uint64_t, std::size_t offset,
                          std::size_t length) {
                          frames.emplace_back(image.begin() + offset,
                                              image.begin() + offset +
                                                  length);
                          return Status();
                      });
    ++frames[0][frames[0].size() - 8 * back];
    std::vector<std::uint8_t> out;
    wire::encode_header(header, &out);
    for (std::size_t i = 0; i < frames.size(); ++i)
        wire::append_frame(static_cast<std::uint32_t>(i), frames[i].data(),
                           frames[i].size(), &out);
    return out;
}

TEST(CkptStream, DefectsComeBackNamedAndChangeNothing)
{
    // Build a stream whose third image retires a key, then feed the
    // receiver damaged versions of the fourth: each is rejected with its
    // own Status, and none of them moves the receiver — the real fourth
    // image still decodes to the sender's checkpoint.
    RecyclingStream stream;
    constexpr Addr kPage = RecyclingStream::kAddr / kPageSize;
    const std::uint64_t retired =
        stream.step(0x5eed0001)->stores[kRamStore].slots.at(kPage)->key();
    stream.step(0x5eed0002);
    stream.step(0x5eed0003);
    ASSERT_FALSE(stream.receiver.holds(retired));

    // The fourth image: one new page, RLE-encoded, carried.
    CheckpointStreamSender& sender = stream.sender;
    stream.booted.vm->mem().write_raw(RecyclingStream::kAddr + kPageSize, 8,
                                      0x77);
    const auto fourth = stream.store.take(*stream.booted.vm,
                                          *stream.booted.env, 3);
    const std::vector<std::uint8_t> image = sender.encode(fourth);
    replay::Checkpoint machine;
    const CheckpointDelta good = parse_delta(image, &machine);
    ASSERT_EQ(good.carried.size(), 1u);
    ASSERT_EQ(good.carried.front()->encoding(),
              replay::ckpt::PageEncoding::kRle);

    const auto edited = [&](const std::function<void(CheckpointDelta*)>&
                                edit) {
        CheckpointDelta delta = good;
        edit(&delta);
        return replay::ckpt::serialize_delta(machine, delta);
    };
    const auto with_page = [](const replay::ckpt::StoredPageRef& page,
                              std::vector<std::uint8_t> bytes,
                              std::uint32_t crc) {
        return std::make_shared<const replay::ckpt::StoredPage>(
            page->encoding(), std::move(bytes), page->key(), crc);
    };
    const struct {
        const char* what;
        std::vector<std::uint8_t> bytes;
        StatusCode code;
    } cases[] = {
        {"unknown key", edited([](CheckpointDelta* d) {
             d->carried.clear();
             d->runs.front().key = 0xdead0000;
         }),
         StatusCode::kUnknownKey},
        {"retired key", edited([&](CheckpointDelta* d) {
             d->carried.clear();
             d->runs.front().key = retired;
         }),
         StatusCode::kRetiredKey},
        {"retiring an unknown key", edited([](CheckpointDelta* d) {
             d->retired.push_back(0xdead0000);
         }),
         StatusCode::kUnknownKey},
        {"wrong base", edited([](CheckpointDelta* d) { d->base_id += 1; }),
         StatusCode::kWrongBase},
        {"slot out of range", edited([](CheckpointDelta* d) {
             d->runs.back().count += 1u << 30;
         }),
         StatusCode::kMalformedRecord},
        {"carried CRC", edited([&](CheckpointDelta* d) {
             auto& page = d->carried.front();
             page = with_page(page, page->encoded(), page->crc() ^ 1);
         }),
         StatusCode::kChecksumMismatch},
        {"bad RLE", edited([&](CheckpointDelta* d) {
             auto& page = d->carried.front();
             std::vector<std::uint8_t> bytes = page->encoded();
             bytes.pop_back();
             page = with_page(page, std::move(bytes), page->crc());
         }),
         StatusCode::kMalformedRecord},
        {"lying carried count", bump_meta_count(image, 1),
         StatusCode::kMalformedRecord},
        {"lying run count", bump_meta_count(image, 2),
         StatusCode::kMalformedRecord},
        {"lying retired count", bump_meta_count(image, 3),
         StatusCode::kMalformedRecord},
    };
    for (const auto& c : cases) {
        std::shared_ptr<const replay::Checkpoint> out;
        const Status status =
            stream.receiver.take(stream.receiver.enqueue(c.bytes), &out);
        EXPECT_EQ(status.code(), c.code) << c.what << ": "
                                         << status.to_string();
        EXPECT_EQ(out, nullptr) << c.what;
    }

    std::shared_ptr<const replay::Checkpoint> out;
    const Status status =
        stream.receiver.take(stream.receiver.enqueue(image), &out);
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(replay::digest_of(*out), replay::digest_of(*fourth));
}

TEST(CkptStream, TakeIngestsEveryEarlierImageFirst)
{
    // Jobs run out of order: taking image 3 first ingests 0..2 on the
    // way, and their checkpoints wait for their own takes. Each position
    // is handed out once.
    BootedVm booted(workloads::make_vm(small_profile()));
    replay::CheckpointStore store(0);
    CheckpointStreamSender sender(&store.pool());
    CheckpointStreamReceiver receiver;
    std::vector<std::shared_ptr<const replay::Checkpoint>> sent;
    for (int i = 0; i < 4; ++i) {
        booted.vm->mem().write_raw(0x100000 + i * kPageSize, 8, 0x900 + i);
        sent.push_back(store.take(*booted.vm, *booted.env, i));
        EXPECT_EQ(receiver.enqueue(sender.encode(sent.back())),
                  static_cast<std::size_t>(i));
    }
    for (const std::size_t position : {3, 1, 0, 2}) {
        std::shared_ptr<const replay::Checkpoint> out;
        const Status status = receiver.take(position, &out);
        ASSERT_TRUE(status.ok()) << status.to_string();
        EXPECT_EQ(replay::digest_of(*out),
                  replay::digest_of(*sent[position]));
    }
    std::shared_ptr<const replay::Checkpoint> out;
    EXPECT_EQ(receiver.take(2, &out).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(receiver.take(9, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// The AR side: clean checkpoint-unavailable verdicts and booting from a
// deserialized image.

core::VmFactory
attack_factory()
{
    workloads::AttackMixOptions options;
    options.iterations_per_task = 120;
    return workloads::attack_mix(options).factory;
}

TEST(ArStage, MissingCheckpointYieldsACleanVerdictNotACrash)
{
    const auto profile = small_profile();
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);

    core::ArStage stage(factory, rnr::ReplayOptions{}, nullptr);
    replay::PendingAlarm pending;
    pending.log_index = 3;
    pending.record.type = rnr::RecordType::kRasAlarm;
    pending.checkpoint = nullptr;  // interval 0, or recycled past it

    stats::StatRegistry stats;
    const auto result =
        stage.analyze(pending, recorded.recorder->log(), &stats);
    EXPECT_FALSE(result.analysis.is_attack);
    EXPECT_EQ(result.analysis.cause,
              replay::AlarmCause::kCheckpointUnavailable);
    EXPECT_NE(result.analysis.report.find("checkpoint unavailable"),
              std::string::npos);
    EXPECT_EQ(stats.counter("ar.ckpt_unavailable").value(), 1u);
    EXPECT_EQ(stats.counter("ar.replays").value(), 0u);
}

TEST(ArStage, RejectedImageYieldsACleanVerdictNotACrash)
{
    const auto profile = small_profile();
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);

    core::ArStage stage(factory, rnr::ReplayOptions{}, nullptr);
    replay::PendingAlarm pending;
    pending.log_index = 3;
    pending.record.type = rnr::RecordType::kRasAlarm;

    stats::StatRegistry stats;
    const std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02};
    auto shipped = std::make_shared<replay::Checkpoint>();
    const Status decoded =
        replay::ckpt::deserialize_checkpoint(garbage, shipped.get());
    const auto result = stage.analyze_shipped(
        pending, decoded, std::move(shipped), recorded.recorder->log(),
        &stats);
    EXPECT_FALSE(result.analysis.is_attack);
    EXPECT_EQ(result.analysis.cause,
              replay::AlarmCause::kCheckpointUnavailable);
    EXPECT_NE(result.analysis.report.find("image rejected"),
              std::string::npos);
    EXPECT_EQ(stats.counter("ar.ckpt_unavailable").value(), 1u);
}

TEST(ArStage, ShippedCheckpointOfAnotherGeometryYieldsACleanVerdict)
{
    // The decoder accepts any geometry up to kMaxImageSlots, so an image
    // of a VM with another disk size decodes fine. Booting from it must
    // be this alarm's verdict, not a fatal that takes down every
    // tenant's results with it.
    const auto profile = small_profile();
    auto factory = workloads::vm_factory(profile);
    auto recorded = record(profile);

    auto other_profile = profile;
    other_profile.devices.disk_blocks = 8;
    BootedVm other(workloads::make_vm(other_profile));
    replay::CheckpointStore store(1);
    const auto image = replay::ckpt::serialize_checkpoint(
        *store.take(*other.vm, *other.env, 0));
    auto shipped = std::make_shared<replay::Checkpoint>();
    const Status decoded =
        replay::ckpt::deserialize_checkpoint(image, shipped.get());
    ASSERT_TRUE(decoded.ok()) << decoded.to_string();

    core::ArStage stage(factory, rnr::ReplayOptions{}, nullptr);
    replay::PendingAlarm pending;
    pending.log_index = 3;
    pending.record.type = rnr::RecordType::kRasAlarm;
    stats::StatRegistry stats;
    const auto result = stage.analyze_shipped(
        pending, decoded, std::move(shipped), recorded.recorder->log(),
        &stats);
    EXPECT_FALSE(result.analysis.is_attack);
    EXPECT_EQ(result.analysis.cause,
              replay::AlarmCause::kCheckpointUnavailable);
    // The report names both geometries.
    const std::string pages = std::to_string(other.vm->mem().num_pages());
    const std::string& report = result.analysis.report;
    EXPECT_NE(report.find("checkpoint geometry " + pages + "+8 "),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("VM geometry " + pages + "+" +
                          std::to_string(profile.devices.disk_blocks)),
              std::string::npos)
        << report;
    EXPECT_EQ(stats.counter("ar.ckpt_unavailable").value(), 1u);
    EXPECT_EQ(stats.counter("ar.replays").value(), 0u);
}

TEST(ArStage, BootsFromDeserializedCheckpointWithIdenticalVerdicts)
{
    // Run the attack mix through the framework to harvest real pending
    // alarms, then analyze each twice: from the in-memory checkpoint and
    // from its serialized wire image. Verdicts, reports, cycle costs,
    // and counter snapshots must be bit-identical.
    const auto factory = attack_factory();
    core::RnrSafeFramework framework(factory, core::FrameworkConfig{});
    auto result = framework.run();
    ASSERT_TRUE(result.alarms.attack_detected());
    ASSERT_FALSE(result.cr->pending_alarms().empty());

    core::ArStage stage(factory, rnr::ReplayOptions{}, nullptr);
    const auto& log = result.recorder->log();
    for (const auto& pending : result.cr->pending_alarms()) {
        ASSERT_NE(pending.checkpoint, nullptr);
        stats::StatRegistry direct_stats, shipped_stats;
        const auto direct = stage.analyze(pending, log, &direct_stats);

        const auto image =
            replay::ckpt::serialize_checkpoint(*pending.checkpoint);
        auto checkpoint = std::make_shared<replay::Checkpoint>();
        const Status decoded =
            replay::ckpt::deserialize_checkpoint(image, checkpoint.get());
        ASSERT_TRUE(decoded.ok()) << decoded.to_string();
        const auto shipped = stage.analyze_shipped(
            pending, decoded, std::move(checkpoint), log, &shipped_stats);

        EXPECT_EQ(shipped.analysis.cause, direct.analysis.cause);
        EXPECT_EQ(shipped.analysis.is_attack, direct.analysis.is_attack);
        EXPECT_EQ(shipped.analysis.report, direct.analysis.report);
        EXPECT_EQ(shipped.analysis.analysis_cycles,
                  direct.analysis.analysis_cycles);
        EXPECT_EQ(shipped_stats.snapshot(), direct_stats.snapshot());
    }
}

// ---------------------------------------------------------------------
// The fleet ship mode.

/** @p base with the TB engine of every VM it builds set to @p tb. */
core::VmFactory
with_tb(core::VmFactory base, bool tb)
{
    return [base = std::move(base), tb]() {
        auto vm = base();
        vm->cpu().set_tb_enabled(tb);
        return vm;
    };
}

/**
 * Two tenants, two checkpoint streams: the attack mix, and a benign
 * longjmp storm with dense checkpoints whose alarms all need the deeper
 * rerun.
 */
fleet::FleetResult
run_fleet(bool ship, bool tb)
{
    fleet::FleetOptions options;
    options.workers = 2;
    options.ship_checkpoints = ship;
    core::FrameworkConfig attack;
    attack.pipeline = core::PipelineMode::kConcurrent;
    auto profile = small_profile("apache", 200);
    profile.setjmp_prob = 0.025;
    core::FrameworkConfig benign;
    benign.pipeline = core::PipelineMode::kSerial;
    benign.cr.checkpoint_interval = 250'000;
    fleet::ReplayFleet fleet(
        {{"attack", with_tb(attack_factory(), tb), attack},
         {"longjmp", with_tb(workloads::vm_factory(profile), tb), benign}},
        options);
    return fleet.run();
}

void
expect_ship_matches_in_memory(bool tb)
{
    const auto in_memory = run_fleet(false, tb);
    const auto shipped = run_fleet(true, tb);
    ASSERT_EQ(in_memory.tenants.size(), 2u);
    ASSERT_EQ(shipped.tenants.size(), 2u);

    for (std::size_t t = 0; t < 2; ++t) {
        const auto& a = in_memory.tenants[t].result;
        const auto& b = shipped.tenants[t].result;
        const std::string& name = in_memory.tenants[t].name;
        ASSERT_EQ(a.ar_results.size(), b.ar_results.size()) << name;
        ASSERT_FALSE(a.ar_results.empty()) << name;
        for (std::size_t i = 0; i < a.ar_results.size(); ++i) {
            const auto& x = a.ar_results[i];
            const auto& y = b.ar_results[i];
            EXPECT_EQ(y.log_index, x.log_index) << name;
            EXPECT_EQ(y.analysis.cause, x.analysis.cause) << name;
            EXPECT_EQ(y.analysis.is_attack, x.analysis.is_attack) << name;
            EXPECT_EQ(y.analysis.report, x.analysis.report) << name;
            EXPECT_EQ(y.analysis.analysis_cycles, x.analysis.analysis_cycles)
                << name;
            EXPECT_EQ(y.analysis.forensic.serialize(),
                      x.analysis.forensic.serialize())
                << name;
        }
        EXPECT_EQ(b.alarms.attack_detected(), a.alarms.attack_detected());
        EXPECT_EQ(b.recorded_vm->state_hash(), a.recorded_vm->state_hash());
        EXPECT_EQ(b.cr_vm->state_hash(), a.cr_vm->state_hash());
        EXPECT_EQ(b.pipeline_stats.snapshot(), a.pipeline_stats.snapshot())
            << name;

        // Ship-mode volume is visible, but only outside the counters.
        EXPECT_EQ(in_memory.tenants[t].jobs_shipped, 0u);
        EXPECT_EQ(shipped.tenants[t].jobs_shipped, a.ar_results.size());
        EXPECT_GT(shipped.tenants[t].bytes_shipped, 0u);
    }
    EXPECT_TRUE(shipped.tenants[0].result.alarms.attack_detected());
    EXPECT_EQ(shipped.metrics.snapshot(), in_memory.metrics.snapshot());
}

TEST(FleetShip, ShippedCheckpointsMatchInMemoryJobsBitForBit)
{
    expect_ship_matches_in_memory(/*tb=*/true);
}

TEST(FleetShip, ShippedCheckpointsMatchWithTranslationBlocksOff)
{
    expect_ship_matches_in_memory(/*tb=*/false);
}

TEST(FleetShip, ShippedVolumeRepeatsExactly)
{
    // Images are encoded on each tenant's CR thread in alarm order, so
    // what a stream carries is a function of the log alone, whatever
    // the pool's schedule.
    const auto first = run_fleet(true, true);
    const auto second = run_fleet(true, true);
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(second.tenants[t].bytes_shipped,
                  first.tenants[t].bytes_shipped);
        EXPECT_EQ(second.tenants[t].jobs_shipped,
                  first.tenants[t].jobs_shipped);
    }
}

TEST(FleetShip, TracedRunShowsTheStreamCodecSpans)
{
    // Encode runs in the alarm sink and ingest on the pool workers; a
    // traced fleet run shows both where they run.
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_enabled(true);
    tracer.begin_session();
    fleet::FleetOptions options;
    options.workers = 1;
    options.ship_checkpoints = true;
    fleet::ReplayFleet fleet({{"t", attack_factory(), {}}}, options);
    const auto result = fleet.run();
    tracer.set_enabled(false);
    ASSERT_GT(result.tenants[0].jobs_shipped, 0u);
    const std::string json = tracer.export_chrome_json();
    EXPECT_NE(json.find("\"ckpt_image.encode\""), std::string::npos);
    EXPECT_NE(json.find("\"ckpt_image.decode\""), std::string::npos);
}

TEST(FleetShip, AbandonMidStreamNeverStrandsAKey)
{
    // A storm over two workers, abandoned at several points of its
    // stream. Jobs run out of order and discarded jobs leave their
    // images queued; whichever job takes next ingests every earlier
    // image first, so each job that completes boots from a checkpoint
    // that decoded, and gets the in-memory run's verdict.
    workloads::AttackMixOptions mix;
    mix.iterations_per_task = 120;
    mix.attackers = 6;
    const auto storm = workloads::attack_mix(mix).factory;
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;

    fleet::FleetOptions options;
    options.workers = 2;
    options.tenant_inflight_cap = 2;
    std::map<std::size_t, replay::AlarmAnalysis> reference;
    {
        fleet::ReplayFleet fleet({{"storm", storm, config}}, options);
        const fleet::FleetResult result = fleet.run();
        for (const auto& ar : result.tenants[0].result.ar_results)
            reference.emplace(ar.log_index, ar.analysis);
    }
    ASSERT_GE(reference.size(), 6u);

    options.ship_checkpoints = true;
    for (const int delay_ms : {10, 20, 30}) {
        fleet::ReplayFleet fleet({{"storm", storm, config}}, options);
        fleet::FleetResult result;
        std::thread runner([&] { result = fleet.run(); });
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        fleet.shutdown(fleet::ShutdownMode::kAbandon);
        runner.join();

        EXPECT_EQ(result.pool.submitted,
                  result.pool.executed + result.pool.discarded);
        const auto& tenant = result.tenants[0];
        EXPECT_EQ(tenant.result.ar_results.size(), result.pool.executed);
        for (const auto& ar : tenant.result.ar_results) {
            EXPECT_NE(ar.analysis.cause,
                      replay::AlarmCause::kCheckpointUnavailable)
                << ar.analysis.report;
            const auto it = reference.find(ar.log_index);
            ASSERT_NE(it, reference.end()) << ar.log_index;
            EXPECT_EQ(ar.analysis.cause, it->second.cause);
            EXPECT_EQ(ar.analysis.report, it->second.report);
            EXPECT_EQ(ar.analysis.analysis_cycles,
                      it->second.analysis_cycles);
        }
    }
}

}  // namespace
}  // namespace rsafe
