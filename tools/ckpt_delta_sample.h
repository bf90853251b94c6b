#ifndef RSAFE_TOOLS_CKPT_DELTA_SAMPLE_H_
#define RSAFE_TOOLS_CKPT_DELTA_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "replay/checkpoint.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "replay/ckpt_store/ckpt_stream.h"

/**
 * @file
 * A small, fully seeded checkpoint stream shared by the delta-image fuzz
 * harness (fuzz_ckpt_delta.cc) and the corpus generator (make_corpus.cc):
 * the harness primes a receiver with `prefix` and decodes its input as
 * the stream's next image, and the generator writes `next` and its
 * damaged variants as the seeds. Four checkpoints of 4 pages and 2
 * blocks walk through everything a delta image can hold: a first image
 * with no base, raw and RLE pages, shared slots, a null slot, a held
 * page named in a new slot, and a key the third image retires.
 */

namespace rsafe::tools {

struct DeltaSample {
    /** Images a receiver ingests before the fuzzed one. */
    std::vector<std::vector<std::uint8_t>> prefix;
    /** The stream's real next image. */
    std::vector<std::uint8_t> next;
    /** What `next` decodes to. */
    replay::CheckpointDigest next_digest;
    /** A key `prefix` retired (naming it again is kRetiredKey). */
    std::uint64_t retired_key = 0;
};

inline DeltaSample
make_delta_sample()
{
    using replay::Checkpoint;
    using replay::ckpt::StoredPageRef;
    using replay::ckpt::StoredPageTable;

    replay::ckpt::PagePool pool;
    replay::ckpt::CheckpointStreamSender sender(&pool);
    const auto page = [&pool](std::uint8_t seed, bool runs) {
        std::vector<std::uint8_t> bytes(kPageSize, 0);
        for (std::size_t i = 0; i < kPageSize; ++i)
            bytes[i] = runs ? static_cast<std::uint8_t>(seed + i / 512)
                            : static_cast<std::uint8_t>(seed * 7 + 13 * i);
        return pool.intern(bytes.data());
    };
    const auto ram = [](Checkpoint& ck) -> StoredPageTable& {
        return ck.stores[replay::ckpt::kRamStore];
    };
    const auto disk = [](Checkpoint& ck) -> StoredPageTable& {
        return ck.stores[replay::ckpt::kDiskStore];
    };

    auto a = std::make_shared<Checkpoint>();
    a->id = 1;
    a->icount = 1000;
    a->cycles = 1500;
    a->log_pos = 3;
    a->copies = 6;
    for (std::size_t r = 0; r < a->cpu_state.regs.size(); ++r)
        a->cpu_state.regs[r] = 0x1000 + 3 * r;
    a->cpu_state.pc = 0x2048;
    a->cpu_state.sp = 0x21000;
    a->cpu_state.mode = cpu::Mode::kKernel;
    a->cpu_state.iflag = true;
    a->pending_irq = 5;
    a->blockdev.busy = true;
    a->blockdev.block = 1;
    a->blockdev.write_payload = {0xde, 0xad, 0xbe, 0xef};
    a->ras.entries.push_back(cpu::RasEntry{0x2050, false});
    a->backras[2].entries.push_back(cpu::RasEntry{0x3000, true});
    a->current_tid = 2;
    a->have_current_tid = true;
    const StoredPageRef zero = pool.intern_zero();
    const StoredPageRef raw = page(1, false);
    ram(*a) = StoredPageTable(4, zero);
    ram(*a).set(1, raw);
    ram(*a).set(3, page(2, true));
    disk(*a) = StoredPageTable(2);
    disk(*a).set(0, raw);
    disk(*a).set(1, page(3, true));  // held by `a` only: retires later

    DeltaSample out;
    out.retired_key = disk(*a).at(1)->key();
    out.prefix.push_back(sender.encode(a));

    auto b = std::make_shared<Checkpoint>(*a);
    b->id = 2;
    b->icount = 2000;
    b->pending_irq.reset();
    disk(*b).set(1, zero);
    ram(*b).set(1, page(4, false));
    a.reset();
    out.prefix.push_back(sender.encode(b));

    auto c = std::make_shared<Checkpoint>(*b);
    c->id = 3;
    c->icount = 3000;
    ram(*c).set(3, page(5, true));
    ram(*c).set(2, nullptr);
    b.reset();
    out.prefix.push_back(sender.encode(c));  // retires out.retired_key

    auto d = std::make_shared<Checkpoint>(*c);
    d->id = 4;
    d->icount = 4000;
    ram(*d).set(0, raw);             // held: named, not carried
    ram(*d).set(2, page(6, false));  // new: carried
    disk(*d).set(1, page(7, true));
    c.reset();
    out.next_digest = replay::digest_of(*d);
    out.next = sender.encode(d);
    return out;
}

}  // namespace rsafe::tools

#endif  // RSAFE_TOOLS_CKPT_DELTA_SAMPLE_H_
