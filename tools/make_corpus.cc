#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt_delta_sample.h"
#include "fault/injector.h"
#include "obs/flight_recorder.h"
#include "obs/forensic.h"
#include "replay/checkpoint.h"
#include "replay/checkpoint_replayer.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "rnr/log_io.h"
#include "rnr/recorder.h"
#include "rnr/wire.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

/**
 * @file
 * rsafe-corpus: regenerate the checked-in wire corpus (tests/corpus).
 *
 *   rsafe-corpus [corpus-root]       default root: tests/corpus
 *
 * Emits two things:
 *
 *  - fuzz seed inputs under wire/, log/, delta/, flight/ and
 *    forensic/ — intact images of every artifact plus one
 *    deterministically-faulted variant per FaultKind, so the fuzzers
 *    start from inputs that reach deep into the decoders rather than
 *    dying at the magic check;
 *  - the golden replay corpus under golden/: one serialized recording of
 *    each Table 3 benchmark (golden_profile shape) plus manifest.txt
 *    with the machine digest each must replay to — the wire-compat CI
 *    gate (test_wire_compat) re-replays these bytes and any format or
 *    determinism drift fails the build.
 *
 * The legacy version-1 seeds (log/legacy_v1.bin, wire/legacy_v1.bin)
 * are checked in and not regenerated: that format is no longer written
 * or read, and the seeds keep the fuzzers on its kBadMagic rejection.
 *
 * Everything here is seeded; reruns produce byte-identical output.
 */

namespace rsafe {
namespace {

namespace fs = std::filesystem;
namespace wire = rnr::wire;

void
write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "rsafe-corpus: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** The wire image of a small log touching every record type (fuzz
 *  seed material). */
std::vector<std::uint8_t>
sample_log_image()
{
    rnr::InputLog log;
    for (int t = 0; t <= static_cast<int>(rnr::RecordType::kDetectorAlarm);
         ++t) {
        rnr::LogRecord record;
        record.type = static_cast<rnr::RecordType>(t);
        record.icount = 1000 + 17 * static_cast<InstrCount>(t);
        // Irq vectors and detector ids are u8.
        record.value = record.type == rnr::RecordType::kIrqInject ||
                               record.type == rnr::RecordType::kDetectorAlarm
                           ? 0xef
                           : 0xfeedbeef;
        record.addr = record.type == rnr::RecordType::kIoIn
                          ? 0x10
                          : 0xF0000008ULL;
        record.tid = 3;
        record.alarm.kind = cpu::RasAlarmKind::kUnderflow;
        record.alarm.ret_pc = 0x2048;
        record.alarm.predicted = 0x2050;
        record.alarm.actual = 0x6000;
        record.alarm.sp_after = 0x21000;
        record.alarm.kernel_mode = true;
        if (record.type == rnr::RecordType::kNicDma)
            record.payload = {1, 2, 3, 4, 5};
        log.append(std::move(record));
    }
    return log.serialize();
}

/**
 * A small hand-built checkpoint exercising every image field: a zero
 * page (RLE), an incompressible page (raw), a shared page (dedup on the
 * wire), a null slot, disk blocks, an in-flight DMA write, a pending
 * irq, and a multi-thread BackRAS. Fuzz seed material — tiny on disk,
 * deep into the decoder.
 */
replay::Checkpoint
sample_checkpoint()
{
    replay::ckpt::PagePool pool;
    replay::Checkpoint ck;
    ck.id = 5;
    ck.icount = 123456;
    ck.cycles = 234567;
    ck.log_pos = 17;
    ck.copies = 6;
    for (std::size_t r = 0; r < ck.cpu_state.regs.size(); ++r)
        ck.cpu_state.regs[r] = 0x1000 + 3 * r;
    ck.cpu_state.pc = 0x2048;
    ck.cpu_state.sp = 0x21000;
    ck.cpu_state.mode = cpu::Mode::kKernel;
    ck.cpu_state.iflag = true;
    ck.pending_irq = 5;
    ck.blockdev.busy = true;
    ck.blockdev.block = 9;
    ck.blockdev.guest_addr = 0x4000;
    ck.blockdev.write_payload = {0xde, 0xad, 0xbe, 0xef};
    ck.ras.entries.push_back(cpu::RasEntry{0x2050, false});
    ck.ras.entries.push_back(cpu::RasEntry{0x2090, true});
    ck.backras[2].entries.push_back(cpu::RasEntry{0x3000, false});
    ck.backras[7].entries.push_back(cpu::RasEntry{0x3100, true});
    ck.current_tid = 2;
    ck.have_current_tid = true;

    std::vector<std::uint8_t> page(kPageSize, 0);
    auto& pages = ck.stores[replay::ckpt::kRamStore];
    auto& blocks = ck.stores[replay::ckpt::kDiskStore];
    pages = replay::ckpt::StoredPageTable(4);
    pages.set(0, pool.intern(page.data()));  // zero page: RLE
    for (std::size_t i = 0; i < kPageSize; ++i)
        page[i] = static_cast<std::uint8_t>(7 * i + 13);  // runless: raw
    pages.set(1, pool.intern(page.data()));
    pages.set(2, pages.at(0));  // shared slot (dedup on the wire)
    // slot 3 stays null.
    blocks = replay::ckpt::StoredPageTable(2);
    blocks.set(0, pages.at(1));
    page.assign(kPageSize, 0xa5);
    blocks.set(1, pool.intern(page.data()));
    return ck;
}

/**
 * A small flight-recorder dump touching every entry kind plus shed
 * entries and escaped strings — seed material for the kFlightBox
 * decoder fuzzer.
 */
obs::FlightBox
sample_flight_box()
{
    obs::FlightBox box;
    box.reason = "attack-verdict:attacker";
    box.total_appended = 9;
    box.dropped = 4;
    const auto add = [&](obs::FlightEntryKind kind, const char* tenant,
                         const char* label, std::uint64_t value,
                         const char* detail) {
        obs::FlightEntry entry;
        entry.kind = kind;
        entry.t_ms = 100 + 10 * box.entries.size();
        entry.tenant = tenant;
        entry.label = label;
        entry.value = value;
        entry.detail = detail;
        box.entries.push_back(std::move(entry));
    };
    add(obs::FlightEntryKind::kNote, "", "boot", 0, "fleet up");
    add(obs::FlightEntryKind::kSample, "attacker", "signals", 7,
        "replay_lag=54686 queue_depth=7");
    add(obs::FlightEntryKind::kTransition, "attacker", "queue_depth", 7,
        "tenant=attacker queue_depth healthy->critical");
    add(obs::FlightEntryKind::kVerdict, "attacker", "attack", 1357,
        "quote \" backslash \\ newline \n tab \t");
    add(obs::FlightEntryKind::kShutdown, "", "abandon", 0, "");
    return box;
}

/**
 * A small forensic report with two gadgets and strings that need
 * escaping — seed material for the kForensicReport decoder fuzzer.
 */
obs::ForensicReport
sample_forensic_report()
{
    obs::ForensicReport report;
    report.log_index = 42;
    report.icount = 987654;
    report.cause = "attack";
    report.is_attack = true;
    report.kernel_mode = true;
    report.ret_pc = 0x2048;
    report.faulting_function = "k_vulnerable";
    report.function_begin = 0x2000;
    report.function_end = 0x2060;
    report.expected_target = 0x2050;
    report.call_site_function = "k_dispatch \"quoted\"";
    report.actual_target = 0x6000;
    report.target_function = "gadget\tzone";
    report.tid = 3;
    report.shadow_depth = 5;
    report.shadow_delta = -2;
    report.threads_tracked = 2;
    report.gadgets.push_back(obs::GadgetInfo{
        0x6000, obs::GadgetClass::kLoad, "ld r1, [sp+8]", "k_helper"});
    report.gadgets.push_back(obs::GadgetInfo{
        0x6100, obs::GadgetClass::kSystem, "syscall", ""});
    return report;
}

/** Write @p image plus one faulted variant per FaultKind into @p dir. */
void
emit_fault_variants(const fs::path& dir, const std::string& stem,
                    const std::vector<std::uint8_t>& image,
                    std::uint64_t seed)
{
    write_file(dir / (stem + ".bin"), image);
    fault::Injector injector(seed);
    for (const fault::FaultKind kind : fault::kAllFaultKinds) {
        std::vector<std::uint8_t> copy = image;
        fault::FaultReport report;
        if (!injector.inject(kind, &copy, &report).ok())
            continue;  // image shape cannot express this fault
        write_file(dir / (stem + "_" + fault_kind_name(kind) + ".bin"),
                   copy);
    }
}

/** Re-encode the kCheckpointDelta @p image after @p edit changes it. */
std::vector<std::uint8_t>
edit_delta(const std::vector<std::uint8_t>& image,
           const std::function<void(replay::ckpt::CheckpointDelta*)>& edit)
{
    replay::Checkpoint machine;
    replay::ckpt::CheckpointDelta delta;
    if (!replay::ckpt::deserialize_delta(image, &machine, &delta).ok()) {
        std::fprintf(stderr, "rsafe-corpus: sample delta does not decode\n");
        std::exit(1);
    }
    edit(&delta);
    return replay::ckpt::serialize_delta(machine, delta);
}

/** Re-frame @p image with the last u64 field @p back of frame 0 (its
 *  trailing counts) bumped by one: a count that lies. */
std::vector<std::uint8_t>
bump_meta_count(const std::vector<std::uint8_t>& image, std::size_t back)
{
    wire::Header header;
    std::vector<std::vector<std::uint8_t>> frames;
    if (!wire::decode_header(image, &header).ok() ||
        !wire::read_frames(image, header.kind,
                           [&](std::uint64_t, std::size_t offset,
                               std::size_t length) {
                               frames.emplace_back(
                                   image.begin() + offset,
                                   image.begin() + offset + length);
                               return Status();
                           })
             .intact()) {
        std::fprintf(stderr, "rsafe-corpus: sample delta does not frame\n");
        std::exit(1);
    }
    ++frames[0][frames[0].size() - 8 * back];
    std::vector<std::uint8_t> out;
    wire::encode_header(header, &out);
    for (std::size_t i = 0; i < frames.size(); ++i)
        wire::append_frame(static_cast<std::uint32_t>(i), frames[i].data(),
                           frames[i].size(), &out);
    return out;
}

std::string
hex64(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

}  // namespace
}  // namespace rsafe

int
main(int argc, char** argv)
{
    using namespace rsafe;

    const fs::path root = argc > 1 ? fs::path(argv[1]) : "tests/corpus";
    for (const char* sub :
         {"wire", "log", "delta", "flight", "forensic", "golden"})
        fs::create_directories(root / sub);

    // ---- fuzz seeds -------------------------------------------------
    const auto small_image = sample_log_image();
    emit_fault_variants(root / "log", "records", small_image, 0x5EED0001);
    write_file(root / "log" / "empty.bin", rnr::InputLog().serialize());

    // delta/: checkpoint-stream images for the delta fuzzer, which
    // decodes each as the next image of the sample stream and as a
    // standalone checkpoint: the real one plus one faulted variant per
    // kind, the stream's first image (a wrong base there), one image per
    // defect the receiver names, and the export images of the rich
    // sample checkpoint (plus one faulted variant per kind) and of a
    // degenerate empty checkpoint (0 pages, 0 blocks).
    const auto export_image =
        replay::ckpt::serialize_checkpoint(sample_checkpoint());
    {
        namespace ckpt = replay::ckpt;
        const tools::DeltaSample sample = tools::make_delta_sample();
        const fs::path dir = root / "delta";
        emit_fault_variants(dir, "delta", sample.next, 0x5EED0006);
        write_file(dir / "first.bin", sample.prefix.front());
        write_file(root / "wire" / "ckpt_delta.bin", sample.next);
        write_file(dir / "delta_unknown-key.bin",
                   edit_delta(sample.next, [](ckpt::CheckpointDelta* d) {
                       d->runs.front().key = 0xdead0000;
                   }));
        write_file(dir / "delta_retired-key.bin",
                   edit_delta(sample.next,
                              [&sample](ckpt::CheckpointDelta* d) {
                                  d->runs.front().key = sample.retired_key;
                              }));
        write_file(dir / "delta_wrong-base.bin",
                   edit_delta(sample.next, [](ckpt::CheckpointDelta* d) {
                       d->base_id = 7;
                   }));
        write_file(dir / "delta_slot-range.bin",
                   edit_delta(sample.next, [](ckpt::CheckpointDelta* d) {
                       d->runs.back().count += 100;
                   }));
        write_file(dir / "delta_crc.bin",
                   edit_delta(sample.next, [](ckpt::CheckpointDelta* d) {
                       const ckpt::StoredPage& page = *d->carried.front();
                       d->carried.front() =
                           std::make_shared<const ckpt::StoredPage>(
                               page.encoding(), page.encoded(), page.key(),
                               page.crc() ^ 1);
                   }));
        write_file(dir / "delta_bad-rle.bin",
                   edit_delta(sample.next, [](ckpt::CheckpointDelta* d) {
                       for (auto& ref : d->carried) {
                           if (ref->encoding() != ckpt::PageEncoding::kRle)
                               continue;
                           std::vector<std::uint8_t> bytes = ref->encoded();
                           bytes.pop_back();
                           ref = std::make_shared<const ckpt::StoredPage>(
                               ref->encoding(), std::move(bytes),
                               ref->key(), ref->crc());
                           return;
                       }
                   }));
        write_file(dir / "delta_lying-carried.bin",
                   bump_meta_count(sample.next, 1));
        write_file(dir / "delta_lying-runs.bin",
                   bump_meta_count(sample.next, 2));
        emit_fault_variants(dir, "export", export_image, 0x5EED0004);
        write_file(dir / "export_empty.bin",
                   ckpt::serialize_checkpoint(replay::Checkpoint()));
    }

    // flight/: flight-recorder dumps for the black-box fuzzer — every
    // entry kind, one faulted variant per kind, and an empty box.
    const auto flight_image = sample_flight_box().serialize();
    emit_fault_variants(root / "flight", "box", flight_image, 0x5EED0005);
    write_file(root / "flight" / "empty.bin",
               obs::FlightBox().serialize());

    // forensic/: forensic reports for the report fuzzer — the sample
    // plus one faulted variant per kind.
    emit_fault_variants(root / "forensic", "report",
                        sample_forensic_report().serialize(), 0x5EED0007);

    // wire/ mixes the payload kinds (the raw walker sees everything).
    emit_fault_variants(root / "wire", "log", small_image, 0x5EED0003);
    write_file(root / "wire" / "ckpt_image.bin", export_image);
    write_file(root / "wire" / "empty.bin", rnr::InputLog().serialize());

    // ---- golden replay corpus ---------------------------------------
    std::ostringstream manifest;
    manifest << "# benchmark  file  records  icount  final_state_hash\n";
    // Golden serialized checkpoints ride in their own manifest (different
    // row shape): the image size, the chain geometry, and the hash() of
    // the CheckpointDigest the image must deserialize to.
    std::ostringstream ckpt_manifest;
    ckpt_manifest << "# benchmark  file  bytes  pages  blocks"
                     "  digest_hash\n";
    const auto emit_golden_ckpt = [&](const std::string& name,
                                      const rnr::InputLog& log,
                                      const auto& factory) {
        auto cr_vm = factory();
        replay::CrOptions cr_options;
        cr_options.checkpoint_interval = 50'000;
        replay::CheckpointReplayer cr(cr_vm.get(), &log, cr_options);
        if (cr.run() != rnr::ReplayOutcome::kFinished) {
            std::fprintf(stderr,
                         "rsafe-corpus: golden CR replay of %s failed\n",
                         name.c_str());
            std::exit(1);
        }
        const auto ck = cr.checkpoints().latest();
        const auto image = replay::ckpt::serialize_checkpoint(*ck);
        write_file(root / "golden" / (name + ".ckpt"), image);
        ckpt_manifest << name << " " << name << ".ckpt " << image.size();
        for (const replay::ckpt::StoredPageTable& store : ck->stores)
            ckpt_manifest << " " << store.size();
        ckpt_manifest << " " << hex64(replay::digest_of(*ck).hash()) << "\n";
    };
    for (const std::string& name : workloads::benchmark_names()) {
        const auto profile = workloads::golden_profile(name);
        auto factory = workloads::vm_factory(profile);
        auto vm = factory();
        rnr::Recorder recorder(vm.get(), rnr::RecorderOptions{});
        const auto result = recorder.run(~static_cast<InstrCount>(0));
        if (result != hv::RunResult::kHalted) {
            std::fprintf(stderr,
                         "rsafe-corpus: golden run of %s did not halt\n",
                         name.c_str());
            return 1;
        }
        const auto image = recorder.log().serialize();
        const std::string file = name + ".rnrlog";
        write_file(root / "golden" / file, image);
        manifest << name << " " << file << " " << recorder.log().size()
                 << " " << vm->cpu().icount() << " "
                 << hex64(vm->state_hash()) << "\n";
        emit_golden_ckpt(name, recorder.log(), factory);
    }
    // The golden attack recording: the shared attack mix (one attacker,
    // test-sized). rsafe-report and test_obs replay these bytes and must
    // recover the same forensics (k_vulnerable, attacker tid, hijacked
    // return) forever.
    {
        const auto mix = workloads::attack_mix();
        auto vm = mix.factory();
        rnr::Recorder recorder(vm.get(), rnr::RecorderOptions{});
        const auto result = recorder.run(~static_cast<InstrCount>(0));
        if (result != hv::RunResult::kHalted) {
            std::fprintf(stderr,
                         "rsafe-corpus: golden attack run did not halt\n");
            return 1;
        }
        write_file(root / "golden" / "attack.rnrlog",
                   recorder.log().serialize());
        manifest << "attack attack.rnrlog " << recorder.log().size() << " "
                 << vm->cpu().icount() << " " << hex64(vm->state_hash())
                 << "\n";
        emit_golden_ckpt("attack", recorder.log(), mix.factory);
    }

    const std::string text = manifest.str();
    write_file(root / "golden" / "manifest.txt",
               std::vector<std::uint8_t>(text.begin(), text.end()));
    const std::string ckpt_text = ckpt_manifest.str();
    write_file(root / "golden" / "ckpt_manifest.txt",
               std::vector<std::uint8_t>(ckpt_text.begin(),
                                         ckpt_text.end()));

    std::printf("rsafe-corpus: corpus written under %s\n",
                root.c_str());
    return 0;
}
