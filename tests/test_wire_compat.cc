/** @file The golden-corpus replay gate.
 *
 *  tests/corpus/golden holds one serialized recording per Table 3
 *  benchmark (written once by rsafe-corpus) plus manifest.txt with the
 *  machine digest each must replay to. This suite re-reads those exact
 *  bytes with the current tree and replays them on a freshly built VM:
 *  any wire-format change that breaks old images, and any determinism
 *  drift that changes where a replay lands, fails here before it ships. */

#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "replay/checkpoint.h"
#include "replay/ckpt_store/ckpt_image.h"
#include "rnr/log_io.h"
#include "rnr/replayer.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

#ifndef RSAFE_CORPUS_DIR
#error "RSAFE_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace rsafe {
namespace {

struct GoldenEntry {
    std::string name;     ///< manifest row name ("fileio", "attack")
    std::string file;     ///< file under golden/
    std::size_t records = 0;
    InstrCount icount = 0;
    std::uint64_t state_hash = 0;
};

/** gtest prints each parameter into its test's registered name; the row
 *  name keeps that name the same in every build, where the default dump
 *  of the struct's bytes would bake in heap pointers. */
void
PrintTo(const GoldenEntry& entry, std::ostream* os)
{
    *os << entry.name;
}

std::string
golden_dir()
{
    return std::string(RSAFE_CORPUS_DIR) + "/golden";
}

/** Sentinel row emitted when the manifest is missing or unreadable, so
 *  the parameterized suite still instantiates and fails loudly instead
 *  of silently running zero tests. */
constexpr const char* kMissing = "<missing>";

std::vector<GoldenEntry>
read_manifest()
{
    // Called at instantiation time (before any test runs): no gtest
    // assertions here — defects become sentinel rows the tests reject.
    std::vector<GoldenEntry> entries;
    std::ifstream in(golden_dir() + "/manifest.txt");
    if (!in) {
        entries.push_back(GoldenEntry{kMissing, "", 0, 0, 0});
        return entries;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        GoldenEntry entry;
        std::string icount, hash;
        fields >> entry.name >> entry.file >> entry.records >> icount >>
            hash;
        if (fields.fail()) {
            entries.push_back(GoldenEntry{kMissing, "", 0, 0, 0});
            continue;
        }
        entry.icount = std::stoull(icount);
        entry.state_hash = std::stoull(hash, nullptr, 16);
        entries.push_back(std::move(entry));
    }
    if (entries.empty())
        entries.push_back(GoldenEntry{kMissing, "", 0, 0, 0});
    return entries;
}

class GoldenCorpus : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(GoldenCorpus, CheckedInBytesStillReplayToTheirDigest)
{
    const GoldenEntry& entry = GetParam();
    ASSERT_NE(entry.name, kMissing)
        << "golden corpus missing or malformed: run build/tools/"
           "rsafe-corpus from the repo root to regenerate "
        << golden_dir();

    // The checked-in bytes must load with the current parser — never
    // abort, never quietly change meaning.
    std::ifstream in(golden_dir() + "/" + entry.file, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << entry.file;
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    rnr::InputLog log;
    const Status status = rnr::InputLog::deserialize(bytes, &log);
    ASSERT_TRUE(status.ok()) << status.to_string();
    ASSERT_EQ(log.size(), entry.records);

    // Replaying them on a VM built by today's tree must land exactly on
    // the digest recorded when the corpus was generated. The "attack"
    // row replays on the shared attack-mix VM; everything else on its
    // golden Table 3 profile.
    auto factory =
        entry.name == "attack"
            ? workloads::attack_mix().factory
            : workloads::vm_factory(workloads::golden_profile(entry.name));
    auto vm = factory();
    rnr::Replayer replayer(vm.get(), &log, 0, rnr::ReplayOptions{});
    ASSERT_EQ(replayer.run(), rnr::ReplayOutcome::kFinished);
    EXPECT_EQ(vm->cpu().icount(), entry.icount);
    EXPECT_EQ(vm->state_hash(), entry.state_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Manifest, GoldenCorpus, ::testing::ValuesIn(read_manifest()),
    [](const auto& info) {
        if (info.param.name == kMissing)
            return "corpus_missing_" + std::to_string(info.index);
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Golden serialized checkpoints (ckpt_manifest.txt): one standalone
// checkpoint image (a one-image kCheckpointDelta stream) per Table 3
// benchmark plus the attack mix, written by rsafe-corpus from a
// checkpointed CR replay of the golden recording. The checked-in bytes
// must keep deserializing, keep their recorded geometry and state
// digest, and stay a canonical fixed point of serialize(). Any drift in
// the image format, the RLE codec, or the page keys fails here before
// it ships.

struct GoldenCkptEntry {
    std::string name;
    std::string file;
    std::size_t bytes = 0;
    std::size_t pages = 0;
    std::size_t blocks = 0;
    std::uint64_t digest_hash = 0;
};

/** The row name, as for GoldenEntry. */
void
PrintTo(const GoldenCkptEntry& entry, std::ostream* os)
{
    *os << entry.name;
}

std::vector<GoldenCkptEntry>
read_ckpt_manifest()
{
    std::vector<GoldenCkptEntry> entries;
    std::ifstream in(golden_dir() + "/ckpt_manifest.txt");
    if (!in) {
        entries.push_back(GoldenCkptEntry{kMissing, "", 0, 0, 0, 0});
        return entries;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        GoldenCkptEntry entry;
        std::string hash;
        fields >> entry.name >> entry.file >> entry.bytes >> entry.pages >>
            entry.blocks >> hash;
        if (fields.fail()) {
            entries.push_back(GoldenCkptEntry{kMissing, "", 0, 0, 0, 0});
            continue;
        }
        entry.digest_hash = std::stoull(hash, nullptr, 16);
        entries.push_back(std::move(entry));
    }
    if (entries.empty())
        entries.push_back(GoldenCkptEntry{kMissing, "", 0, 0, 0, 0});
    return entries;
}

class GoldenCkptCorpus
    : public ::testing::TestWithParam<GoldenCkptEntry> {};

TEST_P(GoldenCkptCorpus, CheckedInImageStillDecodesToItsDigest)
{
    const GoldenCkptEntry& entry = GetParam();
    ASSERT_NE(entry.name, kMissing)
        << "golden checkpoint corpus missing or malformed: run build/"
           "tools/rsafe-corpus from the repo root to regenerate "
        << golden_dir();

    std::ifstream in(golden_dir() + "/" + entry.file, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << entry.file;
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), entry.bytes);

    replay::Checkpoint ck;
    const Status status = replay::ckpt::deserialize_checkpoint(bytes, &ck);
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(ck.stores[replay::ckpt::kRamStore].size(), entry.pages);
    EXPECT_EQ(ck.stores[replay::ckpt::kDiskStore].size(),
              entry.blocks);

    // The machine state the image decodes to is pinned by the digest
    // recorded at generation time.
    EXPECT_EQ(replay::digest_of(ck).hash(), entry.digest_hash);

    // Serialization is canonical: re-encoding the decoded checkpoint
    // must reproduce the checked-in bytes exactly.
    EXPECT_EQ(replay::ckpt::serialize_checkpoint(ck), bytes);
}

INSTANTIATE_TEST_SUITE_P(
    CkptManifest, GoldenCkptCorpus,
    ::testing::ValuesIn(read_ckpt_manifest()), [](const auto& info) {
        if (info.param.name == kMissing)
            return "corpus_missing_" + std::to_string(info.index);
        return info.param.name;
    });

TEST(GoldenCkptManifest, CoversEveryBenchmarkPlusTheAttackMix)
{
    const auto entries = read_ckpt_manifest();
    std::vector<std::string> wanted = workloads::benchmark_names();
    wanted.push_back("attack");
    for (const std::string& name : wanted) {
        bool found = false;
        for (const auto& entry : entries)
            if (entry.name == name)
                found = true;
        EXPECT_TRUE(found) << "no golden checkpoint for " << name;
    }
}

TEST(GoldenCorpusManifest, CoversEveryBenchmarkPlusTheAttackMix)
{
    const auto entries = read_manifest();
    std::vector<std::string> wanted = workloads::benchmark_names();
    wanted.push_back("attack");
    for (const std::string& name : wanted) {
        bool found = false;
        for (const auto& entry : entries)
            if (entry.name == name)
                found = true;
        EXPECT_TRUE(found) << "no golden log for " << name;
    }
}

}  // namespace
}  // namespace rsafe
