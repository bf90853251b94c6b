/** @file Unit tests for the common utilities (RNG, logging helpers). */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/log.h"
#include "common/random.h"

namespace rsafe {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowZeroPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.next_below(0), PanicError);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.next_range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);  // all four values should appear
}

TEST(Rng, NextRangeDegenerate)
{
    Rng rng(11);
    EXPECT_EQ(rng.next_range(3, 3), 3u);
    EXPECT_THROW(rng.next_range(4, 3), PanicError);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-1.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        if (rng.chance(0.25))
            ++hits;
    EXPECT_NEAR(hits / double(trials), 0.25, 0.02);
}

TEST(Rng, NextIntervalMeanIsRoughlyRight)
{
    Rng rng(23);
    const double mean = 1000.0;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += double(rng.next_interval(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

TEST(Rng, NextIntervalAlwaysAtLeastOne)
{
    Rng rng(29);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.next_interval(0.5), 1u);
}

TEST(Log, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
    try {
        panic("boom");
    } catch (const PanicError& e) {
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
}

TEST(Log, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Log, StrcatArgsConcatenates)
{
    EXPECT_EQ(strcat_args("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(strcat_args(), "");
}

/** Property sweep: every seed yields a reproducible stream. */
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, Reproducible)
{
    Rng a(GetParam()), b(GetParam());
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST_P(RngSeedSweep, ReasonableBitBalance)
{
    Rng rng(GetParam());
    int ones = 0;
    const int samples = 1000;
    for (int i = 0; i < samples; ++i)
        ones += __builtin_popcountll(rng.next());
    // Expect roughly half the bits set over 64k bits.
    EXPECT_NEAR(ones / double(samples * 64), 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0, 1, 2, 42, 0xdeadbeef,
                                           ~0ULL, 0x123456789abcdefULL));

}  // namespace
}  // namespace rsafe
