/** @file Unit tests for the statistics package and table formatter. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "stats/stats.h"
#include "stats/table.h"

namespace rsafe::stats {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketsSamples)
{
    Histogram h(100, 10);  // buckets of width 10 + overflow
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(99);
    h.sample(100);   // overflow
    h.sample(5000);  // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.bucket(10), 2u);  // overflow bucket
    EXPECT_EQ(h.max_sample(), 5000u);
}

TEST(Histogram, MeanAndSum)
{
    Histogram h(1000, 10);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(100, 4);
    h.sample(50);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.max_sample(), 0u);
    for (std::size_t i = 0; i < h.num_buckets(); ++i)
        EXPECT_EQ(h.bucket(i), 0u);
}

TEST(Histogram, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(0, 4), FatalError);
    EXPECT_THROW(Histogram(100, 0), FatalError);
}

TEST(Histogram, OutOfRangeBucketPanics)
{
    Histogram h(100, 4);
    EXPECT_THROW(h.bucket(99), PanicError);
}

TEST(StatRegistry, CreatesOnDemand)
{
    StatRegistry reg;
    EXPECT_EQ(reg.value("nothing"), 0u);
    reg.counter("hits").inc(3);
    EXPECT_EQ(reg.value("hits"), 3u);
}

TEST(StatRegistry, SnapshotSortedByName)
{
    StatRegistry reg;
    reg.counter("zeta").inc(1);
    reg.counter("alpha").inc(2);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "alpha");
    EXPECT_EQ(snap[1].first, "zeta");
}

TEST(StatRegistry, ResetAll)
{
    StatRegistry reg;
    reg.counter("a").inc(5);
    reg.counter("b").inc(7);
    reg.reset();
    EXPECT_EQ(reg.value("a"), 0u);
    EXPECT_EQ(reg.value("b"), 0u);
}

TEST(Table, RendersAlignedColumns)
{
    Table t("Demo", {"name", "value"});
    t.add_row({"x", "1"});
    t.add_row({"longer", "234"});
    const auto text = t.to_string();
    EXPECT_NE(text.find("== Demo =="), std::string::npos);
    EXPECT_NE(text.find("longer"), std::string::npos);
    // Numeric column right-aligned: "  1" has padding before it.
    EXPECT_NE(text.find("    1"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t("Demo", {"a", "b"});
    t.add_row({"1", "2"});
    EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RowArityChecked)
{
    Table t("Demo", {"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), FatalError);
}

TEST(Table, NeedsColumns)
{
    EXPECT_THROW(Table("Empty", {}), FatalError);
}

TEST(Table, FmtFormatsDoubles)
{
    EXPECT_EQ(Table::fmt(1.234, 2), "1.23");
    EXPECT_EQ(Table::fmt(1.0, 0), "1");
    EXPECT_EQ(Table::fmt(-0.5, 1), "-0.5");
}

// Thread-join aggregation: each worker mutates only its own instances
// and the coordinator folds them together afterwards.

TEST(Counter, MergeSumsValues)
{
    Counter a, b;
    a.inc(5);
    b.inc(7);
    a.merge(b);
    EXPECT_EQ(a.value(), 12u);
    EXPECT_EQ(b.value(), 7u);  // source unchanged
}

TEST(Histogram, MergeCombinesBucketsAndMoments)
{
    Histogram a(100, 4), b(100, 4);
    a.sample(10);
    a.sample(90);
    b.sample(10);
    b.sample(500);  // overflow bucket
    EXPECT_TRUE(a.merge(b).ok());
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 610u);
    EXPECT_EQ(a.max_sample(), 500u);
    EXPECT_EQ(a.bucket(0), 2u);  // both 10s
    EXPECT_EQ(a.bucket(a.num_buckets() - 1), 1u);
}

TEST(Histogram, MergeRejectsGeometryMismatchWithStatus)
{
    // Geometry mismatches are a reportable condition, not a crash: the
    // merge returns kInvalidArgument and leaves the target untouched.
    Histogram a(100, 4), b(100, 8);
    a.sample(10);
    b.sample(20);
    const Status bucket_mismatch = a.merge(b);
    EXPECT_EQ(bucket_mismatch.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(a.count(), 1u);  // nothing merged
    EXPECT_EQ(a.sum(), 10u);

    Histogram c(200, 4);
    c.sample(30);
    const Status range_mismatch = a.merge(c);
    EXPECT_EQ(range_mismatch.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(range_mismatch.message().empty());
    EXPECT_EQ(a.count(), 1u);

    Histogram d(100, 4);
    d.sample(40);
    EXPECT_TRUE(a.merge(d).ok());
    EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, PercentilesInterpolate)
{
    Histogram h(100, 10);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    // A uniform population: percentiles track the value range.
    EXPECT_NEAR(static_cast<double>(h.p50()), 50.0, 10.0);
    EXPECT_NEAR(static_cast<double>(h.p95()), 95.0, 10.0);
    EXPECT_GE(h.p99(), h.p95());
    EXPECT_GE(h.p95(), h.p50());
    EXPECT_LE(h.p99(), h.max_sample());
}

TEST(Histogram, PercentileOfOverflowClampsToMax)
{
    Histogram h(10, 2);
    h.sample(5000);
    h.sample(7000);
    EXPECT_EQ(h.p99(), 7000u);  // never invents values past the max seen
    EXPECT_EQ(h.percentile(0.0), 0u);
    Histogram empty(10, 2);
    EXPECT_EQ(empty.p50(), 0u);
}

TEST(Gauge, KeepsLastValueAndBoundedSeries)
{
    Gauge g(4);
    EXPECT_EQ(g.last(), 0u);
    for (std::uint64_t t = 1; t <= 10; ++t)
        g.set(t * 100, t);
    EXPECT_EQ(g.last(), 10u);
    EXPECT_EQ(g.observations(), 10u);
    const auto series = g.series();
    ASSERT_EQ(series.size(), 4u);  // ring kept only the newest capacity
    EXPECT_EQ(series.front().t, 700u);
    EXPECT_EQ(series.back().t, 1000u);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_LE(series[i - 1].t, series[i].t);
}

TEST(Gauge, WrapsCleanlyAtExactCapacity)
{
    // The boundary where the ring's write cursor returns to slot zero:
    // exactly capacity observations must survive in order, and the very
    // next set() must shed only the oldest sample.
    Gauge g(4);
    for (std::uint64_t t = 1; t <= 4; ++t)
        g.set(t * 10, t);
    auto series = g.series();
    ASSERT_EQ(series.size(), 4u);
    EXPECT_EQ(series.front().t, 10u);
    EXPECT_EQ(series.back().t, 40u);
    EXPECT_EQ(g.observations(), 4u);
    EXPECT_EQ(g.last(), 4u);

    g.set(50, 5);  // first overwrite lands on the oldest slot
    series = g.series();
    ASSERT_EQ(series.size(), 4u);
    EXPECT_EQ(series.front().t, 20u);
    EXPECT_EQ(series.back().t, 50u);
    EXPECT_EQ(g.observations(), 5u);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_LE(series[i - 1].t, series[i].t);
}

TEST(Gauge, MergeInterleavesByTimestamp)
{
    Gauge a(8), b(8);
    a.set(10, 1);
    a.set(30, 3);
    b.set(20, 2);
    b.set(40, 4);
    a.merge(b);
    const auto series = a.series();
    ASSERT_EQ(series.size(), 4u);
    EXPECT_EQ(series[0].t, 10u);
    EXPECT_EQ(series[1].t, 20u);
    EXPECT_EQ(series[2].t, 30u);
    EXPECT_EQ(series[3].t, 40u);
    EXPECT_EQ(a.last(), 4u);  // the latest timestamp wins
    EXPECT_EQ(a.observations(), 4u);
}

TEST(StatRegistry, MergeFoldsByNameAndOrderIsIrrelevant)
{
    StatRegistry w1, w2, order_a, order_b;
    w1.counter("ar.replays").inc(3);
    w1.counter("ar.attacks").inc(1);
    w2.counter("ar.replays").inc(2);
    w2.counter("ar.ckpt_unavailable").inc(4);

    order_a.merge(w1);
    order_a.merge(w2);
    order_b.merge(w2);
    order_b.merge(w1);

    EXPECT_EQ(order_a.value("ar.replays"), 5u);
    EXPECT_EQ(order_a.value("ar.attacks"), 1u);
    EXPECT_EQ(order_a.value("ar.ckpt_unavailable"), 4u);
    // Counter sums are commutative: any join order, identical snapshot.
    EXPECT_EQ(order_a.snapshot(), order_b.snapshot());
}

TEST(StatRegistry, MergeCarriesHistogramsAndGauges)
{
    StatRegistry worker, total;
    worker.histogram("ar.lat", 100, 4).sample(10);
    worker.gauge("lag").set(5, 50);
    EXPECT_TRUE(total.merge(worker).ok());
    EXPECT_EQ(total.histograms().at("ar.lat").count(), 1u);
    EXPECT_EQ(total.gauges().at("lag").last(), 50u);

    // A second worker with mismatched histogram geometry: the offender
    // is skipped and named, everything else still folds in.
    StatRegistry bad;
    bad.histogram("ar.lat", 100, 8).sample(20);
    bad.counter("ar.replays").inc(2);
    const Status status = total.merge(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("ar.lat"), std::string::npos);
    EXPECT_EQ(total.histograms().at("ar.lat").count(), 1u);
    EXPECT_EQ(total.value("ar.replays"), 2u);
}

TEST(StatRegistry, MergePrefixedNamesThePrefixedOffender)
{
    // The fleet folds per-tenant registries under "tenant.<name>.";
    // a geometry clash must name the offender as the *destination*
    // sees it, or the report points at a stat that does not exist.
    StatRegistry total, tenant;
    total.histogram("tenant.a.ar.lat", 100, 4).sample(10);
    tenant.histogram("ar.lat", 100, 8).sample(20);
    tenant.counter("ar.replays").inc(3);
    const Status status = total.merge_prefixed(tenant, "tenant.a.");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("tenant.a.ar.lat"), std::string::npos);
    EXPECT_EQ(total.histograms().at("tenant.a.ar.lat").count(), 1u);
    EXPECT_EQ(total.value("tenant.a.ar.replays"), 3u);
}

TEST(StatRegistry, SnapshotExcludesHistogramsAndGauges)
{
    // The concurrent pipeline's A/B determinism gate compares
    // snapshot(); scheduling-dependent series must never leak into it.
    StatRegistry reg;
    reg.counter("a").inc();
    reg.histogram("h").sample(1);
    reg.gauge("g").set(1, 1);
    EXPECT_EQ(reg.snapshot().size(), 1u);
}

}  // namespace
}  // namespace rsafe::stats
