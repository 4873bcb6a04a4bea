#include "fbdcsim/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::telemetry {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, SetOverwritesAndMaxKeepsHighWater) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  g.update_max(10);
  EXPECT_EQ(g.value(), 10);
  g.update_max(5);  // lower: no change
  EXPECT_EQ(g.value(), 10);
}

TEST(HistogramTest, BinsAreExactBelowSixteen) {
  for (std::int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bin_for(v), static_cast<std::size_t>(v)) << v;
    EXPECT_DOUBLE_EQ(Histogram::bin_midpoint(Histogram::bin_for(v)),
                     static_cast<double>(v))
        << v;
  }
}

TEST(HistogramTest, BinForIsMonotonicAndMidpointStaysClose) {
  std::size_t prev = 0;
  for (std::int64_t v = 1; v < (1ll << 40); v = v * 5 / 4 + 1) {
    const std::size_t bin = Histogram::bin_for(v);
    EXPECT_GE(bin, prev) << v;
    EXPECT_LT(bin, Histogram::kBins) << v;
    prev = bin;
    // 8 sub-buckets per octave bounds the relative error by 12.5% (plus
    // half a bucket of midpoint offset).
    const double mid = Histogram::bin_midpoint(bin);
    EXPECT_NEAR(mid, static_cast<double>(v), static_cast<double>(v) * 0.125 + 1.0) << v;
  }
  EXPECT_EQ(Histogram::bin_for(-5), Histogram::bin_for(0));
}

TEST(HistogramTest, SnapshotCarriesStatsAndQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", Kind::kWall);
  for (std::int64_t v = 1; v <= 1000; ++v) h.observe(v);

  const Snapshot snap = reg.snapshot();
  const auto* hv = snap.histogram("h");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->kind, Kind::kWall);
  EXPECT_EQ(hv->count, 1000);
  EXPECT_DOUBLE_EQ(hv->sum, 1000.0 * 1001.0 / 2.0);
  EXPECT_EQ(hv->min, 1);
  EXPECT_EQ(hv->max, 1000);
  EXPECT_NEAR(hv->mean(), 500.5, 1e-9);
  EXPECT_NEAR(hv->quantile(0.5), 500.0, 500.0 * 0.13);
  EXPECT_NEAR(hv->quantile(0.99), 990.0, 990.0 * 0.13);
  EXPECT_DOUBLE_EQ(hv->quantile(0.0), 1.0);    // clamped to min
  EXPECT_DOUBLE_EQ(hv->quantile(1.0), 1000.0); // clamped to max
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x", Kind::kSim);
  Counter& b = reg.counter("x", Kind::kSim);
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2);
}

TEST(RegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.counter("x", Kind::kSim);
  EXPECT_THROW((void)reg.counter("x", Kind::kWall), std::invalid_argument);
  (void)reg.gauge("g", Kind::kWall);
  EXPECT_THROW((void)reg.gauge("g", Kind::kSim), std::invalid_argument);
  (void)reg.histogram("h", Kind::kWall);
  EXPECT_THROW((void)reg.histogram("h", Kind::kSim), std::invalid_argument);
}

TEST(RegistryTest, TypeCollisionThrows) {
  MetricsRegistry reg;
  (void)reg.counter("x", Kind::kSim);
  EXPECT_THROW((void)reg.gauge("x", Kind::kSim), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("x", Kind::kSim), std::invalid_argument);
}

TEST(RegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c", Kind::kSim);
  Gauge& g = reg.gauge("g", Kind::kWall);
  Histogram& h = reg.histogram("h", Kind::kWall);
  c.add(5);
  g.set(5);
  h.observe(5);
  reg.reset();
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c")->value, 0);
  EXPECT_EQ(snap.gauge("g")->value, 0);
  EXPECT_EQ(snap.histogram("h")->count, 0);
  c.add(1);  // handle still live
  EXPECT_EQ(c.value(), 1);
}

TEST(SnapshotTest, LookupReturnsNullWhenAbsent) {
  MetricsRegistry reg;
  (void)reg.counter("present", Kind::kSim);
  const Snapshot snap = reg.snapshot();
  EXPECT_NE(snap.counter("present"), nullptr);
  EXPECT_EQ(snap.counter("absent"), nullptr);
  EXPECT_EQ(snap.gauge("absent"), nullptr);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

Snapshot make_snapshot(std::int64_t c, std::int64_t g, std::int64_t h_lo,
                       std::int64_t h_hi, const char* extra = nullptr) {
  MetricsRegistry reg;
  reg.counter("c", Kind::kSim).add(c);
  reg.gauge("g", Kind::kWall).set(g);
  Histogram& h = reg.histogram("h", Kind::kWall);
  for (std::int64_t v = h_lo; v <= h_hi; ++v) h.observe(v);
  if (extra != nullptr) reg.counter(extra, Kind::kSim).add(1);
  return reg.snapshot();
}

TEST(SnapshotTest, MergeSumsCountersMaxesGaugesCombinesHistograms) {
  Snapshot a = make_snapshot(10, 3, 1, 5);
  const Snapshot b = make_snapshot(32, 9, 6, 10, "only_in_b");
  a.merge(b);
  EXPECT_EQ(a.counter("c")->value, 42);
  EXPECT_EQ(a.counter("only_in_b")->value, 1);
  EXPECT_EQ(a.gauge("g")->value, 9);
  const auto* h = a.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 10);
  EXPECT_EQ(h->min, 1);
  EXPECT_EQ(h->max, 10);
  EXPECT_DOUBLE_EQ(h->sum, 55.0);
}

TEST(SnapshotTest, MergeIsAssociativeAndCommutative) {
  const Snapshot s1 = make_snapshot(1, 5, 1, 3, "a");
  const Snapshot s2 = make_snapshot(2, 9, 10, 12, "b");
  const Snapshot s3 = make_snapshot(4, 7, 100, 104, "c");

  Snapshot left = s1;   // (s1 + s2) + s3
  left.merge(s2);
  left.merge(s3);
  Snapshot right = s2;  // s1 + (s2 + s3)
  right.merge(s3);
  Snapshot right_total = s1;
  right_total.merge(right);
  Snapshot reversed = s3;  // s3 + s2 + s1
  reversed.merge(s2);
  reversed.merge(s1);

  // to_json is byte-stable for identical snapshots, so it doubles as a
  // deep-equality probe.
  EXPECT_EQ(to_json(left), to_json(right_total));
  EXPECT_EQ(to_json(left), to_json(reversed));
}

TEST(SnapshotTest, MergeKindMismatchThrows) {
  MetricsRegistry ra, rb;
  (void)ra.counter("x", Kind::kSim);
  (void)rb.counter("x", Kind::kWall);
  Snapshot a = ra.snapshot();
  EXPECT_THROW(a.merge(rb.snapshot()), std::invalid_argument);
}

TEST(SnapshotTest, MergeIntoEmptyHistogramPreservesIdentity) {
  MetricsRegistry ra, rb;
  (void)ra.histogram("h", Kind::kWall);  // registered, never observed
  rb.histogram("h", Kind::kWall).observe(7);
  Snapshot a = ra.snapshot();
  a.merge(rb.snapshot());
  const auto* h = a.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->name, "h");
  EXPECT_EQ(h->kind, Kind::kWall);
  EXPECT_EQ(h->count, 1);
  EXPECT_EQ(h->min, 7);
  EXPECT_EQ(h->max, 7);
}

// The macro layer. Under -DFBDCSIM_TELEMETRY=OFF the macros expand to
// nothing and the registry stays untouched; otherwise each one records.
TEST(TelemetryTest, MacrosAreNoOpsWhileDisabled) {
  FBDCSIM_T_COUNTER(counter, "test.macro.counter", Sim);
  FBDCSIM_T_GAUGE(gauge, "test.macro.gauge", Wall);
  FBDCSIM_T_HISTOGRAM(hist, "test.macro.hist", Wall);
  FBDCSIM_T_ADD(counter, 1);
  FBDCSIM_T_MAX(gauge, 2);
  FBDCSIM_T_OBSERVE(hist, 3);

  const Snapshot snap = MetricsRegistry::global().snapshot();
#if FBDCSIM_TELEMETRY_ENABLED
  EXPECT_EQ(snap.counter("test.macro.counter")->value, 1);
  EXPECT_EQ(snap.gauge("test.macro.gauge")->value, 2);
  EXPECT_EQ(snap.histogram("test.macro.hist")->count, 1);
#else
  EXPECT_EQ(snap.counter("test.macro.counter"), nullptr);
  EXPECT_EQ(snap.gauge("test.macro.gauge"), nullptr);
  EXPECT_EQ(snap.histogram("test.macro.hist"), nullptr);
#endif
}

}  // namespace
}  // namespace fbdcsim::telemetry
