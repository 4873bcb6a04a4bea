// Exact-byte pins for the JSON exporters whose other tests only spot-check
// substrings: timeseries_to_json, FctTable::to_json, to_json with gauges
// and non-empty histograms of both kinds, and to_chrome_trace with spans
// and tracepoints together. Each literal is the exporter's output for a
// fixed input; any change to quoting, separators or number formatting
// fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fbdcsim/analysis/fct.h"
#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/metrics.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/telemetry/tracepoint.h"

namespace fbdcsim::telemetry {
namespace {

TEST(ExporterBytes, TimeSeriesJsonIsExact) {
  TimeSeriesProbe probe{core::Duration::micros(10), 4};
  std::int64_t v = -3;
  probe.add_gauge("zeta", [&v] { return v; });
  probe.add_gauge("alpha", [&v] { return v * 1000; });
  for (int i = 0; i < 11; ++i) {
    probe.sample_tick(i * 10'000);
    v += 2;
  }
  const std::string expected =
      R"({"series":{"alpha":{"period_ns":10000,"bin_samples":4,"samples":11,"bins":[[0,4,)"
      R"(-3000,3000,3000,0],[40000,4,5000,11000,11000,32000],[80000,3,13000,17000,17000,)"
      R"(45000]]},"zeta":{"period_ns":10000,"bin_samples":4,"samples":11,"bins":[[0,4,-3,)"
      R"(3,3,0],[40000,4,5,11,11,32],[80000,3,13,17,17,45]]}}})";
  EXPECT_EQ(timeseries_to_json(probe.snapshot()), expected);
}

FlowLedgerRecord fct_record(core::HostRole role, core::Locality locality, std::int64_t bytes,
                            std::int64_t fct_ns, std::int64_t ideal_ns) {
  FlowLedgerRecord r;
  r.role = role;
  r.locality = locality;
  r.bytes = bytes;
  r.start_ns = 1'000;
  r.completed_ns = fct_ns >= 0 ? 1'000 + fct_ns : -1;
  r.ideal_ns = ideal_ns;
  return r;
}

TEST(ExporterBytes, FctTableJsonIsExact) {
  analysis::FctTable table;
  table.add(fct_record(core::HostRole::kHadoop, core::Locality::kIntraRack, 2'000'000, 90'000,
                       30'000));
  table.add(fct_record(core::HostRole::kWeb, core::Locality::kIntraRack, 1'000, 10'000, 3'000));
  table.add(fct_record(core::HostRole::kWeb, core::Locality::kIntraRack, 2'000, 12'345, 7'000));
  table.add(fct_record(core::HostRole::kWeb, core::Locality::kIntraCluster, 100'000, 40'000,
                       10'000));
  table.add(fct_record(core::HostRole::kWeb, core::Locality::kIntraRack, 1'000, -1, 0));
  const std::string expected =
      R"({"completed":4,"incomplete":1,"cells":[{"role":"Web","locality":"Intra-Rack",)"
      R"("bucket":"le4k","count":2,"bytes":3000,"fct_us":{"p50":11.172499999999999,)"
      R"("p90":12.1105,"p99":12.32155,"p999":12.342655000000001,)"
      R"("max":12.345000000000001},"slowdown":{"p50":2.5484523809523809,)"
      R"("p90":3.1763571428571433,"p99":3.3176357142857142,"p999":3.3317635714285716,)"
      R"("max":3.3333333333333335}},{"role":"Web","locality":"Intra-Cluster",)"
      R"("bucket":"le1m","count":1,"bytes":100000,"fct_us":{"p50":40,"p90":40,"p99":40,)"
      R"("p999":40,"max":40},"slowdown":{"p50":4,"p90":4,"p99":4,"p999":4,"max":4}},)"
      R"({"role":"Hadoop","locality":"Intra-Rack","bucket":"gt1m","count":1,)"
      R"("bytes":2000000,"fct_us":{"p50":90,"p90":90,"p99":90,"p999":90,"max":90},)"
      R"("slowdown":{"p50":3,"p90":3,"p99":3,"p999":3,"max":3}}]})";
  EXPECT_EQ(table.to_json(), expected);
}

TEST(ExporterBytes, SnapshotJsonWithGaugesAndHistogramsIsExact) {
  MetricsRegistry reg;
  reg.counter("sim.events", Kind::kSim).add(12);
  reg.counter("pool.tasks", Kind::kWall).add(3);
  reg.gauge("queue.depth", Kind::kSim).set(-7);
  reg.gauge("rss.bytes", Kind::kWall).set(123'456'789);
  Histogram& sim_hist = reg.histogram("fct.us", Kind::kSim);
  for (const std::int64_t x : {1, 5, 17, 300, 4'096, 70'000}) sim_hist.observe(x);
  Histogram& wall_hist = reg.histogram("task.wait_us", Kind::kWall);
  for (const std::int64_t x : {0, 2, 2, 9}) wall_hist.observe(x);
  (void)reg.histogram("empty.hist", Kind::kWall);
  const std::string expected =
      R"({"sim":{"counters":{"sim.events":12},"gauges":{"queue.depth":-7},)"
      R"("histograms":{"fct.us":{"count":6,"sum":74419,"min":1,"max":70000,)"
      R"("mean":12403.166666666666,"p50":17,"p90":69632,"p99":69632}}},)"
      R"("wall":{"counters":{"pool.tasks":3},"gauges":{"rss.bytes":123456789},)"
      R"("histograms":{"empty.hist":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,)"
      R"("p90":0,"p99":0},"task.wait_us":{"count":4,"sum":13,"min":0,"max":9,"mean":3.25,)"
      R"("p50":2,"p90":9,"p99":9}}}})";
  EXPECT_EQ(to_json(reg.snapshot()), expected);
}

TEST(ExporterBytes, ChromeTraceWithSpansAndTracepointsIsExact) {
  std::vector<TraceEvent> spans;
  spans.push_back({"capture", /*tid=*/1, /*depth=*/0, /*start_us=*/10, /*dur_us=*/500});
  spans.push_back({"shard \"web\"\\1", /*tid=*/2, /*depth=*/1, /*start_us=*/20,
                   /*dur_us=*/100});
  TracePointLog high{11, 8};
  high.record(123'000, TracePointKind::kPacketDrop, 2, 1500, 30000);
  high.record(456'789, TracePointKind::kRtoFired, 0x205, 2920, -1);
  TracePointLog low{4, 8};
  low.record(7'000, TracePointKind::kHandshakeRetry, 9, 0, 3);
  const std::string expected =
      R"({"displayTimeUnit":"ms","traceEvents":[{"name":"capture","cat":"fbdcsim",)"
      R"("ph":"X","pid":1,"tid":1,"ts":10,"dur":500,"args":{"depth":0}},)"
      R"({"name":"shard \"web\"\\1","cat":"fbdcsim","ph":"X","pid":1,"tid":2,"ts":20,)"
      R"("dur":100,"args":{"depth":1}},{"name":"handshake_retry","cat":"fbdcsim.sim",)"
      R"("ph":"i","s":"p","pid":2,"tid":4,"ts":7,"args":{"t_ns":7000,"entity":9,"a":0,)"
      R"("b":3}},{"name":"packet_drop","cat":"fbdcsim.sim","ph":"i","s":"p","pid":2,)"
      R"("tid":11,"ts":123,"args":{"t_ns":123000,"entity":2,"a":1500,"b":30000}},)"
      R"({"name":"rto_fired","cat":"fbdcsim.sim","ph":"i","s":"p","pid":2,"tid":11,)"
      R"("ts":456,"args":{"t_ns":456789,"entity":517,"a":2920,"b":-1}}]})";
  EXPECT_EQ(to_chrome_trace(spans, {high.snapshot(), low.snapshot()}), expected);
}

}  // namespace
}  // namespace fbdcsim::telemetry
