#include "fbdcsim/analysis/fct.h"

#include "fbdcsim/telemetry/json.h"

namespace fbdcsim::analysis {

namespace {

/// %.17g round-trips doubles exactly; quantiles of identical sample sets
/// therefore render identically, which the determinism harness relies on.
void write_quantiles(telemetry::JsonWriter& w, const char* key, const core::Cdf& cdf) {
  w.key(key)
      .begin_object()
      .field("p50", cdf.quantile(0.50))
      .field("p90", cdf.quantile(0.90))
      .field("p99", cdf.quantile(0.99))
      .field("p999", cdf.quantile(0.999))
      .field("max", cdf.max())
      .end_object();
}

}  // namespace

int fct_size_bucket(std::int64_t bytes) {
  if (bytes <= 4 * 1024) return 0;
  if (bytes <= 64 * 1024) return 1;
  if (bytes <= 1024 * 1024) return 2;
  return 3;
}

const char* fct_size_bucket_name(int bucket) {
  switch (bucket) {
    case 0:
      return "le4k";
    case 1:
      return "le64k";
    case 2:
      return "le1m";
    default:
      return "gt1m";
  }
}

void FctTable::add(const telemetry::FlowLedgerRecord& record) {
  if (!record.completed()) {
    ++incomplete_;
    return;
  }
  ++completed_;
  FctCell& c = cells_[index(static_cast<int>(record.role), static_cast<int>(record.locality),
                            fct_size_bucket(record.bytes))];
  c.fct_us.add(static_cast<double>(record.fct_ns()) / 1000.0);
  c.slowdown.add(record.slowdown());
  ++c.count;
  c.bytes += record.bytes;
}

void FctTable::add_all(std::span<const telemetry::FlowLedgerRecord> records) {
  for (const telemetry::FlowLedgerRecord& r : records) add(r);
}

const FctCell& FctTable::cell(core::HostRole role, core::Locality locality,
                              int size_bucket) const {
  return cells_[index(static_cast<int>(role), static_cast<int>(locality), size_bucket)];
}

FctCell FctTable::role_cell(core::HostRole role) const {
  FctCell out;
  for (int loc = 0; loc < core::kNumLocalities; ++loc) {
    for (int b = 0; b < kNumFctSizeBuckets; ++b) {
      out.merge(cells_[index(static_cast<int>(role), loc, b)]);
    }
  }
  return out;
}

FctCell FctTable::overall() const {
  FctCell out;
  for (const FctCell& c : cells_) out.merge(c);
  return out;
}

std::string FctTable::to_json() const {
  std::string out;
  telemetry::JsonWriter w{out};
  w.begin_object()
      .field("completed", completed_)
      .field("incomplete", incomplete_)
      .key("cells")
      .begin_array();
  for (int role = 0; role < kNumFctRoles; ++role) {
    for (int loc = 0; loc < core::kNumLocalities; ++loc) {
      for (int b = 0; b < kNumFctSizeBuckets; ++b) {
        const FctCell& c = cells_[index(role, loc, b)];
        if (c.count == 0) continue;
        w.begin_object()
            .field("role", core::to_string(static_cast<core::HostRole>(role)))
            .field("locality", core::to_string(static_cast<core::Locality>(loc)))
            .field("bucket", fct_size_bucket_name(b))
            .field("count", c.count)
            .field("bytes", c.bytes);
        write_quantiles(w, "fct_us", c.fct_us);
        write_quantiles(w, "slowdown", c.slowdown);
        w.end_object();
      }
    }
  }
  w.end_array().end_object();
  return out;
}

}  // namespace fbdcsim::analysis
