// Observability opt-in: what the FBDCSIM_OBS env knob selects.
//
//   off      (default) no probes, no tracepoints — runs stay byte-identical
//            to pre-observability releases.
//   on       time-series probe + flight recorder active; results surface in
//            RackSimResult / BenchReport.
//   dump     like `on`, and every simulation dumps its flight recorder to
//            stderr when the run completes.
//   dump:N   like `dump` with a flight-recorder capacity of N records
//            (1..1048576).
//   flows    like `on`, plus the per-flow FlowLedger (telemetry/flow_ledger.h):
//            transfer lifecycle records with causal drop attribution, exported
//            as flows.jsonl / the BenchReport fct section.
//   flows:N  like `flows` with a ledger ring capacity of N records
//            (1..1048576).
//
// Malformed values follow the same contract as FBDCSIM_FAULTS /
// FBDCSIM_BENCH_SECONDS: one stderr diagnostic, then the documented default
// (off) — never a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fbdcsim/core/time.h"

namespace fbdcsim::telemetry {

/// Time-series sampling cadence (the paper's FBOSS counter period).
inline constexpr core::Duration kProbePeriod = core::Duration::micros(10);

struct ObsConfig {
  enum class Mode : std::uint8_t { kOff, kOn, kDump };

  Mode mode = Mode::kOff;
  /// Flight-recorder ring capacity (last N tracepoints retained).
  std::size_t flight_recorder = 256;
  /// Bins retained per series before downsampling doubles the bin width.
  std::size_t series_capacity = 512;
  /// Per-flow lifecycle ledger (FBDCSIM_OBS=flows). Off by default — runs
  /// without the opt-in stay byte-identical to pre-ledger releases.
  bool flows = false;
  /// FlowLedger ring capacity (last N closed transfers retained).
  std::size_t flow_capacity = 4096;

  [[nodiscard]] bool enabled() const { return mode != Mode::kOff; }
};

[[nodiscard]] const char* to_string(ObsConfig::Mode mode);

/// Parses an FBDCSIM_OBS value (`off|on|dump[:N]|flows[:N]`, lowercase). Returns
/// std::nullopt on malformed input and, when `error` is non-null, explains
/// why.
[[nodiscard]] std::optional<ObsConfig> parse_obs_spec(std::string_view spec,
                                                      std::string* error = nullptr);

/// FBDCSIM_OBS resolved against the contract above: unset -> off; malformed
/// -> off with one stderr diagnostic per call.
[[nodiscard]] ObsConfig obs_config_from_env();

}  // namespace fbdcsim::telemetry
