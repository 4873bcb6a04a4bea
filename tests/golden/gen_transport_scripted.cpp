// Golden generator for the transport golden gates.
//
// Prints one golden_line() per (role, faults) preset — the order-sensitive
// fingerprint, trace length, and event count of a golden_preset() rack
// capture (tests/support/rack_fingerprint.h). The flag picks the transport
// configuration; each committed golden is this tool's output for one flag:
//
//   (none)     transport = kScripted       transport_scripted.golden.txt
//   --tcp      kTcp, default TcpParams     transport_newreno.golden.txt
//   --sack     kTcp, recovery = kSack      transport_recovery_sack.golden.txt
//   --dctcp    kTcp, cc = kDctcp,          transport_dctcp.golden.txt
//              rtt_mode = kTopology
//
// --obs prints one obs_golden_line() per (TCP variant, role, faults)
// instead: the digests of the flows and tracepoint JSONL that
// obs_golden_preset() exports (obs_transport.golden.txt).
//
// TransportScriptedGolden, DctcpGolden, SackGolden, and ObsGolden re-run
// the presets and compare line by line (tests/support/golden_gate.h).
// Regenerate only when a change deliberately moves the corresponding path
// (tests/golden/README.md):
//
//   cmake --build build --target gen_transport_scripted
//   ./build/tests/gen_transport_scripted --tcp > tests/golden/transport_newreno.golden.txt
#include <cstdio>
#include <cstring>

#include "../support/rack_fingerprint.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/workload/presets.h"

using namespace fbdcsim;

namespace {

int print_obs_golden(const topology::Fleet& fleet, const faults::FaultPlan& heavy) {
  for (const char* variant : tests::kObsGoldenVariants) {
    for (const core::HostRole role : tests::kGoldenRoles) {
      for (const bool faulted : {false, true}) {
        workload::RackSimulation rack{
            fleet, tests::obs_golden_preset(fleet, variant, role, faulted ? &heavy : nullptr)};
        std::printf("%s\n", tests::obs_golden_line(variant, role, faulted, rack.run()).c_str());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "";
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  if (std::strcmp(mode, "--obs") == 0) return print_obs_golden(fleet, heavy);
  const bool tcp = std::strcmp(mode, "--tcp") == 0 || std::strcmp(mode, "--sack") == 0 ||
                   std::strcmp(mode, "--dctcp") == 0;
  for (const core::HostRole role : tests::kGoldenRoles) {
    for (const bool faulted : {false, true}) {
      workload::RackSimConfig cfg =
          tests::golden_preset(fleet, role, faulted ? &heavy : nullptr);
      if (tcp) tests::apply_tcp_variant(cfg, mode + 2);  // "--sack" -> "sack"
      workload::RackSimulation rack{fleet, cfg};
      std::printf("%s\n", tests::golden_line(role, faulted, rack.run()).c_str());
    }
  }
  return 0;
}
