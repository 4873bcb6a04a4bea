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
// TransportScriptedGolden, DctcpGolden, and SackGolden re-run the presets
// and compare line by line (tests/support/golden_gate.h). Regenerate only
// when a change deliberately moves the corresponding path
// (tests/golden/README.md):
//
//   cmake --build build --target gen_transport_scripted
//   ./build/tests/gen_transport_scripted --tcp > tests/golden/transport_newreno.golden.txt
#include <cstdio>
#include <cstring>

#include "../support/rack_fingerprint.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/workload/presets.h"

using namespace fbdcsim;

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "";
  const bool sack = std::strcmp(mode, "--sack") == 0;
  const bool dctcp = std::strcmp(mode, "--dctcp") == 0;
  const bool tcp = sack || dctcp || std::strcmp(mode, "--tcp") == 0;
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  for (const core::HostRole role : tests::kGoldenRoles) {
    for (const bool faulted : {false, true}) {
      workload::RackSimConfig cfg =
          tests::golden_preset(fleet, role, faulted ? &heavy : nullptr);
      if (tcp) cfg.transport = workload::Transport::kTcp;
      if (sack) cfg.tcp.recovery = transport::LossRecovery::kSack;
      if (dctcp) {
        cfg.tcp.cc = transport::CongestionControl::kDctcp;
        cfg.tcp.rtt_mode = transport::RttMode::kTopology;
      }
      workload::RackSimulation rack{fleet, cfg};
      std::printf("%s\n", tests::golden_line(role, faulted, rack.run()).c_str());
    }
  }
  return 0;
}
