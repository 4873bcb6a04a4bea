// The transport golden gate: re-runs every preset a committed
// tests/golden/transport_*.golden.txt file pins and expects the same line
// back, byte for byte. Each line is golden_line() of golden_preset() for
// one (role, faults) pair, as printed by gen_transport_scripted; `tweak`
// applies the transport configuration the file was generated with.
// run_obs_golden_gate does the same for obs_transport.golden.txt, whose
// lines are obs_golden_line() of obs_golden_preset() (gen_transport_scripted
// --obs); it needs a build with telemetry compiled in. Test targets that
// include this define FBDCSIM_GOLDEN_DIR.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"
#include "rack_fingerprint.h"

namespace fbdcsim::tests {

/// The role named by a golden line's role column, or null.
inline const core::HostRole* golden_role(const std::string& name) {
  for (const core::HostRole& r : kGoldenRoles) {
    if (name == core::to_string(r)) return &r;
  }
  return nullptr;
}

inline void run_golden_gate(const std::string& file,
                            const std::function<void(workload::RackSimConfig&)>& tweak) {
  const std::string path = std::string{FBDCSIM_GOLDEN_DIR} + "/" + file;
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;

  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy_plan{faults::heavy_profile()};
  int rows = 0;
  for (std::string line; std::getline(golden, line);) {
    ++rows;
    std::string role_name, fault_name;
    std::istringstream{line} >> role_name >> fault_name;
    const core::HostRole* role = golden_role(role_name);
    ASSERT_NE(role, nullptr) << "unknown role in " << file << ": " << line;
    const bool heavy = fault_name == "heavy";

    workload::RackSimConfig cfg = golden_preset(fleet, *role, heavy ? &heavy_plan : nullptr);
    tweak(cfg);
    workload::RackSimulation rack{fleet, cfg};
    EXPECT_EQ(golden_line(*role, heavy, rack.run()), line);
  }
  EXPECT_EQ(rows, 8) << file << " must cover 4 roles x {off, heavy}";
}

inline void run_obs_golden_gate(const std::string& file) {
  const std::string path = std::string{FBDCSIM_GOLDEN_DIR} + "/" + file;
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;

  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy_plan{faults::heavy_profile()};
  int rows = 0;
  for (std::string line; std::getline(golden, line);) {
    ++rows;
    std::string variant, role_name, fault_name;
    std::istringstream{line} >> variant >> role_name >> fault_name;
    const core::HostRole* role = golden_role(role_name);
    ASSERT_NE(role, nullptr) << "unknown role in " << file << ": " << line;
    const bool heavy = fault_name == "heavy";

    workload::RackSimulation rack{
        fleet, obs_golden_preset(fleet, variant, *role, heavy ? &heavy_plan : nullptr)};
    EXPECT_EQ(obs_golden_line(variant, *role, heavy, rack.run()), line);
  }
  EXPECT_EQ(rows, 24) << file << " must cover 3 variants x 4 roles x {off, heavy}";
}

}  // namespace fbdcsim::tests
