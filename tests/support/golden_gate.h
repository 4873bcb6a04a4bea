// The transport golden gate: re-runs every preset a committed
// tests/golden/transport_*.golden.txt file pins and expects the same line
// back, byte for byte. Each line is golden_line() of golden_preset() for
// one (role, faults) pair, as printed by gen_transport_scripted; `tweak`
// applies the transport configuration the file was generated with.
// Test targets that include this define FBDCSIM_GOLDEN_DIR.
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
    const core::HostRole* role = nullptr;
    for (const core::HostRole& r : kGoldenRoles) {
      if (role_name == core::to_string(r)) role = &r;
    }
    ASSERT_NE(role, nullptr) << "unknown role in " << file << ": " << line;
    const bool heavy = fault_name == "heavy";

    workload::RackSimConfig cfg = golden_preset(fleet, *role, heavy ? &heavy_plan : nullptr);
    tweak(cfg);
    workload::RackSimulation rack{fleet, cfg};
    EXPECT_EQ(golden_line(*role, heavy, rack.run()), line);
  }
  EXPECT_EQ(rows, 8) << file << " must cover 4 roles x {off, heavy}";
}

}  // namespace fbdcsim::tests
