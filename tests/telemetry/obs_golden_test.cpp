// Commit-to-commit gate for the observability output (DESIGN.md §11/§14):
// ObsDifferential compares runs across pool widths inside one build, so
// nothing else pins what flows.jsonl and the tracepoint JSONL contain from
// one commit to the next. This gate re-runs obs_golden_preset() for the
// NewReno, SACK and DCTCP variants, 4 roles x {off, heavy}, and expects the
// committed digests of both exports byte for byte
// (tests/golden/obs_transport.golden.txt, from gen_transport_scripted --obs).
#include <gtest/gtest.h>

#include "../support/golden_gate.h"
#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::telemetry {
namespace {

TEST(ObsGolden, FlowsAndTracepointsMatchCommittedGolden) {
#if !FBDCSIM_TELEMETRY_ENABLED
  GTEST_SKIP() << "the obs layer compiles away under -DFBDCSIM_TELEMETRY=OFF";
#endif
  tests::run_obs_golden_gate("obs_transport.golden.txt");
}

}  // namespace
}  // namespace fbdcsim::telemetry
