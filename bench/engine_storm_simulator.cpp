#include "engine_storm.h"
#include "fbdcsim/sim/simulator.h"

namespace fbdcsim::bench {

StormOutcome measure_simulator_storm() { return measure_storm<sim::Simulator>(); }

}  // namespace fbdcsim::bench
