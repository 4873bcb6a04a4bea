#include "../tests/support/reference_scheduler.h"
#include "engine_storm.h"

namespace fbdcsim::bench {

StormOutcome measure_reference_storm() { return measure_storm<tests::ReferenceScheduler>(); }

}  // namespace fbdcsim::bench
