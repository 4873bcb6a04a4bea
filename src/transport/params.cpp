#include "fbdcsim/transport/params.h"

namespace fbdcsim::transport {

const char* to_string(CongestionControl cc) {
  switch (cc) {
    case CongestionControl::kNewReno:
      return "reno";
    case CongestionControl::kDctcp:
      return "dctcp";
  }
  return "?";
}

const char* to_string(LossRecovery recovery) {
  switch (recovery) {
    case LossRecovery::kNewReno:
      return "newreno";
    case LossRecovery::kSack:
      return "sack";
  }
  return "?";
}

}  // namespace fbdcsim::transport
