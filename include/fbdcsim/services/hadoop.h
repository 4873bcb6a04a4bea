// Hadoop traffic model (Sections 4.2, 5.1, 6; Table 2 row "Hadoop").
//
// The node alternates between quiet computation and network-busy shuffle /
// HDFS-output phases. During busy phases it launches bulk transfers whose
// destinations are rack-local with probability ~0.76 (map-input locality
// and first-replica placement) and otherwise spread over a fixed partner
// set covering ~1.5% of the cluster's hosts across most racks (the
// Kandula-style pattern the paper confirms for Hadoop). Transfers ride
// ephemeral connections, making flows short and packets bimodal (MTU data
// plus ACKs, Figure 12); 99.8% of bytes stay within the Hadoop service.
//
// The model is transport-agnostic (see Wire): under RackSimConfig::
// transport = kTcp the bulk transfers are MSS-segmented and ACK-clocked by
// the flow-level TCP engine, so the Figure 12 bimodality is emergent.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "fbdcsim/core/distributions.h"
#include "fbdcsim/services/traffic_model.h"

namespace fbdcsim::services {

class HadoopModel : public TrafficModel {
 public:
  HadoopModel(const topology::Fleet& fleet, core::HostId self, const ServiceMix& mix,
              core::RngStream rng);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::span<const core::HostId> partners() const { return partners_; }

 private:
  void schedule_first() override;
  void enter_quiet();
  void enter_busy();
  /// Whether the busy phase numbered `epoch` is still running.
  [[nodiscard]] bool in_busy_phase(std::uint64_t epoch) const {
    return busy_ && epoch == phase_epoch_;
  }
  /// A rack neighbour when `rack_local`, else a member of the cluster
  /// partner set; nullopt when that set is empty.
  [[nodiscard]] std::optional<core::HostId> pick_partner(bool rack_local);
  /// One bulk transfer on a fresh connection, sent by the `dir` end.
  void launch_transfer(Dir dir);
  void start_shuffle_streams(std::uint64_t epoch);
  void schedule_stream_chunk(std::uint64_t epoch, Connection conn, Dir dir,
                             core::TimePoint at);
  void send_control();

  core::LogNormal transfer_size_;

  bool busy_{false};
  std::uint64_t phase_epoch_{0};  // invalidates stale phase-scoped events
  std::vector<core::HostId> partners_;       // cluster-spread partner set
  std::vector<core::HostId> rack_partners_;  // rack-local peers
};

}  // namespace fbdcsim::services
