// Topology-derived path delays: the hop count a packet pays beyond the
// monitored rack's RSW, and the one-way propagation delay that hop count
// implies. Used by the transport layer under TcpParams::RttMode::kTopology
// so congestion feedback-loop lengths emerge from the 4-post fabric model
// instead of per-locality-class constants.
//
// The 4-post design makes path lengths a closed form of endpoint locality
// (every equal-cost choice has the same length, so ECMP never changes the
// hop count):
//
//   intra-rack           RSW only                                   0 hops
//   intra-cluster        RSW -> CSW -> RSW'                         2 hops
//   intra-datacenter     RSW -> CSW -> FC -> CSW' -> RSW'           4 hops
//   inter-DC, same site  RSW -> CSW -> SiteAgg -> CSW' -> RSW'      4 hops
//   inter-site           RSW -> CSW -> DR -> DR' -> CSW' -> RSW'    5 hops
//
// "Hops beyond the RSW" counts the links a packet traverses after leaving
// the monitored RSW, excluding the final RSW' -> host access link (the
// receiving endpoint's turnaround is modelled separately as
// transport::kHostDelay).
// Equivalently: Router::route() link count minus the two access links.
// PathDelayEqualsRouterRoute asserts that equivalence against the real
// router on a built Network.
#pragma once

#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/topology/entities.h"

namespace fbdcsim::topology {

/// Switch-to-switch links beyond the monitored host's RSW on the path to
/// `dst` (see table above). Zero for rack-local peers.
[[nodiscard]] int hops_beyond_rsw(const Fleet& fleet, core::HostId src, core::HostId dst);

/// One-way propagation beyond the RSW: hops * per_hop, plus
/// inter_site_extra once when the endpoints sit in different sites.
[[nodiscard]] core::Duration one_way_beyond_rsw(const Fleet& fleet, core::HostId src,
                                                core::HostId dst, core::Duration per_hop,
                                                core::Duration inter_site_extra);

}  // namespace fbdcsim::topology
