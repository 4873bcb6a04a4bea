// Parallel fleet-scale flow generation with serial-identical output.
//
// FleetFlowGenerator derives every host's randomness by forking the root
// stream per host (`fork("fleet-host", host)`), so a host's flow sequence is
// independent of when — or on which thread — it is generated. The runner
// exploits that: hosts are partitioned into fixed-size shards, workers
// generate shards concurrently into private buffers, and the caller consumes
// the buffers in canonical host-ID order. The delivered flow stream is
// therefore bit-identical to `FleetFlowGenerator::generate`, for any worker
// count, so every downstream aggregate (Table 3 locality matrix, Figure 5
// traffic matrices, §4.1 link utilization) is bit-identical too.
//
// The shard size is fixed in ShardOptions rather than derived from the pool
// width, so the shard structure — and any per-shard accumulator a caller
// might merge — does not change when FBDCSIM_THREADS does.
//
// Flow control is refill-on-consume: `stream` primes the pool with the
// first `max_buffered_shards` shards, then posts exactly one more each time
// the consumer has handed a shard to the sink and returned its buffer.
// Workers therefore stay busy while the consumer works, and at most that
// many shard buffers exist at once. A drained buffer is cleared but keeps
// its capacity, and the next worker fills it instead of growing a fresh
// vector from empty.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "fbdcsim/core/flow.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/workload/fleet_flows.h"

namespace fbdcsim::runtime {

struct ShardOptions {
  /// Hosts per shard — the unit of work handed to one worker.
  std::size_t shard_size = 32;
  /// Shards buffered or in flight at once, counting the one the in-order
  /// consumer is draining; bounds memory to this many shards' flow
  /// records. 0 means 2x the pool's worker count.
  std::size_t max_buffered_shards = 0;
};

namespace detail {

/// Fills shard `i`'s buffer; runs on a pool worker.
using FillShard = std::function<void(std::size_t i, std::vector<core::FlowRecord>& buf)>;

/// The runner's refill-on-consume loop, separate from the fleet so tests
/// can drive it with producers that fail or stall. Runs `fill` for shards
/// 0..nshards-1 on `pool` and hands every buffered flow to `sink` on the
/// calling thread, in shard order, with at most `window` (>= 1) shards
/// buffered or in flight. `fill` gets an empty buffer, possibly one an
/// earlier shard used. Fill and sink exceptions propagate after every
/// posted shard has finished.
void stream_shards(ThreadPool& pool, std::size_t nshards, std::size_t window,
                   const FillShard& fill, const workload::FleetFlowGenerator::Visit& sink);

}  // namespace detail

/// Runs FleetFlowGenerator::generate_for_host across a ThreadPool and
/// delivers the merged flow stream in canonical host-ID order.
class ShardedFleetRunner {
 public:
  ShardedFleetRunner(const workload::FleetFlowGenerator& gen, ThreadPool& pool,
                     ShardOptions options = {});

  /// Streams every flow of every host to `sink`, in exactly the order the
  /// serial `generate` would. `sink` runs on the calling thread only;
  /// worker exceptions and sink exceptions both propagate to the caller
  /// after all in-flight shards have drained.
  ///
  /// Empty-input contract: a fleet with zero hosts streams zero flows and
  /// never touches the pool (num_shards() is 0); a single-host fleet is one
  /// shard, whose merge order is trivially the serial order.
  void stream(const workload::FleetFlowGenerator::Visit& sink) const;

  /// All flows, merged in canonical order (a buffered `stream`). Returns
  /// an empty vector for an empty fleet.
  [[nodiscard]] std::vector<core::FlowRecord> collect_flows() const;

  [[nodiscard]] std::size_t num_hosts() const;
  [[nodiscard]] std::size_t num_shards() const;

 private:
  const workload::FleetFlowGenerator* gen_;
  ThreadPool* pool_;
  ShardOptions options_;
};

}  // namespace fbdcsim::runtime
