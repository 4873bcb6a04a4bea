#include "fbdcsim/runtime/sharded_fleet.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>

#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::runtime {

ShardedFleetRunner::ShardedFleetRunner(const workload::FleetFlowGenerator& gen,
                                       ThreadPool& pool, ShardOptions options)
    : gen_{&gen}, pool_{&pool}, options_{options} {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

std::size_t ShardedFleetRunner::num_hosts() const { return gen_->fleet().hosts().size(); }

std::size_t ShardedFleetRunner::num_shards() const {
  return (num_hosts() + options_.shard_size - 1) / options_.shard_size;
}

namespace detail {

void stream_shards(ThreadPool& pool, std::size_t nshards, std::size_t window,
                   const FillShard& fill, const workload::FleetFlowGenerator::Visit& sink) {
  window = std::max<std::size_t>(window, 1);

  using Buffer = std::unique_ptr<std::vector<core::FlowRecord>>;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Buffer> ready;
    // Drained buffers, cleared but keeping their capacity, so a worker
    // refills one instead of regrowing a fresh vector from empty. Together
    // with `ready` and the buffers being filled, never more than `window`.
    std::vector<Buffer> spare;
    std::exception_ptr error;  // first worker failure
    std::size_t finished{0};   // tasks done, success or failure
  } st;
  st.ready.resize(nshards);

  std::size_t submitted = 0;
  const auto post_next = [&] {
    pool.post([&st, &fill, i = submitted] {
      FBDCSIM_T_SPAN2(shard_span, "fleet.shard", std::to_string(i));
      Buffer buf;
      {
        std::lock_guard<std::mutex> lk{st.mu};
        if (!st.spare.empty()) {
          buf = std::move(st.spare.back());
          st.spare.pop_back();
        }
      }
      if (!buf) buf = std::make_unique<std::vector<core::FlowRecord>>();
      std::exception_ptr err;
      try {
        fill(i, *buf);
      } catch (...) {
        err = std::current_exception();
      }
      // Notify under the lock: the caller destroys `st` as soon as the
      // final-wait predicate holds, so signalling after unlock would race
      // the condition variable's destruction.
      std::lock_guard<std::mutex> lk{st.mu};
      if (err) {
        if (!st.error) st.error = err;
      } else {
        st.ready[i] = std::move(buf);
      }
      ++st.finished;
      st.cv.notify_all();
    });
    ++submitted;
  };

  std::exception_ptr caller_error;
  try {
    // Prime the window, then refill it one shard per consumed shard, posted
    // only after that shard's buffer is back on the spare list.
    while (submitted < std::min(window, nshards)) post_next();
    for (std::size_t i = 0; i < nshards; ++i) {
      Buffer buf;
      {
        std::unique_lock<std::mutex> lk{st.mu};
        st.cv.wait(lk, [&] { return st.error || st.ready[i] != nullptr; });
        if (st.error) break;
        buf = std::move(st.ready[i]);
      }
      for (const core::FlowRecord& f : *buf) sink(f);
      buf->clear();
      {
        std::lock_guard<std::mutex> lk{st.mu};
        st.spare.push_back(std::move(buf));
      }
      if (submitted < nshards) post_next();
    }
  } catch (...) {
    caller_error = std::current_exception();
  }

  // The tasks reference this frame; never unwind past them.
  {
    std::unique_lock<std::mutex> lk{st.mu};
    st.cv.wait(lk, [&] { return st.finished == submitted; });
    if (!caller_error && st.error) caller_error = st.error;
  }
  if (caller_error) std::rethrow_exception(caller_error);
}

}  // namespace detail

void ShardedFleetRunner::stream(const workload::FleetFlowGenerator::Visit& sink) const {
  FBDCSIM_T_SPAN(stream_span, "fleet.stream");
  const auto& hosts = gen_->fleet().hosts();
  const std::size_t n = hosts.size();
  // Empty fleet: explicitly nothing to stream; the pool is never touched.
  if (n == 0) return;
  const std::size_t shard = options_.shard_size;
  const std::size_t window = options_.max_buffered_shards != 0
                                 ? options_.max_buffered_shards
                                 : 2 * static_cast<std::size_t>(pool_->size());
  detail::stream_shards(
      *pool_, num_shards(), window,
      [&hosts, gen = gen_, n, shard](std::size_t i, std::vector<core::FlowRecord>& buf) {
        for (std::size_t h = i * shard; h < std::min(n, (i + 1) * shard); ++h) {
          gen->generate_for_host(hosts[h].id,
                                 [&](const core::FlowRecord& f) { buf.push_back(f); });
        }
      },
      sink);
}

std::vector<core::FlowRecord> ShardedFleetRunner::collect_flows() const {
  std::vector<core::FlowRecord> out;
  stream([&](const core::FlowRecord& f) { out.push_back(f); });
  return out;
}

}  // namespace fbdcsim::runtime
