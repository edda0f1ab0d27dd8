// `ulba serve` — the alpha-scheduler as a long-lived service on the SPMD
// runtime. One rank runs `serve_loop`: it blocks for the next request,
// opportunistically drains up to `batch_limit` already-queued messages per
// wakeup (mailbox batching), answers each from the sharded ScheduleCache,
// and exits once every other rank has sent a done marker. Any other rank
// talks to it through `ScheduleClient`, which supports pipelining
// (submit-many, await-later) with out-of-order completion via per-request
// correlation ids.
//
// Determinism contract: responses depend only on the request bytes — never
// on arrival order, batch boundaries, or cache state — because cache hits
// return the stored cold evaluation verbatim (only `provenance` differs).
#pragma once

#include <cstdint>
#include <map>

#include "opt/evaluate.hpp"
#include "runtime/comm.hpp"

namespace ulba::serve {

// Service channel tags (≥ 900).
inline constexpr int kTagScheduleRequest = 900;
inline constexpr int kTagScheduleResponse = 901;
inline constexpr int kTagClientDone = 902;

struct ServeOptions {
  int server_rank = 0;
  /// Max messages handled per wakeup: one blocking receive plus up to
  /// batch_limit − 1 already-queued messages drained without blocking.
  std::int64_t batch_limit = 32;
  std::int64_t cache_capacity = 4096;
  std::int64_t cache_shards = 8;
};

struct ServeMetrics {
  std::int64_t requests = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t batches = 0;       ///< wakeups of the server loop
  std::int64_t max_batch = 0;     ///< largest single-wakeup message count
  std::int64_t request_bytes = 0;
  std::int64_t response_bytes = 0;
  std::int64_t clients_finished = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return requests == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(requests);
  }
};

/// Run the service on the calling rank (must be options.server_rank) until
/// all `size − 1` other ranks have sent kTagClientDone. The cache outlives
/// the loop when supplied by the caller (e.g. to inspect or reuse it).
ServeMetrics serve_loop(runtime::Comm& comm, opt::ScheduleCache& cache,
                        const ServeOptions& options);

/// Convenience overload owning a loop-local cache.
ServeMetrics serve_loop(runtime::Comm& comm, const ServeOptions& options);

/// Client endpoint for any non-server rank. Each request carries a
/// correlation id so responses may be awaited out of submission order.
class ScheduleClient {
 public:
  ScheduleClient(runtime::Comm& comm, int server_rank);

  /// Fire-and-forget submit; returns the correlation id to await.
  std::uint64_t submit(const core::ScheduleRequest& request);

  /// Block until the response for `id` arrives (stashing any other
  /// responses delivered in between).
  [[nodiscard]] core::ScheduleResponse await(std::uint64_t id);

  /// submit + await — the synchronous query path.
  [[nodiscard]] core::ScheduleResponse query(
      const core::ScheduleRequest& request);

  /// Tell the server this client is finished. Call exactly once, after the
  /// last await; the server exits when every client has called it.
  void finish();

 private:
  runtime::Comm* comm_;
  int server_rank_;
  std::uint64_t next_id_ = 0;
  std::map<std::uint64_t, core::ScheduleResponse> stash_;
};

}  // namespace ulba::serve
