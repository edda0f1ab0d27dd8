// The schedule service's contract suite: ScheduleRequest/ScheduleResponse
// codec round-trips, the memo cache's bit-identity and eviction bounds, and
// the serve_loop under real multi-client SPMD traffic.
//
// The load-bearing claim everywhere: a cached ScheduleResponse is
// BIT-identical (provenance masked) to a cold evaluation of the same
// request — same bytes, not "close enough".
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cli/serve_driver.hpp"
#include "core/instance.hpp"
#include "core/schedule_query.hpp"
#include "opt/evaluate.hpp"
#include "runtime/spmd.hpp"
#include "support/rng.hpp"

namespace ulba {
namespace {

core::ScheduleRequest sample_request(std::uint64_t stream,
                                     core::EvalMode mode) {
  support::Rng rng = support::Rng(11).fork(stream);
  core::ScheduleRequest request;
  request.mode = mode;
  request.params = core::InstanceGenerator().sample(rng).params;
  for (int g = 0; g <= 10; ++g)
    request.alpha_grid.push_back(static_cast<double>(g) / 10.0);
  return request;
}

TEST(ScheduleQueryCodec, RequestRoundTripBothModes) {
  for (const core::EvalMode mode :
       {core::EvalMode::kSigmaGrid, core::EvalMode::kExactDp}) {
    const core::ScheduleRequest request =
        sample_request(static_cast<std::uint64_t>(mode), mode);
    const std::vector<std::byte> bytes = core::serialize_request(request);
    const core::ScheduleRequest back = core::deserialize_request(bytes);
    EXPECT_EQ(back.mode, request.mode);
    EXPECT_EQ(back.params.P, request.params.P);
    EXPECT_EQ(back.params.N, request.params.N);
    EXPECT_EQ(back.params.gamma, request.params.gamma);
    EXPECT_EQ(back.params.w0, request.params.w0);
    EXPECT_EQ(back.params.a, request.params.a);
    EXPECT_EQ(back.params.m, request.params.m);
    EXPECT_EQ(back.params.alpha, request.params.alpha);
    EXPECT_EQ(back.params.omega, request.params.omega);
    EXPECT_EQ(back.params.lb_cost, request.params.lb_cost);
    EXPECT_EQ(back.alpha_grid, request.alpha_grid);
    // The codec is canonical: re-serializing the round-trip reproduces the
    // exact bytes (this is what makes request bytes usable as cache keys).
    EXPECT_EQ(core::serialize_request(back), bytes);
  }
}

TEST(ScheduleQueryCodec, ResponseRoundTripBothModes) {
  for (const core::EvalMode mode :
       {core::EvalMode::kSigmaGrid, core::EvalMode::kExactDp}) {
    core::ScheduleResponse response = opt::evaluate_schedule_request(
        sample_request(static_cast<std::uint64_t>(mode) + 7, mode));
    response.provenance.cache_hit = 1;
    response.provenance.server_rank = 3;
    const std::vector<std::byte> bytes = core::serialize_response(response);
    const core::ScheduleResponse back = core::deserialize_response(bytes);
    EXPECT_EQ(back.standard_seconds, response.standard_seconds);
    EXPECT_EQ(back.standard_lb_count, response.standard_lb_count);
    EXPECT_EQ(back.alpha_seconds, response.alpha_seconds);
    EXPECT_EQ(back.best_alpha, response.best_alpha);
    EXPECT_EQ(back.best_seconds, response.best_seconds);
    EXPECT_EQ(back.predicted_gain, response.predicted_gain);
    EXPECT_EQ(back.schedule_seconds, response.schedule_seconds);
    ASSERT_EQ(back.grid.size(), response.grid.size());
    for (std::size_t i = 0; i < back.grid.size(); ++i) {
      EXPECT_EQ(back.grid[i].alpha, response.grid[i].alpha);
      EXPECT_EQ(back.grid[i].total_seconds, response.grid[i].total_seconds);
      EXPECT_EQ(back.grid[i].lb_count, response.grid[i].lb_count);
    }
    EXPECT_EQ(back.schedule_steps, response.schedule_steps);
    EXPECT_EQ(back.schedule_alphas, response.schedule_alphas);
    EXPECT_EQ(back.provenance.cache_hit, response.provenance.cache_hit);
    EXPECT_EQ(back.provenance.server_rank, response.provenance.server_rank);
    EXPECT_EQ(core::serialize_response(back), bytes);
  }
}

TEST(ScheduleQueryCodec, RejectsMalformedPayloads) {
  const core::ScheduleRequest request =
      sample_request(1, core::EvalMode::kSigmaGrid);
  std::vector<std::byte> bytes = core::serialize_request(request);
  // Truncated at every prefix length must throw, never read out of bounds.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, bytes.size() - 1}) {
    const std::vector<std::byte> head(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)core::deserialize_request(head), std::invalid_argument);
  }
  // Trailing garbage is rejected: the payload must be exactly consumed.
  bytes.push_back(std::byte{0});
  EXPECT_THROW((void)core::deserialize_request(bytes), std::invalid_argument);

  const core::ScheduleResponse response =
      opt::evaluate_schedule_request(request);
  const std::vector<std::byte> response_bytes =
      core::serialize_response(response);
  const std::vector<std::byte> head(
      response_bytes.begin(),
      response_bytes.begin() + static_cast<long>(response_bytes.size() / 2));
  EXPECT_THROW((void)core::deserialize_response(head), std::invalid_argument);

  // A count whose byte size wraps past 2^64 to a small number must still be
  // rejected as truncation, never reach the vector constructor. The request
  // ends with the alpha-grid count and its values; the response's
  // schedule-steps count follows nine 8-byte scalars (the last one the grid
  // count) and 24 bytes per grid point.
  const std::vector<std::byte> request_bytes = core::serialize_request(request);
  const std::size_t grid_count_at =
      request_bytes.size() - (request.alpha_grid.size() + 1) * sizeof(double);
  const std::size_t steps_count_at =
      9 * sizeof(std::int64_t) + 24 * response.grid.size();
  const auto with_count = [](std::vector<std::byte> payload, std::size_t at,
                             std::int64_t count) {
    std::memcpy(payload.data() + at, &count, sizeof(count));
    return payload;
  };
  // The offsets point at the counts: writing the true count changes nothing.
  const auto grid = static_cast<std::int64_t>(request.alpha_grid.size());
  const auto steps = static_cast<std::int64_t>(response.schedule_steps.size());
  ASSERT_EQ(with_count(request_bytes, grid_count_at, grid), request_bytes);
  ASSERT_EQ(with_count(response_bytes, steps_count_at, steps), response_bytes);
  // 8 · (2^61 + 1) and 8 · (2^62 + 1) both wrap to 8.
  const std::int64_t wraps_once = (std::int64_t{1} << 61) + 1;
  const std::int64_t wraps_twice = (std::int64_t{1} << 62) + 1;
  for (const std::int64_t count : {wraps_once, wraps_twice}) {
    EXPECT_THROW((void)core::deserialize_request(
                     with_count(request_bytes, grid_count_at, count)),
                 std::invalid_argument)
        << "alpha-grid count " << count;
  }
  EXPECT_THROW((void)core::deserialize_response(
                   with_count(response_bytes, steps_count_at, wraps_once)),
               std::invalid_argument);
}

TEST(ScheduleQueryCodec, RequestValidation) {
  core::ScheduleRequest request = sample_request(2, core::EvalMode::kExactDp);
  request.alpha_grid.clear();
  // Exact-DP mode needs a grid to sweep.
  EXPECT_THROW(request.validate(), std::invalid_argument);
  request.mode = core::EvalMode::kSigmaGrid;
  EXPECT_NO_THROW(request.validate());
  request.alpha_grid = {0.5, 1.5};
  EXPECT_THROW(request.validate(), std::invalid_argument);
  // A non-finite model parameter from the wire is a usage error in both
  // modes, never an inf/nan answer or an internal invariant.
  for (const core::EvalMode mode :
       {core::EvalMode::kSigmaGrid, core::EvalMode::kExactDp}) {
    core::ScheduleRequest non_finite = sample_request(3, mode);
    non_finite.params.w0 = std::numeric_limits<double>::infinity();
    EXPECT_THROW((void)opt::evaluate_schedule_request(non_finite),
                 std::invalid_argument);
  }
}

TEST(ScheduleCache, HitIsBitIdenticalToCold) {
  opt::ScheduleCache cache(64, 4);
  for (const core::EvalMode mode :
       {core::EvalMode::kSigmaGrid, core::EvalMode::kExactDp}) {
    const core::ScheduleRequest request =
        sample_request(static_cast<std::uint64_t>(mode) + 13, mode);
    const core::ScheduleResponse cold =
        opt::evaluate_schedule_request(request);
    const core::ScheduleResponse miss = cache.evaluate(request);
    const core::ScheduleResponse hit = cache.evaluate(request);
    EXPECT_EQ(miss.provenance.cache_hit, 0);
    EXPECT_EQ(hit.provenance.cache_hit, 1);
    // The contract: provenance aside, the cached answer IS the cold answer.
    EXPECT_TRUE(core::payload_equals(hit, cold));
    EXPECT_TRUE(core::payload_equals(miss, cold));
  }
  const opt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.size, 2);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(ScheduleCache, EvictionBoundHolds) {
  constexpr std::int64_t kCapacity = 8;
  opt::ScheduleCache cache(kCapacity, 2);
  std::vector<core::ScheduleRequest> requests;
  for (std::uint64_t i = 0; i < 3 * kCapacity; ++i) {
    requests.push_back(sample_request(100 + i, core::EvalMode::kSigmaGrid));
    (void)cache.evaluate(requests.back());
    EXPECT_LE(cache.stats().size, kCapacity);
  }
  const opt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3 * kCapacity);
  EXPECT_EQ(stats.evictions, stats.misses - stats.size);
  EXPECT_GT(stats.evictions, 0);
  // An evicted key still answers correctly — it just costs a re-evaluation.
  const core::ScheduleResponse again = cache.evaluate(requests.front());
  EXPECT_TRUE(core::payload_equals(
      again, opt::evaluate_schedule_request(requests.front())));
}

TEST(ScheduleCache, RejectsBadSizes) {
  // Each size is checked before it is used: a zero shard count must throw,
  // not divide by zero.
  EXPECT_THROW(opt::ScheduleCache(16, 0), std::invalid_argument);
  EXPECT_THROW(opt::ScheduleCache(0, 4), std::invalid_argument);
  EXPECT_THROW(opt::ScheduleCache(16, -1), std::invalid_argument);
}

TEST(ScheduleCache, ConcurrentClientsAreDeterministic) {
  opt::ScheduleCache cache(256, 8);
  const std::vector<core::ScheduleRequest> pool = {
      sample_request(40, core::EvalMode::kSigmaGrid),
      sample_request(41, core::EvalMode::kSigmaGrid),
      sample_request(42, core::EvalMode::kSigmaGrid),
  };
  std::vector<core::ScheduleResponse> cold;
  cold.reserve(pool.size());
  for (const auto& request : pool)
    cold.push_back(opt::evaluate_schedule_request(request));

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 32;
  std::vector<std::int64_t> bad(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      support::Rng rng = support::Rng(7).fork(static_cast<std::uint64_t>(t));
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const std::size_t pick = rng.index(pool.size());
        if (!core::payload_equals(cache.evaluate(pool[pick]), cold[pick]))
          ++bad[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const std::int64_t b : bad) EXPECT_EQ(b, 0);
  const opt::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kQueriesPerThread);
  // Concurrent misses on the same key may each evaluate, but the cache never
  // holds more entries than keys.
  EXPECT_LE(stats.size, static_cast<std::int64_t>(pool.size()));
}

TEST(ServeLoop, TrafficContractAndDeterminism) {
  cli::ServeTrafficOptions options;
  options.clients = 3;
  options.requests_per_client = 24;
  options.distinct = 6;
  options.seed = 21;
  const cli::ServeTrafficResult first = cli::serve_traffic(options);
  const cli::ServeTrafficResult second = cli::serve_traffic(options);
  for (const cli::ServeTrafficResult& run : {first, second}) {
    EXPECT_TRUE(run.ok());
    EXPECT_EQ(run.mismatched_responses, 0);
    EXPECT_EQ(run.total_requests, 3 * 24);
    EXPECT_EQ(run.metrics.requests, run.total_requests);
    EXPECT_EQ(run.metrics.cache_hits + run.metrics.cache_misses,
              run.metrics.requests);
    // Capacity >= distinct: every pool entry misses exactly once.
    EXPECT_EQ(run.metrics.cache_misses, run.distinct_queried);
    EXPECT_EQ(run.metrics.cache_evictions, 0);
    EXPECT_EQ(run.metrics.clients_finished, 3);
  }
  // Everything but wall clock and batching is deterministic across runs.
  EXPECT_EQ(first.distinct_queried, second.distinct_queried);
  EXPECT_EQ(first.metrics.cache_hits, second.metrics.cache_hits);
  EXPECT_EQ(first.hit_responses, second.hit_responses);
  EXPECT_EQ(first.metrics.request_bytes, second.metrics.request_bytes);
  EXPECT_EQ(first.metrics.response_bytes, second.metrics.response_bytes);
}

TEST(ServeLoop, BatchLimitDoesNotChangeAnswers) {
  cli::ServeTrafficOptions options;
  options.clients = 2;
  options.requests_per_client = 16;
  options.distinct = 5;
  options.seed = 33;
  options.batch_limit = 1;
  const cli::ServeTrafficResult serial_batches = cli::serve_traffic(options);
  options.batch_limit = 8;
  const cli::ServeTrafficResult wide_batches = cli::serve_traffic(options);
  EXPECT_TRUE(serial_batches.ok());
  EXPECT_TRUE(wide_batches.ok());
  EXPECT_EQ(serial_batches.metrics.cache_misses,
            wide_batches.metrics.cache_misses);
  EXPECT_EQ(serial_batches.metrics.response_bytes,
            wide_batches.metrics.response_bytes);
  EXPECT_LE(serial_batches.metrics.max_batch, 1);
}

TEST(ServeLoop, CleanShutdownWithoutQueries) {
  runtime::spmd_run(3, [](runtime::Comm& comm) {
    if (comm.rank() == 0) {
      const serve::ServeMetrics metrics =
          serve::serve_loop(comm, serve::ServeOptions{});
      EXPECT_EQ(metrics.requests, 0);
      EXPECT_EQ(metrics.clients_finished, 2);
      return;
    }
    serve::ScheduleClient client(comm, 0);
    client.finish();
  });
}

}  // namespace
}  // namespace ulba
