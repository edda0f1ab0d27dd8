// The single cache-keyed evaluation entry point behind every alpha-schedule
// query: `evaluate_schedule_request` is the pure cold evaluation (the model
// grid argmin and the exact DP now share this one code path), and
// `ScheduleCache` memoizes it under the serialized-request key with sharded
// locking and a per-shard FIFO eviction bound. A cached response is the
// stored cold result itself, so it is bit-identical to re-evaluation — the
// only difference a client can observe is `provenance.cache_hit`.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedule_query.hpp"

namespace ulba::opt {

/// Pure cold evaluation of one request. Deterministic: equal requests give
/// byte-equal responses (serialize_response modulo provenance).
///
/// kSigmaGrid — standard time under the Menon-τ schedule; σ⁺ time per grid
/// α (α = 0 rows reuse the standard result); arg-min seeded with the
/// standard fallback at α = 0; recommended schedule is σ⁺ at the winning α
/// (Menon τ when the fallback wins).
/// kExactDp — exact DP optimum per grid α; arg-min over the grid only; the
/// recommended schedule is the free per-step-α DP over the same grid.
[[nodiscard]] core::ScheduleResponse evaluate_schedule_request(
    const core::ScheduleRequest& request);

/// Aggregated cache counters (monotonic across the cache's lifetime,
/// except `size` which is the current resident entry count).
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t size = 0;
};

/// Sharded memoization of evaluate_schedule_request. Shard selection hashes
/// the serialized request, so concurrent distinct queries contend on
/// different locks; the evaluation itself runs outside any lock (it is pure
/// — racing duplicate misses compute identical values).
class ScheduleCache {
 public:
  /// `capacity` is the total entry bound, split evenly across `shards`
  /// (each shard holds at least one entry). Insertion beyond a shard's
  /// share evicts that shard's oldest entry (FIFO).
  explicit ScheduleCache(std::int64_t capacity = 4096,
                         std::int64_t shards = 8);

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Memoized evaluation. Hits return the stored cold response with
  /// `provenance.cache_hit = 1`; misses evaluate cold and store the result
  /// (with hit = 0) before returning it.
  [[nodiscard]] core::ScheduleResponse evaluate(
      const core::ScheduleRequest& request);

  /// Same, keyed by pre-serialized request bytes (the serve loop already
  /// holds them — avoids a redundant serialize).
  [[nodiscard]] core::ScheduleResponse evaluate_serialized(
      const std::vector<std::byte>& request_bytes,
      const core::ScheduleRequest& request);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, core::ScheduleResponse> entries;
    std::deque<std::string> fifo;  ///< insertion order, oldest first
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
  };

  Shard& shard_for(const std::string& key);

  std::int64_t capacity_;
  std::int64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ulba::opt
