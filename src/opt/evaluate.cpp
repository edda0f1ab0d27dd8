#include "opt/evaluate.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "core/schedule.hpp"
#include "opt/dp_alpha.hpp"
#include "opt/dp_optimal.hpp"
#include "support/require.hpp"

namespace ulba::opt {
namespace {

using core::EvalMode;
using core::GridPointEval;
using core::ModelParams;
using core::ScheduleRequest;
using core::ScheduleResponse;

// σ⁺ execution at a candidate α (strictly positive — α = 0 callers reuse
// the standard result instead, preserving the historical short-circuit).
core::ScheduleCost sigma_cost_at(const ModelParams& params, double alpha) {
  ModelParams q = params;
  q.alpha = alpha;
  return core::evaluate_ulba(q, core::sigma_plus_schedule(q));
}

ScheduleResponse evaluate_sigma_grid(const ScheduleRequest& request,
                                     ScheduleResponse response) {
  const ModelParams& p = request.params;
  // Arg-min seeded with the α = 0 standard fallback: it can never lose to
  // itself, and a grid α wins only with strictly smaller total time —
  // exactly the historical best-α scans.
  double best_seconds = response.standard_seconds;
  double best_alpha = 0.0;
  response.grid.reserve(request.alpha_grid.size());
  for (const double alpha : request.alpha_grid) {
    GridPointEval point;
    point.alpha = alpha;
    if (alpha == 0.0) {
      point.total_seconds = response.standard_seconds;
      point.lb_count = response.standard_lb_count;
    } else {
      const core::ScheduleCost cost = sigma_cost_at(p, alpha);
      point.total_seconds = cost.total_seconds;
      point.lb_count = static_cast<std::int64_t>(cost.lb_count);
    }
    if (point.total_seconds < best_seconds) {
      best_seconds = point.total_seconds;
      best_alpha = alpha;
    }
    response.grid.push_back(point);
  }
  response.best_alpha = best_alpha;
  response.best_seconds = best_seconds;
  const core::Schedule recommended =
      best_alpha == 0.0
          ? core::menon_schedule(p)
          : [&] {
              ModelParams q = p;
              q.alpha = best_alpha;
              return core::sigma_plus_schedule(q);
            }();
  response.schedule_steps = recommended.steps();
  response.schedule_alphas.assign(recommended.lb_count(), best_alpha);
  response.schedule_seconds = best_seconds;
  return response;
}

ScheduleResponse evaluate_exact_dp(const ScheduleRequest& request,
                                   ScheduleResponse response) {
  const ModelParams& p = request.params;
  // Best *fixed* α over the grid — the reference the per-step-α DP is
  // measured against. No standard fallback: init +inf, exactly the
  // historical best_fixed scan.
  double best_seconds = std::numeric_limits<double>::infinity();
  double best_alpha = 0.0;
  response.grid.reserve(request.alpha_grid.size());
  for (const double alpha : request.alpha_grid) {
    ModelParams q = p;
    q.alpha = alpha;
    const OptimalResult fixed = optimal_schedule(q, CostModel::kUlba);
    GridPointEval point;
    point.alpha = alpha;
    point.total_seconds = fixed.total_seconds;
    point.lb_count = static_cast<std::int64_t>(fixed.schedule.lb_count());
    if (point.total_seconds < best_seconds) {
      best_seconds = point.total_seconds;
      best_alpha = alpha;
    }
    response.grid.push_back(point);
  }
  response.best_alpha = best_alpha;
  response.best_seconds = best_seconds;
  const OptimalAlphaResult free_form =
      optimal_alpha_schedule(p, request.alpha_grid);
  response.schedule_steps = free_form.schedule.steps();
  response.schedule_alphas = free_form.alphas;
  response.schedule_seconds = free_form.total_seconds;
  return response;
}

}  // namespace

ScheduleResponse evaluate_schedule_request(const ScheduleRequest& request) {
  request.validate();
  const ModelParams& p = request.params;
  ScheduleResponse response;
  const core::ScheduleCost standard =
      core::evaluate_standard(p, core::menon_schedule(p));
  response.standard_seconds = standard.total_seconds;
  response.standard_lb_count = static_cast<std::int64_t>(standard.lb_count);
  response.alpha_seconds = p.alpha == 0.0
                               ? standard.total_seconds
                               : sigma_cost_at(p, p.alpha).total_seconds;
  response = request.mode == EvalMode::kSigmaGrid
                 ? evaluate_sigma_grid(request, std::move(response))
                 : evaluate_exact_dp(request, std::move(response));
  response.predicted_gain =
      (response.standard_seconds - response.schedule_seconds) /
      response.standard_seconds;
  return response;
}

ScheduleCache::ScheduleCache(std::int64_t capacity, std::int64_t shards)
    : capacity_(capacity) {
  ULBA_REQUIRE(capacity >= 1, "schedule cache capacity must be >= 1");
  ULBA_REQUIRE(shards >= 1, "schedule cache shard count must be >= 1");
  shard_capacity_ = std::max<std::int64_t>(1, capacity / shards);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (std::int64_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ScheduleCache::Shard& ScheduleCache::shard_for(const std::string& key) {
  const std::size_t index =
      std::hash<std::string>{}(key) % shards_.size();
  return *shards_[index];
}

core::ScheduleResponse ScheduleCache::evaluate(
    const core::ScheduleRequest& request) {
  return evaluate_serialized(core::serialize_request(request), request);
}

core::ScheduleResponse ScheduleCache::evaluate_serialized(
    const std::vector<std::byte>& request_bytes,
    const core::ScheduleRequest& request) {
  std::string key(reinterpret_cast<const char*>(request_bytes.data()),
                  request_bytes.size());
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      ++shard.hits;
      core::ScheduleResponse hit = it->second;
      hit.provenance.cache_hit = 1;
      return hit;
    }
    ++shard.misses;
  }
  // Cold evaluation outside the lock: pure, so racing duplicate misses
  // compute identical responses and insert-if-absent below is harmless.
  core::ScheduleResponse cold = evaluate_schedule_request(request);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [it, inserted] = shard.entries.emplace(key, cold);
    if (inserted) {
      shard.fifo.push_back(std::move(key));
      while (static_cast<std::int64_t>(shard.entries.size()) >
             shard_capacity_) {
        shard.entries.erase(shard.fifo.front());
        shard.fifo.pop_front();
        ++shard.evictions;
      }
    }
  }
  return cold;
}

CacheStats ScheduleCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.evictions += shard->evictions;
    total.size += static_cast<std::int64_t>(shard->entries.size());
  }
  return total;
}

}  // namespace ulba::opt
