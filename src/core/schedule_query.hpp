// The canonical alpha-schedule query API — the paper's decision procedure
// ((P, N̂, â, m̂, W) → schedule + predicted gain) promoted from scattered
// per-subcommand parameter threading into one stable request/response pair.
//
// A ScheduleRequest carries the model parameters plus the policy knobs of
// the evaluation (mode and candidate-α grid); a ScheduleResponse carries
// everything the callers used to recompute independently: the standard
// method's time, the σ⁺ time at the drawn α, the per-grid-point landscape,
// the arg-min α, the recommended schedule with its per-step α's, and the
// predicted gain. Evaluation is pure, which is what makes the pair the unit
// of `ulba serve`'s memoized cache: the serialized request IS the cache key,
// and a cached response must be bit-identical to a cold evaluation.
//
// The wire format follows the disc/message codec conventions (disc.cpp):
// little-endian host order via memcpy (the runtime's ranks share one
// machine), int64-counted sections, ULBA_REQUIRE on malformed payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/params.hpp"

namespace ulba::core {

/// How a request's candidate α's are evaluated.
enum class EvalMode : std::uint8_t {
  /// Closed-form Eq. (4)/(5): Menon τ for the standard reference, the σ⁺
  /// schedule per grid α. The `intervals`, Table-II-sweep and
  /// `serve --mode grid` evaluation.
  kSigmaGrid = 0,
  /// Exact DP per grid α (opt::optimal_schedule, ULBA cost model) plus the
  /// free per-step-α DP (opt::optimal_alpha_schedule) as the recommended
  /// schedule. The `serve --mode dp` evaluation.
  kExactDp = 1,
};

/// The largest candidate-α grid a request (and a response) may carry.
inline constexpr std::int64_t kMaxGridPoints = 4096;

/// One alpha-schedule query: model parameters in, schedule + gain out.
/// `params.alpha` is the instance's drawn ("applied") α; `alpha_grid` lists
/// the candidate α's evaluated in order (α = 0 rows short-circuit to the
/// standard method — α = 0 degenerates to it).
struct ScheduleRequest {
  EvalMode mode = EvalMode::kSigmaGrid;
  ModelParams params;
  std::vector<double> alpha_grid;

  /// Request-shape validation (mode, grid domain/size). The model params
  /// are validated by the evaluation itself, exactly as the pre-API call
  /// sites did, so the error surface does not drift.
  void validate() const;
};

/// The landscape at one candidate α.
struct GridPointEval {
  double alpha = 0.0;
  double total_seconds = 0.0;
  std::int64_t lb_count = 0;
};

/// Transport/evaluation metadata. Excluded from payload equality: a cache
/// hit differs from its cold evaluation ONLY here.
struct ResponseProvenance {
  std::uint8_t cache_hit = 0;
  std::int32_t server_rank = -1;  ///< -1 = evaluated in-process
};

/// Everything a scheduling client needs from one query.
struct ScheduleResponse {
  double standard_seconds = 0.0;      ///< Menon-τ schedule, standard method
  std::int64_t standard_lb_count = 0;
  /// σ⁺ execution at the drawn `params.alpha` (== standard_seconds when the
  /// drawn α is 0).
  double alpha_seconds = 0.0;
  /// Arg-min over the candidates. kSigmaGrid seeds the scan with the α = 0
  /// standard fallback (it can never lose); kExactDp scans the grid only —
  /// the best-single-fixed-α reference of the per-step-α DP.
  double best_alpha = 0.0;
  double best_seconds = 0.0;
  /// (standard − recommended) / standard.
  double predicted_gain = 0.0;
  std::vector<GridPointEval> grid;  ///< parallel to the request's alpha_grid
  /// The recommended schedule: σ⁺ at best_alpha (kSigmaGrid; Menon τ when
  /// α = 0 wins) or the free per-step-α DP (kExactDp).
  std::vector<std::int64_t> schedule_steps;
  std::vector<double> schedule_alphas;  ///< one α per scheduled step
  double schedule_seconds = 0.0;
  ResponseProvenance provenance;
};

/// Canonical request bytes — deterministic, and therefore usable verbatim
/// as the memoization key.
[[nodiscard]] std::vector<std::byte> serialize_request(
    const ScheduleRequest& request);
[[nodiscard]] ScheduleRequest deserialize_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> serialize_response(
    const ScheduleResponse& response);
[[nodiscard]] ScheduleResponse deserialize_response(
    std::span<const std::byte> payload);

/// Bit-equality of every payload field (times, landscape, schedule), with
/// provenance masked out — the serve cache's hit-identity contract.
[[nodiscard]] bool payload_equals(const ScheduleResponse& a,
                                  const ScheduleResponse& b);

}  // namespace ulba::core
