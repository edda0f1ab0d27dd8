#include "core/schedule_query.hpp"

#include <cstring>

#include "support/require.hpp"

namespace ulba::core {
namespace {

// Same codec helpers as the erosion disc/message format: raw host-order
// memcpy framing with int64 counts and ULBA_REQUIRE on truncation.

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t size) {
  if (size == 0) return;  // memcpy's source is declared nonnull
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

template <typename T>
void append_raw(std::vector<std::byte>& out, const T& value) {
  append_bytes(out, &value, sizeof(T));
}

template <typename T>
T read_raw(std::span<const std::byte>& in) {
  ULBA_REQUIRE(in.size() >= sizeof(T), "truncated schedule-query payload");
  T value;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return value;
}

template <typename T>
void append_counted(std::vector<std::byte>& out, const std::vector<T>& items) {
  append_raw(out, static_cast<std::int64_t>(items.size()));
  append_bytes(out, items.data(), items.size() * sizeof(T));
}

template <typename T>
std::vector<T> read_counted(std::span<const std::byte>& in) {
  const auto count = read_raw<std::int64_t>(in);
  ULBA_REQUIRE(count >= 0, "negative count in schedule-query payload");
  ULBA_REQUIRE(in.size() >= static_cast<std::size_t>(count) * sizeof(T),
               "truncated schedule-query payload");
  std::vector<T> items(static_cast<std::size_t>(count));
  if (count > 0) {
    std::memcpy(items.data(), in.data(),
                static_cast<std::size_t>(count) * sizeof(T));
    in = in.subspan(static_cast<std::size_t>(count) * sizeof(T));
  }
  return items;
}

constexpr std::int64_t kRequestVersion = 1;
constexpr std::int64_t kResponseVersion = 1;

}  // namespace

void ScheduleRequest::validate() const {
  ULBA_REQUIRE(
      mode == EvalMode::kSigmaGrid || mode == EvalMode::kExactDp,
      "schedule request mode must be sigma-grid (0) or exact-dp (1)");
  ULBA_REQUIRE(static_cast<std::int64_t>(alpha_grid.size()) <= kMaxGridPoints,
               "schedule request alpha grid too large");
  for (const double alpha : alpha_grid) {
    ULBA_REQUIRE(alpha >= 0.0 && alpha <= 1.0,
                 "schedule request alpha grid values must lie in [0, 1]");
  }
  if (mode == EvalMode::kExactDp) {
    ULBA_REQUIRE(!alpha_grid.empty(),
                 "exact-dp schedule request needs a non-empty alpha grid");
  }
}

std::vector<std::byte> serialize_request(const ScheduleRequest& request) {
  std::vector<std::byte> out;
  out.reserve(sizeof(std::int64_t) * 5 + sizeof(double) * 6 + 1 +
              request.alpha_grid.size() * sizeof(double));
  append_raw(out, kRequestVersion);
  append_raw(out, static_cast<std::uint8_t>(request.mode));
  const ModelParams& p = request.params;
  append_raw(out, p.P);
  append_raw(out, p.N);
  append_raw(out, p.gamma);
  append_raw(out, p.w0);
  append_raw(out, p.a);
  append_raw(out, p.m);
  append_raw(out, p.alpha);
  append_raw(out, p.omega);
  append_raw(out, p.lb_cost);
  append_counted(out, request.alpha_grid);
  return out;
}

ScheduleRequest deserialize_request(std::span<const std::byte> payload) {
  const auto version = read_raw<std::int64_t>(payload);
  ULBA_REQUIRE(version == kRequestVersion,
               "unsupported schedule request version");
  ScheduleRequest request;
  const auto mode = read_raw<std::uint8_t>(payload);
  ULBA_REQUIRE(mode <= static_cast<std::uint8_t>(EvalMode::kExactDp),
               "unknown schedule request mode");
  request.mode = static_cast<EvalMode>(mode);
  ModelParams& p = request.params;
  p.P = read_raw<std::int64_t>(payload);
  p.N = read_raw<std::int64_t>(payload);
  p.gamma = read_raw<std::int64_t>(payload);
  p.w0 = read_raw<double>(payload);
  p.a = read_raw<double>(payload);
  p.m = read_raw<double>(payload);
  p.alpha = read_raw<double>(payload);
  p.omega = read_raw<double>(payload);
  p.lb_cost = read_raw<double>(payload);
  request.alpha_grid = read_counted<double>(payload);
  ULBA_REQUIRE(payload.empty(),
               "trailing bytes after schedule request payload");
  return request;
}

std::vector<std::byte> serialize_response(const ScheduleResponse& response) {
  std::vector<std::byte> out;
  append_raw(out, kResponseVersion);
  append_raw(out, response.standard_seconds);
  append_raw(out, response.standard_lb_count);
  append_raw(out, response.alpha_seconds);
  append_raw(out, response.best_alpha);
  append_raw(out, response.best_seconds);
  append_raw(out, response.predicted_gain);
  append_raw(out, response.schedule_seconds);
  append_raw(out, static_cast<std::int64_t>(response.grid.size()));
  for (const GridPointEval& point : response.grid) {
    append_raw(out, point.alpha);
    append_raw(out, point.total_seconds);
    append_raw(out, point.lb_count);
  }
  append_counted(out, response.schedule_steps);
  append_counted(out, response.schedule_alphas);
  // Provenance last: payload_equals truncates it away by zeroing.
  append_raw(out, response.provenance.cache_hit);
  append_raw(out, response.provenance.server_rank);
  return out;
}

ScheduleResponse deserialize_response(std::span<const std::byte> payload) {
  const auto version = read_raw<std::int64_t>(payload);
  ULBA_REQUIRE(version == kResponseVersion,
               "unsupported schedule response version");
  ScheduleResponse response;
  response.standard_seconds = read_raw<double>(payload);
  response.standard_lb_count = read_raw<std::int64_t>(payload);
  response.alpha_seconds = read_raw<double>(payload);
  response.best_alpha = read_raw<double>(payload);
  response.best_seconds = read_raw<double>(payload);
  response.predicted_gain = read_raw<double>(payload);
  response.schedule_seconds = read_raw<double>(payload);
  const auto grid_count = read_raw<std::int64_t>(payload);
  ULBA_REQUIRE(grid_count >= 0 && grid_count <= kMaxGridPoints,
               "schedule response grid count out of range");
  response.grid.resize(static_cast<std::size_t>(grid_count));
  for (GridPointEval& point : response.grid) {
    point.alpha = read_raw<double>(payload);
    point.total_seconds = read_raw<double>(payload);
    point.lb_count = read_raw<std::int64_t>(payload);
  }
  response.schedule_steps = read_counted<std::int64_t>(payload);
  response.schedule_alphas = read_counted<double>(payload);
  response.provenance.cache_hit = read_raw<std::uint8_t>(payload);
  response.provenance.server_rank = read_raw<std::int32_t>(payload);
  ULBA_REQUIRE(payload.empty(),
               "trailing bytes after schedule response payload");
  return response;
}

bool payload_equals(const ScheduleResponse& a, const ScheduleResponse& b) {
  ScheduleResponse ca = a;
  ScheduleResponse cb = b;
  ca.provenance = ResponseProvenance{};
  cb.provenance = ResponseProvenance{};
  return serialize_response(ca) == serialize_response(cb);
}

}  // namespace ulba::core
