// Shared fixtures/factories for the ULBA test suites.
//
// The randomized factories (random_model_params, random_domain_config) are
// THE generators for property-style tests: every suite that needs "some
// valid random configuration" draws from these, so widening the tested
// envelope (new parameter ranges, more discs, …) is a one-place change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "erosion/domain.hpp"
#include "support/rng.hpp"

namespace ulba::testing {

/// A hand-checkable model: P = 10 PEs, N = 2 overloading, 20 iterations,
/// W0 = 1000 FLOP, a = 2, m = 15, ω = 1 FLOPS (so FLOP == seconds), C = 50 s.
/// ΔW = 2·10 + 15·2 = 50 FLOP/iteration.
inline core::ModelParams tiny_params() {
  core::ModelParams p;
  p.P = 10;
  p.N = 2;
  p.gamma = 20;
  p.w0 = 1000.0;
  p.a = 2.0;
  p.m = 15.0;
  p.alpha = 0.5;
  p.omega = 1.0;
  p.lb_cost = 50.0;
  return p;
}

/// A paper-scale model: P = 512, N = 32, γ = 100, ω = 1 GFLOPS, workload and
/// rates inside the Table-II envelope.
inline core::ModelParams paper_scale_params() {
  core::ModelParams p;
  p.P = 512;
  p.N = 32;
  p.gamma = 100;
  p.omega = 1e9;
  p.w0 = 300e7 * static_cast<double>(p.P);
  const double delta_w = (p.w0 / static_cast<double>(p.P)) * 0.1;
  const double y = 0.9;
  p.a = delta_w * (1.0 - y) / static_cast<double>(p.P);
  p.m = delta_w * y / static_cast<double>(p.N);
  p.alpha = 0.5;
  p.lb_cost = (p.w0 / static_cast<double>(p.P)) * 0.5 / p.omega;
  return p;
}

/// A random valid ModelParams inside (a slightly widened version of) the
/// Table-II envelope: P ∈ {8..2048}, N < P/4, the ΔW = aP + mN identity by
/// construction, C in the z ∈ [0.1, 3] regime. Already validated.
inline core::ModelParams random_model_params(support::Rng& rng) {
  core::ModelParams p;
  p.P = std::int64_t{1} << rng.uniform_int(3, 11);  // 8 … 2048
  p.N = rng.uniform_int(1, std::max<std::int64_t>(1, p.P / 4));
  p.gamma = rng.uniform_int(20, 200);
  p.omega = 1e9;
  const auto pd = static_cast<double>(p.P);
  p.w0 = rng.uniform(52e7, 1165e7) * pd;
  const double delta_w = (p.w0 / pd) * rng.uniform(0.01, 0.3);
  const double y = rng.uniform(0.8, 1.0);
  p.a = delta_w * (1.0 - y) / pd;
  p.m = delta_w * y / static_cast<double>(p.N);
  p.alpha = rng.uniform(0.0, 1.0);
  p.lb_cost = (p.w0 / pd) * rng.uniform(0.1, 3.0) / p.omega;
  p.validate();
  return p;
}

/// A random valid erosion DomainConfig: 1–6 pairwise-disjoint discs of
/// random radii/probabilities placed left-to-right with the ≥2-cell margin
/// DomainConfig::validate demands. Already validated.
inline erosion::DomainConfig random_domain_config(support::Rng& rng) {
  erosion::DomainConfig c;
  c.rows = rng.uniform_int(32, 96);
  c.flop_per_cell = rng.uniform(20.0, 120.0);
  c.bytes_per_cell = rng.uniform(16.0, 256.0);
  c.refinement_factor = static_cast<double>(rng.uniform_int(1, 6));
  const std::int64_t discs = rng.uniform_int(1, 6);
  const std::int64_t max_radius = std::min<std::int64_t>(12, (c.rows - 5) / 2);
  std::int64_t cursor = 2;  // left edge + the one-cell fluid margin
  for (std::int64_t i = 0; i < discs; ++i) {
    erosion::RockDisc d;
    d.radius = rng.uniform_int(3, max_radius);
    d.cx = cursor + d.radius + rng.uniform_int(0, 8);
    d.cy = rng.uniform_int(d.radius + 2, c.rows - d.radius - 3);
    d.erosion_prob = rng.uniform(0.0, 1.0);
    c.discs.push_back(d);
    // A ≥2-cell horizontal gap between disc edges keeps every pair disjoint
    // regardless of their vertical placement.
    cursor = d.cx + d.radius + 2;
  }
  c.columns = cursor + rng.uniform_int(2, 24);
  c.validate();
  return c;
}

/// `Rng::sample_without_replacement` as first written: an n-element pool,
/// shuffled in its first k slots. The reference the virtual-pool sampler and
/// the gossip round's target draws must match, draw for draw.
inline std::vector<std::size_t> pool_sample(support::Rng& rng, std::size_t n,
                                            std::size_t k) {
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i)
    std::swap(pool[i], pool[i + rng.index(n - i)]);
  pool.resize(k);
  return pool;
}

}  // namespace ulba::testing
