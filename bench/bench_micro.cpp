// Microbenchmarks of the hot primitives (google-benchmark).
//
// These are engineering benchmarks, not paper artifacts: they document the
// cost of the building blocks the claims suite leans on (closed-form
// schedule evaluation, σ⁺ computation, stripe partitioning, gossip rounds,
// annealing steps, DP optimization, erosion steps).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

#include "core/gossip.hpp"
#include "core/instance.hpp"
#include "core/intervals.hpp"
#include "core/policy.hpp"
#include "core/schedule.hpp"
#include "erosion/distributed_domain.hpp"
#include "erosion/domain.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"
#include "opt/dp_alpha.hpp"
#include "opt/dp_optimal.hpp"
#include "opt/schedule_problem.hpp"
#include "runtime/spmd.hpp"
#include "support/counter_rng.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ulba;

core::ModelParams bench_params() {
  support::Rng rng(1);
  const core::InstanceGenerator gen;
  return gen.sample(rng).params;
}

void BM_ScheduleEvaluateUlba(benchmark::State& state) {
  const core::ModelParams p = bench_params();
  const core::Schedule s = core::sigma_plus_schedule(p);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::evaluate_ulba(p, s).total_seconds);
}
BENCHMARK(BM_ScheduleEvaluateUlba);

void BM_SigmaPlusSchedule(benchmark::State& state) {
  const core::ModelParams p = bench_params();
  for (auto _ : state)
    benchmark::DoNotOptimize(core::sigma_plus_schedule(p).lb_count());
}
BENCHMARK(BM_SigmaPlusSchedule);

void BM_MenonTau(benchmark::State& state) {
  const core::ModelParams p = bench_params();
  for (auto _ : state) benchmark::DoNotOptimize(core::menon_tau(p));
}
BENCHMARK(BM_MenonTau);

void BM_DpOptimal(benchmark::State& state) {
  const core::ModelParams p = bench_params();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        opt::optimal_schedule(p, opt::CostModel::kUlba).total_seconds);
}
BENCHMARK(BM_DpOptimal);

void BM_AnnealSchedule(benchmark::State& state) {
  const core::ModelParams p = bench_params();
  const auto steps = state.range(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    support::Rng rng(++seed);
    benchmark::DoNotOptimize(
        opt::anneal_schedule(p, opt::CostModel::kUlba, rng, steps)
            .total_seconds);
  }
}
BENCHMARK(BM_AnnealSchedule)->Arg(1000)->Arg(10000);

void BM_ComputeLbWeights(benchmark::State& state) {
  const auto pe_count = static_cast<std::size_t>(state.range(0));
  std::vector<double> alphas(pe_count, 0.0);
  for (std::size_t i = 0; i < pe_count / 10 + 1; ++i) alphas[i] = 0.4;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::compute_lb_weights(alphas, 1e12).weights);
}
BENCHMARK(BM_ComputeLbWeights)->Arg(64)->Arg(2048);

void BM_StripePartition(benchmark::State& state) {
  const auto columns = static_cast<std::size_t>(state.range(0));
  support::Rng rng(2);
  std::vector<double> weights(columns);
  for (double& w : weights) w = rng.uniform(1.0, 3.0);
  const std::vector<double> fractions(64, 1.0 / 64.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        lb::partition_by_weight(weights, fractions).back());
}
BENCHMARK(BM_StripePartition)->Arg(16384)->Arg(262144);

void BM_GossipRound(benchmark::State& state) {
  const auto pe_count = state.range(0);
  core::GossipNetwork net(pe_count, 2);
  for (std::int64_t pe = 0; pe < pe_count; ++pe)
    net.observe_local(pe, 1.0, 0);
  support::Rng rng(3);
  for (auto _ : state) net.step(rng);
}
// 384 is control_p384's PE count.
BENCHMARK(BM_GossipRound)->Arg(64)->Arg(256)->Arg(384);

/// The shared erosion workload of the stepper benchmarks: 16 discs on a
/// 4096x256 field, one strongly erodible.
erosion::DomainConfig bench_erosion_config() {
  erosion::DomainConfig cfg;
  cfg.columns = 4096;
  cfg.rows = 256;
  for (int i = 0; i < 16; ++i)
    cfg.discs.push_back(
        erosion::RockDisc{128 + 256 * i, 128, 64, i == 0 ? 0.4 : 0.02});
  return cfg;
}

/// One Philox draw through the counter RNG — the per-cell cost floor of the
/// counter stepper's decide pass.
void BM_CounterRngDraw(benchmark::State& state) {
  const support::CounterRng rng(4, 7);
  std::uint64_t cell = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(rng.uniform01(11, ++cell));
}
BENCHMARK(BM_CounterRngDraw);

// Erosion decays the frontier, so an ever-evolving domain would measure a
// shrinking problem: the bench rebuilds the domain every 48 steps, outside
// the timed region. Real time, not cpu_time: the pooled variant hands work
// to worker threads, which the main thread's CPU clock would miss.
constexpr int kStepsPerEpoch = 48;

void BM_ErosionStepCounter(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::optional<support::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  erosion::ErosionDomain domain(bench_erosion_config());
  std::int64_t iter = 0;
  int steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        domain.step_counter(4, iter++, pool ? &*pool : nullptr));
    if (++steps == kStepsPerEpoch) {
      state.PauseTiming();
      domain = erosion::ErosionDomain(bench_erosion_config());
      iter = 0;
      steps = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ErosionStepCounter)->Arg(1)->Arg(8)->UseRealTime();

void BM_DistributedErosionStep(benchmark::State& state) {
  // One measured unit = an 8-step SPMD run over 4 ranks (construction
  // included — spawning the world is part of what the step exchange must
  // amortize). Real time: rank 0 runs on the main thread and the other
  // ranks on their own, so the main thread's CPU clock would count one
  // rank's share and miss the waiting.
  erosion::DomainConfig cfg;
  cfg.columns = 16 * 48;
  cfg.rows = 64;
  for (int i = 0; i < 16; ++i)
    cfg.discs.push_back(
        erosion::RockDisc{24 + 48 * i, 32, 16, i == 7 ? 0.4 : 0.02});
  for (auto _ : state) {
    std::int64_t eroded = 0;
    runtime::spmd_run(4, [&](runtime::Comm& comm) {
      erosion::DistributedDomain domain(cfg, comm,
                                        lb::make_partitioner("greedy"));
      std::int64_t total = 0;
      for (int s = 0; s < 8; ++s) total += domain.step_counter(4, s);
      if (comm.rank() == 0) eroded = total;
    });
    benchmark::DoNotOptimize(eroded);
  }
}
BENCHMARK(BM_DistributedErosionStep)->UseRealTime();

void BM_DpAlphaSchedule(benchmark::State& state) {
  const core::ModelParams p = bench_params();
  for (auto _ : state)
    benchmark::DoNotOptimize(opt::optimal_alpha_schedule(p).total_seconds);
}
BENCHMARK(BM_DpAlphaSchedule);

void BM_StripeLoads(benchmark::State& state) {
  const auto columns = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(columns, 1.0);
  const auto b = lb::even_partition(static_cast<std::int64_t>(columns), 64);
  for (auto _ : state)
    benchmark::DoNotOptimize(lb::stripe_loads(weights, b).front());
}
BENCHMARK(BM_StripeLoads)->Arg(16384)->Arg(262144);

}  // namespace
