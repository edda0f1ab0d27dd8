#include "erosion/app.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>

#include "bsp/machine.hpp"
#include "core/detector.hpp"
#include "core/gossip.hpp"
#include "core/trigger.hpp"
#include "erosion/distributed_domain.hpp"
#include "lb/driver.hpp"
#include "lb/stripe_partitioner.hpp"
#include "runtime/spmd.hpp"
#include "support/require.hpp"

namespace ulba::erosion {

namespace {

/// Per-fluid-neighbour erosion probabilities of the paper's rocks (§IV-B).
constexpr double kWeakErosionProbability = 0.02;
constexpr double kStrongErosionProbability = 0.4;

/// Prior LB-cost estimate: only the communication phases are predictable
/// before the first step (migration volume and rebuild depend on the data).
/// A deliberately low prior makes the first LB fire early — a cheap probing
/// step whose measured cost then calibrates the running average, the same
/// bootstrap Meta-Balancer-style systems use.
double prior_lb_cost(const AppConfig& config, std::int64_t columns) {
  const auto P = config.pe_count;
  return config.comm.gather(static_cast<std::int64_t>(sizeof(double)), P) +
         static_cast<double>(columns) * 8.0 / config.flops +
         config.comm.broadcast(
             static_cast<std::int64_t>((P + 1) * sizeof(std::int64_t)), P);
}

/// The virtual-time LB machinery of one run — monitoring (BSP supersteps +
/// WIR + gossip), the adaptive trigger, and the centralized Algorithm-2 LB
/// step — kept apart from the stepping substrate: run_distributed executes
/// it on rank 0 against the gathered weights, which are the same for every
/// rank count, so the RunResult is too.
///
/// Call protocol per iteration:
///   observe(iter, weights)                        — before the dynamics step
///   should_balance(iter, total_workload)          — after the dynamics step
///   balance(iter, weights, bytes)                 — only when it said yes
///   end_iteration()                               — always, last
/// then take_result(weights, eroded) after the loop.
class LbController {
 public:
  LbController(const AppConfig& config,
               std::shared_ptr<const lb::Partitioner> partitioner,
               std::int64_t columns)
      : config_(config),
        machine_(config.pe_count, config.flops, config.comm),
        balancer_(config.comm, config.flops),
        gossip_(config.pe_count, config.gossip_fanout),
        detector_(config.zscore_threshold),
        gossip_rng_(support::Rng(config.seed).fork(2)),
        lb_cost_(prior_lb_cost(config, columns)),
        boundaries_(lb::even_partition(columns, config.pe_count)),
        // Gossip traffic per iteration: each PE pushes its P-entry database
        // (16 bytes per entry) to `fanout` peers; pushes proceed
        // concurrently, so one PE's cost is its own `fanout` sends.
        gossip_seconds_(static_cast<double>(config.gossip_fanout) *
                        config.comm.p2p(16 * config.pe_count)),
        wir_(static_cast<std::size_t>(config.pe_count), 0.0) {
    balancer_.set_partitioner(std::move(partitioner));
    result_.iterations.reserve(static_cast<std::size_t>(config.iterations));
  }

  [[nodiscard]] RunResult& result() noexcept { return result_; }

  /// Superstep + WIR monitoring + gossip round on the pre-step weights.
  void observe(std::int64_t iter, std::span<const double> column_weights) {
    const auto P = config_.pe_count;
    const auto loads = lb::stripe_loads(column_weights, boundaries_);
    const auto report = machine_.run_superstep(loads, gossip_seconds_);

    // WIR monitoring (skipped on the iteration right after an LB step:
    // stripe composition changed, the delta would measure migration, not
    // application growth).
    if (wir_valid_) {
      for (std::int64_t p = 0; p < P; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const double raw = std::max(0.0, loads[i] - prev_loads_[i]);
        wir_[i] = config_.wir_smoothing * raw +
                  (1.0 - config_.wir_smoothing) * wir_[i];
        gossip_.observe_local(p, wir_[i], iter);
      }
    }
    prev_loads_ = loads;
    wir_valid_ = true;
    gossip_.step(gossip_rng_);

    pending_ = IterationRecord{};
    pending_.seconds = report.seconds;
    pending_.utilization = report.utilization;
  }

  /// Adaptive-trigger half (call after the dynamics stepped): true when this
  /// iteration must end in an LB step.
  [[nodiscard]] bool should_balance(std::int64_t iter, double total_workload) {
    trigger_.record_iteration(pending_.seconds);
    const double threshold = trigger_threshold(total_workload);
    pending_.degradation = trigger_.degradation();
    pending_.threshold = threshold;

    bool balance_now = false;
    switch (config_.trigger_mode) {
      case TriggerMode::kAdaptive:
        balance_now = trigger_.should_balance(threshold);
        break;
      case TriggerMode::kPeriodic:
        balance_now = (iter + 1) % config_.lb_period == 0;
        break;
      case TriggerMode::kNever:
        balance_now = false;
        break;
    }
    const bool last_iteration = iter + 1 >= config_.iterations;
    return !last_iteration && balance_now;
  }

  /// The centralized LB step (Algorithm 1, lines 17–23): each PE classifies
  /// itself from its own (gossip-fed, possibly stale) database view and, for
  /// ULBA, an overloading PE applies the configured α.
  void balance(std::int64_t iter, std::span<const double> column_weights,
               std::span<const double> column_bytes) {
    const auto P = config_.pe_count;
    std::vector<double> alphas(static_cast<std::size_t>(P), 0.0);
    if (config_.method == Method::kUlba) {
      for (std::int64_t p = 0; p < P; ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (detector_.is_overloading(wir_[i], gossip_.database(p).wirs()))
          alphas[i] = config_.alpha;
      }
    }
    const auto lb_step = balancer_.step(alphas, column_weights, column_bytes,
                                        boundaries_);
    machine_.charge_global(lb_step.cost.total());
    lb_cost_.observe(lb_step.cost.total());
    trigger_.reset();
    boundaries_ = lb_step.boundaries;
    wir_valid_ = false;  // next delta would measure the migration
    if (lb_step.assignment.fell_back_to_standard) ++result_.fallback_count;
    ++result_.lb_count;
    result_.lb_seconds += lb_step.cost.total();
    result_.lb_iterations.push_back(iter);
    pending_.lb_performed = true;
  }

  /// Close the books on the current iteration.
  void end_iteration() {
    result_.compute_seconds += pending_.seconds;
    result_.iterations.push_back(pending_);
  }

  [[nodiscard]] RunResult take_result(std::span<const double> column_weights,
                                      std::int64_t eroded_cells) {
    result_.total_seconds = machine_.elapsed_seconds();
    result_.average_utilization = machine_.average_utilization();
    result_.eroded_cells = eroded_cells;
    result_.final_imbalance =
        lb::load_imbalance(column_weights, boundaries_);
    return std::move(result_);
  }

 private:
  /// Eq. (11): average LB cost plus, for ULBA, the overhead the next
  /// underloading step would impose on a non-overloading PE, estimated from
  /// the main PE's WIR database at the configured α.
  [[nodiscard]] double trigger_threshold(double total_workload) const {
    double threshold = lb_cost_.average();
    if (config_.method == Method::kUlba &&
        config_.anticipate_overhead_in_trigger) {
      const auto P = config_.pe_count;
      const auto& known = gossip_.database(0).wirs();
      const std::int64_t n_hat = detector_.count_overloading(known);
      if (n_hat > 0 && 2 * n_hat < P)
        threshold += config_.alpha * static_cast<double>(n_hat) /
                     static_cast<double>(P - n_hat) * total_workload /
                     (config_.flops * static_cast<double>(P));
    }
    return threshold;
  }

  const AppConfig& config_;
  bsp::Machine machine_;
  lb::CentralizedLb balancer_;
  core::GossipNetwork gossip_;
  core::OverloadDetector detector_;
  core::AdaptiveTrigger trigger_;
  support::Rng gossip_rng_;
  core::LbCostEstimator lb_cost_;
  lb::StripeBoundaries boundaries_;
  double gossip_seconds_;
  std::vector<double> wir_;
  std::vector<double> prev_loads_;
  bool wir_valid_ = false;
  IterationRecord pending_;
  RunResult result_;
};

/// The run, over AppConfig::ranks SPMD ranks (rank 0 on the calling
/// thread): every rank steps its stripe of the DistributedDomain, and rank 0
/// additionally executes the LbController against weights reassembled
/// through real messages, so the RunResult is bit-identical for every
/// (ranks, threads) split apart from the rank accounting, which reads 0 at
/// one rank. Every LB verdict comes from the virtual-time controller; no
/// rank reads a wall clock.
RunResult run_distributed(const AppConfig& config,
                          const DomainConfig& domain_config) {
  RunResult result;
  const int R = static_cast<int>(config.ranks);
  runtime::spmd_run(
      R, [&](runtime::Comm& comm) {
        const std::shared_ptr<const lb::Partitioner> partitioner(
            lb::make_partitioner(config.partitioner));
        DistributedDomain domain(domain_config, comm, partitioner);
        // The dynamics key: a forked sub-seed, so the Philox draws cannot
        // collide with the placement/gossip streams.
        const std::uint64_t dynamics_seed =
            support::Rng(config.seed).fork(1).seed();
        std::optional<support::ThreadPool> pool;
        if (config.threads > 1)
          pool.emplace(static_cast<std::size_t>(config.threads));
        const bool main = comm.rank() == 0;
        std::optional<LbController> ctl;
        if (main) ctl.emplace(config, partitioner, domain.columns());
        const double byte_scale =
            config.bytes_per_cell / config.flop_per_cell;

        for (std::int64_t iter = 0; iter < config.iterations; ++iter) {
          // Monitoring gather (collective): the main rank reassembles the
          // full pre-step weights and runs superstep/WIR/gossip on them.
          const std::vector<double> weights = domain.gather_column_weights(0);
          if (main) ctl->observe(iter, weights);

          // Application dynamics (collective; independent of LB decisions).
          (void)domain.step_counter(dynamics_seed, iter,
                                    pool ? &*pool : nullptr);

          // The virtual-time trigger decides at the main rank; the verdict
          // is broadcast so every rank enters (or skips) the LB collectives
          // in lockstep.
          std::uint8_t balance_now = 0;
          if (main)
            balance_now =
                ctl->should_balance(iter, domain.total_workload()) ? 1 : 0;
          comm.broadcast(balance_now, 0);
          if (balance_now != 0) {
            // One reassembly serves both the centralized LB step (main
            // rank) and the stripe recut (every rank).
            const std::vector<double> post =
                domain.allgather_column_weights();
            if (main) {
              std::vector<double> bytes(post.size());
              for (std::size_t x = 0; x < post.size(); ++x)
                bytes[x] = post[x] * byte_scale;
              ctl->balance(iter, post, bytes);
            }
            // Recut the rank stripes against the freshly balanced weights —
            // column weights and disc ownership move as real messages.
            const DistributedReshardResult reshard = domain.rebalance(post);
            if (main) {
              ctl->result().rank_discs_moved += reshard.discs_moved;
              ctl->result().rank_migration_bytes +=
                  reshard.predicted.total_bytes;
              ctl->result().rank_observed_bytes +=
                  reshard.observed_payload_bytes;
            }
          }
          if (main) ctl->end_iteration();
        }
        const std::vector<double> final_weights =
            domain.gather_column_weights(0);
        // Collective: the decomposition-level (per-RANK) imbalance of the
        // final cut — distinct from RunResult::final_imbalance, which rates
        // the controller's PE stripes.
        const double fractional = domain.fractional_load_imbalance();
        const auto step_messages = comm.allreduce(
            static_cast<std::int64_t>(domain.step_messages_sent()));
        const auto step_bytes = comm.allreduce(
            static_cast<double>(domain.step_payload_bytes_sent()));
        if (main) {
          result = ctl->take_result(final_weights, domain.eroded_cells());
          result.rank_step_messages = step_messages;
          result.rank_step_bytes = step_bytes;
          result.rank_fractional_imbalance = fractional;
        }
      });
  return result;
}

}  // namespace

void AppConfig::validate() const {
  ULBA_REQUIRE(pe_count >= 2, "need at least two PEs");
  ULBA_REQUIRE(columns_per_pe >= 4, "need at least four columns per PE");
  ULBA_REQUIRE(rows >= 4, "need at least four rows");
  ULBA_REQUIRE(rock_radius >= 1, "rock radius must be at least one cell");
  ULBA_REQUIRE(2 * rock_radius + 2 < rows,
               "rocks must fit inside the domain height");
  ULBA_REQUIRE(2 * rock_radius + 2 < columns_per_pe,
               "rocks must fit one per initial stripe without touching");
  ULBA_REQUIRE(strong_rock_count >= 0 && strong_rock_count <= pe_count,
               "strong rocks must number in [0, P]");
  ULBA_REQUIRE(iterations >= 1, "need at least one iteration");
  ULBA_REQUIRE(flops > 0.0, "PE speed must be positive");
  ULBA_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must lie in [0, 1]");
  ULBA_REQUIRE(gossip_fanout >= 1 && gossip_fanout < pe_count,
               "gossip fanout must lie in [1, P)");
  ULBA_REQUIRE(wir_smoothing > 0.0 && wir_smoothing <= 1.0,
               "WIR smoothing factor must lie in (0, 1]");
  ULBA_REQUIRE(lb_period >= 1, "LB period must be at least one iteration");
  ULBA_REQUIRE(threads >= 1, "need at least one stepping thread");
  ULBA_REQUIRE(ranks >= 1 && ranks <= pe_count,
               "rank count must lie in [1, pe_count]");
  (void)lb::make_partitioner(partitioner);  // throws on unknown names
  (void)exchange_mode_from_name(exchange);  // throws on unknown names
  comm.validate();
}

ErosionApp::ErosionApp(AppConfig config) : config_(config) {
  config_.validate();
}

DomainConfig ErosionApp::make_domain() const {
  // Placement stream: which discs are strongly erodible. "It is not known in
  // advance where the rocks with a high eroding probability are located."
  support::Rng placement = support::Rng(config_.seed).fork(0);
  const auto strong = placement.sample_without_replacement(
      static_cast<std::size_t>(config_.pe_count),
      static_cast<std::size_t>(config_.strong_rock_count));
  std::vector<bool> is_strong(static_cast<std::size_t>(config_.pe_count),
                              false);
  for (std::size_t s : strong) is_strong[s] = true;

  DomainConfig d;
  d.columns = config_.columns();
  d.rows = config_.rows;
  d.flop_per_cell = config_.flop_per_cell;
  d.bytes_per_cell = config_.bytes_per_cell;
  d.discs.reserve(static_cast<std::size_t>(config_.pe_count));
  for (std::int64_t i = 0; i < config_.pe_count; ++i) {
    RockDisc disc;
    disc.cx = i * config_.columns_per_pe + config_.columns_per_pe / 2;
    disc.cy = config_.rows / 2;
    disc.radius = config_.rock_radius;
    disc.erosion_prob = is_strong[static_cast<std::size_t>(i)]
                            ? kStrongErosionProbability
                            : kWeakErosionProbability;
    d.discs.push_back(disc);
  }
  d.validate();
  return d;
}

RunResult ErosionApp::run() const {
  return run_distributed(config_, make_domain());
}

}  // namespace ulba::erosion
