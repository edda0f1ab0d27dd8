// The paper's §IV-B application, end to end: a fluid domain with P erodible
// rock discs, one of them strongly erodible, run under the standard LB
// method (Zhai-adaptive trigger) and under ULBA — same seed, identical
// erosion dynamics, different balancing.
//
//   ./erosion_demo [pe_count] [strong_rocks] [seed]
//
// Configurable version: `ulba_cli erosion` (flag-driven domain + alpha).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cli/sweep.hpp"
#include "erosion/app.hpp"
#include "support/text_plot.hpp"

namespace {

void report(const char* name, const ulba::erosion::RunResult& r) {
  std::printf("%s\n", name);
  std::printf("  total time        : %.3f virtual s (compute %.3f + LB %.3f)\n",
              r.total_seconds, r.compute_seconds, r.lb_seconds);
  std::printf("  LB calls          : %lld", static_cast<long long>(r.lb_count));
  if (!r.lb_iterations.empty()) {
    std::printf("  at iterations ");
    for (auto it : r.lb_iterations)
      std::printf("%lld ", static_cast<long long>(it));
  }
  std::printf("\n  avg utilization   : %.1f%%\n",
              r.average_utilization * 100.0);
  std::vector<double> util;
  util.reserve(r.iterations.size());
  for (const auto& rec : r.iterations) util.push_back(rec.utilization);
  std::printf("  utilization trace : %s\n\n",
              ulba::support::sparkline(util).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ulba::erosion;
  const std::int64_t pe_count = argc > 1 ? std::atoll(argv[1]) : 32;
  const std::int64_t strong = argc > 2 ? std::atoll(argv[2]) : 1;
  const auto seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : std::uint64_t{11};

  std::printf("Erosion demo: %lld PEs, %lld strongly erodible rock(s) among "
              "%lld, seed %llu\n",
              static_cast<long long>(pe_count), static_cast<long long>(strong),
              static_cast<long long>(pe_count),
              static_cast<unsigned long long>(seed));
  // The scaled Figure-4 configuration the claims suite and `ulba_cli
  // erosion` share.
  AppConfig cfg = ulba::cli::scaled_app_config(pe_count, strong,
                                               Method::kStandard, seed);
  std::printf("(domain %lldx%lld cells, rock radius %lld, alpha = %g)\n\n",
              static_cast<long long>(cfg.columns()),
              static_cast<long long>(cfg.rows),
              static_cast<long long>(cfg.rock_radius), cfg.alpha);

  const RunResult std_run = ErosionApp(cfg).run();
  cfg.method = Method::kUlba;
  const RunResult ulba_run = ErosionApp(cfg).run();

  report("standard LB method (adaptive trigger of Zhai et al.):", std_run);
  report("ULBA (anticipatory underloading):", ulba_run);

  std::printf("==> ULBA gain: %+.1f%% wall clock, %+.1f pp utilization, "
              "%lld fewer LB calls\n",
              (std_run.total_seconds - ulba_run.total_seconds) /
                  std_run.total_seconds * 100.0,
              (ulba_run.average_utilization - std_run.average_utilization) *
                  100.0,
              static_cast<long long>(std_run.lb_count - ulba_run.lb_count));
  return 0;
}
