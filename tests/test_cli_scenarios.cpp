// Golden-output tests for the `ulba_cli` subcommands.
//
// Every scenario is driven through cli::run with a pinned seed and a small,
// fast configuration; the full report text is compared byte-for-byte against
// tests/golden/<name>.txt. The virtual-time machine makes every subcommand
// deterministic except `serve`, whose wall-clock metrics are real, so it is
// exercised structurally, not golden-matched.
//
// Regenerate the golden files after an intentional output change with
//   ULBA_UPDATE_GOLDEN=1 ctest -R test_cli_scenarios
// and review the diff like any other code change.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "test_helpers.hpp"

#ifndef ULBA_GOLDEN_DIR
#error "ULBA_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace ulba::cli {
namespace {

std::string run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  const int exit_code = run(args, out);
  EXPECT_EQ(exit_code, 0) << "args[0] = " << (args.empty() ? "" : args[0]);
  return out.str();
}

void expect_matches_golden(const std::string& name,
                           const std::vector<std::string>& args) {
  const std::string text = run_cli(args);
  const std::string path = std::string(ULBA_GOLDEN_DIR) + "/" + name + ".txt";
  if (std::getenv("ULBA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << text;
    return;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with ULBA_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << f.rdbuf();
  EXPECT_EQ(text, expected.str())
      << "output of `ulba_cli " << name
      << "` drifted from " << path
      << " — regenerate with ULBA_UPDATE_GOLDEN=1 if intentional";
}

// ---------------------------------------------------------------------------
// Golden outputs, one per subcommand (fixed seeds, small configurations)
// ---------------------------------------------------------------------------
TEST(CliGolden, Quickstart) {
  expect_matches_golden("quickstart", {"quickstart"});
}

TEST(CliGolden, Erosion) {
  expect_matches_golden(
      "erosion", {"erosion", "--pes", "16", "--iterations", "60",
                  "--columns-per-pe", "48", "--rows", "64", "--rock-radius",
                  "16", "--seed", "3"});
}

TEST(CliGolden, ErosionDistributed) {
  // The SPMD-distributed stepper: 4 ranks, each with a 2-thread pool. The
  // virtual-time numbers are bit-identical to the serial run (see
  // ReportInvariantAcrossThreadsAndRanks below); the golden additionally
  // pins the distributed header and the rank-migration accounting.
  expect_matches_golden(
      "erosion_distributed",
      {"erosion", "--pes", "16", "--iterations", "60", "--columns-per-pe",
       "48", "--rows", "64", "--rock-radius", "16", "--seed", "3", "--ranks",
       "4", "--threads", "2"});
}

TEST(CliGolden, IntervalQuality) {
  expect_matches_golden("interval_quality",
                        {"interval-quality", "--instances", "40",
                         "--sa-steps", "600"});
}

TEST(CliGolden, Intervals) {
  expect_matches_golden("intervals", {"intervals", "--gamma", "40",
                                      "--alpha-steps", "4"});
}

TEST(CliGolden, AlphaTuning) {
  expect_matches_golden("alpha_tuning",
                        {"alpha-tuning", "--alpha-min", "0.2", "--alpha-max",
                         "0.8", "--alpha-step", "0.2"});
}

TEST(CliGolden, Instances) {
  expect_matches_golden("instances", {"instances", "--samples", "40",
                                      "--alpha-grid", "10"});
}

// ---------------------------------------------------------------------------
// One trajectory at the report level: the pooled and distributed runs'
// reports equal the serial run's, modulo the substrate-specific header and
// accounting lines — the app-level face of the determinism contract
// (`test_distributed_erosion` locks the RunResult itself).
// ---------------------------------------------------------------------------
TEST(CliScenarios, ReportInvariantAcrossThreadsAndRanks) {
  const std::vector<std::string> base{
      "erosion", "--pes",        "16", "--iterations", "60",
      "--columns-per-pe", "48",  "--rows", "64", "--rock-radius", "16",
      "--seed", "3"};
  const auto strip = [](const std::string& text) {
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.find("stepping thread(s)") != std::string::npos ||
          line.find("distributed stepping") != std::string::npos ||
          line.find("rank migration") != std::string::npos ||
          line.find("disc move(s)") != std::string::npos ||
          line.find("per-step exchange") != std::string::npos ||
          line.find(" messages, ") != std::string::npos || line.empty())
        continue;
      out += line + "\n";
    }
    return out;
  };
  const std::string serial = strip(run_cli(base));
  const auto with = [&](std::initializer_list<const char*> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    return strip(run_cli(args));
  };
  EXPECT_EQ(serial, with({"--threads", "4"})) << "--threads 4";
  EXPECT_EQ(serial, with({"--ranks", "2"})) << "--ranks 2";
  EXPECT_EQ(serial, with({"--ranks", "4", "--threads", "2"})) << "--ranks 4";
  EXPECT_EQ(serial, with({"--ranks", "8"})) << "--ranks 8";
}

// ---------------------------------------------------------------------------
// Determinism: same invocation, byte-identical report
// ---------------------------------------------------------------------------
TEST(CliScenarios, InstancesIsDeterministicPerSeedAndSensitiveToIt) {
  const std::vector<std::string> args{"instances", "--samples", "40",
                                      "--alpha-grid", "10"};
  EXPECT_EQ(run_cli(args), run_cli(args));
  std::vector<std::string> other = args;
  other.push_back("--seed");
  other.push_back("7");
  EXPECT_NE(run_cli(args), run_cli(other));
}

// ---------------------------------------------------------------------------
// Flag rejection
// ---------------------------------------------------------------------------
TEST(CliScenarios, InstancesRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"instances", "--frobnicate", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--samples", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--alpha-grid", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--seed", "-1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"instances", "--samples"}, out), std::invalid_argument);
  // The sweep runs serially only: the flags of the retired served sweep are
  // unknown, each rejected by name.
  for (const std::string flag :
       {"ranks", "serve-batch", "cache-capacity", "cache-shards"}) {
    try {
      (void)run({"instances", "--samples", "1", "--" + flag, "2"}, out);
      ADD_FAILURE() << "--" << flag << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag --" + flag),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliScenarios, ThreadsFlagIsValidated) {
  std::ostringstream out;
  EXPECT_THROW(run({"erosion", "--threads", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"quickstart", "--threads", "-3"}, out),
               std::invalid_argument);
}

TEST(CliScenarios, RanksFlagIsValidated) {
  std::ostringstream out;
  EXPECT_THROW(run({"erosion", "--ranks", "0"}, out), std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--ranks", "65"}, out),
               std::invalid_argument);
  // AppConfig::validate: ranks must not exceed the PE count.
  EXPECT_THROW(run({"erosion", "--pes", "8", "--ranks", "16"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"quickstart", "--ranks", "-1"}, out),
               std::invalid_argument);
}

TEST(CliScenarios, RetiredFlagsAndBareMtAreRejected) {
  std::ostringstream out;
  // One RNG kind and one in-process stepper: --rng and --shards are not
  // flags (exit 2 at the binary).
  EXPECT_THROW(run({"erosion", "--rng", "counter"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--rng", "fork"}, out), std::invalid_argument);
  EXPECT_THROW(run({"erosion", "--shards", "2"}, out), std::invalid_argument);
  EXPECT_THROW(run({"quickstart", "--shards", "2"}, out),
               std::invalid_argument);
  // One decomposition: the 2D tile-grid flags are not flags any more.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--decomp", "grid"},
                                             {"--grid", "2x2"},
                                             {"--tuner"},
                                             {"--tuner-cap", "0.1"},
                                             {"--tuner-maxiter", "4"},
                                             {"--tuner-tol", "1.1"}}) {
    std::vector<std::string> argv{"erosion", "--ranks", "4"};
    argv.insert(argv.end(), args.begin(), args.end());
    EXPECT_THROW(run(argv, out), std::invalid_argument) << args[0];
  }
  // One LB verdict: the measured trigger source and its knobs are not flags
  // any more, each rejected by name — also on an otherwise valid run.
  const std::vector<std::string> ranks_run{
      "erosion", "--ranks", "2", "--pes", "8", "--iterations", "4",
      "--columns-per-pe", "24", "--rows", "32", "--rock-radius", "8"};
  std::vector<std::string> full_knob_set = ranks_run;
  full_knob_set.insert(full_knob_set.end(),
                       {"--trigger-source", "measured", "--trigger-criterion",
                        "fli", "--fli-threshold", "0.3", "--noise", "0.2"});
  EXPECT_THROW(run(full_knob_set, out), std::invalid_argument);
  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"trigger-source", "measured"},
           {"trigger-criterion", "fli"},
           {"fli-threshold", "0.3"},
           {"noise", "0.2"}}) {
    std::vector<std::string> argv = ranks_run;
    argv.insert(argv.end(), {"--" + flag, value});
    try {
      (void)run(argv, out);
      ADD_FAILURE() << "--" << flag << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag --" + flag),
                std::string::npos)
          << e.what();
    }
  }
  // The step-exchange protocol is an AppConfig field for the benches and
  // tests, not a flag: rejected by name on the serial and distributed run.
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{
           {"erosion", "--exchange", "neighbor"},
           {"erosion", "--ranks", "2", "--exchange", "hypercube"}}) {
    try {
      (void)run(argv, out);
      ADD_FAILURE() << "--exchange must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag --exchange"),
                std::string::npos)
          << e.what();
    }
  }
  // One cut: the paper's greedy scan is the only partitioner, so neither
  // subcommand that used to choose one takes --partitioner, whatever name.
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{
           {"erosion", "--partitioner", "greedy"},
           {"quickstart", "--partitioner", "rcb"}}) {
    try {
      (void)run(argv, out);
      ADD_FAILURE() << argv[0] << " --partitioner must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag --partitioner"),
                std::string::npos)
          << e.what();
    }
  }
  // ... and the harnesses built on retired machinery are gone: the
  // anticipation-vs-reactive harness, the dynamic-α ablation and the
  // WIR-gossip ablation with its zero-cost oracle.
  for (const std::string sub : {"anticipation", "dynamic-alpha", "gossip"}) {
    try {
      (void)run({sub}, out);
      ADD_FAILURE() << "the " << sub << " subcommand must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown subcommand '" + sub + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // One clock: the measured-time track is gone. --mt is no switch any more,
  // so it is a valueless flag wherever it stands ...
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{
           {"erosion", "--mt"},
           {"erosion", "--mt", "--ranks", "2"},
           {"erosion", "--ranks", "2", "--mt"}}) {
    try {
      (void)run(argv, out);
      ADD_FAILURE() << "--mt must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("flag --mt expects a value"),
                std::string::npos)
          << e.what();
    }
  }
  // ... and its burn calibration knobs are unknown flags.
  for (const std::string flag : {"ns-scale", "migration-scale"}) {
    std::vector<std::string> argv = ranks_run;
    argv.insert(argv.end(), {"--" + flag, "2"});
    try {
      (void)run(argv, out);
      ADD_FAILURE() << "--" << flag << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag --" + flag),
                std::string::npos)
          << e.what();
    }
  }
  // The plain distributed run those probes extend runs end to end.
  EXPECT_EQ(run(ranks_run, out), 0);
}

TEST(CliScenarios, IntervalQualityRejectsBadFlags) {
  std::ostringstream out;
  EXPECT_THROW(run({"interval-quality", "--frobnicate", "1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "--instances", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "--sa-steps", "0"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "--seed", "-1"}, out),
               std::invalid_argument);
  EXPECT_THROW(run({"interval-quality", "positional"}, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Randomized-parameter smoke: quickstart accepts anything the shared
// generator emits (ties the CLI vocabulary to the test-wide param factory)
// ---------------------------------------------------------------------------
TEST(CliScenarios, QuickstartAcceptsRandomValidModelParams) {
  support::Rng rng(31);
  for (int i = 0; i < 5; ++i) {
    const core::ModelParams p = ulba::testing::random_model_params(rng);
    const auto num = [](double v) {
      std::ostringstream os;
      os.precision(17);
      os << v;
      return os.str();
    };
    const std::string text = run_cli(
        {"quickstart", "--P", std::to_string(p.P), "--N",
         std::to_string(p.N), "--gamma", std::to_string(p.gamma), "--w0",
         num(p.w0), "--a", num(p.a), "--m", num(p.m), "--alpha",
         num(p.alpha), "--omega", num(p.omega), "--lb-cost",
         num(p.lb_cost)});
    EXPECT_NE(text.find("anticipation gain"), std::string::npos);
  }
}

}  // namespace
}  // namespace ulba::cli
