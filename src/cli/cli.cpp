#include "cli/cli.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "cli/args.hpp"
#include "cli/scenarios.hpp"
#include "support/require.hpp"

namespace ulba::cli {

namespace {

struct Subcommand {
  const char* name;
  const char* summary;
  std::function<int(const FlagMap&, std::ostream&)> scenario;
  std::function<std::string()> help_body;
};

std::string quickstart_help() {
  return "Evaluate the analytic model once: Menon tau, ULBA [sigma-, "
         "sigma+],\nand total time standard-vs-ULBA (mini Figure 3), plus a "
         "mini erosion run.\n\n"
         "options:\n"
         "  --threads <int>      host threads stepping the mini erosion run "
         "[1]\n"
         "  --ranks <int>        SPMD ranks stepping the mini erosion run "
         "over the\n"
         "                       message-passing runtime [1]\n"
         "  --seed <int>         placement seed of the mini erosion run "
         "[11]\n\n" +
         model_param_help(quickstart_defaults());
}

std::string erosion_help() {
  return "Run the paper's erosion application (Section IV-B) under the "
         "standard\nLB method and under ULBA, same seed, and compare.\n"
         "The dynamics draw counter-based (Philox) random numbers addressed "
         "by\n(disc, iteration, cell): one trajectory per seed for every "
         "--threads x\n--ranks combination.\n\n"
         "options:\n"
         "  --pes <int>            processing elements     [32]\n"
         "  --strong <int>         strongly erodible rocks [1]\n"
         "  --seed <int>           placement seed          [11]\n"
         "  --iterations <int>     iterations              [180]\n"
         "  --alpha <0..1>         ULBA fraction           [0.4]\n"
         "  --columns-per-pe <int> stripe width            [256]\n"
         "  --rows <int>           domain height           [384]\n"
         "  --rock-radius <int>    disc radius             [96]\n"
         "  --threads <int>        host threads stepping the dynamics (per "
         "rank with\n"
         "                         --ranks; bit-identical to one thread)  "
         "[1]\n"
         "  --ranks <int>          SPMD ranks stepping the dynamics over the "
         "message-\n"
         "                         passing runtime: per-rank column stripes, "
         "real halo/\n"
         "                         migration messages, bit-identical to the "
         "serial run  [1]\n";
}

std::string intervals_help() {
  return "Sweep alpha and report sigma-/sigma+/schedule/total time, with "
         "the\nexact DP optimum as the reference line.\n\n"
         "options:\n"
         "  --alpha-steps <int>  sweep resolution (alpha = i/steps) [10]\n"
         "  --dp off             skip the O(gamma^2) DP reference\n\n" +
         model_param_help(intervals_defaults());
}

std::string alpha_tuning_help() {
  return "Fine alpha sweep: best alpha for the model and the gain landscape\n"
         "vs. the standard method (analytic Figure-5 counterpart).\n\n"
         "options:\n"
         "  --alpha-min <0..1>   sweep start [0.05]\n"
         "  --alpha-max <0..1>   sweep end   [1.0]\n"
         "  --alpha-step <r>     sweep step  [0.05]\n\n" +
         model_param_help(quickstart_defaults());
}

std::string interval_quality_help() {
  return "Figure 2: quality of the sigma+ LB intervals vs. the heuristic "
         "search\n(simulated annealing) on random Table-II instances, with "
         "the exact DP\noptimum bounding both methods.\n\n"
         "options:\n"
         "  --instances <int>   Table-II instances sampled      [200]\n"
         "  --sa-steps <int>    annealing steps per instance    [5000]\n"
         "  --seed <int>        sampling seed                   [1215]\n";
}

std::string instances_help() {
  return "Table-II-style sweep over the random-instance families (one per\n"
         "pinned PE count): win/loss/gain statistics of ULBA vs. the "
         "standard\nmethod, at the drawn alpha and at the per-instance best "
         "alpha.\n\n"
         "options:\n"
         "  --samples <int>         instances per PE family        [200]\n"
         "  --seed <int>            sampling seed                  "
         "[20190916]\n"
         "  --alpha-grid <int>      best-alpha grid resolution     [20]\n";
}

std::string serve_help() {
  return "Run the schedule service under deterministic multi-client "
         "traffic:\nrank 0 serves ScheduleRequests from a batched mailbox "
         "loop through the\nsharded memo cache; client ranks replay a seeded "
         "query mix over a pool\nof `--distinct` Table-II instances and "
         "check every ScheduleResponse\nbit-for-bit against a cold "
         "evaluation of the same request (provenance\nmasked). Reports "
         "hit-rate/throughput headline metrics and PASS/FAIL\nverdicts; "
         "wall numbers are real. Exit 0 iff the verdicts pass.\n\n"
         "options:\n"
         "  --clients <int>         client ranks (world = clients + 1)  "
         "[4]\n"
         "  --requests <int>        requests per client            [64]\n"
         "  --distinct <int>        request-pool size (repeats become "
         "cache\n"
         "                          hits)                          [16]\n"
         "  --serve-batch <int>     server mailbox batch limit     [32]\n"
         "  --cache-capacity <int>  memo-cache capacity            [4096]\n"
         "  --cache-shards <int>    memo-cache shards              [8]\n"
         "  --mode <name>           evaluation mode: grid (sigma+ sweep) or "
         "dp\n"
         "                          (exact DP + free-form alpha)   [grid]\n"
         "  --alpha-grid <int>      alpha grid resolution          [10]\n"
         "  --seed <int>            traffic seed                   [11]\n";
}

const std::vector<Subcommand>& registry() {
  static const std::vector<Subcommand> kSubcommands{
      {"quickstart",
       "analytic model in a nutshell: tau vs. [sigma-, sigma+] and the gain",
       run_quickstart, quickstart_help},
      {"erosion", "the erosion application, standard vs. ULBA", run_erosion,
       erosion_help},
      {"intervals",
       "alpha sweep of sigma-/sigma+/schedules with the DP optimum",
       run_intervals, intervals_help},
      {"alpha-tuning", "fine alpha sweep: best alpha and the gain landscape",
       run_alpha_tuning, alpha_tuning_help},
      {"instances",
       "Table-II instance families: ULBA win/loss/gain vs. the standard "
       "method",
       run_instances, instances_help},
      {"interval-quality",
       "Figure 2: sigma+ intervals vs. the heuristic search, DP-bounded",
       run_interval_quality, interval_quality_help},
      {"serve",
       "the schedule service under multi-client traffic: hit rate, "
       "throughput, verdicts",
       run_serve, serve_help},
  };
  return kSubcommands;
}

const Subcommand& find_subcommand(const std::string& name) {
  for (const auto& sub : registry())
    if (name == sub.name) return sub;
  support::throw_requirement("known subcommand", __FILE__, __LINE__,
                             "unknown subcommand '" + name +
                                 "' (run `ulba_cli help` for the list)");
}

}  // namespace

std::string usage() {
  std::ostringstream os;
  os << "ulba_cli — unified scenario driver for the ULBA reproduction\n"
     << "(Boulmier et al., \"On the Benefits of Anticipating Load "
        "Imbalance\", CLUSTER 2019)\n\n"
     << "usage: ulba_cli <subcommand> [--flag value | --flag=value]...\n\n"
     << "subcommands:\n";
  std::size_t width = std::string("help").size();
  for (const auto& sub : registry())
    width = std::max(width, std::string(sub.name).size());
  for (const auto& sub : registry())
    os << "  " << sub.name
       << std::string(width + 2 - std::string(sub.name).size(), ' ')
       << sub.summary << "\n";
  os << "  help" << std::string(width - 2, ' ') << "this text\n\n"
     << "`ulba_cli <subcommand> --help` documents the subcommand's flags.\n";
  return os.str();
}

std::string subcommand_help(const std::string& command) {
  const Subcommand& sub = find_subcommand(command);
  std::ostringstream os;
  os << "usage: ulba_cli " << sub.name << " [options]\n\n" << sub.help_body();
  return os.str();
}

std::vector<std::string> subcommand_names() {
  std::vector<std::string> names;
  for (const auto& sub : registry()) names.emplace_back(sub.name);
  return names;
}

int run(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" ||
      args[0] == "-h") {
    out << usage();
    return args.empty() ? 2 : 0;
  }
  const Subcommand& sub = find_subcommand(args[0]);
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  for (const auto& token : rest) {
    if (token == "--help" || token == "-h") {
      out << subcommand_help(sub.name);
      return 0;
    }
  }
  const FlagMap flags(rest);
  return sub.scenario(flags, out);
}

}  // namespace ulba::cli
