// Shared helpers for the experiment harness binaries.
//
// The sweep machinery itself (parallel_map, the scaled erosion config, the
// Table-II and interval-quality sweeps) lives in src/cli/sweep.hpp so the
// `ulba_cli` subcommands and these binaries drive one implementation; this
// header only re-exports it under the historical ulba::bench names and adds
// the printf-flavored header the binaries share.
#pragma once

#include <cstdio>
#include <string>

#include "cli/sweep.hpp"

namespace ulba::bench {

using cli::distributed_erosion_scaling;
using cli::DistributedScalingRow;
using cli::instance_family_stats;
using cli::interval_quality_sweep;
using cli::IntervalQualitySample;
using cli::parallel_map;
using cli::scaled_app_config;

inline void print_header(const std::string& title, const std::string& paper) {
  std::string bar(78, '=');
  std::printf("%s\n%s\n", bar.c_str(), title.c_str());
  std::printf("paper reference: %s\n%s\n", paper.c_str(), bar.c_str());
}

}  // namespace ulba::bench
