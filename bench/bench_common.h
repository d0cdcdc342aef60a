// Shared infrastructure for the paper-reproduction benches: experiment
// headers, table/ASCII-plot printing and argument parsing. The testbed
// itself is a plain api::Deployment, whose defaults are the 5x5 grid of
// paper Fig. 3 with the paper's channel calibration.
#pragma once

#include <cstdio>
#include <string>

#include "api/deployment.h"
#include "core/agent_library.h"
#include "core/assembler.h"
#include "sim/stats.h"

namespace agilla::bench {

/// Prints "key = value"-style experiment headers uniformly.
inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

/// Simple aligned series printer with an ASCII bar per row.
inline void print_series_row(const std::string& label, double value,
                             double bar_max, const std::string& unit,
                             double stddev = -1.0) {
  std::string bar = sim::ascii_bar(bar_max > 0 ? value / bar_max : 0.0, 32);
  if (stddev >= 0.0) {
    std::printf("  %-14s %9.2f %-4s (+/- %7.2f)  |%s|\n", label.c_str(),
                value, unit.c_str(), stddev, bar.c_str());
  } else {
    std::printf("  %-14s %9.2f %-4s                |%s|\n", label.c_str(),
                value, unit.c_str(), bar.c_str());
  }
}

/// Parses "--trials N" / "--loss P" / "--threads N" style overrides.
struct BenchArgs {
  int trials = 100;
  double loss = api::kDefaultLoss;
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< harness workers; 0 = hardware concurrency

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--trials") {
        args.trials = std::stoi(value);
      } else if (key == "--loss") {
        args.loss = std::stod(value);
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--threads") {
        args.threads = static_cast<unsigned>(std::stoi(value));
      }
    }
    return args;
  }
};

}  // namespace agilla::bench
