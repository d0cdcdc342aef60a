// The Sec. 4 reliability/latency experiment shared by the Fig. 9 and
// Fig. 10 benches, as declarative harness specs: the paper's Fig. 8
// agents (smove round-trip and rout) are the "smove"/"rout" scenarios,
// swept over a hops=1..5 axis on the 5x5 testbed, `trials` independent
// trials per point, run in parallel by the experiment runner.
#pragma once

#include <cmath>
#include <string>

#include "bench_common.h"
#include "harness/runner.h"

namespace agilla::bench {

/// The Fig. 8 sweep: 5x5 grid, per-byte-calibrated channel, hops 1..5.
inline harness::ExperimentSpec fig8_spec(std::string scenario, int trials,
                                         double loss, std::uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.name = "fig8_" + scenario;
  spec.scenario = std::move(scenario);
  spec.grids = {{5, 5}};
  spec.loss_rates = {loss};
  spec.per_byte_loss = api::kDefaultPerByteLoss;
  spec.axes = {{"hops", {1, 2, 3, 4, 5}}};
  spec.trials = trials;
  spec.base_seed = seed;
  return spec;
}

/// Mean of `metric` in `cell`; `fallback` when no trial emitted it.
inline double cell_mean(const harness::CellResult& cell,
                        const std::string& metric, double fallback = 0.0) {
  const auto it = cell.metrics.find(metric);
  return it == cell.metrics.end() ? fallback : it->second.summary.mean();
}

/// The latency Summary for `cell` (empty Summary when all trials failed).
inline const sim::Summary& cell_latency(const harness::CellResult& cell) {
  static const sim::Summary kEmpty;
  const auto it = cell.metrics.find("latency_ms");
  return it == cell.metrics.end() ? kEmpty : it->second.summary;
}

/// Per-single-migration success rate. The smove experiment is a round
/// trip, so a trial succeeds only if BOTH migrations do; the paper
/// "halved to account for the double migration" — sqrt() is the exact
/// form of that correction.
inline double per_migration_rate(double round_trip_rate) {
  return std::sqrt(round_trip_rate);
}

}  // namespace agilla::bench
