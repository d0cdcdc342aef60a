// Declarative experiment specifications for the deterministic harness.
//
// An ExperimentSpec names a scenario and the parameter grid to sweep:
// mesh sizes x packet-loss rates x tuple-store backends x any number of
// scenario-specific axes (e.g. hop count for the Fig. 9/10 experiments).
// expand_cells() flattens the grid into an ordered list of parameter
// cells; expand_trials() assigns each cell `trials` independent trials,
// each with its own RNG seed derived from (base_seed, cell, trial) via
// SplitMix64 — so trial outcomes are a pure function of the spec and are
// bit-identical no matter how many worker threads execute them, or in
// what order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/deployment.h"
#include "sim/types.h"
#include "tuplespace/store_interface.h"

namespace agilla::harness {

struct GridSize {
  std::size_t width = 5;
  std::size_t height = 5;

  friend constexpr bool operator==(const GridSize&, const GridSize&) =
      default;
};

/// One extra sweep dimension, e.g. {"hops", {1,2,3,4,5}}.
struct Axis {
  std::string name;
  std::vector<double> values;
};

struct ExperimentSpec {
  std::string name = "experiment";
  std::string scenario;  ///< registered scenario name (see scenario.h)
  std::vector<GridSize> grids = {{5, 5}};
  std::vector<double> loss_rates = {0.02};
  double per_byte_loss = 0.0;
  std::vector<ts::StoreKind> stores = {ts::StoreKind::kLinear};
  std::vector<Axis> axes;
  int trials = 8;
  std::uint64_t base_seed = 1;
  /// Virtual time the scenario should simulate after warm-up.
  sim::SimTime duration = 120 * sim::kSecond;
  /// Fixed scenario knobs, overridden per cell by matching axis values.
  std::map<std::string, double> params;
};

/// One fully-resolved point of the parameter grid.
struct CellSpec {
  GridSize grid;
  double packet_loss = 0.0;
  ts::StoreKind store = ts::StoreKind::kLinear;
  /// Axis name -> value for this cell, in spec axis order.
  std::vector<std::pair<std::string, double>> axis_values;
};

/// One independent simulation run.
struct TrialSpec {
  std::size_t cell = 0;  ///< index into expand_cells(spec)
  int trial = 0;         ///< trial number within the cell
  GridSize grid;
  double packet_loss = 0.0;
  double per_byte_loss = 0.0;
  ts::StoreKind store = ts::StoreKind::kLinear;
  std::uint64_t seed = 1;  ///< derived; unique per (base_seed, cell, trial)
  sim::SimTime duration = 0;
  std::map<std::string, double> params;  ///< spec params + axis overrides

  [[nodiscard]] double param(const std::string& key, double fallback) const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
};

/// Trial seed derivation: hash-mixes (base, cell, trial) so neighbouring
/// trials get statistically independent streams.
[[nodiscard]] std::uint64_t derive_trial_seed(std::uint64_t base_seed,
                                              std::uint64_t cell,
                                              std::uint64_t trial);

/// The parameter grid in deterministic order: grids (outermost) x losses
/// x stores x axes in declaration order (innermost).
[[nodiscard]] std::vector<CellSpec> expand_cells(const ExperimentSpec& spec);

/// All trials, ordered by (cell, trial).
[[nodiscard]] std::vector<TrialSpec> expand_trials(
    const ExperimentSpec& spec);

/// The deployment one trial runs on: grid, loss, seed and store from the
/// spec by hand, every named knob through api::apply_knobs (the registry
/// seam).
[[nodiscard]] api::DeploymentOptions options_for(const TrialSpec& trial);

/// Parses "16x16" / "8" (square shorthand) into a GridSize.
[[nodiscard]] std::optional<GridSize> parse_grid(std::string_view text);

}  // namespace agilla::harness
