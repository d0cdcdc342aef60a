#include "harness/experiment.h"

#include <charconv>

#include "api/knob_registry.h"
#include "sim/rng.h"

namespace agilla::harness {

std::uint64_t derive_trial_seed(std::uint64_t base_seed, std::uint64_t cell,
                                std::uint64_t trial) {
  // Chain three SplitMix64 steps so (base, cell, trial) triples cannot
  // collide the way additive schemes (base + cell * K + trial) do.
  sim::SplitMix64 mix(base_seed ^ 0xA5A5A5A5DEADBEEFULL);
  std::uint64_t s = mix.next();
  sim::SplitMix64 cell_mix(s ^ (cell * 0x9E3779B97F4A7C15ULL));
  s = cell_mix.next();
  sim::SplitMix64 trial_mix(s ^ (trial * 0xD1B54A32D192ED03ULL));
  return trial_mix.next();
}

std::vector<CellSpec> expand_cells(const ExperimentSpec& spec) {
  std::vector<CellSpec> cells;
  // Start from the grid x loss x store product...
  for (const GridSize& grid : spec.grids) {
    for (const double loss : spec.loss_rates) {
      for (const ts::StoreKind store : spec.stores) {
        cells.push_back(CellSpec{grid, loss, store, {}});
      }
    }
  }
  // ...then cross in each axis, preserving declaration order.
  for (const Axis& axis : spec.axes) {
    if (axis.values.empty()) {
      continue;
    }
    std::vector<CellSpec> expanded;
    expanded.reserve(cells.size() * axis.values.size());
    for (const CellSpec& cell : cells) {
      for (const double value : axis.values) {
        CellSpec next = cell;
        next.axis_values.emplace_back(axis.name, value);
        expanded.push_back(std::move(next));
      }
    }
    cells = std::move(expanded);
  }
  return cells;
}

std::vector<TrialSpec> expand_trials(const ExperimentSpec& spec) {
  const std::vector<CellSpec> cells = expand_cells(spec);
  std::vector<TrialSpec> trials;
  trials.reserve(cells.size() * static_cast<std::size_t>(spec.trials));
  for (std::size_t cell_index = 0; cell_index < cells.size(); ++cell_index) {
    const CellSpec& cell = cells[cell_index];
    for (int trial = 0; trial < spec.trials; ++trial) {
      TrialSpec t;
      t.cell = cell_index;
      t.trial = trial;
      t.grid = cell.grid;
      t.packet_loss = cell.packet_loss;
      t.per_byte_loss = spec.per_byte_loss;
      t.store = cell.store;
      t.seed = derive_trial_seed(spec.base_seed, cell_index,
                                 static_cast<std::uint64_t>(trial));
      t.duration = spec.duration;
      t.params = spec.params;
      for (const auto& [name, value] : cell.axis_values) {
        t.params[name] = value;
      }
      trials.push_back(std::move(t));
    }
  }
  return trials;
}

api::DeploymentOptions options_for(const TrialSpec& trial) {
  api::DeploymentOptions options{.width = trial.grid.width,
                                 .height = trial.grid.height,
                                 .packet_loss = trial.packet_loss,
                                 .per_byte_loss = trial.per_byte_loss,
                                 .seed = trial.seed,
                                 .store = trial.store};
  api::apply_knobs(options, trial.params);
  return options;
}

std::optional<GridSize> parse_grid(std::string_view text) {
  const auto parse_size = [](std::string_view s) -> std::optional<std::size_t> {
    std::size_t v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || ptr != s.data() + s.size() || v == 0) {
      return std::nullopt;
    }
    return v;
  };
  const std::size_t sep = text.find('x');
  if (sep == std::string_view::npos) {
    const auto side = parse_size(text);
    if (!side) {
      return std::nullopt;
    }
    return GridSize{*side, *side};
  }
  const auto w = parse_size(text.substr(0, sep));
  const auto h = parse_size(text.substr(sep + 1));
  if (!w || !h) {
    return std::nullopt;
  }
  return GridSize{*w, *h};
}

}  // namespace agilla::harness
