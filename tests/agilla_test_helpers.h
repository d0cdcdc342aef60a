// Shared fixtures for core/integration tests: a grid of full Agilla
// middleware stacks over a (possibly lossy) simulated radio.
#pragma once

#include <memory>
#include <vector>

#include "core/injector.h"
#include "core/middleware.h"
#include "sim/topology.h"

namespace agilla::testing {

struct MeshOptions {
  std::size_t width = 3;
  std::size_t height = 3;
  double packet_loss = 0.0;
  std::uint64_t seed = 1;
  core::AgillaConfig config{};
  bool start = true;
};

class AgillaMesh {
 public:
  explicit AgillaMesh(const MeshOptions& options = MeshOptions())
      : sim(options.seed),
        net(sim, std::make_unique<sim::GridNeighborRadio>(
                     sim::GridNeighborRadio::Options{
                         .spacing = 1.0, .packet_loss = options.packet_loss})) {
    topo = sim::make_grid(net, options.width, options.height);
    for (sim::NodeId id : topo.nodes) {
      nodes.push_back(std::make_unique<core::AgillaMiddleware>(
          net, id, &env, options.config));
      if (options.start) {
        nodes.back()->start();
      }
    }
  }

  /// Node by creation index (row-major from (1,1)).
  core::AgillaMiddleware& at(std::size_t index) { return *nodes.at(index); }

  /// Node nearest to a location.
  core::AgillaMiddleware& at_loc(double x, double y) {
    return *nodes.at(
        sim::nearest_node(net, topo, sim::Location{x, y}).value);
  }

  /// Let beacons populate the neighbour tables.
  void warm(sim::SimTime duration = 5 * sim::kSecond) {
    sim.run_for(duration);
  }

  /// Total live agents across the mesh.
  [[nodiscard]] std::size_t total_agents() const {
    std::size_t n = 0;
    for (const auto& node : nodes) {
      n += node->agents().count();
    }
    return n;
  }

  sim::Simulator sim;
  sim::Network net;
  sim::SensorEnvironment env;
  sim::Topology topo;
  std::vector<std::unique_ptr<core::AgillaMiddleware>> nodes;
};

}  // namespace agilla::testing
