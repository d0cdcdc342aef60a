// Ablation for the paper's declared future work (Sec. 3.2): "We leave a
// more in-depth investigation of efficient tuple space implementations as
// future work."
//
// A declarative harness experiment over the "store_ops" scenario:
// fillers x {linear, indexed} backends, comparing probe and removal cost
// in the units the mote would feel — the simulated microseconds the VM
// cost model charges per tuple-space instruction.
#include <chrono>

// Host-side allocation accounting for the zero-copy section: allocs/op
// below measures the real data-plane behaviour (compiled templates +
// wire-byte matching should make the probe loop allocation-free).
#include "alloc_counter.h"
#include "bench_common.h"
#include "harness/runner.h"

using namespace agilla;
using namespace agilla::bench;

namespace {

/// The acceptance workload for the zero-copy refactor: a realistically
/// full store (40 mixed-arity fillers + 1 target) probed with rdp at a 50%
/// miss rate. Templates are compiled once, as the engine does per tuple
/// op. Reports host wall-clock ns/op and heap allocations/op.
void measure_host_rdp(ts::StoreKind kind) {
  constexpr int kIters = 400000;
  const auto store = ts::make_store(kind, 600);
  for (std::int16_t i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      store->insert(
          ts::Tuple{ts::Value::string("fil"), ts::Value::number(i)});
    } else {
      store->insert(ts::Tuple{ts::Value::number(i)});
    }
  }
  store->insert(ts::Tuple{ts::Value::string("key"), ts::Value::number(1)});
  const ts::CompiledTemplate hit(
      ts::Template{ts::Value::string("key"),
                   ts::Value::type_wildcard(ts::ValueType::kNumber)});
  const ts::CompiledTemplate miss(
      ts::Template{ts::Value::string("nop"),
                   ts::Value::type_wildcard(ts::ValueType::kNumber)});
  for (int i = 0; i < 1000; ++i) {  // warm caches before measuring
    (void)store->read(i % 2 ? hit : miss);
  }
  const unsigned long long allocs_before = allocations();
  const auto start = std::chrono::steady_clock::now();
  std::size_t found = 0;
  for (int i = 0; i < kIters; ++i) {
    found += store->read(i % 2 ? hit : miss).has_value() ? 1 : 0;
  }
  const auto stop = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(stop - start).count() /
      kIters;
  std::printf("  %-8s  %8.1f ns/op   %6.2f allocs/op   (%zu hits)\n",
              ts::to_string(kind), ns,
              static_cast<double>(allocations() - allocs_before) /
                  kIters,
              found);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header(
      "Ablation — linear tuple store vs arity-indexed store",
      "Fok et al., Sec. 3.2 future work ('efficient tuple space "
      "implementations')");

  harness::ExperimentSpec spec;
  spec.name = "ablation_store";
  spec.scenario = "store_ops";
  spec.grids = {{1, 1}};  // micro-benchmark: no mesh, no radio
  spec.loss_rates = {0.0};
  spec.stores = {ts::StoreKind::kLinear, ts::StoreKind::kIndexed};
  spec.axes = {{"fillers", {0, 10, 20, 40, 60}}};
  spec.trials = 1;  // deterministic micro-measurement
  spec.base_seed = args.seed;
  const harness::ExperimentResult result = harness::run_experiment(
      spec, harness::RunnerOptions{.threads = args.threads});

  // Cell order: all linear cells first (axis-major within each store).
  const std::size_t points = spec.axes[0].values.size();
  const auto metric = [&](std::size_t cell, const char* name) {
    return result.cells[cell].metrics.at(name).summary.mean();
  };

  std::printf("\n  rdp cost (simulated us) for a tuple stored behind N "
              "fillers:\n\n");
  std::printf("  fillers   linear store   indexed store   speedup\n");
  std::printf("  -------   ------------   -------------   -------\n");
  for (std::size_t i = 0; i < points; ++i) {
    const int n = static_cast<int>(spec.axes[0].values[i]);
    const double linear_us = metric(i, "rdp_cost_us");
    const double indexed_us = metric(points + i, "rdp_cost_us");
    std::printf("    %3d       %7.1f us      %7.1f us      %.2fx\n", n,
                linear_us, indexed_us, linear_us / indexed_us);
  }

  // Removal: the linear store additionally shifts every byte behind the
  // removed tuple; the indexed store tombstones.
  std::printf("\n  inp (remove first of N) cost, simulated us:\n\n");
  std::printf("  tuples    linear store   indexed store\n");
  std::printf("  -------   ------------   -------------\n");
  for (std::size_t i = 1; i < points; ++i) {  // skip the empty-store point
    const int n = static_cast<int>(spec.axes[0].values[i]);
    std::printf("    %3d       %7.1f us      %7.1f us\n", n,
                metric(i, "inp_cost_us"), metric(points + i, "inp_cost_us"));
  }

  // Host wall-clock / allocation view of the same store (zero-copy data
  // plane): 50%-miss rdp against a full store, templates compiled once.
  // The simulated-us tables above model the mote; this one measures what
  // the host actually does per probe.
  std::printf("\n  host rdp, 50%% miss, 40 fillers + target, compiled "
              "templates:\n\n");
  measure_host_rdp(ts::StoreKind::kLinear);
  measure_host_rdp(ts::StoreKind::kIndexed);

  std::printf(
      "\nreading: on a realistically full store the indexed probe touches\n"
      "only same-arity candidates and removal avoids the shift, cutting\n"
      "worst-case tuple-op cost roughly in half — at the price of index\n"
      "RAM the 4 KB MICA2 budget would need to find. The paper's linear\n"
      "choice ('it is simple') is defensible at 600 bytes; the seam is\n"
      "ts::StoreKind via ts::make_store (store_interface.h) if a\n"
      "deployment wants the other trade.\n");
  return 0;
}
