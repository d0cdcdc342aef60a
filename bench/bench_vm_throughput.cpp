// Host-side VM throughput (ROADMAP item 4): executed instructions per
// wall-clock second on one isolated mote, for the reference switch
// interpreter vs the pre-decoded threaded dispatch (core/vm_dispatch.h).
// This measures the simulator's own speed — the simulated VmCostModel
// clock is identical in both modes (tests/test_dispatch_equivalence.cpp).
//
// It also counts heap allocations per executed instruction: the VM hot
// path, tuple ops included, runs allocation-free once warmed up, so the
// count is a host-independent gate.
//
// Usage:
//   bench_vm_throughput [--seconds S] [--reps N]   full table (default)
//   bench_vm_throughput --smoke                    quick CI gate: exits
//       nonzero if threaded dispatch is slower than switch anywhere, or
//       if any workload allocates more than 0.01 times per instruction.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "core/assembler.h"
#include "core/middleware.h"

namespace {

using namespace agilla;

struct Workload {
  const char* name;
  std::string source;
  int agents = 1;
};

std::vector<Workload> make_workloads() {
  // A straight-line body long enough (211 bytes) that the switch
  // interpreter's per-byte CodePool chain walk hurts.
  std::string straight;
  for (int i = 0; i < 70; ++i) {
    straight += "pushc 1\npop\n";
  }
  straight += "jump 0\n";

  const std::string tight = "LOOP pushc 1\npushc 2\nadd\npop\nrjump LOOP\n";
  const std::string tuple =
      "LOOP pushc 5\npushc 1\nout\n"
      "pusht NUMBER\npushc 1\ninp\npop\nrjump LOOP\n";
  const std::string rdp_hit =
      "pushn key\npushc 7\npushc 2\nout\n"
      "LOOP pushn key\npusht NUMBER\npushc 2\nrdp\npop\npop\nrjump LOOP\n";
  const std::string rdp_miss = "LOOP pushn mis\npushc 1\nrdp\nrjump LOOP\n";

  return {
      {"tight_loop", tight, 1},
      {"long_body", straight, 1},
      {"tight_x4", tight, 4},
      {"tuple_churn", tuple, 1},
      {"rdp_hit", rdp_hit, 1},
      {"rdp_miss", rdp_miss, 1},
  };
}

/// Allocation gate: heap allocations per executed instruction, warmed up.
constexpr double kMaxAllocsPerInsn = 0.01;

struct Cell {
  double ops_per_s = 0.0;
  double allocs_per_insn = 0.0;
};

/// Instructions per wall-clock second and allocations per instruction for
/// one (mode, workload) cell, on an isolated never-started mote (no radio
/// traffic competes for sim events).
Cell measure(core::DispatchMode mode, const Workload& workload,
             double min_seconds) {
  sim::Simulator simulator{42};
  sim::Network network{simulator, std::make_unique<sim::PerfectRadio>()};
  sim::SensorEnvironment environment;
  core::AgillaConfig config;
  config.engine.dispatch = mode;
  const sim::NodeId id = network.add_node({1, 1});
  core::AgillaMiddleware mote(network, id, &environment, config);
  const auto code = core::assemble_or_die(workload.source);
  for (int i = 0; i < workload.agents; ++i) {
    if (!mote.inject(code).has_value()) {
      std::fprintf(stderr, "inject failed for %s\n", workload.name);
      std::exit(2);
    }
  }
  simulator.run_for(sim::kSecond);  // warm up caches and the event queue

  const std::uint64_t start_insns = mote.engine().stats().instructions;
  const unsigned long long start_allocs = bench::allocations();
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    simulator.run_for(10 * sim::kSecond);
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  } while (elapsed < min_seconds);
  const auto allocs =
      static_cast<double>(bench::allocations() - start_allocs);
  const std::uint64_t insns = mote.engine().stats().instructions - start_insns;
  return {static_cast<double>(insns) / elapsed,
          allocs / static_cast<double>(std::max<std::uint64_t>(insns, 1))};
}

/// Best-of-N throughput to tame host-scheduling noise; the allocation
/// count is deterministic, so the worst repetition is reported.
Cell measure_best(core::DispatchMode mode, const Workload& workload,
                  double min_seconds, int reps) {
  Cell best;
  for (int i = 0; i < reps; ++i) {
    const Cell cell = measure(mode, workload, min_seconds);
    best.ops_per_s = std::max(best.ops_per_s, cell.ops_per_s);
    best.allocs_per_insn = std::max(best.allocs_per_insn,
                                    cell.allocs_per_insn);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double seconds = 0.4;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    }
  }
  if (smoke) {
    seconds = 0.15;
    reps = 2;
  }

  std::printf("VM throughput: host-side executed instructions per second\n");
  std::printf("(simulated mote cost is identical in both modes)\n\n");
  std::printf("  %-12s %14s %14s %9s %12s\n", "workload", "switch ops/s",
              "threaded ops/s", "speedup", "allocs/insn");
  std::printf("  %-12s %14s %14s %9s %12s\n", "--------", "------------",
              "--------------", "-------", "-----------");

  bool faster = true;
  bool allocation_free = true;
  for (const Workload& workload : make_workloads()) {
    const Cell sw = measure_best(core::DispatchMode::kSwitch, workload,
                                 seconds, reps);
    const Cell th = measure_best(core::DispatchMode::kThreaded, workload,
                                 seconds, reps);
    // Worse of the two modes: both run the same handlers.
    const double allocs = std::max(sw.allocs_per_insn, th.allocs_per_insn);
    std::printf("  %-12s %14.0f %14.0f %8.2fx %12.4f\n", workload.name,
                sw.ops_per_s, th.ops_per_s,
                sw.ops_per_s > 0 ? th.ops_per_s / sw.ops_per_s : 0.0, allocs);
    faster = faster && th.ops_per_s >= sw.ops_per_s;
    allocation_free = allocation_free && allocs <= kMaxAllocsPerInsn;
  }

  if (smoke) {
    if (!faster) {
      std::printf("\nSMOKE FAIL: threaded dispatch slower than switch\n");
    }
    if (!allocation_free) {
      std::printf("\nSMOKE FAIL: a workload allocates more than %.2f times "
                  "per instruction\n",
                  kMaxAllocsPerInsn);
    }
    if (!faster || !allocation_free) {
      return 1;
    }
    std::printf("\nsmoke ok: threaded >= switch and <= %.2f allocs/insn "
                "on every workload\n",
                kMaxAllocsPerInsn);
  }
  return 0;
}
