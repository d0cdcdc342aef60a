// Paper Fig. 10: "The latency of smove vs. rout" — milliseconds per
// successful operation over 1..5 hops (smove halved for the round trip),
// as declarative harness experiments on the worker pool.
//
// Expected shape (paper): both linear in hop count; smove ~225 ms/hop
// (multi-message acked transfer), rout ~55 ms/hop pair (request+reply);
// 5-hop smove < 1.1 s. Medians are reported alongside means because rout
// retransmissions (2 s timeout) put a long tail on the successful-trial
// distribution at high hop counts.
#include "fig8_experiment.h"

using namespace agilla;
using namespace agilla::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_header("Figure 10 — latency of smove vs rout, 1-5 hops",
               "Fok et al., Sec. 4, Fig. 10");
  std::printf("trials/point = %d, loss = %.0f %% + %.2f %%/byte (37 B data frame ~8 %%)\n\n",
              args.trials, args.loss * 100.0,
              api::kDefaultPerByteLoss * 100.0);

  const harness::RunnerOptions runner{.threads = args.threads};
  const harness::ExperimentResult smove = harness::run_experiment(
      fig8_spec("smove", args.trials, args.loss, args.seed), runner);
  const harness::ExperimentResult rout = harness::run_experiment(
      fig8_spec("rout", args.trials, args.loss, args.seed + 50), runner);

  std::printf(
      "  hops   smove mean/median (ms)    rout mean/median (ms)\n");
  std::printf(
      "  ----   ----------------------    ---------------------\n");
  double smove_per_hop = 0.0;
  double rout_per_hop = 0.0;
  double smove5 = 0.0;
  for (std::size_t i = 0; i < smove.cells.size(); ++i) {
    const int hops = static_cast<int>(smove.cells[i].cell.axis_values[0].second);
    const sim::Summary& smove_ms = cell_latency(smove.cells[i]);
    const sim::Summary& rout_ms = cell_latency(rout.cells[i]);
    std::printf("   %d       %7.1f / %7.1f          %7.1f / %7.1f\n", hops,
                smove_ms.mean(), smove_ms.median(), rout_ms.mean(),
                rout_ms.median());
    if (hops == 1) {
      smove_per_hop = smove_ms.median();
      rout_per_hop = rout_ms.median();
    }
    if (hops == 5) {
      smove5 = smove_ms.median();
    }
  }

  std::printf("\nmeasured anchors: one-hop smove %.0f ms (paper ~225 ms), "
              "one-hop rout %.0f ms (paper ~55 ms)\n",
              smove_per_hop, rout_per_hop);
  std::printf("5-hop smove median %.2f s (paper: <1.1 s with 92 %% success)\n",
              smove5 / 1000.0);
  // Paper Sec. 4 aside: at >=0.3 s per migration and ~50 m radio range, an
  // agent sweeps across a network at ~600 km/h.
  const double min_hop_s = smove_per_hop / 1000.0;
  if (min_hop_s > 0.0) {
    std::printf("derived agent 'speed' at 50 m/hop: %.0f km/h "
                "(paper: ~600 km/h)\n",
                0.05 / min_hop_s * 3600.0);
  }
  return 0;
}
