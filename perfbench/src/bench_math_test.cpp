// Tests of the benchmark's own arithmetic (bench_math.h, tracer.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_math.h"
#include "tracer.h"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({10, 20}, 0.1), 11.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) {
    hundred.push_back(i);
  }
  EXPECT_DOUBLE_EQ(quantile(hundred, 0.99), 100.0);
}

TEST(TailRule, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
  EXPECT_EQ(samples_beyond(19, 50.0), 9u);
  // The reply p99 needs at least 1,000 replies.
  EXPECT_GE(samples_beyond(1000, 99.0), kTailSamples);
  EXPECT_LT(samples_beyond(999, 99.0), kTailSamples);
}

TEST(SelfTime, SubtractsChildCoverage) {
  EXPECT_EQ(self_time({0, 100}, {}), 100);
  EXPECT_EQ(self_time({0, 100}, {{10, 20}, {30, 50}}), 70);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,40) and [30,60) overlap by 10; [50,55) lies inside the second.
  EXPECT_EQ(self_time({0, 100}, {{30, 60}, {10, 40}, {50, 55}}), 50);
  // Children spilling past the parent are clipped to it.
  EXPECT_EQ(self_time({0, 100}, {{-20, 10}, {90, 150}}), 80);
  // Full coverage leaves no self time.
  EXPECT_EQ(self_time({0, 100}, {{0, 60}, {40, 100}}), 0);
}

TEST(SelfTime, StreamingCoverageMatchesBatch) {
  const std::vector<Interval> children = {{10, 40}, {30, 60}, {50, 55},
                                          {70, 80}, {75, 78}};
  Coverage streaming;
  for (const Interval& c : children) {
    streaming.add(c.start, c.end);
  }
  EXPECT_EQ(streaming.total(), covered(children, 0, 100));
  EXPECT_EQ(streaming.total(), 60);
}

TEST(SelfTime, TracerAggregatesNestedSpans) {
  Tracer tracer(/*sample_every=*/1, /*keep_max=*/2);
  const std::uint32_t outer = tracer.intern("bench.rep");
  const std::uint32_t inner = tracer.intern("sim.run_for");
  EXPECT_EQ(tracer.intern("bench.rep"), outer);
  tracer.begin(outer);
  for (int i = 0; i < 3; ++i) {
    tracer.begin(inner);
    tracer.end();
  }
  tracer.end();
  const auto& aggs = tracer.aggregates();
  EXPECT_EQ(aggs[inner].count, 3u);
  EXPECT_EQ(aggs[outer].count, 1u);
  EXPECT_EQ(aggs[inner].self_ns, aggs[inner].total_ns);  // leaf
  EXPECT_EQ(aggs[outer].self_ns,
            aggs[outer].total_ns - aggs[inner].total_ns);
  // Totals cover all four spans; the raw sample is capped at two.
  EXPECT_EQ(tracer.spans(), 4u);
  EXPECT_EQ(tracer.sample().size(), 2u);
  EXPECT_EQ(tracer.sample()[0].parent, outer);
}

TEST(FailFrac, MeshCountsMigrationsAndRemoteOps) {
  EXPECT_DOUBLE_EQ(mesh_fail(0, 0, 0, 0).frac(), 0.0);
  const FailShare share = mesh_fail(3, 1, 30, 10);
  EXPECT_EQ(share.failed, 4u);
  EXPECT_EQ(share.attempted, 40u);
  EXPECT_DOUBLE_EQ(share.frac(), 0.1);
  EXPECT_DOUBLE_EQ(mesh_fail(0, 5, 0, 10).frac(), 0.5);
}

TEST(FailFrac, GatewayCountsEveryKindOfFailure) {
  // error replies + failed async + protocol errors + unfinished clients,
  // over commands sent + async ops.
  const FailShare share = gateway_fail(1, 2, 3, 4, 60, 40);
  EXPECT_EQ(share.failed, 10u);
  EXPECT_EQ(share.attempted, 100u);
  EXPECT_DOUBLE_EQ(gateway_fail(0, 0, 0, 0, 10, 0).frac(), 0.0);
  // agilla_loadgen --clients 1000 --ops 128 on 16x16: 427 refused
  // injections and 41,863 of 41,964 async ops failed.
  EXPECT_NEAR(gateway_fail(427, 41863, 0, 0, 128000, 41964).frac(), 0.2488,
              1e-4);
}

TEST(Digest, StableAndOrderSensitive) {
  auto digest_of = [](std::vector<std::uint64_t> values) {
    Digest d;
    for (const std::uint64_t v : values) {
      d.mix(v);
    }
    return d.value();
  };
  EXPECT_EQ(digest_of({1, 2, 3}), digest_of({1, 2, 3}));
  EXPECT_NE(digest_of({1, 2, 3}), digest_of({3, 2, 1}));
  EXPECT_NE(digest_of({1, 2, 3}), digest_of({1, 2, 4}));
  // Pinned value: the FNV-1a digest must not change across builds.
  Digest d;
  d.mix(std::string_view("agilla"));
  EXPECT_EQ(d.value(), 0x228008675293134dULL) << std::hex << d.value();
  // Strings carry their length, so ("ab","c") != ("a","bc").
  Digest ab_c;
  ab_c.mix(std::string_view("ab"));
  ab_c.mix(std::string_view("c"));
  Digest a_bc;
  a_bc.mix(std::string_view("a"));
  a_bc.mix(std::string_view("bc"));
  EXPECT_NE(ab_c.value(), a_bc.value());
}

}  // namespace
}  // namespace perfbench
