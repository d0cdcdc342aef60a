// Remote tuple-space operations: rout / rinp / rrdp — end-to-end delivery,
// timeouts, retransmission, and effectively-once semantics for rinp.
#include <gtest/gtest.h>

#include "agilla_test_helpers.h"
#include "core/agent_library.h"
#include "core/assembler.h"

namespace agilla::core {
namespace {

using agilla::testing::AgillaMesh;
using agilla::testing::MeshOptions;

TEST(RemoteTs, ROutInsertsAtRemoteNode) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(agents::rout_once({3, 1})));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(mesh.at(2)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(1)})
                  .has_value());
  EXPECT_FALSE(mesh.at(0)
                   .tuple_space()
                   .rdp(ts::Template{ts::Value::number(1)})
                   .has_value());
}

TEST(RemoteTs, ROutSetsConditionOnReply) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushc 1
      pushc 1
      pushloc 2 1
      rout
      cpush
      pushn cnd
      swap
      pushc 2
      out
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cnd"),
                                    ts::Value::number(1)})
                  .has_value());
}

TEST(RemoteTs, RInpRemovesRemotelyAndReturnsTuple) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(1).tuple_space().out(ts::Tuple{ts::Value::number(77)});
  mesh.at(0).inject(assemble_or_die(R"(
      pusht NUMBER
      pushc 1
      pushloc 2 1
      rinp
      pushc 1
      out            // republish the fetched tuple locally
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(77)})
                  .has_value());
  EXPECT_FALSE(mesh.at(1)
                   .tuple_space()
                   .rdp(ts::Template{ts::Value::number(77)})
                   .has_value());
}

TEST(RemoteTs, RRdpCopiesWithoutRemoving) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(1).tuple_space().out(ts::Tuple{ts::Value::number(88)});
  mesh.at(0).inject(assemble_or_die(R"(
      pusht NUMBER
      pushc 1
      pushloc 2 1
      rrdp
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(88)})
                  .has_value());
  EXPECT_TRUE(mesh.at(1)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(88)})
                  .has_value());
}

TEST(RemoteTs, ProbeMissSetsConditionZero) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pusht NUMBER
      pushc 1
      pushloc 2 1
      rinp           // no match at the destination
      cpush
      pushn cnd
      swap
      pushc 2
      out
      halt
  )"));
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cnd"),
                                    ts::Value::number(0)})
                  .has_value());
}

TEST(RemoteTs, MultiHopRoundTrip) {
  AgillaMesh mesh(MeshOptions{.width = 5, .height = 1});
  mesh.warm();
  mesh.at(4).tuple_space().out(ts::Tuple{ts::Value::number(5)});
  mesh.at(0).inject(assemble_or_die(R"(
      pusht NUMBER
      pushc 1
      pushloc 5 1
      rrdp
      pushc 1
      out
      halt
  )"));
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::number(5)})
                  .has_value());
}

TEST(RemoteTs, UnreachableDestinationTimesOutWithConditionZero) {
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  mesh.at(0).inject(assemble_or_die(R"(
      pushc 1
      pushc 1
      pushloc -9 1
      rout
      cpush
      pushn cnd
      swap
      pushc 2
      out
      halt
  )"));
  // Paper: 2 s timeout, at most 2 retransmissions -> ~6 s to give up.
  mesh.sim.run_for(7 * sim::kSecond);
  EXPECT_TRUE(mesh.at(0)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cnd"),
                                    ts::Value::number(0)})
                  .has_value());
  EXPECT_EQ(mesh.at(0).remote_ts().stats().timeouts, 1u);
  EXPECT_EQ(mesh.at(0).remote_ts().stats().retransmissions, 2u);
}

TEST(RemoteTs, BaseStationApiWorks) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  BaseStation base(mesh.at(0));
  bool ok = false;
  base.rout({3, 1}, ts::Tuple{ts::Value::string("cmd")},
            [&](bool success, std::optional<ts::Tuple>) { ok = success; });
  mesh.sim.run_for(3 * sim::kSecond);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(mesh.at(2)
                  .tuple_space()
                  .rdp(ts::Template{ts::Value::string("cmd")})
                  .has_value());

  std::optional<ts::Tuple> fetched;
  base.rinp({3, 1}, ts::Template{ts::Value::string("cmd")},
            [&](bool, std::optional<ts::Tuple> t) { fetched = t; });
  mesh.sim.run_for(3 * sim::kSecond);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->field(0), ts::Value::string("cmd"));
}

TEST(RemoteTs, RetransmittedRInpDoesNotDoubleRemove) {
  // Lossy channel: the request or reply may be lost, triggering initiator
  // retransmissions. The replay cache must keep rinp effectively-once.
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1,
                              .packet_loss = 0.25, .seed = 7});
  mesh.warm();
  mesh.at(1).tuple_space().out(ts::Tuple{ts::Value::number(1)});
  mesh.at(1).tuple_space().out(ts::Tuple{ts::Value::number(2)});
  BaseStation base(mesh.at(0));
  int fetched = 0;
  for (int i = 0; i < 10; ++i) {
    base.rinp({2, 1},
              ts::Template{ts::Value::type_wildcard(ts::ValueType::kNumber)},
              [&](bool success, std::optional<ts::Tuple>) {
                fetched += success ? 1 : 0;
              });
    mesh.sim.run_for(8 * sim::kSecond);
  }
  // Exactly two tuples existed; at most two probes can have succeeded even
  // though requests were retransmitted.
  EXPECT_LE(fetched, 2);
  const auto& stats = mesh.at(1).remote_ts().stats();
  EXPECT_EQ(stats.requests_served,
            mesh.at(1).remote_ts().stats().requests_served);
}

TEST(RemoteTs, ConcurrentRequestsFromTwoNodes) {
  AgillaMesh mesh(MeshOptions{.width = 3, .height = 1});
  mesh.warm();
  for (int i = 0; i < 4; ++i) {
    mesh.at(1).tuple_space().out(ts::Tuple{ts::Value::number(
        static_cast<std::int16_t>(i))});
  }
  BaseStation left(mesh.at(0));
  BaseStation right(mesh.at(2));
  int got = 0;
  const ts::Template any{ts::Value::type_wildcard(ts::ValueType::kNumber)};
  for (int i = 0; i < 2; ++i) {
    left.rinp({2, 1}, any,
              [&](bool s, std::optional<ts::Tuple>) { got += s ? 1 : 0; });
    right.rinp({2, 1}, any,
               [&](bool s, std::optional<ts::Tuple>) { got += s ? 1 : 0; });
  }
  mesh.sim.run_for(5 * sim::kSecond);
  EXPECT_EQ(got, 4);
  EXPECT_EQ(mesh.at(1).tuple_space().store().tuple_count(), 0u);
}

TEST(RemoteTs, LatencyIsTensOfMilliseconds) {
  // Paper Fig. 11: one-hop rout ~55 ms (request + op + reply).
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1});
  mesh.warm();
  BaseStation base(mesh.at(0));
  sim::SimTime done_at = 0;
  const sim::SimTime start = mesh.sim.now();
  base.rout({2, 1}, ts::Tuple{ts::Value::number(1)},
            [&](bool, std::optional<ts::Tuple>) { done_at = mesh.sim.now(); });
  mesh.sim.run_for(2 * sim::kSecond);
  ASSERT_GT(done_at, 0u);
  const sim::SimTime elapsed = done_at - start;
  EXPECT_GT(elapsed, 20 * sim::kMillisecond);
  EXPECT_LT(elapsed, 120 * sim::kMillisecond);
}

TEST(RemoteTs, RequestIdsStayUniqueWithEveryIdPending) {
  // Request ids are 16 bits. With more requests outstanding than ids, no
  // pending request may be overwritten: each completion fires exactly
  // once, and the requests past the last free id fail at once, unsent.
  AgillaMesh mesh(MeshOptions{.width = 2, .height = 1, .start = false});
  RemoteTsManager& remote = mesh.at(0).remote_ts();
  constexpr std::size_t kIds = 65536;
  constexpr std::size_t kExtra = 1000;
  std::vector<int> fired(kIds + kExtra, 0);
  const ts::Tuple tuple{ts::Value::number(1)};
  for (std::size_t i = 0; i < fired.size(); ++i) {
    // Unstarted nodes know no neighbours: nothing is ever delivered.
    remote.request_out({2, 1}, tuple,
                       [&fired, i](bool, std::optional<ts::Tuple>) {
                         fired[i]++;
                       });
  }
  EXPECT_EQ(remote.stats().requests_sent, kIds);
  EXPECT_EQ(remote.stats().ids_exhausted, kExtra);
  mesh.sim.run_for(sim::kMillisecond);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], i < kIds ? 0 : 1) << "request " << i;
  }
  mesh.sim.run_for(10 * sim::kSecond);  // past 3 x the 2 s reply timeout
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], 1) << "request " << i;
  }
  EXPECT_EQ(remote.stats().timeouts, kIds);
  // The timed-out ids are free again.
  int late = 0;
  remote.request_out({2, 1}, tuple,
                     [&late](bool, std::optional<ts::Tuple>) { ++late; });
  EXPECT_EQ(remote.stats().requests_sent, kIds + 1);
  mesh.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(late, 1);
}

}  // namespace
}  // namespace agilla::core
