// agilla_perf: host-speed benchmark of the Agilla reproduction.
//
// One process runs one workload, single-threaded (serial engine,
// in-process loopback transport, no sockets), for a fixed host-time
// budget. It repeats one deterministic trial of the workload until the
// budget is spent, and times it from the per-iteration minimum over the
// repetitions (see Composite):
//
//   fire_mesh        fire_tracking on 64x64 (4,096 motes), default knobs
//   agent_swarm      8x8 mesh, 3 agents per mote from perfbench/agents/
//   gateway_clients  1,000 protocol sessions on a 16x16 mesh
//
// Every workload is driven through the gateway service: the mesh
// workloads carry one operator session polling status/ping between
// simulation slices, gateway_clients carries the agilla_loadgen command
// mix. The benchmark times its own calls into api, sim and svc, and reads
// the public counters of sim, net, core, tuplespace and svc between
// slices. With --trace 1 it alternates untraced and traced repetitions
// and adds span self times, the tracing overhead, and bus-observed tuple
// operations.
//
// Output: one JSON line (the last line of stdout) with every metric, its
// unit and its sample count, the repetition digests and any correctness
// violation. Exit status 0 iff every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/deployment.h"
#include "core/agent_library.h"
#include "core/assembler.h"
#include "svc/gateway_service.h"
#include "svc/transport.h"
#include "svc/wire.h"

#include "bench_math.h"
#include "tracer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace agilla;
namespace wire = agilla::svc::wire;

enum class Kind { kFireMesh, kAgentSwarm, kGatewayClients };

struct Options {
  Kind kind = Kind::kFireMesh;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string agents_dir = "perfbench/agents";
  std::string spans_out;
};

// Workload shapes. fire_mesh is the fire_tracking scenario at its
// defaults; the slice is the operator's polling period.
constexpr std::size_t kFireGrid = 64;
constexpr sim::SimTime kFireDuration = 120 * sim::kSecond;
constexpr std::size_t kSwarmGrid = 8;
constexpr sim::SimTime kSwarmDuration = 60 * sim::kSecond;
constexpr std::int16_t kLoopN = 32;  ///< looper.inc's N
constexpr std::size_t kGatewayGrid = 16;
constexpr std::size_t kGatewayClients = 1000;
/// agilla_loadgen's reference load (--clients 1000 --ops 128). At 256
/// ops the gateway's 16-bit remote request ids wrap while earlier
/// requests are still pending and sessions stall waiting for results.
constexpr std::size_t kGatewayOps = 128;
constexpr sim::SimTime kMeshSlice = 20 * sim::kMillisecond;
constexpr sim::SimTime kGatewaySlice = 2 * sim::kMillisecond;
constexpr std::size_t kMaxIterations = 2'000'000;
constexpr std::size_t kSetupSamples = 40;

// Span names, interned in this order by run().
enum SpanName : std::uint32_t {
  kRep = 1,
  kApiBuild,
  kApiInject,
  kApiQuery,
  kSimRunFor,
  kSvcOpen,
  kSvcPump,
  kSvcEncode,
  kSvcDecode,
};
constexpr const char* kSpanNames[] = {
    "bench.rep", "api.build", "api.inject", "api.query", "sim.run_for",
    "svc.open",  "svc.pump",  "svc.encode", "svc.decode"};

// ------------------------------------------------------------- clients

struct Op {
  wire::MsgType type = wire::MsgType::kCommand;
  std::string payload;
  bool remote = false;  ///< reply now, asyncresult later
};

/// agilla_loadgen's script: op j of client i on a WxH mesh. Every 16th
/// client subscribes to tuple events first, every 32nd (offset 2)
/// injects, the rest mix status/ping probes with remote tuple ops whose
/// destinations walk the grid.
Op gateway_op(std::size_t i, std::size_t j, std::size_t w, std::size_t h) {
  if (j == 0 && i % 16 == 0) {
    return Op{wire::MsgType::kSubscribe, "tuple", false};
  }
  const std::string dest =
      std::to_string((i + j) % w) + " " + std::to_string((i * 3 + j) % h);
  switch ((i + j) % 6) {
    case 0:
    case 4:
      return Op{wire::MsgType::kCommand, "status", false};
    case 2:
      if (i % 32 == 2) {
        return Op{wire::MsgType::kCommand, "inject asm halt", false};
      }
      return Op{wire::MsgType::kCommand, "rrdp " + dest + " ?num", true};
    case 3:
      return Op{wire::MsgType::kCommand,
                "rout " + dest + " str:lg num:" + std::to_string(j % 100),
                true};
    default:
      return Op{wire::MsgType::kPing, "", false};
  }
}

/// The mesh workloads' operator: alternating status and ping.
Op operator_op(std::size_t j) {
  return j % 2 == 0 ? Op{wire::MsgType::kCommand, "status", false}
                    : Op{wire::MsgType::kPing, "", false};
}

struct Client {
  enum class State {
    kConnect,
    kAwaitWelcome,
    kRun,
    kAwaitByeAck,
    kDone,
    kFailed,
  };

  std::size_t index = 0;
  svc::LoopbackTransport::Client conn;
  wire::FrameReader reader;
  State state = State::kConnect;
  std::string token;
  std::size_t next_op = 0;
  std::size_t ops_total = 0;  ///< 0 = until the rep's virtual deadline
  bool awaiting_reply = false;
  bool current_remote = false;
  bool async_arrived_early = false;
  std::uint32_t next_request = 1;
  std::uint32_t current_request = 0;
  std::vector<std::uint32_t> async_pending;
  bool will_reconnect = false;
  bool reconnected = false;
  std::int64_t send_ns = 0;
  Digest transcript;
  std::uint64_t requests = 0;  ///< frames sent; each one is answered
  std::uint64_t replies_error = 0;
  std::uint64_t async_ok = 0;
  std::uint64_t async_failed = 0;
  std::uint64_t protocol_errors = 0;
};

struct ClientLoop {
  Tracer* tracer = nullptr;
  std::size_t width = 0;
  std::size_t height = 0;
  bool stop = false;  ///< operator: virtual deadline reached, say bye
  std::vector<double> reply_ms;
  std::uint64_t reconnects_attempted = 0;
  std::uint64_t reconnects_ok = 0;
  std::uint64_t frames_decoded = 0;
};

void send(ClientLoop& loop, Client& c, wire::Message message) {
  std::vector<std::uint8_t> bytes;
  {
    Span span(loop.tracer, kSvcEncode);
    bytes = wire::encode(message);
  }
  c.conn.send(bytes);
}

/// Decodes everything the client has received, then handles it.
void receive(ClientLoop& loop, Client& c) {
  const std::vector<std::uint8_t> bytes = c.conn.drain();
  if (bytes.empty()) {
    return;
  }
  std::vector<wire::Message> messages;
  bool broken = false;
  {
    Span span(loop.tracer, kSvcDecode);
    c.reader.feed(bytes.data(), bytes.size());
    for (;;) {
      wire::Message m;
      const auto status = c.reader.next(&m);
      if (status == wire::FrameReader::Status::kNeedMore) {
        break;
      }
      if (status == wire::FrameReader::Status::kError) {
        broken = true;
        break;
      }
      messages.push_back(std::move(m));
    }
  }
  loop.frames_decoded += messages.size();
  const std::int64_t now = now_ns();
  for (const wire::Message& m : messages) {
    c.transcript.mix(static_cast<std::uint64_t>(m.type));
    c.transcript.mix(m.request_id);
    c.transcript.mix(m.vtime);
    c.transcript.mix(m.payload);
    switch (m.type) {
      case wire::MsgType::kWelcome: {
        const auto tok = m.payload.find("token=");
        if (tok != std::string::npos) {
          const auto end = m.payload.find(' ', tok);
          c.token = m.payload.substr(tok + 6, end - (tok + 6));
        }
        if (m.payload.find("resumed=1") != std::string::npos) {
          ++loop.reconnects_ok;
        }
        c.state = Client::State::kRun;
        break;
      }
      case wire::MsgType::kReply:
      case wire::MsgType::kPong:
        loop.reply_ms.push_back(static_cast<double>(now - c.send_ns) / 1e6);
        c.awaiting_reply = false;
        if (m.type == wire::MsgType::kReply &&
            m.payload.rfind("error", 0) == 0) {
          ++c.replies_error;
        } else if (c.current_remote && !c.async_arrived_early) {
          c.async_pending.push_back(m.request_id);
        }
        c.async_arrived_early = false;
        break;
      case wire::MsgType::kAsyncResult: {
        const auto it = std::find(c.async_pending.begin(),
                                  c.async_pending.end(), m.request_id);
        if (it != c.async_pending.end()) {
          c.async_pending.erase(it);
        } else if (c.awaiting_reply && m.request_id == c.current_request) {
          c.async_arrived_early = true;  // completed before its reply
        }
        if (m.payload.rfind("ok", 0) == 0) {
          ++c.async_ok;
        } else {
          ++c.async_failed;
        }
        break;
      }
      case wire::MsgType::kEvent:
        break;
      case wire::MsgType::kByeAck:
        c.state = Client::State::kDone;
        return;
      default:
        ++c.protocol_errors;
        c.state = Client::State::kFailed;
        return;
    }
  }
  if (broken) {
    ++c.protocol_errors;
    c.state = Client::State::kFailed;
  }
}

/// One closed-loop step: handle what arrived, send the next request once
/// the previous one is answered.
void step(ClientLoop& loop, Client& c, svc::LoopbackTransport& transport) {
  if (c.state == Client::State::kDone || c.state == Client::State::kFailed) {
    return;
  }
  if (c.state == Client::State::kConnect) {
    c.conn = transport.connect();
    c.reader = wire::FrameReader();
    c.send_ns = now_ns();
    ++c.requests;
    send(loop, c, wire::Message{wire::MsgType::kHello, c.next_request++, 0,
                                c.token});
    c.state = Client::State::kAwaitWelcome;
    return;
  }
  receive(loop, c);
  if (c.state != Client::State::kRun || c.awaiting_reply) {
    return;
  }
  const bool scripted = c.ops_total > 0;
  if (c.will_reconnect && !c.reconnected && c.next_op >= c.ops_total / 2) {
    c.reconnected = true;
    ++loop.reconnects_attempted;
    c.conn.disconnect();
    c.state = Client::State::kConnect;
    return;
  }
  if (scripted ? c.next_op < c.ops_total : !loop.stop) {
    const Op op = scripted ? gateway_op(c.index, c.next_op, loop.width,
                                        loop.height)
                           : operator_op(c.next_op);
    ++c.next_op;
    c.current_request = c.next_request++;
    c.current_remote = op.remote;
    c.awaiting_reply = true;
    ++c.requests;
    c.send_ns = now_ns();
    send(loop, c, wire::Message{op.type, c.current_request, 0, op.payload});
    return;
  }
  if (c.async_pending.empty()) {
    ++c.requests;
    send(loop, c, wire::Message{wire::MsgType::kBye, c.next_request++, 0, ""});
    c.state = Client::State::kAwaitByeAck;
  }
}

// ------------------------------------------------------------ counters

/// Public counters of every layer, summed over the motes. All of them go
/// into the repetition digest; the per-layer table reports most.
enum Counter : std::size_t {
  kFramesSent,
  kFramesDelivered,
  kFramesLost,
  kFramesUnreachable,
  kBytesOnAir,
  kBeacons,
  kLinkData,
  kLinkRetx,
  kLinkFailures,
  kLinkDups,
  kInstructions,
  kSlices,
  kVmErrors,
  kAgentsLaunched,
  kAgentsInstalled,
  kMigrationsStarted,
  kMigrationsFailed,
  kRemoteOps,
  kReactionsFired,
  kHops,
  kHopFailures,
  kArrivals,
  kRemoteRequests,
  kRemoteRetx,
  kRemoteTimeouts,
  kRemoteCompletions,
  kCounterCount,
};
using Counters = std::array<std::uint64_t, kCounterCount>;

Counters read_counters(api::Deployment& d) {
  Counters c{};
  const sim::NetworkStats net = d.network().stats();
  c[kFramesSent] = net.frames_sent;
  c[kFramesDelivered] = net.frames_delivered;
  c[kFramesLost] = net.frames_lost;
  c[kFramesUnreachable] = net.frames_unreachable;
  c[kBytesOnAir] = net.bytes_on_air;
  const auto beacons = net.sent_by_type.find(sim::AmType::kBeacon);
  c[kBeacons] = beacons == net.sent_by_type.end() ? 0 : beacons->second;
  for (std::size_t i = 0; i < d.mote_count(); ++i) {
    core::AgillaMiddleware& m = d.mote(i);
    const auto& link = m.link().stats();
    c[kLinkData] += link.data_sent;
    c[kLinkRetx] += link.retransmissions;
    c[kLinkFailures] += link.send_failures;
    c[kLinkDups] += link.duplicates_dropped;
    const core::EngineStats& e = m.engine().stats();
    c[kInstructions] += e.instructions;
    c[kSlices] += e.slices;
    c[kVmErrors] += e.vm_errors;
    c[kAgentsLaunched] += e.agents_launched;
    c[kAgentsInstalled] += e.agents_installed;
    c[kMigrationsStarted] += e.migrations_started;
    c[kMigrationsFailed] += e.migrations_failed;
    c[kRemoteOps] += e.remote_ops;
    c[kReactionsFired] += e.reactions_fired;
    const auto& mig = m.migration().stats();
    c[kHops] += mig.hops_completed;
    c[kHopFailures] += mig.hop_failures;
    c[kArrivals] += mig.arrivals;
    const auto& rts = m.remote_ts().stats();
    c[kRemoteRequests] += rts.requests_sent;
    c[kRemoteRetx] += rts.retransmissions;
    c[kRemoteTimeouts] += rts.timeouts;
    c[kRemoteCompletions] += rts.completions;
  }
  return c;
}

Counters delta(Counters after, const Counters& before) {
  for (std::size_t i = 0; i < after.size(); ++i) {
    after[i] -= before[i];
  }
  return after;
}

/// Bus observer of the traced repetitions: tuple-space traffic.
class TupleOps final : public api::Observer {
 public:
  std::uint64_t outs = 0;
  std::uint64_t inps = 0;
  void on_tuple_op(const api::TupleOpEvent& e) override {
    if (e.op == ts::TupleSpaceOp::kOut) {
      ++outs;
    } else {
      ++inps;
    }
  }
};

// --------------------------------------------------------- repetition

struct AgentCode {
  std::vector<std::uint8_t> loop_a, loop_b, migrator;
};

struct RepResult {
  double setup_s = 0;
  double build_s = 0;
  double inject_s = 0;
  std::uint64_t injects = 0;
  double loop_s = 0;
  /// Host time of every loop iteration (client steps, pump, slice,
  /// query), and of the pump and run_for calls within it.
  std::vector<std::int64_t> iter_ns;
  std::vector<std::int64_t> pump_ns;
  std::vector<std::int64_t> run_ns;
  std::vector<double> reply_ms;  ///< in the order the replies arrived
  std::vector<double> pending;   ///< pending_events() after every slice
  std::uint64_t iterations = 0;
  std::uint64_t events = 0;
  double virtual_s = 0;
  Counters counters{};  ///< deltas over the timed loop
  svc::ServiceStats service;
  // Client tallies.
  std::uint64_t requests = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t replies_error = 0;
  std::uint64_t async_ok = 0;
  std::uint64_t async_failed = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t reconnects_attempted = 0;
  std::uint64_t reconnects_ok = 0;
  std::uint64_t frames_decoded = 0;
  // Bus-observed tuple operations (traced repetitions only).
  std::uint64_t tuple_outs = 0;
  std::uint64_t tuple_inps = 0;
  FailShare fail;
  std::uint64_t digest = 0;
  std::vector<std::string> violations;
};

double sum_s(const std::vector<std::int64_t>& ns) {
  std::int64_t total = 0;
  for (const std::int64_t v : ns) {
    total += v;
  }
  return static_cast<double>(total) / 1e9;
}

/// Elementwise minimum, over repetitions, of the per-iteration host times
/// and the per-request reply latencies. Every repetition simulates the
/// same thing in the same order (the digest check proves it), so element
/// k is the same work in each; they differ only in how much the host's
/// other tenants slowed them, which comes in stretches of seconds and
/// reached 2x where this was tuned. Summing the per-iteration minima
/// measures the program; a median over repetitions would mostly measure
/// the neighbours.
class Composite {
 public:
  void merge(const RepResult& r) {
    min_into(iter_ns_, r.iter_ns);
    min_into(pump_ns_, r.pump_ns);
    min_into(run_ns_, r.run_ns);
    min_into(reply_ms_, r.reply_ms);
    ++reps_;
  }
  [[nodiscard]] double loop_s() const { return sum_s(iter_ns_); }
  [[nodiscard]] double pump_s() const { return sum_s(pump_ns_); }
  [[nodiscard]] double run_for_s() const { return sum_s(run_ns_); }
  [[nodiscard]] const std::vector<double>& reply_ms() const {
    return reply_ms_;
  }

 private:
  template <typename T>
  void min_into(std::vector<T>& acc, const std::vector<T>& v) const {
    if (reps_ == 0) {
      acc = v;
      return;
    }
    acc.resize(std::min(acc.size(), v.size()));
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] = std::min(acc[i], v[i]);
    }
  }

  std::vector<std::int64_t> iter_ns_, pump_ns_, run_ns_;
  std::vector<double> reply_ms_;
  std::size_t reps_ = 0;
};

ts::Template res_template(std::int16_t key) {
  return ts::Template{ts::Value::string("res"), ts::Value::number(key),
                      ts::Value::type_wildcard(ts::ValueType::kNumber),
                      ts::Value::type_wildcard(ts::ValueType::kNumber)};
}

std::unique_ptr<api::Deployment> build(const Options& opt, Tracer* tracer,
                                       double* build_s) {
  Span span(tracer, kApiBuild);
  const std::int64_t t0 = now_ns();
  api::SimulationBuilder builder;
  builder.seed(opt.seed);
  switch (opt.kind) {
    case Kind::kFireMesh:
      builder.grid(kFireGrid, kFireGrid);
      break;
    case Kind::kAgentSwarm:
      // The paper-calibrated per-byte fade (bench_common.h): migration
      // messages are the longest frames, so smove pays retransmissions.
      builder.grid(kSwarmGrid, kSwarmGrid)
          .per_byte_loss(api::kDefaultPerByteLoss);
      break;
    case Kind::kGatewayClients:
      builder.grid(kGatewayGrid, kGatewayGrid);
      break;
  }
  auto d = builder.build();
  *build_s = static_cast<double>(now_ns() - t0) / 1e9;
  return d;
}

/// fire_tracking's world: ignition at the far corner 15 s after the
/// injection, spread speed fitted to cross 80% of the diagonal.
void setup_fire(api::Deployment& d) {
  const double w = static_cast<double>(kFireGrid);
  const double duration_s = static_cast<double>(kFireDuration) / 1e6;
  const double diagonal = std::hypot(w - 1.0, w - 1.0);
  const double spread_speed =
      0.8 * diagonal / std::max(duration_s - 15.0, 10.0);
  d.environment().set_field(
      sim::SensorType::kTemperature,
      std::make_unique<sim::FireField>(sim::FireField::Options{
          .ignition_point = {w, w},
          .ignition_time = d.simulator().now() + 15 * sim::kSecond,
          .extinction_time = 0,
          .spread_speed = spread_speed,
          .peak = 500.0,
          .ambient = 25.0,
          .edge_decay = 0.45,
          .ring_width = 1.6,
          .burned_over = 40.0}));
}

/// Seeds every swarm mote's store: fillers the loopers' probes must scan
/// past (same name, other key; other name) and the migrator's partner.
void seed_swarm_store(core::AgillaMiddleware& m) {
  for (std::int16_t k = 0; k < 6; ++k) {
    m.tuple_space().out(ts::Tuple{ts::Value::string("wrk"),
                                  ts::Value::number(9),
                                  ts::Value::number(k)});
    m.tuple_space().out(
        ts::Tuple{ts::Value::string("fil"), ts::Value::number(k)});
  }
  const sim::Location here = m.location();
  const double partner_x =
      static_cast<int>(here.x) % 2 == 1 ? here.x + 1.0 : here.x - 1.0;
  m.tuple_space().out(ts::Tuple{ts::Value::string("prt"),
                                ts::Value::location({partner_x, here.y})});
}

/// Everything a repetition sets up. Members are destroyed in reverse:
/// the service before the transport and deployment it uses, the
/// deployment (whose bus holds the observer) before the observer.
struct World {
  TupleOps tuple_ops;
  std::unique_ptr<api::Deployment> d;
  std::unique_ptr<svc::LoopbackTransport> transport;
  std::unique_ptr<svc::GatewayService> service;
  sim::SimTime duration = 0;
};

/// Builds and warms up the deployment, injects the workload's agents and
/// opens the service; times it into r.setup_s.
std::unique_ptr<World> set_up(const Options& opt, const AgentCode& agents,
                              Tracer* tracer, RepResult& r) {
  const std::int64_t setup_start = now_ns();
  auto world = std::make_unique<World>();
  world->d = build(opt, tracer, &r.build_s);
  api::Deployment* d = world->d.get();
  if (tracer != nullptr) {
    d->bus().subscribe(world->tuple_ops);
  }
  auto inject = [&](core::AgillaMiddleware& m, auto&& action) {
    Span span(tracer, kApiInject);
    const std::int64_t t0 = now_ns();
    action(m);
    r.inject_s += static_cast<double>(now_ns() - t0) / 1e9;
    ++r.injects;
  };
  switch (opt.kind) {
    case Kind::kFireMesh: {
      setup_fire(*d);
      core::BaseStation base = d->base();
      inject(base.gateway(), [&](core::AgillaMiddleware&) {
        if (!base.inject(core::agents::fire_tracker(180, 16))) {
          r.violations.push_back("fire_tracker injection refused");
        }
      });
      inject(base.gateway(), [&](core::AgillaMiddleware&) {
        if (!base.inject(core::agents::fire_detector({1, 1}, 200, 32))) {
          r.violations.push_back("fire_detector injection refused");
        }
      });
      world->duration = kFireDuration;
      break;
    }
    case Kind::kAgentSwarm:
      for (std::size_t i = 0; i < d->mote_count(); ++i) {
        inject(d->mote(i), [&](core::AgillaMiddleware& m) {
          seed_swarm_store(m);
          for (const auto* code :
               {&agents.loop_a, &agents.loop_b, &agents.migrator}) {
            if (!m.inject(*code)) {
              r.violations.push_back("swarm injection refused on mote " +
                                     std::to_string(i));
            }
          }
        });
      }
      world->duration = kSwarmDuration;
      break;
    case Kind::kGatewayClients:
      break;
  }

  {
    Span span(tracer, kSvcOpen);
    world->transport = std::make_unique<svc::LoopbackTransport>();
    svc::ServiceOptions service_options;
    service_options.max_sessions = kGatewayClients + 8;
    world->service = std::make_unique<svc::GatewayService>(
        *d, *world->transport, service_options);
  }
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  return world;
}

RepResult run_rep(const Options& opt, const AgentCode& agents,
                  Tracer* tracer) {
  RepResult r;
  Span rep_span(tracer, kRep);
  const std::unique_ptr<World> world = set_up(opt, agents, tracer, r);
  api::Deployment* d = world->d.get();
  svc::LoopbackTransport* transport = world->transport.get();
  svc::GatewayService* service = world->service.get();
  const bool gateway = opt.kind == Kind::kGatewayClients;
  ClientLoop loop;
  loop.tracer = tracer;
  loop.width = d->options().width;
  loop.height = d->options().height;
  std::vector<Client> clients(gateway ? kGatewayClients : 1);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].index = i;
    clients[i].ops_total = gateway ? kGatewayOps : 0;
    clients[i].will_reconnect = gateway && i % 8 == 3;
  }

  Counters before;
  {
    Span span(tracer, kApiQuery);
    before = read_counters(*d);
  }
  const sim::SimTime vstart = d->simulator().now();
  const sim::SimTime deadline = vstart + world->duration;
  const sim::SimTime slice = gateway ? kGatewaySlice : kMeshSlice;
  const std::int64_t loop_start = now_ns();
  std::int64_t iter_start = loop_start;
  for (; r.iterations < kMaxIterations; ++r.iterations) {
    bool settled = true;
    for (Client& c : clients) {
      step(loop, c, *transport);
      settled = settled && (c.state == Client::State::kDone ||
                            c.state == Client::State::kFailed);
    }
    if (settled) {
      break;
    }
    const std::int64_t t0 = now_ns();
    {
      Span span(tracer, kSvcPump);
      service->pump();
    }
    const std::int64_t t1 = now_ns();
    {
      Span span(tracer, kSimRunFor);
      r.events += d->simulator().run_for(slice);
    }
    const std::int64_t t2 = now_ns();
    {
      Span span(tracer, kApiQuery);
      r.pending.push_back(
          static_cast<double>(d->simulator().pending_events()));
    }
    loop.stop = !gateway && d->simulator().now() >= deadline;
    const std::int64_t iter_end = now_ns();
    r.iter_ns.push_back(iter_end - iter_start);
    r.pump_ns.push_back(t1 - t0);
    r.run_ns.push_back(t2 - t1);
    iter_start = iter_end;
  }
  r.iter_ns.push_back(now_ns() - iter_start);  // the final client steps
  r.loop_s = static_cast<double>(now_ns() - loop_start) / 1e9;
  r.virtual_s = static_cast<double>(d->simulator().now() - vstart) / 1e6;
  r.reply_ms = std::move(loop.reply_ms);
  r.reconnects_attempted = loop.reconnects_attempted;
  r.reconnects_ok = loop.reconnects_ok;
  r.frames_decoded = loop.frames_decoded;
  r.tuple_outs = world->tuple_ops.outs;
  r.tuple_inps = world->tuple_ops.inps;

  // Results, checks and the digest of the simulated outcome.
  Span query(tracer, kApiQuery);
  r.counters = delta(read_counters(*d), before);
  r.service = service->stats();
  Digest digest;
  digest.mix(r.events);
  digest.mix(d->simulator().now());
  for (const std::uint64_t v : r.counters) {
    digest.mix(v);
  }
  for (std::size_t i = 0; i < d->mote_count(); ++i) {
    core::AgillaMiddleware& m = d->mote(i);
    digest.mix(m.agents().count());
    digest.mix(m.tuple_space().store().tuple_count());
  }
  for (const std::uint64_t v :
       {r.service.sessions_opened, r.service.sessions_resumed,
        r.service.frames_in, r.service.frames_out, r.service.bytes_in,
        r.service.bytes_out, r.service.commands, r.service.async_results,
        r.service.events_sent, r.service.events_dropped,
        r.service.protocol_errors}) {
    digest.mix(v);
  }
  std::uint64_t commands = 0;
  for (const Client& c : clients) {
    digest.mix(c.transcript.value());
    commands += c.next_op;
    r.requests += c.requests;
    r.replies_error += c.replies_error;
    r.async_ok += c.async_ok;
    r.async_failed += c.async_failed;
    r.protocol_errors += c.protocol_errors;
    if (c.state != Client::State::kDone) {
      ++r.unfinished;
      r.unanswered += c.awaiting_reply ? 1 : 0;
    }
  }
  r.digest = digest.value();

  if (r.iterations >= kMaxIterations) {
    r.violations.push_back("client loop hit its iteration cap");
  }
  if (r.unfinished > 0) {
    r.violations.push_back(std::to_string(r.unfinished) +
                           " session(s) did not finish");
  }
  if (r.protocol_errors > 0 || r.service.protocol_errors > 0) {
    r.violations.push_back("protocol errors");
  }
  if (r.reconnects_ok != r.reconnects_attempted) {
    r.violations.push_back("a session resume failed");
  }
  const Counters& c = r.counters;
  if (gateway) {
    r.fail = gateway_fail(r.replies_error, r.async_failed, r.protocol_errors,
                          r.unfinished, commands, r.async_ok + r.async_failed);
  } else {
    if (r.replies_error > 0) {
      r.violations.push_back("operator command answered with an error");
    }
    r.fail = mesh_fail(c[kMigrationsFailed], c[kRemoteTimeouts],
                       c[kMigrationsStarted], c[kRemoteOps]);
  }
  if (opt.kind == Kind::kAgentSwarm) {
    // Every looper's latest round result, against the sum computed here.
    const std::int16_t want = kLoopN * (kLoopN - 1) / 2;
    for (const std::int16_t key : {1, 2}) {
      const ts::CompiledTemplate templ(res_template(key));
      for (std::size_t i = 0; i < d->mote_count(); ++i) {
        const auto res = d->mote(i).tuple_space().rdp(templ);
        if (!res || res->field(2).as_number() != want ||
            res->field(3).as_number() < 1) {
          r.violations.push_back("mote " + std::to_string(i) +
                                 " lacks <res," + std::to_string(key) +
                                 "," + std::to_string(want) + ",n>");
        }
      }
    }
  }
  if (opt.kind == Kind::kFireMesh) {
    const ts::Template det{ts::Value::string("det"),
                           ts::Value::type_wildcard(ts::ValueType::kLocation)};
    if (d->motes_matching(det) == 0) {
      r.violations.push_back("no fire detector marked any mote");
    }
  }
  return r;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += ch;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident set so far. Read after the first repetition: later ones
/// reuse memory the allocator kept, so their peak depends on the count.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// 1 when nothing was attempted: a layer that wasted nothing.
double ok_frac(double ok, double attempted) {
  return attempted > 0 ? ok / attempted : 1.0;
}

double as_double(std::uint64_t v) { return static_cast<double>(v); }

Metric count(const char* name, std::uint64_t v) {
  return {name, as_double(v), "count", 1};
}

/// Rates divide one repetition's work (the same in every repetition) by
/// the Composite's host time. Set-up time is the median over every set-up
/// of the run. The reply p99 is a per-layer figure: on the mesh workloads
/// it does not repeat within a tenth.
std::vector<Metric> end_to_end(const std::vector<RepResult>& reps,
                               const Composite& best,
                               const std::vector<double>& setups,
                               double rss_mb) {
  const RepResult& r = reps.front();
  const double loop_s = best.loop_s();
  const double events = as_double(r.events);
  const double insns = as_double(r.counters[kInstructions]);
  const std::uint64_t replies = best.reply_ms().size();
  const std::uint64_t n = reps.size();
  return {
      {"setup_s", median(setups), "s", setups.size()},
      {"sim_rate", per(r.virtual_s, loop_s), "s/s", n},
      {"events_per_s", per(events, loop_s), "1/s", n},
      {"insns_per_s", per(insns, loop_s), "1/s", n},
      {"cmds_per_s", per(as_double(replies), loop_s), "1/s", n},
      {"reply_p50_ms", quantile(best.reply_ms(), 0.50), "ms", replies},
      {"fail_frac", r.fail.frac(), "frac", r.fail.attempted},
      {"peak_rss_mb", rss_mb, "MB", 1},
  };
}

std::vector<Metric> per_layer(const std::vector<RepResult>& plain,
                              const Composite& best,
                              const std::vector<RepResult>& traced,
                              const Composite& traced_best,
                              const Tracer& tracer) {
  const RepResult& r = plain.front();
  const RepResult& t = traced.front();
  const Counters& c = r.counters;
  const std::uint64_t n = plain.size();
  const std::uint64_t polls = r.pending.size();
  const std::uint64_t replies = best.reply_ms().size();
  const double run_s = best.run_for_s();
  const double delivered = as_double(c[kFramesDelivered]);
  const double heard = as_double(c[kFramesDelivered] + c[kFramesLost]);
  const double migrations = as_double(c[kMigrationsStarted]);
  const double moved = migrations - as_double(c[kMigrationsFailed]);
  const double answered = as_double(c[kRemoteCompletions]);
  const double asked = answered + as_double(c[kRemoteTimeouts]);
  const double tuple_ops = as_double(t.tuple_outs + t.tuple_inps);
  const double resumes = as_double(r.reconnects_attempted);
  const double results = as_double(r.async_ok + r.async_failed);
  std::vector<double> builds;
  std::vector<double> injects;
  for (const RepResult& x : plain) {
    builds.push_back(x.build_s);
    injects.push_back(per(x.inject_s, as_double(x.injects)) * 1e6);
  }
  std::vector<Metric> m = {
      {"api.build_s", median(builds), "s", n},
      {"api.inject_us", median(injects), "us", n * r.injects},
      count("sim.events", r.events),
      {"sim.ns_per_event", per(run_s, as_double(r.events)) * 1e9, "ns", n},
      {"sim.pending_p50", quantile(r.pending, 0.5), "count", polls},
      {"sim.busy_frac", per(run_s, best.loop_s()), "frac", n},
      count("net.frames_sent", c[kFramesSent]),
      count("net.frames_delivered", c[kFramesDelivered]),
      count("net.frames_lost", c[kFramesLost]),
      count("net.beacons", c[kBeacons]),
      count("net.bytes_on_air", c[kBytesOnAir]),
      {"net.ns_per_frame", per(run_s, as_double(c[kFramesSent])) * 1e9, "ns",
       n},
      {"net.delivery_ratio", ok_frac(delivered, heard), "frac", 1},
      count("net.link_retx", c[kLinkRetx]),
      count("net.link_send_failures", c[kLinkFailures]),
      count("net.link_dups", c[kLinkDups]),
      {"net.retx_per_data",
       per(as_double(c[kLinkRetx]), as_double(c[kLinkData])), "ratio", 1},
      count("core.instructions", c[kInstructions]),
      count("core.slices", c[kSlices]),
      count("core.vm_errors", c[kVmErrors]),
      {"core.ns_per_insn", per(run_s, as_double(c[kInstructions])) * 1e9,
       "ns", n},
      count("core.migrations_started", c[kMigrationsStarted]),
      count("core.migrations_failed", c[kMigrationsFailed]),
      count("core.hops", c[kHops]),
      count("core.hop_failures", c[kHopFailures]),
      count("core.arrivals", c[kArrivals]),
      {"core.migration_ok_frac", ok_frac(moved, migrations), "frac", 1},
      count("core.remote_requests", c[kRemoteRequests]),
      count("core.remote_retx", c[kRemoteRetx]),
      count("core.remote_timeouts", c[kRemoteTimeouts]),
      {"core.remote_ok_frac", ok_frac(answered, asked), "frac", 1},
      count("tuplespace.outs", t.tuple_outs),
      count("tuplespace.inps", t.tuple_inps),
      {"tuplespace.ops_per_insn",
       per(tuple_ops, as_double(c[kInstructions])), "ratio", 1},
      {"svc.pump_us", per(best.pump_s(), as_double(r.iterations)) * 1e6,
       "us", n},
      {"svc.reply_p99_ms", quantile(best.reply_ms(), 0.99), "ms", replies},
      count("svc.frames_in", r.service.frames_in),
      count("svc.frames_out", r.service.frames_out),
      count("svc.bytes_out", r.service.bytes_out),
      count("svc.events_dropped", r.service.events_dropped),
      {"svc.resume_ok_frac", ok_frac(as_double(r.reconnects_ok), resumes),
       "frac", 1},
      {"svc.async_ok_frac", ok_frac(as_double(r.async_ok), results), "frac",
       1},
      {"trace.overhead", per(traced_best.loop_s(), best.loop_s()) - 1.0,
       "frac", traced.size()},
      count("trace.spans", tracer.spans()),
      count("trace.spans_kept", tracer.sample().size()),
  };
  // Span-derived: client-side wire codec time per frame, and each layer's
  // self time as a share of the traced repetitions' wall time.
  std::uint64_t frames_encoded = 0;
  std::uint64_t frames_decoded = 0;
  for (const RepResult& x : traced) {
    frames_encoded += x.requests;
    frames_decoded += x.frames_decoded;
  }
  std::map<std::string, double> layer_self;
  double rep_total = 0;
  for (const Tracer::Aggregate& a : tracer.aggregates()) {
    if (a.name == "svc.encode" || a.name == "svc.decode") {
      const std::uint64_t frames =
          a.name == "svc.encode" ? frames_encoded : frames_decoded;
      m.push_back({a.name + "_ns", per(static_cast<double>(a.total_ns), frames),
                   "ns", frames});
    }
    if (a.name == "bench.rep") {
      rep_total = static_cast<double>(a.total_ns);
    }
    layer_self[a.name.substr(0, a.name.find('.'))] +=
        static_cast<double>(a.self_ns);
  }
  for (const char* layer : {"api", "sim", "svc", "bench"}) {
    m.push_back({std::string("trace.") + layer + "_self_share",
                 per(layer_self[layer], rep_total), "frac", traced.size()});
  }
  return m;
}

void print_metrics(std::ostream& os, const char* key,
                   const std::vector<Metric>& metrics) {
  os << json_string(key) << ":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? "," : "") << json_string(m.name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
       << ",\"samples\":" << m.samples << "}";
  }
  os << "}";
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  const auto& names = tracer.aggregates();
  out << "# name parent start_ns end_ns (every kept span; totals below)\n";
  const std::int64_t origin =
      tracer.sample().empty() ? 0 : tracer.sample().front().start_ns;
  for (const Tracer::RawSpan& s : tracer.sample()) {
    out << names[s.name].name << ' ' << names[s.parent].name << ' '
        << s.start_ns - origin << ' ' << s.end_ns - origin << '\n';
  }
  for (const Tracer::Aggregate& a : names) {
    out << "# total " << a.name << " count=" << a.count
        << " total_ns=" << a.total_ns << " self_ns=" << a.self_ns << '\n';
  }
}

int usage(const char* error) {
  std::fprintf(stderr,
               "agilla_perf: %s\n"
               "usage: agilla_perf --workload fire_mesh|agent_swarm|"
               "gateway_clients [--seed N] [--seconds S] [--trace 0|1]\n"
               "                   [--agents DIR] [--spans-out FILE]\n",
               error);
  return 2;
}

AgentCode load_agents(const std::string& dir) {
  auto assemble = [&](const char* name) {
    core::AssemblyResult assembled = core::assemble_file(dir + "/" + name);
    if (!assembled.ok()) {
      throw std::runtime_error(assembled.error_text());
    }
    return std::move(assembled.code);
  };
  return {assemble("loop_a.aga"), assemble("loop_b.aga"),
          assemble("migrator.aga")};
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--agents") {
      opt.agents_dir = value;
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (opt.workload == "fire_mesh") {
    opt.kind = Kind::kFireMesh;
  } else if (opt.workload == "agent_swarm") {
    opt.kind = Kind::kAgentSwarm;
  } else if (opt.workload == "gateway_clients") {
    opt.kind = Kind::kGatewayClients;
  } else {
    return usage("unknown workload");
  }
  if (!(opt.seconds > 0)) {
    return usage("--seconds must be positive");
  }
  const AgentCode agents = opt.kind == Kind::kAgentSwarm
                               ? load_agents(opt.agents_dir)
                               : AgentCode{};

  // Repeat until the budget is spent: at least two plain repetitions (the
  // digest comparison), and one traced repetition per plain one when
  // tracing. A repetition starts only if the median so far still fits.
  Tracer tracer(/*sample_every=*/997, /*keep_max=*/20000);
  for (const char* name : kSpanNames) {
    tracer.intern(name);
  }
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  Composite best;
  Composite traced_best;
  // Folds a repetition into its Composite, then drops the per-iteration
  // vectors so memory does not grow with the repetition count.
  auto keep = [](std::vector<RepResult>& reps, Composite& composite,
                 RepResult rep) {
    composite.merge(rep);
    rep.iter_ns = {};
    rep.pump_ns = {};
    rep.run_ns = {};
    rep.reply_ms = {};
    reps.push_back(std::move(rep));
  };
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<double> rep_ns;
  double rss_mb = 0;
  std::vector<double> setups;
  std::int64_t extra_setup_ns = 0;
  for (;;) {
    const std::int64_t t0 = now_ns();
    keep(plain, best, run_rep(opt, agents, nullptr));
    setups.push_back(plain.back().setup_s);
    if (plain.size() == 1) {
      rss_mb = peak_rss_mb();
    }
    if (opt.trace) {
      keep(traced, traced_best, run_rep(opt, agents, &tracer));
    }
    // More set-up samples where set-up is cheap, spread evenly over the
    // budget: up to kSetupSamples in all, in at most a tenth of the time.
    const std::int64_t elapsed_ns = now_ns() - start;
    const auto due = static_cast<std::size_t>(
        std::min<std::int64_t>(kSetupSamples * elapsed_ns / budget_ns + 1,
                               kSetupSamples));
    while (setups.size() < due && extra_setup_ns * 10 < elapsed_ns) {
      const std::int64_t s0 = now_ns();
      RepResult extra;
      set_up(opt, agents, nullptr, extra);
      setups.push_back(extra.setup_s);
      extra_setup_ns += now_ns() - s0;
    }
    rep_ns.push_back(static_cast<double>(now_ns() - t0));
    const double elapsed = static_cast<double>(now_ns() - start);
    if (plain.size() >= 2 && elapsed + median(rep_ns) > budget_ns) {
      break;
    }
  }

  std::vector<std::string> violations;
  const std::uint64_t want = plain.front().digest;
  auto check = [&](const std::vector<RepResult>& reps, const char* kind) {
    for (std::size_t i = 0; i < reps.size(); ++i) {
      violations.insert(violations.end(), reps[i].violations.begin(),
                        reps[i].violations.end());
      if (reps[i].digest != want) {
        violations.push_back(std::string(kind) + " repetition " +
                             std::to_string(i) + " digest " +
                             hex(reps[i].digest) + " != " + hex(want));
      }
    }
  };
  check(plain, "plain");
  check(traced, "traced");
  if (samples_beyond(best.reply_ms().size(), 99.0) < kTailSamples) {
    violations.push_back("too few replies for a p99 with " +
                         std::to_string(kTailSamples) + " samples beyond");
  }
  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end()),
                   violations.end());

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RepResult& r : plain) {
    attempted += r.requests;
    failed += r.unanswered + r.unfinished + r.protocol_errors;
  }

  if (opt.trace && !opt.spans_out.empty()) {
    write_spans(opt.spans_out, tracer);
  }

  std::ostringstream os;
  os << "{\"workload\":" << json_string(opt.workload)
     << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
     << ",\"correct\":" << (violations.empty() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"reps\":" << plain.size() << ",\"traced_reps\":" << traced.size()
     << ",\"digest\":" << json_string(hex(plain.front().digest))
     << ",\"fail_ops\":" << plain.front().fail.failed
     << ",\"fail_attempts\":" << plain.front().fail.attempted
     << ",\"compiler\":" << json_string(__VERSION__)
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"composite_loop_s\":" << json_number(best.loop_s())
     << ",\"rep_loop_s\":[";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    os << (i ? "," : "") << json_number(plain[i].loop_s);
  }
  os << "],\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    os << (i ? "," : "") << json_string(violations[i]);
  }
  os << "],";
  print_metrics(os, "end_to_end", end_to_end(plain, best, setups, rss_mb));
  if (opt.trace) {
    os << ",";
    print_metrics(os, "per_layer",
                  per_layer(plain, best, traced, traced_best, tracer));
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agilla_perf: %s\n", e.what());
    return 1;
  }
}
