// Default schemes vs seed TCP differential determinism: the connection
// engine, with its congestion control and ACK policy split out into
// their own classes, must be invisible under the default tuning
// (NewReno + immediate ACK). Every paper spec — plus chain, star and
// grid worlds — runs the same file workload twice, once over
// transport::TcpConnection and once over the frozen seed copy in
// tests/support/seed_tcp.h, and each pair must agree on
//
//   - the trace digest (CRC-32 over the network-event trace),
//   - the per-node MAC stats table, byte for byte,
//   - the medium's transmission / scheduled-delivery counts, and
//   - the scheduler's executed-event count.
//
// Both variants get byte-identical wiring: the same staggered sender
// start times through the same timers, the same listener setup,
// the same run-slice loop — the only degree of freedom is which TCP
// processes the segments. A scheme that scheduled one extra event (say,
// an always-armed delack timer) or perturbed one windowing decision
// diverges here on every affected combo. Registered under the
// `transport` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/seed_tcp.h"
#include "topo/scenario.h"
#include "transport/host.h"

namespace hydra {
namespace {

constexpr proto::Port kPort = 5001;
constexpr std::uint64_t kFileBytes = 60'000;

struct RunFingerprint {
  std::uint32_t digest = 0;
  std::string stats;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t delivered_bytes = 0;
  bool all_complete = false;
};

// The two sides of the differential, as traits the harness templates
// over: which mux attaches to a node and which connection type it hands
// out. Everything else in a run is shared code, so the wiring (timers,
// callback order, start times) cannot drift between sides.
struct CurrentSide {
  using Connection = transport::TcpConnection;
  static auto& mux(net::Node& node) { return transport::mux_of(node); }
};

struct SeedSide {
  using Connection = seedtcp::SeedTcpConnection;
  static auto& mux(net::Node& node) { return seedtcp::seed_mux_of(node); }
};

// Minimal FileSenderApp equivalent, shared by both sides (the real app
// is hardwired to transport::mux_of). Same start timer, same
// connect/send/close sequence.
template <typename Side>
class Sender {
 public:
  Sender(sim::Simulation& sim, net::Node& node, proto::Endpoint destination)
      : sim_(sim),
        node_(node),
        destination_(destination),
        timer_(sim.scheduler(), [this] { begin(); }) {}

  void start(sim::TimePoint at) {
    const auto now = sim_.now();
    timer_.arm(at > now ? at - now : sim::Duration::zero());
  }

 private:
  void begin() {
    auto& conn = Side::mux(node_).tcp_connect(destination_, {});
    conn.send(kFileBytes);
    conn.close();
  }

  sim::Simulation& sim_;
  net::Node& node_;
  proto::Endpoint destination_;
  sim::Timer timer_;
};

template <typename Side>
RunFingerprint run_transfers(const topo::ScenarioSpec& spec) {
  auto s = topo::Scenario::build(spec, /*seed=*/5);
  s.capture_traces();

  const auto sessions = spec.sessions;
  EXPECT_FALSE(sessions.empty()) << spec.label();

  // Receivers: one listener per distinct destination, counting in-order
  // bytes per accepted flow.
  std::map<std::uint32_t, std::uint64_t> expected_at;
  std::uint64_t delivered = 0;
  for (const auto& session : sessions) {
    const auto dst = session.receiver;
    if (!expected_at.contains(dst)) {
      Side::mux(s.node(dst)).tcp_listen(
          kPort, {}, [&delivered](typename Side::Connection& conn) {
            conn.on_data = [&delivered](std::uint64_t bytes) {
              delivered += bytes;
            };
          });
    }
    expected_at[dst] += kFileBytes;
  }
  const std::uint64_t expected_total = [&] {
    std::uint64_t total = 0;
    for (const auto& [dst, bytes] : expected_at) total += bytes;
    return total;
  }();

  std::vector<std::unique_ptr<Sender<Side>>> senders;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    senders.push_back(std::make_unique<Sender<Side>>(
        s.sim(), s.node(sessions[i].sender),
        proto::Endpoint{proto::Ipv4Address::for_node(sessions[i].receiver),
                        kPort}));
    senders.back()->start(
        sim::TimePoint::at(sim::Duration::millis(10) * (i + 1)));
  }

  const auto deadline = sim::TimePoint::at(sim::Duration::seconds(120));
  while (s.sim().now() < deadline && delivered < expected_total) {
    s.run_for(sim::Duration::millis(200));
  }

  EXPECT_FALSE(s.trace().empty()) << spec.label();
  RunFingerprint fp;
  fp.digest = s.trace_digest();
  fp.stats = s.metrics_summary();
  fp.transmissions = s.medium().transmissions_started();
  fp.deliveries = s.medium().deliveries_scheduled();
  fp.executed_events = s.sim().scheduler().executed_events();
  fp.delivered_bytes = delivered;
  fp.all_complete = delivered >= expected_total;
  return fp;
}

void assert_matches_seed(const topo::ScenarioSpec& spec) {
  const auto current = run_transfers<CurrentSide>(spec);
  const auto seed = run_transfers<SeedSide>(spec);
  const std::string where = spec.label();
  EXPECT_TRUE(seed.all_complete) << where << ": seed run incomplete";
  EXPECT_EQ(current.digest, seed.digest)
      << where << ": current vs seed trace digest diverged";
  EXPECT_EQ(current.stats, seed.stats)
      << where << ": current vs seed MAC stats diverged";
  EXPECT_EQ(current.transmissions, seed.transmissions) << where;
  EXPECT_EQ(current.deliveries, seed.deliveries) << where;
  EXPECT_EQ(current.executed_events, seed.executed_events)
      << where << ": event counts diverged (a scheme scheduled events)";
  EXPECT_EQ(current.delivered_bytes, seed.delivered_bytes) << where;
}

TEST(TransportDifferential, OneHop) {
  assert_matches_seed(topo::ScenarioSpec::one_hop());
}

TEST(TransportDifferential, TwoHop) {
  assert_matches_seed(topo::ScenarioSpec::two_hop());
}

TEST(TransportDifferential, ThreeHop) {
  assert_matches_seed(topo::ScenarioSpec::three_hop());
}

TEST(TransportDifferential, Fig6Star) {
  assert_matches_seed(topo::ScenarioSpec::fig6_star());
}

TEST(TransportDifferential, Chain5) {
  assert_matches_seed(topo::ScenarioSpec::chain(5));
}

TEST(TransportDifferential, Star3) {
  assert_matches_seed(topo::ScenarioSpec::star(3));
}

TEST(TransportDifferential, Grid3x3) {
  assert_matches_seed(topo::ScenarioSpec::grid(3, 3));
}

}  // namespace
}  // namespace hydra
