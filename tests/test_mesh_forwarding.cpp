// Forwarding plane (src/mesh/forwarding): zero-copy header encode/decode
// in packet headroom, delivery along the deterministic primary path,
// fast-reroute to precomputed alternates when the primary next hop dies,
// the no-failover baseline, TTL expiry, and pool exhaustion as a counted
// graceful drop (PacketPoolStats + net.pool.exhausted + mesh.dropped.pool).
#include "src/mesh/forwarding.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/mac/event_queue.hpp"
#include "src/mesh/topology.hpp"
#include "src/net/packet.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"

namespace mmtag::mesh {
namespace {

/// Square of side 8 m, gateway 0, edges 0-1, 0-2, 1-3, 2-3 only. From
/// reader 3 the two gateway paths tie, so the lexicographic tie-break
/// makes 3-1-0 the primary and 3-2-0 the first alternate.
MeshTopology square_topology() {
  const std::vector<core::Pose> poses = {core::Pose{{0.0, 0.0}, 0.0},
                                         core::Pose{{8.0, 0.0}, 0.0},
                                         core::Pose{{0.0, 8.0}, 0.0},
                                         core::Pose{{8.0, 8.0}, 0.0}};
  TopologyConfig config;
  config.link.max_range_m = 9.0;
  return MeshTopology(poses, config);
}

TEST(MeshHeader, RoundtripsThroughHeadroomWithoutMovingPayload) {
  net::PacketPool pool(1, 64, 32);
  net::Packet packet = pool.alloc();
  ASSERT_TRUE(packet);
  std::uint8_t* payload = packet.append(24);
  ASSERT_NE(payload, nullptr);
  for (std::size_t i = 0; i < 24; ++i) {
    payload[i] = static_cast<std::uint8_t>(0xA0 + i);
  }

  MeshHeader header;
  header.ttl = 9;
  header.src = 3;
  header.dst = 0;
  header.flags = MeshHeader::kFlagRerouted;
  header.seq = 0xDEADBEEF;
  header.epoch = 42;
  ASSERT_TRUE(header.encode_prepend(packet));
  EXPECT_EQ(packet.size(), 24 + MeshHeader::kWireBytes);

  MeshHeader decoded;
  ASSERT_TRUE(MeshHeader::decode(packet, &decoded));
  EXPECT_EQ(decoded.version, MeshHeader::kVersion);
  EXPECT_EQ(decoded.ttl, 9);
  EXPECT_EQ(decoded.src, 3);
  EXPECT_EQ(decoded.dst, 0);
  EXPECT_EQ(decoded.flags, MeshHeader::kFlagRerouted);
  EXPECT_EQ(decoded.seq, 0xDEADBEEFu);
  EXPECT_EQ(decoded.epoch, 42u);

  ASSERT_TRUE(MeshHeader::strip(packet));
  EXPECT_EQ(packet.size(), 24u);
  // Zero copy: the payload bytes never moved.
  EXPECT_EQ(packet.data(), payload);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(packet.data()[i], static_cast<std::uint8_t>(0xA0 + i));
  }
}

TEST(MeshHeader, RejectsShortPacketsAndVersionMismatch) {
  net::PacketPool pool(1, 64, 8);  // Headroom too small for a header.
  net::Packet packet = pool.alloc();
  ASSERT_TRUE(packet);
  MeshHeader header;
  EXPECT_FALSE(header.encode_prepend(packet));
  EXPECT_EQ(packet.size(), 0u);
  MeshHeader out;
  EXPECT_FALSE(MeshHeader::decode(packet, &out));
  EXPECT_FALSE(MeshHeader::strip(packet));
}

TEST(MeshForwarding, DeliversAlongTheLexicographicPrimary) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(8, 256, 32);
  MeshNetwork net(&topo, ForwardingConfig{}, &pool);
  ASSERT_FALSE(net.table(3).best_routes().empty());
  EXPECT_EQ(net.table(3).best_routes().front().hops,
            (std::vector<int>{3, 1, 0}));

  mac::EventQueue queue;
  net.begin_epoch({});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  EXPECT_EQ(net.in_flight(), 0u);
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.delivered_local, 0u);
  EXPECT_EQ(stats.hops, 2u);
  EXPECT_EQ(stats.reroutes, 0u);
  EXPECT_EQ(stats.payload_bytes_delivered, 128u);
  EXPECT_GT(stats.latency_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.stretch_mean, 1.0);  // Primary IS the oracle path.
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
  EXPECT_GT(stats.link_util_max, 0.0);
}

TEST(MeshForwarding, GatewaySourceEgressesLocally) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(2, 256, 32);
  MeshNetwork net(&topo, ForwardingConfig{}, &pool);
  mac::EventQueue queue;
  net.begin_epoch({});
  EXPECT_TRUE(net.send(queue, 0, 99, 0.0));
  EXPECT_EQ(net.in_flight(), 0u);  // No mesh frame was needed.
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered_local, 1u);
  EXPECT_EQ(stats.payload_bytes_delivered, 99u);
}

TEST(MeshForwarding, DeadSourceIsACountedDrop) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(2, 256, 32);
  MeshNetwork net(&topo, ForwardingConfig{}, &pool);
  mac::EventQueue queue;
  net.begin_epoch({1, 1, 1, 0});
  EXPECT_FALSE(net.send(queue, 3, 128, 0.0));
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.offered, 0u);
  EXPECT_EQ(stats.dropped_no_route, 1u);
}

TEST(MeshForwarding, FailoverShiftsToTheFirstLiveAlternate) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(8, 256, 32);
  MeshNetwork net(&topo, ForwardingConfig{}, &pool);
  mac::EventQueue queue;
  // Reader 1 (the primary transit) dies; tables are stale until
  // reconverge(), so delivery relies on the precomputed alternate.
  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.reroutes, 1u);
  EXPECT_EQ(stats.rerouted_delivered, 1u);
  EXPECT_EQ(stats.hops, 2u);  // The alternate is also two hops.
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
}

TEST(MeshForwarding, NoFailoverBaselineDropsWhereThePrimaryDies) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(8, 256, 32);
  ForwardingConfig config;
  config.failover = false;
  config.reconverge = false;
  MeshNetwork net(&topo, config, &pool);
  mac::EventQueue queue;
  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped_no_route, 1u);
  EXPECT_EQ(stats.reroutes, 0u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.0);
}

TEST(MeshForwarding, ReconvergeMakesTheDetourThePrimary) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(8, 256, 32);
  MeshNetwork net(&topo, ForwardingConfig{}, &pool);
  mac::EventQueue queue;
  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  net.reconverge();  // Link-state flood catches up; tables rebuilt.
  ASSERT_FALSE(net.table(3).best_routes().empty());
  EXPECT_EQ(net.table(3).best_routes().front().hops,
            (std::vector<int>{3, 2, 0}));

  net.begin_epoch({1, 0, 1, 1});
  EXPECT_TRUE(net.send(queue, 3, 128, queue.now()));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.reroutes, 1u);  // Only the pre-convergence frame shifted.
  EXPECT_EQ(stats.rerouted_delivered, 1u);
}

TEST(MeshForwarding, TtlExpiryIsACountedDrop) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(8, 256, 32);
  ForwardingConfig config;
  config.ttl = 1;  // One link crossing allowed; the path needs two.
  MeshNetwork net(&topo, config, &pool);
  mac::EventQueue queue;
  net.begin_epoch({});
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped_ttl, 1u);
  EXPECT_EQ(net.in_flight(), 0u);  // The slot went back to the pool.
}

TEST(MeshForwarding, PoolExhaustionIsACountedGracefulDrop) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(1, 256, 32);  // One slot: the second send must drop.
  MeshNetwork net(&topo, ForwardingConfig{}, &pool);
  mac::EventQueue queue;
  net.begin_epoch({});
  const std::uint64_t exhausted_before =
      obs::Registry::instance().counter("net.pool.exhausted").value();
  EXPECT_TRUE(net.send(queue, 3, 128, 0.0));
  EXPECT_FALSE(net.send(queue, 3, 128, 0.0));  // Graceful, counted refusal.
  EXPECT_EQ(pool.stats().exhaustions, 1u);
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(
        obs::Registry::instance().counter("net.pool.exhausted").value(),
        exhausted_before + 1);
  }
  queue.run();
  const MeshStats stats = net.finish(1.0);
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped_pool, 1u);
  // The drop counts against delivery: 1 of 2 made it out.
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.5);
  EXPECT_EQ(pool.available(), 1u);  // Everything returned to the pool.
}

TEST(MeshForwarding, StatsFingerprintIsBitStable) {
  const auto run_once = [](bool failover) {
    const MeshTopology topo = square_topology();
    net::PacketPool pool(8, 256, 32);
    ForwardingConfig config;
    config.failover = failover;
    MeshNetwork net(&topo, config, &pool);
    mac::EventQueue queue;
    net.begin_epoch({1, 0, 1, 1});
    (void)net.send(queue, 3, 128, 0.0);
    (void)net.send(queue, 2, 128, 1e-4);
    queue.run();
    net.reconverge();
    return fingerprint(net.finish(1.0));
  };
  EXPECT_EQ(run_once(true), run_once(true));
  EXPECT_EQ(run_once(false), run_once(false));
  EXPECT_NE(run_once(true), run_once(false));
}

// Invalid construction is refused in every build type, not only under
// assert: a null pool, headroom that cannot hold the header, a ttl the
// one-byte wire field cannot carry.
TEST(MeshNetworkConfig, NullPoolIsRejected) {
  const MeshTopology topo = square_topology();
  EXPECT_THROW((MeshNetwork{&topo, ForwardingConfig{}, nullptr}),
               std::invalid_argument);
}

TEST(MeshNetworkConfig, HeadroomBelowTheHeaderIsRejected) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(4, 256, MeshHeader::kWireBytes - 1);
  EXPECT_THROW((MeshNetwork{&topo, ForwardingConfig{}, &pool}),
               std::invalid_argument);
}

TEST(MeshNetworkConfig, TtlOutsideOneTo255IsRejected) {
  const MeshTopology topo = square_topology();
  net::PacketPool pool(4, 256, 32);
  for (const int ttl : {0, -1, 256}) {
    ForwardingConfig config;
    config.ttl = ttl;
    EXPECT_THROW((MeshNetwork{&topo, config, &pool}), std::invalid_argument)
        << "ttl " << ttl;
  }
  ForwardingConfig edge;
  edge.ttl = 255;
  EXPECT_NO_THROW((MeshNetwork{&topo, edge, &pool}));
}

}  // namespace
}  // namespace mmtag::mesh
