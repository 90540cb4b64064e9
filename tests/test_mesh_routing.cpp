// Route math (src/mesh/routing): Dijkstra and Yen K-shortest correctness
// on hand-checked graphs, the total tie-break order (lowest reader id
// wins), loop-freedom of alternates, RouteTable gateway selection, the
// early-exit spur search against a masked-copy reference Yen, and a pin
// of the link-state flood that feeds it.
#include "src/mesh/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/deploy/layout.hpp"
#include "src/mesh/link_state.hpp"
#include "src/mesh/topology.hpp"
#include "src/obs/stats.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::mesh {
namespace {

/// Undirected helper: adds the edge in both directions with equal cost.
void add_edge(Adjacency& adj, int u, int v, double cost) {
  MeshLink forward;
  forward.from = u;
  forward.to = v;
  forward.cost = cost;
  MeshLink backward = forward;
  backward.from = v;
  backward.to = u;
  adj[static_cast<std::size_t>(u)].push_back(forward);
  adj[static_cast<std::size_t>(v)].push_back(backward);
}

/// Keep every edge list ascending by neighbor id (the topology invariant
/// routing relies on for determinism).
void sort_edges(Adjacency& adj) {
  for (auto& edges : adj) {
    std::sort(edges.begin(), edges.end(),
              [](const MeshLink& a, const MeshLink& b) { return a.to < b.to; });
  }
}

/// Yen's classic worked example (nodes C=0 D=1 E=2 F=3 G=4 H=5).
Adjacency yen_graph() {
  Adjacency adj(6);
  add_edge(adj, 0, 1, 3.0);  // C-D
  add_edge(adj, 0, 2, 2.0);  // C-E
  add_edge(adj, 1, 3, 4.0);  // D-F
  add_edge(adj, 2, 1, 1.0);  // E-D
  add_edge(adj, 2, 3, 2.0);  // E-F
  add_edge(adj, 2, 4, 3.0);  // E-G
  add_edge(adj, 3, 4, 2.0);  // F-G
  add_edge(adj, 3, 5, 1.0);  // F-H
  add_edge(adj, 4, 5, 2.0);  // G-H
  sort_edges(adj);
  return adj;
}

TEST(RouteOrder, CostThenHopsThenLexicographic) {
  Route cheap{{0, 1, 2}, 1.0};
  Route pricey{{0, 2}, 2.0};
  EXPECT_TRUE(route_less(cheap, pricey));
  EXPECT_FALSE(route_less(pricey, cheap));

  Route short_path{{0, 3}, 2.0};
  EXPECT_TRUE(route_less(short_path, pricey) ||
              route_less(pricey, short_path));  // Total order on distincts.
  Route low_ids{{0, 1, 3}, 2.0};
  Route high_ids{{0, 2, 3}, 2.0};
  EXPECT_TRUE(route_less(low_ids, high_ids));  // Lowest reader id wins.

  Route invalid;
  EXPECT_TRUE(route_less(low_ids, invalid));
  EXPECT_FALSE(route_less(invalid, low_ids));
}

TEST(Dijkstra, HandCheckedCostsAndParents) {
  const Adjacency adj = yen_graph();
  const ShortestPaths sp = dijkstra(adj, 0);
  EXPECT_DOUBLE_EQ(sp.cost[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.cost[1], 3.0);  // C-E-D (2+1) == C-D (3); cost ties.
  EXPECT_DOUBLE_EQ(sp.cost[2], 2.0);  // C-E
  EXPECT_DOUBLE_EQ(sp.cost[3], 4.0);  // C-E-F
  EXPECT_DOUBLE_EQ(sp.cost[4], 5.0);  // C-E-G
  EXPECT_DOUBLE_EQ(sp.cost[5], 5.0);  // C-E-F-H
  EXPECT_EQ(sp.parent[5], 3);
  EXPECT_EQ(sp.parent[3], 2);
  EXPECT_EQ(sp.parent[2], 0);
}

TEST(Dijkstra, UnreachableNodesReportNegativeCost) {
  Adjacency adj(3);
  add_edge(adj, 0, 1, 1.0);
  sort_edges(adj);
  const ShortestPaths sp = dijkstra(adj, 0);
  EXPECT_LT(sp.cost[2], 0.0);
  EXPECT_EQ(sp.parent[2], -1);
  EXPECT_FALSE(PathSearch().shortest_path(adj, 0, 2).valid());
}

TEST(KShortest, YenWorkedExample) {
  const Adjacency adj = yen_graph();
  const std::vector<Route> routes =
      PathSearch().k_shortest_paths(adj, 0, 5, 3);
  ASSERT_EQ(routes.size(), 3u);
  EXPECT_EQ(routes[0].hops, (std::vector<int>{0, 2, 3, 5}));  // C-E-F-H
  EXPECT_DOUBLE_EQ(routes[0].cost, 5.0);
  // Cost-7 tie (our edges are undirected, so C-D-E-F-H exists too, unlike
  // Yen's directed original): fewer hops ranks C-E-G-H ahead.
  EXPECT_EQ(routes[1].hops, (std::vector<int>{0, 2, 4, 5}));  // C-E-G-H
  EXPECT_DOUBLE_EQ(routes[1].cost, 7.0);
  EXPECT_EQ(routes[2].hops, (std::vector<int>{0, 1, 2, 3, 5}));
  EXPECT_DOUBLE_EQ(routes[2].cost, 7.0);
}

TEST(KShortest, AlternatesAreLoopFreeAndOrdered) {
  const Adjacency adj = yen_graph();
  const std::vector<Route> routes =
      PathSearch().k_shortest_paths(adj, 0, 5, 8);
  ASSERT_GE(routes.size(), 3u);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const std::set<int> unique(routes[i].hops.begin(), routes[i].hops.end());
    EXPECT_EQ(unique.size(), routes[i].hops.size()) << "loop in route " << i;
    if (i > 0) {
      EXPECT_TRUE(route_less(routes[i - 1], routes[i]));
    }
  }
}

TEST(KShortest, EqualCostTieGoesToLowestReaderId) {
  // Diamond: 0-1-3 and 0-2-3, identical costs and hop counts.
  Adjacency adj(4);
  add_edge(adj, 0, 1, 1.0);
  add_edge(adj, 0, 2, 1.0);
  add_edge(adj, 1, 3, 1.0);
  add_edge(adj, 2, 3, 1.0);
  sort_edges(adj);
  const std::vector<Route> routes =
      PathSearch().k_shortest_paths(adj, 0, 3, 2);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].hops, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(routes[1].hops, (std::vector<int>{0, 2, 3}));
  // And the Dijkstra parent agrees with the lexicographic winner.
  const ShortestPaths sp = dijkstra(adj, 0);
  EXPECT_EQ(sp.parent[3], 1);
}

TEST(KShortest, DeterministicAcrossRepeatedRuns) {
  const Adjacency adj = yen_graph();
  PathSearch search;  // The second run reuses the first run's buffers.
  const std::vector<Route> a = search.k_shortest_paths(adj, 0, 5, 4);
  const std::vector<Route> b = search.k_shortest_paths(adj, 0, 5, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hops, b[i].hops);
    EXPECT_DOUBLE_EQ(a[i].cost, b[i].cost);
  }
}

TEST(RouteTable, PicksBestGatewayWithAlternates) {
  const Adjacency adj = yen_graph();
  RoutingConfig config;
  config.k_paths = 3;
  // Gateways at D(1) and H(5); from C(0): D costs 3, H costs 5.
  const RouteTable table(adj, 0, {1, 5}, config);
  EXPECT_EQ(table.best_gateway(), 1);
  ASSERT_FALSE(table.routes(5).empty());
  EXPECT_EQ(table.routes(5).front().hops, (std::vector<int>{0, 2, 3, 5}));
  ASSERT_FALSE(table.best_routes().empty());
  EXPECT_DOUBLE_EQ(table.best_routes().front().cost, 3.0);
}

TEST(RouteTable, GatewayNodeDrainsItself) {
  const Adjacency adj = yen_graph();
  const RouteTable table(adj, 5, {1, 5}, RoutingConfig{});
  EXPECT_EQ(table.best_gateway(), 5);
}

TEST(RouteTable, NoGatewayReachableReportsNone) {
  Adjacency adj(4);
  add_edge(adj, 0, 1, 1.0);
  add_edge(adj, 2, 3, 1.0);  // {2,3} disconnected from {0,1}.
  sort_edges(adj);
  const RouteTable table(adj, 2, {0}, RoutingConfig{});
  EXPECT_EQ(table.best_gateway(), -1);
  EXPECT_TRUE(table.best_routes().empty());
}

// --- Reference Yen --------------------------------------------------------
// Yen's algorithm as the routing layer computed it before the early-exit
// spur search: every spur search copies the graph without the banned
// nodes and edges and reads its route off a full dijkstra() tree. The
// product search must return the same routes, hop for hop and bit for
// bit in cost.

Route reference_shortest_path(const Adjacency& adj, int src, int dst) {
  Route route;
  if (src == dst) {
    route.hops.push_back(src);
    return route;
  }
  const ShortestPaths sp = dijkstra(adj, src);
  if (sp.cost[static_cast<std::size_t>(dst)] < 0.0) return route;
  route.cost = sp.cost[static_cast<std::size_t>(dst)];
  for (int at = dst; at != -1; at = sp.parent[static_cast<std::size_t>(at)]) {
    route.hops.push_back(at);
  }
  std::reverse(route.hops.begin(), route.hops.end());
  return route;
}

Route reference_masked_shortest_path(
    const Adjacency& adj, int src, int dst,
    const std::vector<std::uint8_t>& banned_nodes,
    const std::set<std::pair<int, int>>& banned_edges) {
  Adjacency masked(adj.size());
  for (std::size_t u = 0; u < adj.size(); ++u) {
    if (banned_nodes[u] != 0) continue;
    for (const MeshLink& link : adj[u]) {
      if (banned_nodes[static_cast<std::size_t>(link.to)] != 0) continue;
      if (banned_edges.count({static_cast<int>(u), link.to}) != 0) continue;
      masked[u].push_back(link);
    }
  }
  return reference_shortest_path(masked, src, dst);
}

double reference_prefix_cost(const Adjacency& adj,
                             const std::vector<int>& hops, std::size_t upto) {
  double cost = 0.0;
  for (std::size_t i = 0; i < upto; ++i) {
    for (const MeshLink& link : adj[static_cast<std::size_t>(hops[i])]) {
      if (link.to == hops[i + 1]) {
        cost += link.cost;
        break;
      }
    }
  }
  return cost;
}

std::vector<Route> reference_k_shortest_paths(const Adjacency& adj, int src,
                                              int dst, std::size_t k) {
  std::vector<Route> result;
  if (k == 0 || src == dst) return result;
  Route first = reference_shortest_path(adj, src, dst);
  if (!first.valid()) return result;
  result.push_back(std::move(first));
  auto cmp = [](const Route& a, const Route& b) { return route_less(a, b); };
  std::set<Route, decltype(cmp)> candidates(cmp);
  while (result.size() < k) {
    const Route prev = result.back();
    for (std::size_t spur = 0; spur + 1 < prev.hops.size(); ++spur) {
      const std::vector<int> prefix(
          prev.hops.begin(),
          prev.hops.begin() + static_cast<std::ptrdiff_t>(spur + 1));
      std::set<std::pair<int, int>> banned_edges;
      for (const Route& accepted : result) {
        if (accepted.hops.size() > spur + 1 &&
            std::equal(prefix.begin(), prefix.end(),
                       accepted.hops.begin())) {
          banned_edges.insert({accepted.hops[spur], accepted.hops[spur + 1]});
        }
      }
      std::vector<std::uint8_t> banned_nodes(adj.size(), 0);
      for (std::size_t i = 0; i < spur; ++i) {
        banned_nodes[static_cast<std::size_t>(prefix[i])] = 1;
      }
      const Route spur_route = reference_masked_shortest_path(
          adj, prev.hops[spur], dst, banned_nodes, banned_edges);
      if (!spur_route.valid()) continue;
      Route total;
      total.hops = prefix;
      total.hops.insert(total.hops.end(), spur_route.hops.begin() + 1,
                        spur_route.hops.end());
      total.cost = reference_prefix_cost(adj, prev.hops, spur) +
                   spur_route.cost;
      candidates.insert(std::move(total));
    }
    Route next;
    while (!candidates.empty()) {
      Route top = *candidates.begin();
      candidates.erase(candidates.begin());
      const bool seen =
          std::any_of(result.begin(), result.end(), [&](const Route& r) {
            return r.hops == top.hops;
          });
      if (!seen) {
        next = std::move(top);
        break;
      }
    }
    if (!next.valid()) break;
    result.push_back(std::move(next));
  }
  return result;
}

void expect_same_routes(const std::vector<Route>& got,
                        const std::vector<Route>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].hops, want[i].hops) << where << " route " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].cost),
              std::bit_cast<std::uint64_t>(want[i].cost))
        << where << " route " << i;
  }
}

/// For K in 1..8 and every (source, gateway) pair: PathSearch (one search
/// object reused across every call) and RouteTable both match the
/// reference.
void expect_matches_reference(const Adjacency& adj,
                              const std::vector<int>& gateways,
                              const std::string& graph) {
  PathSearch search;
  for (std::size_t k = 1; k <= 8; ++k) {
    RoutingConfig config;
    config.k_paths = k;
    for (int src = 0; src < static_cast<int>(adj.size()); ++src) {
      const RouteTable table(adj, src, gateways, config);
      for (const int gw : gateways) {
        if (gw == src) continue;
        const std::string where = graph + " K=" + std::to_string(k) + " " +
                                  std::to_string(src) + "->" +
                                  std::to_string(gw);
        const std::vector<Route> want =
            reference_k_shortest_paths(adj, src, gw, k);
        expect_same_routes(search.k_shortest_paths(adj, src, gw, k), want,
                           where);
        expect_same_routes(table.routes(gw), want, where + " table");
      }
    }
  }
}

/// `nodes` uniform points in the unit square, linked within `radius`.
/// Costs are the distances, or, with `quantize`, the distances rounded to
/// tenths: sums of tenths differ in the last bit by summation order, so
/// any reordering of a path's cost sum would show.
Adjacency random_geometric(int nodes, double radius, std::uint64_t seed,
                           bool quantize) {
  auto rng = sim::make_rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < nodes; ++i) {
    const double x = u(rng);
    points.emplace_back(x, u(rng));
  }
  Adjacency adj(static_cast<std::size_t>(nodes));
  for (int a = 0; a < nodes; ++a) {
    for (int b = a + 1; b < nodes; ++b) {
      const double d =
          std::hypot(points[static_cast<std::size_t>(a)].first -
                         points[static_cast<std::size_t>(b)].first,
                     points[static_cast<std::size_t>(a)].second -
                         points[static_cast<std::size_t>(b)].second);
      if (d > radius) continue;
      add_edge(adj, a, b,
               quantize ? std::max(1.0, std::round(d * 10.0)) * 0.1 : d);
    }
  }
  sort_edges(adj);
  return adj;
}

/// side x side 4-neighbour grid, every link cost 1: a sea of equal-cost
/// ties. Dead nodes keep no links, as in a believed topology.
Adjacency uniform_grid(int side, const std::set<int>& dead) {
  Adjacency adj(static_cast<std::size_t>(side * side));
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const int v = r * side + c;
      if (dead.count(v) != 0) continue;
      if (c + 1 < side && dead.count(v + 1) == 0) add_edge(adj, v, v + 1, 1.0);
      if (r + 1 < side && dead.count(v + side) == 0) {
        add_edge(adj, v, v + side, 1.0);
      }
    }
  }
  sort_edges(adj);
  return adj;
}

TEST(SpurSearchEquivalence, RandomGeometricGraphsMatchTheMaskedCopyYen) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const bool quantize : {false, true}) {
      const Adjacency adj = random_geometric(24, 0.35, seed, quantize);
      expect_matches_reference(adj, {0, 11, 23},
                               "geometric seed " + std::to_string(seed) +
                                   (quantize ? " tenths" : ""));
    }
  }
}

TEST(SpurSearchEquivalence, TieHeavyGridMatchesTheMaskedCopyYen) {
  expect_matches_reference(uniform_grid(5, {}), {0, 12, 24}, "grid");
  // Dead nodes carve detours and a cut-off pocket (node 20 is isolated
  // once 15 and 21 are gone).
  expect_matches_reference(uniform_grid(5, {6, 7, 15, 17, 21}), {0, 12, 24},
                           "grid with dead nodes");
}

// --- Link-state flood pin --------------------------------------------------
// converge() rounds, lsa_transmissions() and every node's believed topology
// after each step of a scripted loss/restart sequence on bench_m1_mesh's
// 64-reader grid (4 m spacing, 6 m range, gateways 0 and 63). The values
// were recorded from the deep-copying flood; the flood must keep them.

TEST(LinkStateFloodPin, ScriptedLossAndRestartOnTheMeshBenchGrid) {
  deploy::LayoutConfig layout;
  layout.width_m = 32.0;
  layout.height_m = 32.0;
  layout.readers = 64;
  layout.tags = 0;
  layout.seed = 1;
  TopologyConfig config;
  config.gateways = {0, 63};
  config.link.max_range_m = 6.0;
  const MeshTopology topo(deploy::make_layout(layout).reader_poses, config);
  ASSERT_TRUE(topo.fully_connected());

  // Down sets per step: the gateway's row and column mates, then the
  // centre block, restarts one at a time, the gateway itself, everyone
  // back, an unchanged epoch, and a column cut that splits the mesh.
  const std::vector<std::vector<int>> down_steps = {
      {},
      {1, 8},
      {1, 8, 27, 28, 35, 36},
      {8, 27, 28, 35, 36},
      {0, 27, 28, 35, 36},
      {},
      {},
      {3, 11, 19, 27, 35, 43, 51, 59},
      {}};
  LinkStateProtocol protocol(&topo);
  std::vector<int> rounds;
  std::vector<std::uint64_t> transmissions;
  std::vector<std::uint64_t> believed;
  for (const std::vector<int>& down : down_steps) {
    std::vector<std::uint8_t> live(topo.nodes(), 1);
    for (const int r : down) live[static_cast<std::size_t>(r)] = 0;
    rounds.push_back(protocol.converge(live));
    transmissions.push_back(protocol.lsa_transmissions());
    obs::Fnv1a hasher;
    for (int v = 0; v < static_cast<int>(topo.nodes()); ++v) {
      for (const std::vector<MeshLink>& edges :
           protocol.believed_topology(v)) {
        hasher.mix_u64(edges.size());
        for (const MeshLink& link : edges) {
          hasher.mix_u64(static_cast<std::uint64_t>(link.to));
          hasher.mix_double(link.cost);
        }
      }
    }
    believed.push_back(hasher.digest());
  }
  EXPECT_EQ(rounds, (std::vector<int>{7, 7, 7, 9, 8, 7, 7, 7, 7}));
  EXPECT_EQ(transmissions,
            (std::vector<std::uint64_t>{4032, 4398, 5082, 5376, 5670, 6926,
                                        6989, 7421, 9179}));
  EXPECT_EQ(believed,
            (std::vector<std::uint64_t>{
                0x16e3356cf540f125ULL, 0x7b1de559717df7cdULL,
                0x64ee4a6a97c2f5cdULL, 0x0020a9a51d450e80ULL,
                0xacef4e687bd19315ULL, 0x6b259f2b14b3aa25ULL,
                0x16e3356cf540f125ULL, 0x75ed7c332fc92fe5ULL,
                0x16e3356cf540f125ULL}));
}

}  // namespace
}  // namespace mmtag::mesh
