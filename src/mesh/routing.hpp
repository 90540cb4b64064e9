// Route math: Dijkstra shortest paths, Yen K-shortest failover alternates,
// and per-node route tables toward the gateway set.
//
// Everything here is exact and deterministic. Path comparison is total:
// lower cost first, then fewer hops, then the lexicographically smaller
// node sequence — so "lowest reader id wins" every tie and two runs can
// never disagree on a route table. The K-shortest enumeration is Yen's
// algorithm over loop-free paths: alternates share as short a prefix with
// the primary as the graph allows, which is exactly what a forwarding
// plane wants when the primary's next hop just died.
//
// Inputs are adjacency lists of MeshLink (from the static MeshTopology or
// a node's LinkStateProtocol::believed_topology), outputs are explicit
// node sequences — the forwarding plane indexes them hop by hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/mesh/topology.hpp"

namespace mmtag::mesh {

/// Adjacency-list graph view (edge lists ascending by neighbor id).
using Adjacency = std::vector<std::vector<MeshLink>>;

/// One loop-free path src..dst inclusive.
struct Route {
  std::vector<int> hops;  ///< hops.front() == src, hops.back() == dst.
  double cost = 0.0;      ///< Sum of link costs along hops.

  [[nodiscard]] bool valid() const { return hops.size() >= 2; }
};

/// Total order on routes: (cost, hop count, lexicographic node sequence).
/// Invalid routes sort last.
[[nodiscard]] bool route_less(const Route& a, const Route& b);

/// Single-source shortest-path costs over `adj` (Dijkstra, exact doubles).
/// Unreachable nodes report cost < 0. Tie-breaks resolve toward the
/// lowest-id predecessor, so `parent` is unique.
struct ShortestPaths {
  std::vector<double> cost;
  std::vector<int> parent;  ///< -1 at src and unreachable nodes.
};
[[nodiscard]] ShortestPaths dijkstra(const Adjacency& adj, int src);

/// Point-to-point route searches over one set of scratch buffers: each
/// search resizes them to the graph and reuses their storage, so the
/// searches of a whole RouteTable build allocate only the routes. A
/// search stops once `dst` is settled; the routes are the ones dijkstra()'s
/// full tree gives (see run()).
class PathSearch {
 public:
  /// The unique minimal route src -> dst under route_less, or an invalid
  /// Route when dst is unreachable. src == dst yields {hops: {src},
  /// cost: 0} (valid() is false — there is nothing to forward).
  [[nodiscard]] Route shortest_path(const Adjacency& adj, int src, int dst);

  /// The K best loop-free routes src -> dst in route_less order (Yen).
  /// Fewer than K exist when the graph runs out of distinct loop-free
  /// paths.
  [[nodiscard]] std::vector<Route> k_shortest_paths(const Adjacency& adj,
                                                    int src, int dst,
                                                    std::size_t k);

 private:
  friend ShortestPaths dijkstra(const Adjacency& adj, int src);

  bool run(const Adjacency& adj, int src, int dst);
  void append_path(int dst, std::vector<int>& hops) const;

  /// Yen's removed prefix: nodes with banned_[v] != 0 are never entered.
  std::vector<std::uint8_t> banned_;
  /// Yen's removed edges, which all leave the spur node: src -> x is
  /// skipped for every x listed here.
  std::vector<int> banned_next_;
  std::vector<double> best_;
  std::vector<int> parent_;
  std::vector<std::uint8_t> done_;
  std::vector<std::pair<double, int>> heap_;
};

struct RoutingConfig {
  /// Precomputed routes per (node, gateway): one primary plus k_paths-1
  /// failover alternates.
  std::size_t k_paths = 3;
};

/// One node's forwarding state toward every gateway, rebuilt per topology
/// epoch from that node's believed topology.
class RouteTable {
 public:
  RouteTable() = default;

  /// Build `node`'s table toward `gateways` (ascending ids) over `adj`.
  RouteTable(const Adjacency& adj, int node, const std::vector<int>& gateways,
             const RoutingConfig& config);

  /// Gateway this node drains to: the one whose primary route is minimal
  /// under route_less; ties by lowest gateway id. -1 when no gateway is
  /// reachable.
  [[nodiscard]] int best_gateway() const { return best_gateway_; }

  /// Routes to `gateway` in route_less order (empty when unreachable).
  [[nodiscard]] const std::vector<Route>& routes(int gateway) const;

  /// Routes to best_gateway() (empty when none reachable).
  [[nodiscard]] const std::vector<Route>& best_routes() const {
    return routes(best_gateway_);
  }

 private:
  std::vector<int> gateways_;
  std::vector<std::vector<Route>> routes_;  ///< Parallel to gateways_.
  int best_gateway_ = -1;
  static const std::vector<Route> kNoRoutes;
};

}  // namespace mmtag::mesh
