#include "src/mesh/routing.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <set>

namespace mmtag::mesh {

const std::vector<Route> RouteTable::kNoRoutes{};

bool route_less(const Route& a, const Route& b) {
  if (a.valid() != b.valid()) return a.valid();
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.hops.size() != b.hops.size()) return a.hops.size() < b.hops.size();
  return a.hops < b.hops;  // Lexicographic: lowest reader id wins.
}

/// Settle nodes out of `src` in (cost, id) order until `dst` is settled;
/// dst < 0 settles every reachable node. Returns whether dst settled.
///
/// Stopping at dst changes no route: dst and every node on its parent
/// chain are settled by then, and a settled node's parent is final — a
/// strict improvement needs a cheaper path than the settled cost (costs
/// are non-negative), and the equal-cost tie rule only touches unsettled
/// nodes.
bool PathSearch::run(const Adjacency& adj, int src, int dst) {
  const std::size_t n = adj.size();
  assert(src >= 0 && static_cast<std::size_t>(src) < n);
  best_.assign(n, std::numeric_limits<double>::infinity());
  parent_.assign(n, -1);
  done_.assign(n, 0);
  heap_.clear();
  // (cost, node) min-heap; the node id in the key makes pop order — and
  // with the strict-improvement + lowest-parent rules below, the whole
  // tree — deterministic.
  best_[static_cast<std::size_t>(src)] = 0.0;
  heap_.emplace_back(0.0, src);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [cost, node] = heap_.back();
    heap_.pop_back();
    const auto u = static_cast<std::size_t>(node);
    if (done_[u] != 0) continue;
    done_[u] = 1;
    if (node == dst) return true;
    for (const MeshLink& link : adj[u]) {
      const auto v = static_cast<std::size_t>(link.to);
      if (banned_[v] != 0) continue;
      if (node == src && std::find(banned_next_.begin(), banned_next_.end(),
                                   link.to) != banned_next_.end()) {
        continue;
      }
      const double via = cost + link.cost;
      if (via < best_[v]) {
        best_[v] = via;
        parent_[v] = node;
        heap_.emplace_back(via, link.to);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      } else if (via == best_[v] && done_[v] == 0 && node < parent_[v]) {
        // Equal-cost predecessor tie: lowest reader id wins.
        parent_[v] = node;
      }
    }
  }
  return false;
}

/// Append the last run()'s path to the settled `dst`, without its source.
void PathSearch::append_path(int dst, std::vector<int>& hops) const {
  const std::size_t first = hops.size();
  for (int at = dst; parent_[static_cast<std::size_t>(at)] != -1;
       at = parent_[static_cast<std::size_t>(at)]) {
    hops.push_back(at);
  }
  std::reverse(hops.begin() + static_cast<std::ptrdiff_t>(first), hops.end());
}

ShortestPaths dijkstra(const Adjacency& adj, int src) {
  const std::size_t n = adj.size();
  PathSearch search;
  search.banned_.assign(n, 0);
  (void)search.run(adj, src, -1);
  ShortestPaths out;
  out.cost.assign(n, -1.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (search.done_[v] != 0) out.cost[v] = search.best_[v];
  }
  out.parent = std::move(search.parent_);
  return out;
}

Route PathSearch::shortest_path(const Adjacency& adj, int src, int dst) {
  Route route;
  route.hops.push_back(src);
  if (src == dst) return route;
  if (dst < 0 || static_cast<std::size_t>(dst) >= adj.size()) return {};
  banned_.assign(adj.size(), 0);
  banned_next_.clear();
  if (!run(adj, src, dst)) return {};  // Unreachable.
  append_path(dst, route.hops);
  route.cost = best_[static_cast<std::size_t>(dst)];
  return route;
}

namespace {

double link_cost(const Adjacency& adj, int from, int to) {
  for (const MeshLink& link : adj[static_cast<std::size_t>(from)]) {
    if (link.to == to) return link.cost;
  }
  assert(false && "route edge missing from the graph");
  return -1.0;
}

}  // namespace

std::vector<Route> PathSearch::k_shortest_paths(const Adjacency& adj, int src,
                                                int dst, std::size_t k) {
  std::vector<Route> result;
  if (k == 0 || src == dst) return result;
  Route first = shortest_path(adj, src, dst);  // Leaves banned_ all clear.
  if (!first.valid()) return result;
  result.push_back(std::move(first));

  // Candidate pool ordered by route_less; a std::set keeps insertion
  // deduplicated and extraction deterministic.
  auto cmp = [](const Route& a, const Route& b) { return route_less(a, b); };
  std::set<Route, decltype(cmp)> candidates(cmp);

  while (result.size() < k) {
    const std::vector<int>& prev = result.back().hops;
    // Each hop of the previous best is a spur point: ban the edges every
    // accepted path with the same prefix took, ban the prefix nodes, and
    // find the best deviation. The prefix cost sums its edges from the
    // source, in path order.
    double prefix_cost = 0.0;
    for (std::size_t spur = 0; spur + 1 < prev.size(); ++spur) {
      if (spur > 0) {
        banned_[static_cast<std::size_t>(prev[spur - 1])] = 1;
        prefix_cost += link_cost(adj, prev[spur - 1], prev[spur]);
      }
      const auto prefix_end = prev.begin() + static_cast<std::ptrdiff_t>(
                                                 spur + 1);
      banned_next_.clear();
      for (const Route& accepted : result) {
        if (accepted.hops.size() > spur + 1 &&
            std::equal(prev.begin(), prefix_end, accepted.hops.begin())) {
          banned_next_.push_back(accepted.hops[spur + 1]);
        }
      }
      if (!run(adj, prev[spur], dst)) continue;
      Route total;
      total.hops.assign(prev.begin(), prefix_end);
      append_path(dst, total.hops);
      total.cost = prefix_cost + best_[static_cast<std::size_t>(dst)];
      candidates.insert(std::move(total));
    }
    for (const int node : prev) banned_[static_cast<std::size_t>(node)] = 0;
    // Pop the best candidate not already accepted.
    Route next;
    while (!candidates.empty()) {
      Route top = std::move(candidates.extract(candidates.begin()).value());
      const bool seen =
          std::any_of(result.begin(), result.end(), [&](const Route& r) {
            return r.hops == top.hops;
          });
      if (!seen) {
        next = std::move(top);
        break;
      }
    }
    if (!next.valid()) break;  // Graph ran out of loop-free paths.
    result.push_back(std::move(next));
  }
  return result;
}

RouteTable::RouteTable(const Adjacency& adj, int node,
                       const std::vector<int>& gateways,
                       const RoutingConfig& config)
    : gateways_(gateways) {
  PathSearch search;
  routes_.reserve(gateways_.size());
  for (const int gw : gateways_) {
    if (gw == node) {
      // A gateway drains itself: a degenerate zero-cost local route.
      Route self;
      self.hops = {node};
      routes_.push_back({std::move(self)});
    } else {
      routes_.push_back(search.k_shortest_paths(adj, node, gw,
                                                config.k_paths));
    }
  }
  for (std::size_t i = 0; i < gateways_.size(); ++i) {
    if (gateways_[i] == node) {
      best_gateway_ = node;  // Local egress always wins.
      break;
    }
    if (routes_[i].empty()) continue;
    if (best_gateway_ < 0 ||
        route_less(routes_[i].front(), routes(best_gateway_).front())) {
      best_gateway_ = gateways_[i];
    }
  }
}

const std::vector<Route>& RouteTable::routes(int gateway) const {
  for (std::size_t i = 0; i < gateways_.size(); ++i) {
    if (gateways_[i] == gateway) return routes_[i];
  }
  return kNoRoutes;
}

}  // namespace mmtag::mesh
