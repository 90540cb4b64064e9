// OLSR-style link-state dissemination over the reader backhaul.
//
// Routing needs every reader to know the topology, and in a real mesh that
// knowledge is *disseminated*, not teleported: each node originates a
// sequence-numbered link-state advertisement (LSA) describing its live
// neighbor set, and LSAs flood hop by hop. This module models that honestly
// — per-node LSA databases, seq-number freshness rules, one flooding round
// per hop — because the convergence delay is what the failover story is
// about: until the flood completes, nodes route on stale state and the
// forwarding plane's precomputed alternates are the only thing keeping
// packets alive.
//
// Epoch discipline: converge(live) starts a topology epoch. Nodes that
// died keep their (now stale) databases but do not participate; nodes that
// restarted come back amnesiac (a power-cycled reader has no LSA store)
// and relearn the component from its flood. All iteration is in ascending
// node id, so a given (topology, live-mask history) always produces the
// same databases, floods and round counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/mesh/topology.hpp"

namespace mmtag::mesh {

/// One origin's advertisement: "these are my live symmetric neighbors".
struct Lsa {
  std::uint32_t seq = 0;     ///< Freshness; higher wins.
  bool known = false;        ///< Database holds an entry for this origin.
  /// Ascending reader ids; null while unknown. Immutable and shared by
  /// every database holding this advertisement, so flooding copies a
  /// pointer, never the list.
  std::shared_ptr<const std::vector<int>> neighbors;
};

class LinkStateProtocol {
 public:
  /// `topology` must outlive the protocol. Databases start empty; the
  /// first converge() floods the initial topology.
  explicit LinkStateProtocol(const MeshTopology* topology);

  /// Start a topology epoch against `live` (empty = all up) and flood
  /// until every live node's database stops changing. Returns the number
  /// of flooding rounds (== the live component's LSA radius; 0 when
  /// nothing changed). Restarted nodes (dead at the previous converge,
  /// live now) are wiped first.
  int converge(const std::vector<std::uint8_t>& live);

  /// Epochs started so far (== converge() calls).
  [[nodiscard]] int epoch() const { return epoch_; }
  /// LSA transmissions across all floods (one per link crossing).
  [[nodiscard]] std::uint64_t lsa_transmissions() const {
    return lsa_transmissions_;
  }

  /// True when `a` and `b` hold identical databases — converged peers in
  /// one component must agree (the regression the convergence tests pin),
  /// and agreeing nodes believe the same topology.
  [[nodiscard]] bool databases_agree(int a, int b) const;

  /// The topology as `node` believes it: adjacency restricted to edges
  /// both endpoints advertise (symmetric-link rule). Nodes `node` has no
  /// LSA for contribute nothing. Edge lists are ascending by neighbor id
  /// and carry the static topology's link costs.
  [[nodiscard]] std::vector<std::vector<MeshLink>> believed_topology(
      int node) const;

 private:
  /// Row of `node`'s database: entry `origin` is its copy of origin's LSA.
  [[nodiscard]] const Lsa* row(int node) const {
    return db_.data() + static_cast<std::size_t>(node) * topology_->nodes();
  }

  const MeshTopology* topology_;
  /// db_[node * nodes + origin]: node's copy of origin's LSA.
  std::vector<Lsa> db_;
  /// One flooding round's adoptions, same indexing as db_ (known only
  /// where staged), committed to db_ when the round ends.
  std::vector<Lsa> staged_;
  std::vector<std::size_t> staged_at_;
  std::vector<std::uint8_t> was_live_;
  int epoch_ = 0;
  std::uint64_t lsa_transmissions_ = 0;
};

}  // namespace mmtag::mesh
