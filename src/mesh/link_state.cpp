#include "src/mesh/link_state.hpp"

#include <algorithm>
#include <cassert>

namespace mmtag::mesh {

namespace {

bool is_live(const std::vector<std::uint8_t>& live, int node) {
  return live.empty() || live[static_cast<std::size_t>(node)] != 0;
}

}  // namespace

LinkStateProtocol::LinkStateProtocol(const MeshTopology* topology)
    : topology_(topology),
      db_(topology->nodes() * topology->nodes()),
      staged_(db_.size()),
      was_live_(topology->nodes(), 1) {
  assert(topology_ != nullptr);
}

int LinkStateProtocol::converge(const std::vector<std::uint8_t>& live) {
  const std::size_t n = topology_->nodes();
  assert(live.empty() || live.size() == n);
  ++epoch_;

  // Restart rule: a node that was down and is back lost its LSA store.
  for (std::size_t v = 0; v < n; ++v) {
    const bool up = is_live(live, static_cast<int>(v));
    if (up && was_live_[v] == 0) {
      std::fill_n(db_.begin() + static_cast<std::ptrdiff_t>(v * n), n,
                  Lsa{});
    }
    was_live_[v] = up ? 1 : 0;
  }

  // Origination: every live node senses its live symmetric neighbors
  // (hello exchange — link sensing is local and immediate) and bumps its
  // own LSA seq when the set changed or the entry is missing.
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_live(live, static_cast<int>(v))) continue;
    std::vector<int> now;
    for (const MeshLink& link : topology_->neighbors(static_cast<int>(v))) {
      if (is_live(live, link.to)) now.push_back(link.to);
    }
    Lsa& own = db_[v * n + v];
    if (!own.known || *own.neighbors != now) {
      ++own.seq;
      own.known = true;
      own.neighbors =
          std::make_shared<const std::vector<int>>(std::move(now));
    }
  }

  // Flooding: one round moves every fresher LSA one hop. A round that
  // adopts nothing ends the flood; the round count is the component's
  // LSA radius for this epoch.
  int rounds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    // Senders forward db_ as it stood when the round began, so one round
    // moves information exactly one hop (no intra-round shortcuts through
    // low-id nodes). A receiver's adoptions are staged and land in db_
    // when the round ends; until then it compares against the freshest
    // entry it holds, staged or not.
    for (std::size_t v = 0; v < n; ++v) {
      if (!is_live(live, static_cast<int>(v))) continue;
      const Lsa* theirs_row = row(static_cast<int>(v));
      for (const MeshLink& link : topology_->neighbors(static_cast<int>(v))) {
        if (!is_live(live, link.to)) continue;
        const std::size_t peer_at = static_cast<std::size_t>(link.to) * n;
        for (std::size_t origin = 0; origin < n; ++origin) {
          const Lsa& theirs = theirs_row[origin];
          if (!theirs.known) continue;
          const std::size_t at = peer_at + origin;
          Lsa& staged = staged_[at];
          const Lsa& mine = staged.known ? staged : db_[at];
          if (!mine.known || theirs.seq > mine.seq) {
            if (!staged.known) staged_at_.push_back(at);
            staged = theirs;
            ++lsa_transmissions_;
            changed = true;
          }
        }
      }
    }
    for (const std::size_t at : staged_at_) {
      db_[at] = std::move(staged_[at]);
      staged_[at] = Lsa{};
    }
    staged_at_.clear();
    if (changed) ++rounds;
  }
  return rounds;
}

bool LinkStateProtocol::databases_agree(int a, int b) const {
  const Lsa* da = row(a);
  const Lsa* dbv = row(b);
  for (std::size_t origin = 0; origin < topology_->nodes(); ++origin) {
    if (da[origin].known != dbv[origin].known) return false;
    if (!da[origin].known) continue;
    if (da[origin].seq != dbv[origin].seq) return false;
    if (da[origin].neighbors != dbv[origin].neighbors &&
        *da[origin].neighbors != *dbv[origin].neighbors) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<MeshLink>> LinkStateProtocol::believed_topology(
    int node) const {
  const std::size_t n = topology_->nodes();
  const Lsa* db = row(node);
  std::vector<std::vector<MeshLink>> adj(n);
  for (std::size_t from = 0; from < n; ++from) {
    if (!db[from].known) continue;
    for (const int to : *db[from].neighbors) {
      const auto t = static_cast<std::size_t>(to);
      // Symmetric-link rule: both endpoints must advertise each other.
      if (!db[t].known) continue;
      if (!std::binary_search(db[t].neighbors->begin(),
                              db[t].neighbors->end(),
                              static_cast<int>(from))) {
        continue;
      }
      const MeshLink* link = topology_->find_link(static_cast<int>(from), to);
      assert(link != nullptr);  // Advertised edges exist in the topology.
      adj[from].push_back(*link);
    }
  }
  return adj;
}

}  // namespace mmtag::mesh
