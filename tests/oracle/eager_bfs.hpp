// Test-only oracle for measure::traceroute_engine's AS-level path search.
//
// A full, eager breadth-first search from the source over the AS<->IXP
// membership graph plus private interconnects, rebuilt on every query.
// Private links are explored before IXP fabric, and neighbours in world
// order, which is the visit order that decides which of several shortest
// paths the engine takes.  The engine's resumable search must agree with
// it on every (source, destination, max_as_hops).
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "opwat/world/world.hpp"

namespace opwat::oracle {

/// One AS-level hop into `to`: over IXP `via_ixp`, or over the private
/// link with index `via_private` (exactly one is set).
struct as_edge {
  world::as_id to = world::k_invalid;
  world::ixp_id via_ixp = world::k_invalid;
  std::size_t via_private = static_cast<std::size_t>(-1);
};

class eager_bfs {
 public:
  eager_bfs(const world::world& w, int max_as_hops)
      : w_(w), max_as_hops_(max_as_hops), as_private_(w.ases.size()) {
    for (std::size_t i = 0; i < w.private_links.size(); ++i) {
      as_private_[w.private_links[i].a].push_back(i);
      as_private_[w.private_links[i].b].push_back(i);
    }
  }

  /// The AS path from `src` to `dst` (empty when they are equal), or
  /// std::nullopt when `dst` is more than `max_as_hops` away or cut off.
  [[nodiscard]] std::optional<std::vector<as_edge>> path(world::as_id src,
                                                         world::as_id dst) const {
    if (src == dst) return std::vector<as_edge>{};
    const auto n = w_.ases.size();
    std::vector<as_edge> parent_edge(n);
    std::vector<world::as_id> parent_as(n, world::k_invalid);
    std::vector<char> seen(n, 0);
    std::vector<char> ixp_seen(w_.ixps.size(), 0);
    std::vector<int> depth(n, 0);

    std::deque<world::as_id> queue{src};
    seen[src] = 1;
    while (!queue.empty()) {
      const auto u = queue.front();
      queue.pop_front();
      if (depth[u] >= max_as_hops_) continue;

      const auto visit = [&](world::as_id v, const as_edge& e) {
        if (seen[v]) return;
        seen[v] = 1;
        parent_edge[v] = e;
        parent_as[v] = u;
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      };
      for (const auto pidx : as_private_[u]) {
        const auto& pl = w_.private_links[pidx];
        as_edge e;
        e.to = pl.a == u ? pl.b : pl.a;
        e.via_private = pidx;
        visit(e.to, e);
      }
      for (const auto mid : w_.memberships_of_as(u)) {
        const auto x = w_.memberships[mid].ixp;
        if (ixp_seen[x]) continue;
        ixp_seen[x] = 1;
        for (const auto mid2 : w_.memberships_of_ixp(x)) {
          as_edge e;
          e.to = w_.memberships[mid2].member;
          if (e.to == u) continue;
          e.via_ixp = x;
          visit(e.to, e);
        }
      }
    }

    if (!seen[dst]) return std::nullopt;
    std::vector<as_edge> out;
    for (world::as_id cur = dst; cur != src; cur = parent_as[cur])
      out.push_back(parent_edge[cur]);
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  const world::world& w_;
  int max_as_hops_;
  std::vector<std::vector<std::size_t>> as_private_;
};

}  // namespace opwat::oracle
