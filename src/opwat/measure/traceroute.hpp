// Traceroute path synthesis over the simulated peering fabric (§3.1).
//
// Paths are computed at the AS level over the bipartite AS<->IXP
// membership graph plus private facility interconnects, then expanded to
// IP hops with the exact semantics traIXroute expects (§3.3): when a path
// enters member B of IXP x coming from member A, the hop sequence is
//     ... , <A's egress interface> , <B's address on x's peering LAN> ,
//     <B's internal interface> , ...
// The engine injects the classic artifacts the paper has to tolerate:
// missing hops (stars), occasional third-party interfaces, and per-hop
// RTT noise.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "opwat/measure/latency_model.hpp"
#include "opwat/net/ipv4.hpp"
#include "opwat/util/rng.hpp"
#include "opwat/world/world.hpp"

namespace opwat::measure {

struct hop {
  net::ipv4_addr ip;
  double rtt_ms = 0.0;
  bool star = false;  // no reply at this hop
};

struct trace {
  world::as_id src_as = world::k_invalid;
  net::ipv4_addr dst;
  std::vector<hop> hops;
  bool reached = false;
};

struct traceroute_config {
  double star_rate = 0.04;
  double third_party_rate = 0.015;
  int max_as_hops = 5;
};

/// Not thread-safe: `run()`, `campaign()` and `find_path()` are `const`
/// but advance the engine's cached path search and fill its cached
/// point-pair RTT table, so one engine must not be shared across threads.
/// Give each thread its own engine.
class traceroute_engine {
 public:
  traceroute_engine(const world::world& w, const latency_model& lat,
                    traceroute_config cfg = {});

  /// Traceroute from a router of `src` toward `dst` (resolved to its AS
  /// via routed prefixes).  Returns std::nullopt when no route exists over
  /// the simulated fabric.
  [[nodiscard]] std::optional<trace> run(world::as_id src, net::ipv4_addr dst,
                                         util::rng& r) const;

  /// Campaign: traceroutes from each source AS to `targets_per_src`
  /// random routed addresses (the RIPE-Atlas-corpus analogue).
  [[nodiscard]] std::vector<trace> campaign(std::span<const world::as_id> sources,
                                            std::size_t targets_per_src,
                                            util::rng& r) const;

  /// Traceroute from an in-IXP vantage point to a member interface on the
  /// same LAN (used for the Fig. 12b ping-vs-traceroute comparison).
  [[nodiscard]] trace run_from_vp(const net_point& vp_point, net::ipv4_addr member_iface,
                                  util::rng& r) const;

  /// ASes that have at least one IXP membership or private link (useful
  /// sources/destinations).
  [[nodiscard]] const std::vector<world::as_id>& connected_ases() const noexcept {
    return connected_;
  }

 private:
  struct as_edge {
    world::as_id to;
    // Exactly one of the two is valid:
    world::ixp_id via_ixp = world::k_invalid;
    std::size_t via_private = static_cast<std::size_t>(-1);
  };

  /// Compressed adjacency: row i is items[offsets[i], offsets[i + 1]).
  template <typename T>
  struct csr {
    std::vector<std::uint32_t> offsets;
    std::vector<T> items;
    [[nodiscard]] std::span<const T> row(std::size_t i) const noexcept {
      return {items.data() + offsets[i], items.data() + offsets[i + 1]};
    }
    void assign(const std::vector<std::vector<T>>& rows) {
      offsets.assign(1, 0);
      for (const auto& r : rows) {
        items.insert(items.end(), r.begin(), r.end());
        offsets.push_back(static_cast<std::uint32_t>(items.size()));
      }
    }
  };
  struct private_adj {
    world::as_id peer;
    std::uint32_t link;  // index into world::private_links
  };
  struct membership_adj {
    world::ixp_id ixp;
    world::membership_id id;
  };

  /// Breadth-first search from `src`, expanded only as far as a query
  /// needs.  Parents never change once a node is discovered, so a path read
  /// after a partial expansion equals the one a full expansion gives, and a
  /// later destination from the same source resumes where the last stopped.
  /// A node is discovered in the current search when its stamp equals
  /// `gen`, so a new source clears nothing but the queue.
  struct bfs_state {
    world::as_id src = world::k_invalid;
    std::uint32_t gen = 0;
    std::vector<std::uint32_t> as_stamp, ixp_stamp;
    std::vector<as_edge> parent_edge;
    std::vector<world::as_id> parent_as;
    std::vector<int> depth;
    std::vector<world::as_id> queue;  // discovery order; [head, end) is unexpanded
    std::size_t head = 0;
    std::vector<as_edge> path;  // the last path found, source first
  };

  /// The AS path from `src` to `dst` within `max_as_hops`, or std::nullopt.
  /// The span stays valid until the next call.
  [[nodiscard]] std::optional<std::span<const as_edge>> find_path(world::as_id src,
                                                                  world::as_id dst) const;
  void expand_next() const;
  [[nodiscard]] net::ipv4_addr egress_iface(world::router_id rid, std::uint64_t tag) const;
  /// `base_rtt_ms(points_[a], points_[b], 1)`, computed once per pair.
  [[nodiscard]] double hop_rtt_ms(std::uint32_t a, std::uint32_t b) const;

  const world::world& w_;
  const latency_model& lat_;
  traceroute_config cfg_;
  // Adjacency, each row in world order: AS -> private links, AS -> IXP
  // memberships, IXP -> member ASes.  The order fixes the BFS visit order
  // and so which of several shortest paths is taken.
  csr<private_adj> as_private_;
  csr<membership_adj> as_memberships_;
  csr<world::as_id> ixp_members_;
  // Per facility, the first two routers (world order) with an interface:
  // the candidates for a third-party reply.
  std::vector<std::array<world::router_id, 2>> fac_routers_;
  std::vector<world::as_id> connected_;
  net::lpm_table<world::as_id> routed_lookup_;
  mutable bfs_state bfs_;
  // A router's latency depends only on where it is attached: its facility
  // or, without one, its city.  Each distinct attachment point a router
  // uses gets a dense id (in router order); `rtt_table_` holds the base
  // RTT of every ordered point pair, NaN until first needed.  Its size is
  // set by the world: at most (facilities + cities)^2 doubles, about
  // 220 points and 0.4 MB at paper scale.
  std::vector<net_point> points_;
  std::vector<std::uint32_t> router_point_;
  mutable std::vector<double> rtt_table_;
};

}  // namespace opwat::measure
