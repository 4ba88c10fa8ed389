// Generator invariants: the ground truth world must be self-consistent,
// or validation would be meaningless.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "opwat/geo/metro.hpp"
#include "opwat/world/generator.hpp"

namespace {

using namespace opwat;
using namespace opwat::world;

class WorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { w_ = new world::world{generate(tiny_config(11))}; }
  static void TearDownTestSuite() {
    delete w_;
    w_ = nullptr;
  }
  static world::world* w_;
};

world::world* WorldTest::w_ = nullptr;

TEST_F(WorldTest, EntitiesExist) {
  EXPECT_GT(w_->cities.size(), 0u);
  EXPECT_GT(w_->facilities.size(), 0u);
  EXPECT_EQ(w_->ixps.size(), 8u);
  EXPECT_EQ(w_->ases.size(), 260u);
  EXPECT_GT(w_->memberships.size(), 50u);
  EXPECT_GT(w_->routers.size(), 0u);
}

TEST_F(WorldTest, IdsAreDense) {
  for (std::size_t i = 0; i < w_->ixps.size(); ++i) EXPECT_EQ(w_->ixps[i].id, i);
  for (std::size_t i = 0; i < w_->ases.size(); ++i) EXPECT_EQ(w_->ases[i].id, i);
  for (std::size_t i = 0; i < w_->memberships.size(); ++i)
    EXPECT_EQ(w_->memberships[i].id, i);
  for (std::size_t i = 0; i < w_->routers.size(); ++i) EXPECT_EQ(w_->routers[i].id, i);
}

TEST_F(WorldTest, NoDuplicateMembershipPerAsIxp) {
  std::set<std::pair<as_id, ixp_id>> seen;
  for (const auto& m : w_->memberships)
    EXPECT_TRUE(seen.insert({m.member, m.ixp}).second)
        << "AS " << m.member << " member of IXP " << m.ixp << " twice";
}

TEST_F(WorldTest, InterfaceIpsUniqueAndInLan) {
  std::set<net::ipv4_addr> ips;
  for (const auto& m : w_->memberships) {
    EXPECT_TRUE(ips.insert(m.interface_ip).second);
    EXPECT_TRUE(w_->ixps[m.ixp].peering_lan.contains(m.interface_ip));
  }
}

TEST_F(WorldTest, RouteServerInsideLan) {
  for (const auto& x : w_->ixps) {
    EXPECT_TRUE(x.peering_lan.contains(x.route_server_ip));
    EXPECT_FALSE(x.facilities.empty());
  }
}

TEST_F(WorldTest, PeeringLansDisjoint) {
  for (const auto& a : w_->ixps)
    for (const auto& b : w_->ixps) {
      if (a.id == b.id) continue;
      EXPECT_FALSE(a.peering_lan.contains(b.peering_lan));
    }
}

TEST_F(WorldTest, LocalMembersAreColocated) {
  for (const auto& m : w_->memberships) {
    if (m.how != attachment::colocated) continue;
    const auto& as = w_->ases[m.member];
    // The member's AS occupies the attach facility...
    EXPECT_NE(std::find(as.facilities.begin(), as.facilities.end(), m.attach_facility),
              as.facilities.end());
    // ...which is a facility of the IXP...
    const auto& xf = w_->ixps[m.ixp].facilities;
    EXPECT_NE(std::find(xf.begin(), xf.end(), m.attach_facility), xf.end());
    // ...and the serving router is physically there.
    EXPECT_EQ(w_->routers[m.router].facility, m.attach_facility);
  }
}

TEST_F(WorldTest, LongCableMembersNotColocatedWithIxp) {
  for (const auto& m : w_->memberships) {
    if (m.how != attachment::long_cable && m.how != attachment::federation) continue;
    const auto& as = w_->ases[m.member];
    for (const auto f : w_->ixps[m.ixp].facilities)
      EXPECT_EQ(std::find(as.facilities.begin(), as.facilities.end(), f),
                as.facilities.end())
          << "long-cable member colocated with its IXP";
  }
}

TEST_F(WorldTest, ResellerMembershipsHaveVirtualPortsAndResellers) {
  for (const auto& m : w_->memberships) {
    if (m.how == attachment::reseller) {
      EXPECT_EQ(m.port, port_kind::virtual_reseller);
      ASSERT_TRUE(m.via.has_value());
      const auto& rs = w_->resellers[*m.via];
      EXPECT_NE(std::find(rs.ixps.begin(), rs.ixps.end(), m.ixp), rs.ixps.end());
    } else {
      EXPECT_EQ(m.port, port_kind::physical);
      EXPECT_FALSE(m.via.has_value());
    }
  }
}

TEST_F(WorldTest, FractionalPortsOnlyViaResellers) {
  for (const auto& m : w_->memberships) {
    const double cmin = w_->ixps[m.ixp].min_physical_capacity_gbps;
    if (m.port_capacity_gbps < cmin) EXPECT_EQ(m.how, attachment::reseller);
    if (m.how == attachment::colocated) EXPECT_GE(m.port_capacity_gbps, cmin);
  }
}

TEST_F(WorldTest, GroundTruthLabelMatchesDefinition) {
  for (const auto& m : w_->memberships)
    EXPECT_EQ(w_->truly_remote(m), m.how != attachment::colocated);
}

TEST_F(WorldTest, RouterOwnershipConsistent) {
  for (const auto& m : w_->memberships)
    EXPECT_EQ(w_->routers[m.router].owner, m.member);
}

TEST_F(WorldTest, PrivateLinksConnectDistinctColocatedAses) {
  for (const auto& pl : w_->private_links) {
    EXPECT_NE(pl.a, pl.b);
    EXPECT_EQ(w_->routers[pl.router_a].owner, pl.a);
    EXPECT_EQ(w_->routers[pl.router_b].owner, pl.b);
    EXPECT_EQ(w_->routers[pl.router_a].facility, pl.fac);
    // Endpoint addresses come from each AS's backbone.
    EXPECT_TRUE(w_->ases[pl.a].backbone.contains(pl.ip_a));
    EXPECT_TRUE(w_->ases[pl.b].backbone.contains(pl.ip_b));
  }
}

TEST_F(WorldTest, IndicesResolve) {
  for (const auto& m : w_->memberships) {
    const auto mid = w_->membership_by_interface(m.interface_ip);
    ASSERT_TRUE(mid);
    EXPECT_EQ(*mid, m.id);
    const auto rid = w_->router_by_interface(m.interface_ip);
    ASSERT_TRUE(rid);
    EXPECT_EQ(*rid, m.router);
    EXPECT_EQ(w_->ixp_of_lan_address(m.interface_ip), m.ixp);
  }
  for (const auto& as : w_->ases) {
    const auto id = w_->as_by_asn(as.asn);
    ASSERT_TRUE(id);
    EXPECT_EQ(*id, as.id);
  }
}

TEST_F(WorldTest, MembershipIndicesMatch) {
  std::size_t total = 0;
  for (const auto& x : w_->ixps) total += w_->memberships_of_ixp(x.id).size();
  EXPECT_EQ(total, w_->memberships.size());
  for (const auto& x : w_->ixps)
    for (const auto mid : w_->memberships_of_ixp(x.id))
      EXPECT_EQ(w_->memberships[mid].ixp, x.id);
}

TEST_F(WorldTest, Determinism) {
  const auto w2 = generate(tiny_config(11));
  EXPECT_EQ(w2.memberships.size(), w_->memberships.size());
  for (std::size_t i = 0; i < w2.memberships.size(); ++i) {
    EXPECT_EQ(w2.memberships[i].interface_ip, w_->memberships[i].interface_ip);
    EXPECT_EQ(w2.memberships[i].how, w_->memberships[i].how);
  }
}

TEST_F(WorldTest, DifferentSeedsDiffer) {
  const auto w2 = generate(tiny_config(12));
  bool any_difference = w2.memberships.size() != w_->memberships.size();
  for (std::size_t i = 0; !any_difference && i < w2.memberships.size(); ++i)
    any_difference = w2.memberships[i].member != w_->memberships[i].member;
  EXPECT_TRUE(any_difference);
}

TEST(WorldGen, RemoteShareTracksConfig) {
  auto cfg = tiny_config(3);
  cfg.n_ases = 500;
  cfg.n_ixps = 10;
  const auto w = generate(cfg);
  std::size_t remote = 0;
  for (const auto& m : w.memberships)
    if (w.truly_remote(m)) ++remote;
  const double share = static_cast<double>(remote) / static_cast<double>(w.memberships.size());
  EXPECT_GT(share, 0.10);
  EXPECT_LT(share, 0.50);
}

TEST(WorldGen, WideAreaIxpsExistAtScale) {
  gen_config cfg = tiny_config(5);
  cfg.n_ixps = 40;
  cfg.n_ases = 800;
  cfg.wide_area_fraction = 0.5;  // force plenty
  const auto w = generate(cfg);
  std::size_t wide = 0;
  for (const auto& x : w.ixps) {
    std::vector<geo::geo_point> pts;
    for (const auto f : x.facilities) pts.push_back(w.facilities[f].location);
    if (geo::is_wide_area(pts)) ++wide;
  }
  EXPECT_GT(wide, 5u);
}

TEST(WorldGen, InvalidConfigThrows) {
  gen_config cfg;
  cfg.n_ixps = 0;
  EXPECT_THROW((void)generate(cfg), std::runtime_error);
}

TEST(WorldGen, OutgrownPeeringLanIsWidened) {
  // With this seed IX-Paris places 502 members, one more than the /23 its
  // member target sizes; its LAN is widened instead of generation failing.
  gen_config cfg;
  cfg.seed = 6136952236746676712ULL;
  const auto w = generate(cfg);
  const auto paris = std::find_if(w.ixps.begin(), w.ixps.end(),
                                  [](const ixp& x) { return x.name == "IX-Paris"; });
  ASSERT_NE(paris, w.ixps.end());
  EXPECT_EQ(w.memberships_of_ixp(paris->id).size(), 502u);
  EXPECT_EQ(paris->peering_lan.length(), 22);
  std::set<net::ipv4_addr> ips;
  for (const auto& m : w.memberships) {
    EXPECT_TRUE(ips.insert(m.interface_ip).second);
    EXPECT_TRUE(w.ixps[m.ixp].peering_lan.contains(m.interface_ip));
  }
  for (const auto& a : w.ixps) {
    for (const auto& b : w.ixps) {
      if (a.id != b.id) {
        EXPECT_FALSE(a.peering_lan.contains(b.peering_lan));
      }
    }
  }
}

// Property sweep: invariants hold across seeds.
class WorldSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldSeedSweep, CoreInvariants) {
  const auto w = generate(tiny_config(GetParam()));
  std::set<net::ipv4_addr> ips;
  for (const auto& m : w.memberships) {
    EXPECT_TRUE(ips.insert(m.interface_ip).second);
    EXPECT_EQ(w.routers[m.router].owner, m.member);
    if (m.how == attachment::colocated)
      EXPECT_GE(m.port_capacity_gbps, w.ixps[m.ixp].min_physical_capacity_gbps);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldSeedSweep, ::testing::Values(1, 2, 3, 21, 99));

}  // namespace
