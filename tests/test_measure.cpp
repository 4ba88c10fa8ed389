// Latency model, vantage points, ping campaign and Y.1731 matrices.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "opwat/geo/speed_model.hpp"
#include "opwat/measure/ping.hpp"
#include "opwat/measure/vantage.hpp"
#include "opwat/measure/y1731.hpp"
#include "opwat/world/generator.hpp"

namespace {

using namespace opwat;
using namespace opwat::measure;

TEST(LatencyModel, DeterministicPerPair) {
  const latency_model lat{55};
  const net_point a{{50.0, 8.0}, std::nullopt};
  const net_point b{{52.0, 13.0}, std::nullopt};
  EXPECT_DOUBLE_EQ(lat.base_rtt_ms(a, b), lat.base_rtt_ms(a, b));
}

TEST(LatencyModel, Symmetric) {
  const latency_model lat{55};
  const net_point a{{50.0, 8.0}, std::nullopt};
  const net_point b{{40.0, -74.0}, std::nullopt};
  EXPECT_DOUBLE_EQ(lat.base_rtt_ms(a, b), lat.base_rtt_ms(b, a));
}

TEST(LatencyModel, PathTagChangesRtt) {
  const latency_model lat{55};
  const net_point a{{50.0, 8.0}, std::nullopt};
  const net_point b{{48.0, 2.0}, std::nullopt};
  EXPECT_NE(lat.base_rtt_ms(a, b, 0), lat.base_rtt_ms(a, b, 1));
}

TEST(LatencyModel, SameFacilityIsSubMillisecond) {
  const latency_model lat{55};
  const net_point a{{50.0, 8.0}, 3u};
  const net_point b{{50.0, 8.0}, 3u};
  const double rtt = lat.base_rtt_ms(a, b);
  EXPECT_GT(rtt, 0.0);
  EXPECT_LT(rtt, 1.0);
}

TEST(LatencyModel, LongerDistanceSlower) {
  const latency_model lat{55};
  const net_point a{{50.0, 8.0}, std::nullopt};
  const net_point near_pt{geo::offset_km({50.0, 8.0}, 90, 100), std::nullopt};
  const net_point far{geo::offset_km({50.0, 8.0}, 90, 5000), std::nullopt};
  EXPECT_LT(lat.base_rtt_ms(a, near_pt), lat.base_rtt_ms(a, far));
}

TEST(LatencyModel, SamplesNeverBelowBase) {
  const latency_model lat{55};
  const net_point a{{50.0, 8.0}, std::nullopt};
  const net_point b{{51.0, 9.0}, std::nullopt};
  const double base = lat.base_rtt_ms(a, b);
  util::rng r{9};
  for (int i = 0; i < 200; ++i) EXPECT_GE(lat.sample_rtt_ms(a, b, r), base);
}

// The split sampler draws exactly what the point overload draws: the same
// value from the same stream, leaving the stream in the same state, over
// enough samples that the rare congestion spike is taken too.
void expect_split_sampler_matches(const net_point& a, const net_point& b) {
  const latency_model lat{55};
  for (const std::uint64_t tag : {0u, 1u, 7u}) {
    const double base = lat.base_rtt_ms(a, b, tag);
    util::rng split{tag + 100};
    util::rng whole{tag + 100};
    bool spiked = false;
    for (int i = 0; i < 2000; ++i) {
      const double s = latency_model::sample_rtt_ms(base, split);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s),
                std::bit_cast<std::uint64_t>(lat.sample_rtt_ms(a, b, whole, tag)))
          << "tag " << tag << " sample " << i;
      spiked = spiked || s > base + 4.0;
    }
    EXPECT_TRUE(spiked) << "no congestion spike drawn";
    EXPECT_EQ(split.next(), whole.next());
  }
}

TEST(LatencyModel, SplitSamplerMatchesSameFacility) {
  expect_split_sampler_matches({{50.0, 8.0}, 3u}, {{50.0, 8.0}, 3u});
}

TEST(LatencyModel, SplitSamplerMatchesSubKilometre) {
  const geo::geo_point here{50.0, 8.0};
  expect_split_sampler_matches({here, 3u}, {geo::offset_km(here, 45, 0.4), 4u});
}

TEST(LatencyModel, SplitSamplerMatchesLongHaul) {
  expect_split_sampler_matches({{50.0, 8.0}, std::nullopt},
                               {{40.7, -74.0}, std::nullopt});
}

TEST(Vantage, GeneratedPopulationLooksRight) {
  const auto w = world::generate(world::tiny_config(21));
  vp_config cfg;
  const auto vps = make_vantage_points(w, cfg, util::rng{3});
  std::size_t lgs = 0, atlas = 0, dead = 0, mgmt = 0;
  for (const auto& vp : vps) {
    if (vp.type == vp_type::looking_glass) {
      ++lgs;
      EXPECT_TRUE(vp.in_peering_lan);
      EXPECT_TRUE(vp.alive);
    } else {
      ++atlas;
      EXPECT_FALSE(vp.in_peering_lan);
      if (!vp.alive) ++dead;
      if (vp.in_mgmt_lan) {
        ++mgmt;
        EXPECT_GE(vp.mgmt_extra_ms, cfg.mgmt_extra_ms_lo);
      }
    }
    EXPECT_LT(vp.ixp, w.ixps.size());
  }
  std::size_t lg_ixps = 0;
  for (const auto& x : w.ixps)
    if (x.has_looking_glass) ++lg_ixps;
  EXPECT_EQ(lgs, lg_ixps);
  EXPECT_GT(atlas, 0u);
}

class PingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    w_ = new world::world{world::generate(world::tiny_config(31))};
    lat_ = new latency_model{77};
    vps_ = new std::vector<vantage_point>{
        make_vantage_points(*w_, vp_config{}, util::rng{5})};
  }
  static void TearDownTestSuite() {
    delete w_;
    delete lat_;
    delete vps_;
  }
  static std::vector<ping_target> all_targets() {
    std::vector<ping_target> t;
    for (const auto& m : w_->memberships) t.push_back({m.interface_ip, m.ixp});
    return t;
  }
  static world::world* w_;
  static latency_model* lat_;
  static std::vector<vantage_point>* vps_;
};

world::world* PingTest::w_ = nullptr;
latency_model* PingTest::lat_ = nullptr;
std::vector<vantage_point>* PingTest::vps_ = nullptr;

TEST_F(PingTest, CampaignProducesMeasurements) {
  const auto c = run_ping_campaign(*w_, *lat_, *vps_, all_targets(), ping_config{},
                                   util::rng{1});
  EXPECT_FALSE(c.measurements.empty());
  std::size_t responsive = 0;
  for (const auto& pm : c.measurements) {
    EXPECT_EQ(pm.samples_total, 24);
    if (pm.responsive) {
      ++responsive;
      EXPECT_GT(pm.rtt_min_ms, 0.0);
      EXPECT_GT(pm.samples_kept, 0);
      EXPECT_TRUE(std::isfinite(pm.rtt_min_ms));
    }
  }
  EXPECT_GT(responsive, c.measurements.size() / 2);
}

TEST_F(PingTest, VpOnlyPingsItsOwnIxp) {
  const auto c = run_ping_campaign(*w_, *lat_, *vps_, all_targets(), ping_config{},
                                   util::rng{1});
  for (const auto& pm : c.measurements) EXPECT_EQ((*vps_)[pm.vp_index].ixp, pm.ixp);
}

TEST_F(PingTest, LgRoundingYieldsIntegerRtts) {
  const auto c = run_ping_campaign(*w_, *lat_, *vps_, all_targets(), ping_config{},
                                   util::rng{1});
  for (const auto& pm : c.measurements) {
    if (!pm.responsive) continue;
    const auto& vp = (*vps_)[pm.vp_index];
    if (vp.rounds_rtt_up) {
      EXPECT_DOUBLE_EQ(pm.rtt_min_ms, std::ceil(pm.rtt_min_ms));
      EXPECT_GE(pm.rtt_min_ms, 1.0);
    }
  }
}

TEST_F(PingTest, MgmtLanProbesInflated) {
  const auto c = run_ping_campaign(*w_, *lat_, *vps_, all_targets(), ping_config{},
                                   util::rng{1});
  for (std::size_t vi = 0; vi < vps_->size(); ++vi) {
    const auto& vp = (*vps_)[vi];
    if (!vp.alive) continue;
    if (vp.in_mgmt_lan)
      EXPECT_GE(c.route_server_rtt_ms[vi], 1.0)
          << "management-LAN probe must fail the route-server filter";
  }
}

TEST_F(PingTest, LocalMembersFastFromTheirIxpLg) {
  const auto c = run_ping_campaign(*w_, *lat_, *vps_, all_targets(), ping_config{},
                                   util::rng{1});
  for (const auto& pm : c.measurements) {
    if (!pm.responsive) continue;
    const auto& vp = (*vps_)[pm.vp_index];
    if (vp.type != vp_type::looking_glass) continue;
    const auto mid = w_->membership_by_interface(pm.target);
    ASSERT_TRUE(mid);
    const auto& m = w_->memberships[*mid];
    // A local member attached at the LG's own facility answers fast.
    if (m.how == world::attachment::colocated && m.attach_facility == vp.facility)
      EXPECT_LE(pm.rtt_min_ms, 2.0);
  }
}

TEST_F(PingTest, DeterministicCampaign) {
  const auto c1 = run_ping_campaign(*w_, *lat_, *vps_, all_targets(), ping_config{},
                                    util::rng{42});
  const auto c2 = run_ping_campaign(*w_, *lat_, *vps_, all_targets(), ping_config{},
                                    util::rng{42});
  ASSERT_EQ(c1.measurements.size(), c2.measurements.size());
  for (std::size_t i = 0; i < c1.measurements.size(); ++i)
    EXPECT_DOUBLE_EQ(c1.measurements[i].rtt_min_ms, c2.measurements[i].rtt_min_ms);
}

TEST_F(PingTest, UnknownTargetUnresponsive) {
  std::vector<ping_target> targets{{net::ipv4_addr{203, 0, 113, 7}, 0}};
  const auto c = run_ping_campaign(*w_, *lat_, *vps_, targets, ping_config{},
                                   util::rng{1});
  for (const auto& pm : c.measurements) EXPECT_FALSE(pm.responsive);
}

// The paper-scale ping campaign is pinned: a digest over every
// measurement's minimum RTT bits, kept samples and responsiveness, and
// every VP's route-server RTT, so any change to a base RTT or a random
// draw shows.
TEST(PingCorpus, PaperScaleCampaignDigestIsPinned) {
  const auto w = world::generate(world::gen_config{});
  const latency_model lat{31};
  const auto vps = make_vantage_points(w, vp_config{}, util::rng{23});
  std::vector<ping_target> targets;
  for (const auto& m : w.memberships) targets.push_back({m.interface_ip, m.ixp});
  const auto c = run_ping_campaign(w, lat, vps, targets, ping_config{}, util::rng{61});

  std::uint64_t h = 0;
  std::size_t responsive = 0;
  for (const auto& pm : c.measurements) {
    h = util::hash_combine(h, pm.vp_index);
    h = util::hash_combine(h, pm.target.value());
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(pm.rtt_min_ms));
    h = util::hash_combine(h, static_cast<std::uint64_t>(pm.samples_kept));
    h = util::hash_combine(h, pm.responsive);
    if (pm.responsive) ++responsive;
  }
  for (const double rs : c.route_server_rtt_ms)
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(rs));
  EXPECT_EQ(c.measurements.size(), 6539u);
  EXPECT_EQ(responsive, 5408u);
  EXPECT_EQ(h, 0x0ce138d31bca5e5dULL);
}

TEST(Y1731, MatrixCoversAllPairs) {
  const auto w = world::generate(world::tiny_config(41));
  const latency_model lat{5};
  // Find an IXP with at least 2 facilities.
  for (const auto& x : w.ixps) {
    if (x.facilities.size() < 2) continue;
    const auto m = facility_delay_matrix(w, lat, x.id, 9, util::rng{1});
    const auto n = x.facilities.size();
    EXPECT_EQ(m.size(), n * (n - 1) / 2);
    for (const auto& d : m) {
      EXPECT_GT(d.median_rtt_ms, 0.0);
      EXPECT_GE(d.distance_km, 0.0);
      // Median RTT respects the physical floor.
      EXPECT_GE(d.median_rtt_ms, d.distance_km / geo::kVMaxKmPerMs);
    }
    return;
  }
  GTEST_SKIP() << "no multi-facility IXP in tiny world";
}

}  // namespace
