// traIXroute triplet rule and Step-4/5 extraction on hand-built paths.
#include <gtest/gtest.h>

#include <bit>

#include "opwat/db/ip2as.hpp"
#include "opwat/db/merge.hpp"
#include "opwat/db/snapshot.hpp"
#include "opwat/measure/traceroute.hpp"
#include "opwat/traix/crossing.hpp"
#include "opwat/util/thread_pool.hpp"
#include "opwat/world/generator.hpp"

namespace {

using namespace opwat;
using namespace opwat::traix;

class TraixTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    w_ = new world::world{world::generate(world::tiny_config(61))};
    const auto snaps = std::vector<db::snapshot>{
        db::make_snapshot(*w_, db::source_kind::website, {}, util::rng{1})};
    view_ = new db::merged_view{db::merged_view::build(snaps)};
    p2a_ = new db::ip2as{db::ip2as::build(*w_)};
  }
  static void TearDownTestSuite() {
    delete p2a_;
    delete view_;
    delete w_;
  }

  /// Two members of the same IXP plus addresses to build paths from.
  struct pair_fixture {
    const world::membership* a = nullptr;
    const world::membership* b = nullptr;
  };
  static pair_fixture find_pair() {
    for (const auto& a : w_->memberships)
      for (const auto& b : w_->memberships)
        if (a.ixp == b.ixp && a.member != b.member) return {&a, &b};
    return {};
  }

  static measure::trace make_trace(std::vector<net::ipv4_addr> ips) {
    measure::trace t;
    double rtt = 1.0;
    for (const auto ip : ips) {
      measure::hop h;
      h.ip = ip;
      h.rtt_ms = (rtt += 1.0);
      t.hops.push_back(h);
    }
    t.reached = true;
    return t;
  }

  static world::world* w_;
  static db::merged_view* view_;
  static db::ip2as* p2a_;
};

world::world* TraixTest::w_ = nullptr;
db::merged_view* TraixTest::view_ = nullptr;
db::ip2as* TraixTest::p2a_ = nullptr;

TEST_F(TraixTest, DetectsTripletCrossing) {
  const auto [a, b] = find_pair();
  ASSERT_TRUE(a && b);
  // Path: A-internal -> B's LAN address -> B-internal.
  const auto a_ip = w_->ases[a->member].backbone.at(2);
  const auto b_ip = w_->ases[b->member].backbone.at(2);
  const auto t = make_trace({a_ip, b->interface_ip, b_ip});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  ASSERT_EQ(ex.crossings.size(), 1u);
  EXPECT_EQ(ex.crossings[0].ixp, a->ixp);
  EXPECT_EQ(ex.crossings[0].near_as, w_->ases[a->member].asn);
  EXPECT_EQ(ex.crossings[0].far_as, w_->ases[b->member].asn);
  EXPECT_EQ(ex.crossings[0].ixp_ip, b->interface_ip);
}

TEST_F(TraixTest, NoCrossingWhenThirdHopForeign) {
  const auto [a, b] = find_pair();
  ASSERT_TRUE(a && b);
  // Third hop in a different AS than the LAN interface owner: rule (i)
  // fails.
  const auto a_ip = w_->ases[a->member].backbone.at(2);
  const auto c_ip = w_->ases[a->member].backbone.at(3);  // back into A
  const auto t = make_trace({a_ip, b->interface_ip, c_ip});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  EXPECT_TRUE(ex.crossings.empty());
}

TEST_F(TraixTest, NoCrossingWhenPrevHopSameAs) {
  const auto [a, b] = find_pair();
  ASSERT_TRUE(a && b);
  // Previous hop already inside B: rule (ii) fails.
  const auto b_int1 = w_->ases[b->member].backbone.at(2);
  const auto b_int2 = w_->ases[b->member].backbone.at(3);
  const auto t = make_trace({b_int1, b->interface_ip, b_int2});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  EXPECT_TRUE(ex.crossings.empty());
}

TEST_F(TraixTest, StarBlocksTriplet) {
  const auto [a, b] = find_pair();
  ASSERT_TRUE(a && b);
  auto t = make_trace({w_->ases[a->member].backbone.at(2), b->interface_ip,
                       w_->ases[b->member].backbone.at(2)});
  t.hops[0].star = true;
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  EXPECT_TRUE(ex.crossings.empty());
}

TEST_F(TraixTest, AdjacencyExtractedEvenWithoutTriplet) {
  const auto [a, b] = find_pair();
  ASSERT_TRUE(a && b);
  // {member interface, IXP address} pair without a valid third hop.
  const auto t = make_trace({w_->ases[a->member].backbone.at(2), b->interface_ip});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  ASSERT_EQ(ex.adjacencies.size(), 1u);
  EXPECT_EQ(ex.adjacencies[0].member_as, w_->ases[a->member].asn);
  EXPECT_EQ(ex.adjacencies[0].ixp, a->ixp);
}

TEST_F(TraixTest, NonMemberPreviousHopYieldsNoAdjacency) {
  const auto [a, b] = find_pair();
  ASSERT_TRUE(a && b);
  // Find an AS that is NOT a member of this IXP.
  const world::autonomous_system* outsider = nullptr;
  for (const auto& as : w_->ases) {
    bool member = false;
    for (const auto mid : w_->memberships_of_as(as.id))
      if (w_->memberships[mid].ixp == a->ixp) member = true;
    if (!member) {
      outsider = &as;
      break;
    }
  }
  ASSERT_TRUE(outsider);
  const auto t = make_trace({outsider->backbone.at(2), b->interface_ip});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  EXPECT_TRUE(ex.adjacencies.empty());
}

TEST_F(TraixTest, PrivateAdjacencyBetweenDifferentAses) {
  const auto& as_a = w_->ases[0];
  const auto& as_b = w_->ases[1];
  const auto t = make_trace({as_a.backbone.at(2), as_b.backbone.at(2)});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  ASSERT_EQ(ex.private_links.size(), 1u);
  EXPECT_EQ(ex.private_links[0].as_a, as_a.asn);
  EXPECT_EQ(ex.private_links[0].as_b, as_b.asn);
}

TEST_F(TraixTest, NoPrivateAdjacencyWithinOneAs) {
  const auto& as_a = w_->ases[0];
  const auto t = make_trace({as_a.backbone.at(2), as_a.backbone.at(3)});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  EXPECT_TRUE(ex.private_links.empty());
}

TEST_F(TraixTest, IxpHopDoesNotCreatePrivateAdjacency) {
  const auto [a, b] = find_pair();
  ASSERT_TRUE(a && b);
  const auto t = make_trace({w_->ases[a->member].backbone.at(2), b->interface_ip,
                             w_->ases[b->member].backbone.at(2)});
  const auto ex = extract(std::span{&t, 1}, *view_, *p2a_);
  EXPECT_TRUE(ex.private_links.empty());
}

TEST_F(TraixTest, EmptyCorpusYieldsNothing) {
  const auto ex = extract({}, *view_, *p2a_);
  EXPECT_TRUE(ex.crossings.empty());
  EXPECT_TRUE(ex.adjacencies.empty());
  EXPECT_TRUE(ex.private_links.empty());
}

// The paper-scale extraction is pinned: a digest over every crossing,
// adjacency and private link, in order, of the study's traceroute corpus
// (the scenario's default seeds), serial and on a pool.
TEST(TraixCorpus, PaperScaleExtractionDigestIsPinned) {
  const auto w = world::generate(world::gen_config{});
  const auto view = db::merged_view::build(db::make_standard_snapshots(w, 11));
  const auto p2a = db::ip2as::build(w);
  const measure::latency_model lat{31};
  const measure::traceroute_engine engine{w, lat};
  util::rng r{47};
  auto sources = engine.connected_ases();
  r.shuffle(sources);
  if (sources.size() > 4000) sources.resize(4000);
  const auto traces = engine.campaign(sources, 30, r);

  const auto digest = [](const extraction& ex) {
    std::uint64_t h = 0;
    for (const auto& c : ex.crossings) {
      h = util::hash_combine(h, c.ixp);
      h = util::hash_combine(h, c.near_as.value);
      h = util::hash_combine(h, c.far_as.value);
      h = util::hash_combine(h, c.near_ip.value());
      h = util::hash_combine(h, c.ixp_ip.value());
      h = util::hash_combine(h, std::bit_cast<std::uint64_t>(c.rtt_to_ixp_ip_ms));
      h = util::hash_combine(h, std::bit_cast<std::uint64_t>(c.rtt_to_near_ip_ms));
    }
    for (const auto& a : ex.adjacencies) {
      h = util::hash_combine(h, a.member_ip.value());
      h = util::hash_combine(h, a.member_as.value);
      h = util::hash_combine(h, a.ixp);
    }
    for (const auto& p : ex.private_links) {
      h = util::hash_combine(h, p.ip_a.value());
      h = util::hash_combine(h, p.ip_b.value());
      h = util::hash_combine(h, p.as_a.value);
      h = util::hash_combine(h, p.as_b.value);
    }
    return h;
  };

  const auto ex = extract(traces, view, p2a);
  EXPECT_EQ(ex.crossings.size(), 108043u);
  EXPECT_EQ(ex.adjacencies.size(), 113088u);
  EXPECT_EQ(ex.private_links.size(), 19297u);
  EXPECT_EQ(digest(ex), 0xfa91e0df26516174ULL);

  util::thread_pool pool{2};
  EXPECT_EQ(digest(extract(traces, view, p2a, &pool)), digest(ex));
}

}  // namespace
