// The serve subsystem: epoch-versioned catalog ingest, the fluent query
// API (filters, group-by, ECDF, deterministic sort/pagination), and
// cross-epoch diff queries.  Pins
//   - catalog counts == pipeline_result::count/contribution for every
//     (IXP, class, step);
//   - portal JSON via the catalog byte-identical to the pre-redesign
//     exporter (reference implementation reproduced below);
//   - diff-query join accounting == eval::run_longitudinal_study.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>

#include "opwat/eval/longitudinal.hpp"
#include "opwat/eval/portal.hpp"
#include "opwat/eval/scenario.hpp"
#include "opwat/serve/query.hpp"
#include "opwat/util/json.hpp"

namespace {

using namespace opwat;
using infer::method_step;
using infer::peering_class;

constexpr peering_class k_classes[] = {peering_class::unknown, peering_class::local,
                                       peering_class::remote};
constexpr method_step k_steps[] = {method_step::none,          method_step::port_capacity,
                                   method_step::rtt_colo,      method_step::multi_ixp,
                                   method_step::private_links, method_step::rtt_threshold,
                                   method_step::traceroute_rtt};

/// The pre-redesign portal exporter, verbatim except that the snapshot
/// label is an argument: the byte-identity oracle for the
/// catalog-backed renderer.
std::string reference_portal_json(const eval::scenario& s,
                                  const infer::pipeline_result& pr,
                                  std::string_view label,
                                  const eval::portal_options& opt) {
  util::json_writer w;
  w.begin_object();
  w.key("snapshot").value(label);
  w.key("generator").value("opwat");
  w.key("ixps_studied").value(pr.scope.size());

  const std::size_t local = pr.inferences.count(peering_class::local);
  const std::size_t remote = pr.inferences.count(peering_class::remote);
  std::size_t iface_total = 0;
  for (const auto x : pr.scope) iface_total += s.view.interfaces_of_ixp(x).size();
  const std::size_t unknown = iface_total - std::min(iface_total, local + remote);
  w.key("totals").begin_object();
  w.key("local").value(local);
  w.key("remote").value(remote);
  w.key("unknown").value(unknown);
  w.end_object();

  w.key("ixps").begin_array();
  for (const auto x : pr.scope) {
    const auto& ixp = s.w.ixps[x];
    w.begin_object();
    w.key("name").value(ixp.name);
    w.key("peering_lan").value(ixp.peering_lan.to_string());
    w.key("min_physical_capacity_gbps").value(ixp.min_physical_capacity_gbps);
    w.key("local").value(pr.count(x, peering_class::local));
    w.key("remote").value(pr.count(x, peering_class::remote));

    if (opt.include_facilities) {
      w.key("facilities").begin_array();
      for (const auto f : s.view.facilities_of_ixp(x)) {
        w.begin_object();
        w.key("id").value(static_cast<std::uint64_t>(f));
        if (f < s.w.facilities.size()) w.key("name").value(s.w.facilities[f].name);
        if (const auto loc = s.view.facility_location(f)) {
          w.key("lat").value(loc->lat_deg);
          w.key("lon").value(loc->lon_deg);
        }
        w.end_object();
      }
      w.end_array();
    }

    if (opt.include_interfaces) {
      w.key("members").begin_array();
      for (const auto& e : s.view.interfaces_of_ixp(x)) {
        const infer::iface_key key{x, e.ip};
        const auto* inf = pr.inferences.find(key);
        w.begin_object();
        w.key("interface").value(e.ip.to_string());
        w.key("asn").value(static_cast<std::uint64_t>(e.asn.value));
        w.key("class").value(
            std::string{to_string(inf ? inf->cls : peering_class::unknown)});
        if (inf && inf->cls != peering_class::unknown)
          w.key("evidence").value(std::string{to_string(inf->step)});
        const double rtt = pr.inferences.rtt_min_ms(key);
        if (!std::isnan(rtt)) w.key("rtt_min_ms").value(rtt);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    s_ = new eval::scenario{eval::scenario::build(eval::small_scenario_config(55))};
    pr_ = new infer::pipeline_result{s_->run_inference()};
    cat_ = new serve::catalog;
    cat_->ingest(s_->w, s_->view, *pr_, "2018-04");
    // A second epoch from a perturbed run, for diff queries.
    auto cfg = s_->cfg.pipeline;
    cfg.seed += 1;
    pr2_ = new infer::pipeline_result{s_->run_inference(cfg)};
    cat_->ingest(s_->w, s_->view, *pr2_, "2018-05");
  }
  static void TearDownTestSuite() {
    delete cat_;
    delete pr2_;
    delete pr_;
    delete s_;
    cat_ = nullptr;
    pr2_ = nullptr;
    pr_ = nullptr;
    s_ = nullptr;
  }

  static serve::query q() { return serve::query{*cat_}; }

  static eval::scenario* s_;
  static infer::pipeline_result* pr_;
  static infer::pipeline_result* pr2_;
  static serve::catalog* cat_;
};

eval::scenario* ServeTest::s_ = nullptr;
infer::pipeline_result* ServeTest::pr_ = nullptr;
infer::pipeline_result* ServeTest::pr2_ = nullptr;
serve::catalog* ServeTest::cat_ = nullptr;

// ---------------------------------------------------------------------------
// Catalog ingest.

TEST_F(ServeTest, EpochBookkeeping) {
  EXPECT_EQ(cat_->epoch_count(), 2u);
  EXPECT_EQ(cat_->labels(), (std::vector<std::string>{"2018-04", "2018-05"}));
  EXPECT_TRUE(cat_->find("2018-04").has_value());
  EXPECT_FALSE(cat_->find("2018-06").has_value());
  EXPECT_THROW((void)cat_->of("2018-06"), std::invalid_argument);
  EXPECT_THROW(cat_->ingest(s_->w, s_->view, *pr_, "2018-04"), std::invalid_argument);
}

TEST_F(ServeTest, RowsCoverEveryScopedInterface) {
  const auto& ep = cat_->of("2018-04");
  std::size_t iface_total = 0;
  for (const auto x : pr_->scope) iface_total += s_->view.interfaces_of_ixp(x).size();
  EXPECT_EQ(ep.rows(), iface_total);
  EXPECT_EQ(ep.blocks().size(), pr_->scope.size());
  // Blocks preserve scope order and tile the rows.
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < ep.blocks().size(); ++i) {
    const auto& b = ep.blocks()[i];
    EXPECT_EQ(cat_->ixps()[b.ixp].id, pr_->scope[i]);
    EXPECT_EQ(b.begin, cursor);
    cursor = b.end;
  }
  EXPECT_EQ(cursor, ep.rows());
}

TEST_F(ServeTest, CountsMatchPipelineForEveryIxpClassAndStep) {
  const auto& ep = cat_->of("2018-04");
  EXPECT_EQ(ep.total(peering_class::local), pr_->inferences.count(peering_class::local));
  EXPECT_EQ(ep.total(peering_class::remote),
            pr_->inferences.count(peering_class::remote));
  for (const auto x : pr_->scope) {
    const auto ref = cat_->ixp_by_id(x);
    ASSERT_TRUE(ref.has_value());
    for (const auto c : {peering_class::local, peering_class::remote})
      EXPECT_EQ(ep.count(*ref, c), pr_->count(x, c)) << "ixp " << x;
    EXPECT_EQ(ep.count(*ref, peering_class::unknown),
              s_->view.interfaces_of_ixp(x).size() -
                  pr_->count(x, peering_class::local) -
                  pr_->count(x, peering_class::remote));
    for (const auto st : k_steps)
      EXPECT_EQ(ep.contribution(*ref, st), pr_->contribution(x, st))
          << "ixp " << x << " step " << to_string(st);
  }
}

TEST_F(ServeTest, RowMaterializationRoundTrips) {
  const auto& ep = cat_->of("2018-04");
  std::size_t i = 0;
  for (const auto x : pr_->scope) {
    for (const auto& e : s_->view.interfaces_of_ixp(x)) {
      const auto row = ep.row(i++);
      EXPECT_EQ(row.ip, e.ip);
      EXPECT_EQ(row.ixp, x);
      EXPECT_EQ(row.asn.value, e.asn.value);
      const infer::iface_key key{x, e.ip};
      EXPECT_EQ(row.cls, pr_->inferences.cls(key));
      const double rtt = pr_->inferences.rtt_min_ms(key);
      if (std::isnan(rtt))
        EXPECT_TRUE(std::isnan(row.rtt_min_ms));
      else
        EXPECT_DOUBLE_EQ(row.rtt_min_ms, rtt);
      EXPECT_EQ(row.feasible_facilities, pr_->inferences.feasible_facilities(key));
      const auto port = s_->view.port_capacity(e.asn, x);
      if (port)
        EXPECT_DOUBLE_EQ(row.port_gbps, *port);
      else
        EXPECT_TRUE(std::isnan(row.port_gbps));
    }
  }
  EXPECT_EQ(i, ep.rows());
}

// ---------------------------------------------------------------------------
// Portal round-trip.

TEST_F(ServeTest, PortalJsonByteIdenticalToPreRedesignExporter) {
  for (const bool full : {true, false}) {
    eval::portal_options opt;
    opt.include_interfaces = full;
    opt.include_facilities = full;
    const auto expected = reference_portal_json(*s_, *pr_, "2018-04", opt);
    EXPECT_EQ(eval::portal_snapshot_json(*cat_, "2018-04", opt), expected);
    // A one-epoch catalog holding the same result renders the same bytes.
    serve::catalog one;
    one.ingest(s_->w, s_->view, *pr_, "2018-04");
    EXPECT_EQ(eval::portal_snapshot_json(one, "2018-04", opt), expected);
  }
}

// ---------------------------------------------------------------------------
// Query API: filters.

TEST_F(ServeTest, CountFastPathsAgreeWithScan) {
  const auto& ep = cat_->of("2018-04");
  EXPECT_EQ(q().epoch("2018-04").count(), ep.rows());
  EXPECT_EQ(q().epoch("2018-04").cls(peering_class::remote).count(),
            ep.total(peering_class::remote));
  for (const auto x : pr_->scope) {
    EXPECT_EQ(q().epoch("2018-04").at_ixp(x).count(),
              s_->view.interfaces_of_ixp(x).size());
    for (const auto c : k_classes)
      EXPECT_EQ(q().epoch("2018-04").at_ixp(x).cls(c).count(),
                q().epoch("2018-04").at_ixp(x).cls(c).rows().size());
    for (const auto st : k_steps)
      EXPECT_EQ(q().epoch("2018-04").at_ixp(x).step(st).count(), pr_->contribution(x, st));
  }
  // Epoch-wide step count == sum over IXPs.
  std::size_t colo = 0;
  for (const auto x : pr_->scope) colo += pr_->contribution(x, method_step::rtt_colo);
  EXPECT_EQ(q().epoch("2018-04").step(method_step::rtt_colo).count(), colo);
}

TEST_F(ServeTest, DefaultEpochIsLatest) {
  EXPECT_EQ(q().count(), cat_->of("2018-05").rows());
}

TEST_F(ServeTest, VectorizedEngineMatchesReferenceOnPortalShapes) {
  // The canned portal shapes on both engines (tests/test_exec.cpp has
  // the randomized property suite; this is the smoke-level pin close to
  // the query API tests).
  const auto rows_eq = [](const std::vector<serve::iface_row>& a,
                          const std::vector<serve::iface_row>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ip, b[i].ip);
      EXPECT_EQ(a[i].cls, b[i].cls);
    }
  };
  const auto vec = [] { return q().engine(serve::exec::mode::vectorized); };
  const auto ref = [] { return q().engine(serve::exec::mode::reference); };
  EXPECT_EQ(vec().epoch("2018-04").cls(peering_class::remote).count(),
            ref().epoch("2018-04").cls(peering_class::remote).count());
  rows_eq(vec().epoch("2018-04").cls(peering_class::remote).sort_by_rtt().page(0, 10)
              .rows(),
          ref().epoch("2018-04").cls(peering_class::remote).sort_by_rtt().page(0, 10)
              .rows());
  const auto gv =
      vec().epoch("2018-04").cls(peering_class::remote).by_step().group_counts();
  const auto gr =
      ref().epoch("2018-04").cls(peering_class::remote).by_step().group_counts();
  ASSERT_EQ(gv.size(), gr.size());
  for (std::size_t i = 0; i < gv.size(); ++i) {
    EXPECT_EQ(gv[i].key, gr[i].key);
    EXPECT_EQ(gv[i].count, gr[i].count);
  }
}

TEST_F(ServeTest, MemberFilterMatchesBruteForce) {
  const auto& ep = cat_->of("2018-04");
  // Pick the ASN of the first row.
  const auto asn = net::asn{ep.asn_col().front()};
  std::size_t expected = 0;
  for (std::size_t i = 0; i < ep.rows(); ++i)
    if (ep.asn_col()[i] == asn.value) ++expected;
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(q().epoch("2018-04").member(asn).count(), expected);
  for (const auto& row : q().epoch("2018-04").member(asn).rows())
    EXPECT_EQ(row.asn.value, asn.value);
}

TEST_F(ServeTest, MetroFilterMatchesBruteForce) {
  const auto& ep = cat_->of("2018-04");
  // Pick the metro of the first mapped row.
  serve::metro_ref target = serve::k_no_metro;
  for (std::size_t i = 0; i < ep.rows(); ++i)
    if (ep.metro_col()[i] != serve::k_no_metro) {
      target = ep.metro_col()[i];
      break;
    }
  ASSERT_NE(target, serve::k_no_metro);
  const auto name = std::string{cat_->metro_name(target)};
  std::size_t expected = 0;
  for (std::size_t i = 0; i < ep.rows(); ++i)
    if (ep.metro_col()[i] == target) ++expected;
  EXPECT_EQ(q().epoch("2018-04").metro(name).count(), expected);
  EXPECT_THROW(q().metro("no-such-metro"), std::invalid_argument);
}

TEST_F(ServeTest, RttRangeFilterMatchesBruteForce) {
  const auto& ep = cat_->of("2018-04");
  const double lo = 1.0, hi = 10.0;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < ep.rows(); ++i) {
    const double r = ep.rtt_col()[i];
    if (!std::isnan(r) && r >= lo && r <= hi) ++expected;
  }
  EXPECT_EQ(q().epoch("2018-04").rtt_between(lo, hi).count(), expected);
  for (const auto& row : q().epoch("2018-04").rtt_between(lo, hi).rows()) {
    EXPECT_GE(row.rtt_min_ms, lo);
    EXPECT_LE(row.rtt_min_ms, hi);
  }
}

TEST_F(ServeTest, UnknownFiltersThrow) {
  EXPECT_THROW(q().at_ixp("no-such-ixp"), std::invalid_argument);
  EXPECT_THROW(q().at_ixp(world::ixp_id{999999}), std::invalid_argument);
  EXPECT_THROW((void)q().epoch("no-such-epoch").count(), std::invalid_argument);
  EXPECT_THROW((void)serve::query{serve::catalog{}}.count(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Query API: aggregation, sort, pagination.

TEST_F(ServeTest, GroupCountsAreDeterministicAndComplete) {
  const auto groups =
      q().epoch("2018-04").cls(peering_class::remote).by_step().group_counts();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    sum += groups[i].count;
    if (i > 0) {
      // (count desc, key asc) ordering.
      EXPECT_TRUE(groups[i - 1].count > groups[i].count ||
                  (groups[i - 1].count == groups[i].count &&
                   groups[i - 1].key < groups[i].key));
    }
  }
  EXPECT_EQ(sum, cat_->of("2018-04").total(peering_class::remote));
  // top(k) is a prefix of the full ordering.
  const auto top2 =
      q().epoch("2018-04").cls(peering_class::remote).by_step().top(2).group_counts();
  ASSERT_LE(top2.size(), 2u);
  for (std::size_t i = 0; i < top2.size(); ++i) {
    EXPECT_EQ(top2[i].key, groups[i].key);
    EXPECT_EQ(top2[i].count, groups[i].count);
  }
  // Group-by is required for group_counts().
  EXPECT_THROW((void)q().epoch("2018-04").group_counts(), std::logic_error);
}

TEST_F(ServeTest, GroupByIxpMatchesBlockTotals) {
  const auto groups = q().epoch("2018-04").by_ixp().group_counts();
  const auto& ep = cat_->of("2018-04");
  ASSERT_EQ(groups.size(), ep.blocks().size());
  std::size_t sum = 0;
  for (const auto& g : groups) sum += g.count;
  EXPECT_EQ(sum, ep.rows());
}

TEST_F(ServeTest, PagesTileTheCanonicalOrder) {
  const auto all = q().epoch("2018-04").rows();
  ASSERT_GT(all.size(), 10u);
  // Canonical order == epoch row order.
  const auto& ep = cat_->of("2018-04");
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].ip.value(), ep.ip_col()[i]);
    EXPECT_EQ(all[i].ixp, ep.world_ixp(ep.ixp_col()[i]));
  }
  // Adjacent pages reassemble the full result.
  const std::size_t half = all.size() / 2;
  auto paged = q().epoch("2018-04").page(0, half).rows();
  const auto rest = q().epoch("2018-04").page(half, all.size()).rows();
  paged.insert(paged.end(), rest.begin(), rest.end());
  ASSERT_EQ(paged.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(paged[i].ip, all[i].ip);
    EXPECT_EQ(paged[i].ixp, all[i].ixp);
  }
  // top(k) == page(0, k).
  const auto top = q().epoch("2018-04").top(7).rows();
  ASSERT_EQ(top.size(), 7u);
  for (std::size_t i = 0; i < top.size(); ++i) EXPECT_EQ(top[i].ip, all[i].ip);
  // Out-of-range offsets are empty, not UB.
  EXPECT_TRUE(q().epoch("2018-04").page(all.size() + 5, 10).rows().empty());
}

TEST_F(ServeTest, SortByRttIsDeterministic) {
  const auto rows = q().epoch("2018-04").sort_by_rtt().rows();
  bool seen_nan = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (std::isnan(rows[i].rtt_min_ms)) {
      seen_nan = true;
      continue;
    }
    EXPECT_FALSE(seen_nan) << "measured row after unmeasured rows";
    if (i > 0 && !std::isnan(rows[i - 1].rtt_min_ms))
      EXPECT_LE(rows[i - 1].rtt_min_ms, rows[i].rtt_min_ms);
  }
  // Descending mirrors ascending on the measured prefix.
  const auto desc = q().epoch("2018-04").sort_by_rtt(false).rows();
  for (std::size_t i = 1; i < desc.size(); ++i)
    if (!std::isnan(desc[i - 1].rtt_min_ms) && !std::isnan(desc[i].rtt_min_ms))
      EXPECT_GE(desc[i - 1].rtt_min_ms, desc[i].rtt_min_ms);
  // Repeat runs are identical (stable tie-break on canonical order).
  const auto again = q().epoch("2018-04").sort_by_rtt().rows();
  ASSERT_EQ(again.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(again[i].ip, rows[i].ip);
}

TEST_F(ServeTest, RttEcdfIsMonotoneAndComplete) {
  std::size_t measured = 0;
  const auto& ep = cat_->of("2018-04");
  for (std::size_t i = 0; i < ep.rows(); ++i)
    if (!std::isnan(ep.rtt_col()[i])) ++measured;
  const auto ecdf = q().epoch("2018-04").rtt_ecdf(8);
  ASSERT_FALSE(ecdf.empty());
  EXPECT_EQ(ecdf.size(), 8u);
  for (std::size_t i = 1; i < ecdf.size(); ++i) {
    EXPECT_LE(ecdf[i - 1].upper_ms, ecdf[i].upper_ms);
    EXPECT_LE(ecdf[i - 1].cum_count, ecdf[i].cum_count);
  }
  EXPECT_EQ(ecdf.back().cum_count, measured);
  EXPECT_DOUBLE_EQ(ecdf.back().fraction, 1.0);
  EXPECT_THROW((void)q().epoch("2018-04").rtt_ecdf(0), std::invalid_argument);
  // A selection with no measured rows yields an empty ECDF.
  EXPECT_TRUE(q().epoch("2018-04").rtt_between(-2.0, -1.0).rtt_ecdf().empty());
}

// ---------------------------------------------------------------------------
// Cross-epoch diffs.

TEST_F(ServeTest, DiffMatchesBruteForce) {
  const auto d = serve::diff_epochs(*cat_, "2018-04", "2018-05");
  EXPECT_EQ(d.from, "2018-04");
  EXPECT_EQ(d.to, "2018-05");

  const auto key_map = [](const serve::epoch& ep) {
    std::map<infer::iface_key, peering_class> m;
    for (std::size_t i = 0; i < ep.rows(); ++i)
      m.emplace(ep.row(i).key(), static_cast<peering_class>(ep.cls_col()[i]));
    return m;
  };
  const auto a = key_map(cat_->of("2018-04"));
  const auto b = key_map(cat_->of("2018-05"));

  std::size_t appeared = 0, disappeared = 0, reclassified = 0;
  for (const auto& [k, c] : b)
    if (!a.contains(k))
      ++appeared;
    else if (a.at(k) != c)
      ++reclassified;
  for (const auto& [k, c] : a)
    if (!b.contains(k)) ++disappeared;
  EXPECT_EQ(d.appeared.size(), appeared);
  EXPECT_EQ(d.disappeared.size(), disappeared);
  EXPECT_EQ(d.reclassified.size(), reclassified);
  // Same scenario + same scope => same member rows, only classes move.
  EXPECT_EQ(appeared, 0u);
  EXPECT_EQ(disappeared, 0u);
  for (const auto& r : d.reclassified) {
    EXPECT_EQ(r.before.key(), r.after.key());
    EXPECT_NE(r.before.cls, r.after.cls);
  }
  EXPECT_THROW((void)serve::diff_epochs(*cat_, "2018-04", "nope"),
               std::invalid_argument);
}

TEST(ServeLongitudinal, DiffJoinAccountingMatchesStudy) {
  auto cfg = eval::small_scenario_config(83);
  cfg.world.months = 6;
  const auto s = eval::scenario::build(cfg);
  const auto study = eval::run_longitudinal_study(s, {.months = 6, .top_n_ixps = 3});

  // The study's catalog holds one epoch per month; recompute the join
  // totals from diff queries and from first principles.
  ASSERT_EQ(study.epochs.epoch_count(), 7u);
  std::size_t local_joins = 0, remote_joins = 0;
  std::size_t brute_local = 0, brute_remote = 0;
  for (int m = 1; m <= 6; ++m) {
    const auto d = serve::diff_epochs(study.epochs, eval::longitudinal_epoch_label(m - 1),
                                      eval::longitudinal_epoch_label(m));
    local_joins += d.appeared_of(peering_class::local);
    remote_joins += d.appeared_of(peering_class::remote);

    const auto& prev = study.epochs.of(eval::longitudinal_epoch_label(m - 1));
    std::set<infer::iface_key> prev_keys;
    for (std::size_t i = 0; i < prev.rows(); ++i) prev_keys.insert(prev.row(i).key());
    const auto& cur = study.epochs.of(eval::longitudinal_epoch_label(m));
    for (std::size_t i = 0; i < cur.rows(); ++i) {
      const auto row = cur.row(i);
      if (prev_keys.contains(row.key())) continue;
      if (row.cls == peering_class::local) ++brute_local;
      if (row.cls == peering_class::remote) ++brute_remote;
    }
  }
  EXPECT_EQ(study.inferred_local_joins, local_joins);
  EXPECT_EQ(study.inferred_remote_joins, remote_joins);
  EXPECT_EQ(study.inferred_local_joins, brute_local);
  EXPECT_EQ(study.inferred_remote_joins, brute_remote);

  // Monthly totals come straight from the epochs.
  for (const auto& mi : study.months) {
    const auto& ep = study.epochs.of(eval::longitudinal_epoch_label(mi.month));
    EXPECT_EQ(mi.inferred_local, ep.total(peering_class::local));
    EXPECT_EQ(mi.inferred_remote, ep.total(peering_class::remote));
    EXPECT_EQ(mi.unknown, ep.total(peering_class::unknown));
  }
}

}  // namespace
