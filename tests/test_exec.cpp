// The vectorized query execution engine (opwat/serve/exec.hpp) pinned
// against the retained row-at-a-time reference evaluator
// (exec::mode::reference) — the byte-identity oracle:
//   - randomized property suite: every filter combination x group-by x
//     sort x pagination across seeds and scales returns identical
//     results on both engines;
//   - edge cases: empty match, all-NaN-RTT selections, single-row
//     member runs, IXPs absent from an epoch (multi-scope catalogs);
//   - zone maps and permutation indexes stay correct after save→load
//     and merge_from (rebuilt from columns, never serialized);
//   - diff_epochs (sort-merge join) == diff_epochs_reference (ordered
//     containers), including the O(1) appeared_of counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "opwat/eval/scenario.hpp"
#include "opwat/serve/query.hpp"

namespace {

using namespace opwat;
using infer::method_step;
using infer::peering_class;

// ---------------------------------------------------------------------------
// Result comparison helpers.  Rows compare every materialized field;
// metros compare by display name so the helpers also work across
// catalogs with remapped dictionary refs (merge_from).

void expect_row_eq(const serve::catalog& ca, const serve::iface_row& a,
                   const serve::catalog& cb, const serve::iface_row& b,
                   const std::string& ctx) {
  EXPECT_EQ(a.ip, b.ip) << ctx;
  EXPECT_EQ(a.ixp, b.ixp) << ctx;
  EXPECT_EQ(a.asn.value, b.asn.value) << ctx;
  EXPECT_EQ(a.cls, b.cls) << ctx;
  EXPECT_EQ(a.step, b.step) << ctx;
  if (std::isnan(a.rtt_min_ms))
    EXPECT_TRUE(std::isnan(b.rtt_min_ms)) << ctx;
  else
    EXPECT_EQ(a.rtt_min_ms, b.rtt_min_ms) << ctx;
  EXPECT_EQ(a.feasible_facilities, b.feasible_facilities) << ctx;
  if (std::isnan(a.port_gbps))
    EXPECT_TRUE(std::isnan(b.port_gbps)) << ctx;
  else
    EXPECT_EQ(a.port_gbps, b.port_gbps) << ctx;
  EXPECT_EQ(ca.metro_name(a.metro), cb.metro_name(b.metro)) << ctx;
}

void expect_rows_eq(const serve::catalog& ca, const std::vector<serve::iface_row>& a,
                    const serve::catalog& cb, const std::vector<serve::iface_row>& b,
                    const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_row_eq(ca, a[i], cb, b[i], ctx + " row " + std::to_string(i));
}

void expect_groups_eq(const std::vector<serve::group_count>& a,
                      const std::vector<serve::group_count>& b,
                      const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << ctx << " group " << i;
    EXPECT_EQ(a[i].count, b[i].count) << ctx << " group " << i;
  }
}

void expect_ecdf_eq(const std::vector<serve::ecdf_point>& a,
                    const std::vector<serve::ecdf_point>& b, const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].upper_ms, b[i].upper_ms) << ctx;
    EXPECT_EQ(a[i].cum_count, b[i].cum_count) << ctx;
    EXPECT_EQ(a[i].fraction, b[i].fraction) << ctx;
  }
}

// ---------------------------------------------------------------------------
// Randomized query specs.

struct query_spec {
  std::string epoch;
  std::optional<std::string> ixp_name;
  std::optional<net::asn> member;
  std::optional<std::string> metro;
  std::optional<peering_class> cls;
  std::optional<method_step> step;
  std::optional<std::pair<double, double>> rtt;
  int group = -1;  ///< -1 none, else 0..4 = ixp/asn/metro/class/step
  bool sort = false;
  bool asc = true;
  int page_kind = 0;  ///< 0 none, 1 top(k), 2 page(o, l)
  std::size_t k = 0, off = 0, lim = 0;

  [[nodiscard]] std::string describe() const {
    std::string s = "epoch=" + epoch;
    if (ixp_name) s += " ixp=" + *ixp_name;
    if (member) s += " asn=" + std::to_string(member->value);
    if (metro) s += " metro=" + *metro;
    if (cls) s += " cls=" + std::string{to_string(*cls)};
    if (step) s += " step=" + std::string{to_string(*step)};
    if (rtt) s += " rtt=[" + std::to_string(rtt->first) + "," +
                  std::to_string(rtt->second) + "]";
    if (group >= 0) s += " group=" + std::to_string(group);
    if (sort) s += asc ? " sort_asc" : " sort_desc";
    if (page_kind == 1) s += " top(" + std::to_string(k) + ")";
    if (page_kind == 2)
      s += " page(" + std::to_string(off) + "," + std::to_string(lim) + ")";
    return s;
  }
};

serve::query build_query(const serve::catalog& cat, const query_spec& sp,
                         serve::exec::mode m) {
  auto q = serve::query{cat}.engine(m).epoch(sp.epoch);
  if (sp.ixp_name) q.at_ixp(*sp.ixp_name);
  if (sp.member) q.member(*sp.member);
  if (sp.metro) q.metro(*sp.metro);
  if (sp.cls) q.cls(*sp.cls);
  if (sp.step) q.step(*sp.step);
  if (sp.rtt) q.rtt_between(sp.rtt->first, sp.rtt->second);
  switch (sp.group) {
    case 0: q.by_ixp(); break;
    case 1: q.by_asn(); break;
    case 2: q.by_metro(); break;
    case 3: q.by_class(); break;
    case 4: q.by_step(); break;
    default: break;
  }
  if (sp.sort) q.sort_by_rtt(sp.asc);
  if (sp.page_kind == 1) q.top(sp.k);
  if (sp.page_kind == 2) q.page(sp.off, sp.lim);
  return q;
}

query_spec random_spec(std::mt19937& rng, const serve::catalog& cat) {
  const auto labels = cat.labels();
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng);
  };
  const auto chance = [&](double p) {
    return std::uniform_real_distribution<double>{0.0, 1.0}(rng) < p;
  };

  query_spec sp;
  sp.epoch = labels[pick(labels.size())];
  const auto& ep = cat.of(sp.epoch);

  // IXP filter from the full dictionary, so epochs with a narrower
  // scope see IXPs that exist in the catalog but not in the epoch.
  if (chance(0.4)) sp.ixp_name = cat.ixps()[pick(cat.ixps().size())].name;
  if (chance(0.35)) {
    // Mostly a real ASN of this epoch; sometimes one no row carries.
    if (chance(0.85) && ep.rows() > 0)
      sp.member = net::asn{ep.asn_col()[pick(ep.rows())]};
    else
      sp.member = net::asn{0xFFFFFFFEu};
  }
  if (chance(0.3) && !cat.metros().empty())
    sp.metro = cat.metros()[pick(cat.metros().size())];
  if (chance(0.4))
    sp.cls = static_cast<peering_class>(pick(infer::k_n_peering_classes));
  if (chance(0.3))
    sp.step = static_cast<method_step>(pick(infer::k_n_method_steps));
  if (chance(0.35)) {
    if (chance(0.15)) {
      sp.rtt = {{-5.0, -1.0}};  // provably empty band
    } else {
      const double lo = std::uniform_real_distribution<double>{0.0, 30.0}(rng);
      const double width = std::uniform_real_distribution<double>{0.0, 40.0}(rng);
      sp.rtt = {{lo, lo + width}};
    }
  }
  if (chance(0.45)) sp.group = static_cast<int>(pick(5));
  sp.sort = chance(0.45);
  sp.asc = chance(0.5);
  const double page_roll = std::uniform_real_distribution<double>{0.0, 1.0}(rng);
  if (page_roll < 0.3) {
    sp.page_kind = 1;
    sp.k = pick(40);  // includes top(0)
  } else if (page_roll < 0.6) {
    sp.page_kind = 2;
    sp.off = pick(ep.rows() + 10);
    sp.lim = pick(60);
  }
  return sp;
}

/// Runs one spec on both engines (and optionally on a second catalog,
/// e.g. a loaded or merged copy) and expects identical results.
void expect_spec_equivalent(const serve::catalog& ref_cat, const serve::catalog& vec_cat,
                            const query_spec& sp) {
  const auto ctx = sp.describe();
  auto ref = build_query(ref_cat, sp, serve::exec::mode::reference);
  auto vec = build_query(vec_cat, sp, serve::exec::mode::vectorized);

  EXPECT_EQ(ref.count(), vec.count()) << ctx;
  expect_rows_eq(ref_cat, ref.rows(), vec_cat, vec.rows(), ctx);
  if (sp.group >= 0) expect_groups_eq(ref.group_counts(), vec.group_counts(), ctx);
  expect_ecdf_eq(ref.rtt_ecdf(5), vec.rtt_ecdf(5), ctx);
}

// ---------------------------------------------------------------------------
// Zone-map / permutation-index structural invariants, recomputed
// linearly from the columns.

void expect_indexes_valid(const serve::catalog& cat) {
  // First the library's own deep audit, then the independent linear
  // recomputation below — the two must agree that the catalog is sound.
  EXPECT_NO_THROW(cat.audit());
  for (std::size_t e = 0; e < cat.epoch_count(); ++e) {
    const auto& ep = cat.at(static_cast<serve::epoch_id>(e));
    for (const auto& b : ep.blocks()) {
      serve::epoch::block::zone_map z;
      for (std::size_t i = b.begin; i < b.end; ++i) {
        z.asn_min = std::min(z.asn_min, ep.asn_col()[i]);
        z.asn_max = std::max(z.asn_max, ep.asn_col()[i]);
        z.cls_mask |= static_cast<std::uint8_t>(1u << ep.cls_col()[i]);
        if (ep.cls_col()[i] != static_cast<std::uint8_t>(peering_class::unknown))
          z.step_mask |= static_cast<std::uint8_t>(1u << ep.step_col()[i]);
        const double r = ep.rtt_col()[i];
        if (!std::isnan(r)) {
          z.any_measured_rtt = true;
          z.rtt_min_ms = std::min(z.rtt_min_ms, r);
          z.rtt_max_ms = std::max(z.rtt_max_ms, r);
        }
      }
      EXPECT_EQ(b.zone.asn_min, z.asn_min);
      EXPECT_EQ(b.zone.asn_max, z.asn_max);
      EXPECT_EQ(b.zone.cls_mask, z.cls_mask);
      EXPECT_EQ(b.zone.step_mask, z.step_mask);
      EXPECT_EQ(b.zone.any_measured_rtt, z.any_measured_rtt);
      if (z.any_measured_rtt) {
        EXPECT_EQ(b.zone.rtt_min_ms, z.rtt_min_ms);
        EXPECT_EQ(b.zone.rtt_max_ms, z.rtt_max_ms);
      }
      // Metro bitset: membership agrees with a linear scan, for every
      // metro in the dictionary and for unmapped rows.
      std::set<serve::metro_ref> present;
      bool unmapped = false;
      for (std::size_t i = b.begin; i < b.end; ++i) {
        if (ep.metro_col()[i] == serve::k_no_metro)
          unmapped = true;
        else
          present.insert(ep.metro_col()[i]);
      }
      EXPECT_EQ(b.zone.any_unmapped_metro, unmapped);
      for (serve::metro_ref m = 0; m < cat.metros().size(); ++m)
        EXPECT_EQ(b.zone.metro_present(m), present.contains(m)) << "metro " << m;
    }

    // asn_perm: a permutation of [0, rows) sorted by (asn, index).
    ASSERT_EQ(ep.asn_perm().size(), ep.rows());
    std::vector<bool> seen(ep.rows(), false);
    for (const auto r : ep.asn_perm()) {
      ASSERT_LT(r, ep.rows());
      EXPECT_FALSE(seen[r]);
      seen[r] = true;
    }
    for (std::size_t i = 1; i < ep.asn_perm().size(); ++i) {
      const auto a = ep.asn_perm()[i - 1], b = ep.asn_perm()[i];
      EXPECT_TRUE(ep.asn_col()[a] < ep.asn_col()[b] ||
                  (ep.asn_col()[a] == ep.asn_col()[b] && a < b));
    }
    // ip_perm: per block, a permutation of the block's row range sorted
    // by (ip, index).
    ASSERT_EQ(ep.ip_perm().size(), ep.rows());
    for (const auto& b : ep.blocks()) {
      for (std::size_t i = b.begin; i < b.end; ++i) {
        ASSERT_GE(ep.ip_perm()[i], b.begin);
        ASSERT_LT(ep.ip_perm()[i], b.end);
      }
      for (std::size_t i = b.begin + 1; i < b.end; ++i) {
        const auto x = ep.ip_perm()[i - 1], y = ep.ip_perm()[i];
        EXPECT_TRUE(ep.ip_col()[x] < ep.ip_col()[y] ||
                    (ep.ip_col()[x] == ep.ip_col()[y] && x < y));
      }
    }
  }
}

void expect_diffs_eq(const serve::catalog& cat, const serve::epoch_diff& a,
                     const serve::epoch_diff& b) {
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(a.to, b.to);
  expect_rows_eq(cat, a.appeared, cat, b.appeared, "appeared");
  expect_rows_eq(cat, a.disappeared, cat, b.disappeared, "disappeared");
  ASSERT_EQ(a.reclassified.size(), b.reclassified.size());
  for (std::size_t i = 0; i < a.reclassified.size(); ++i) {
    expect_row_eq(cat, a.reclassified[i].before, cat, b.reclassified[i].before,
                  "reclassified.before " + std::to_string(i));
    expect_row_eq(cat, a.reclassified[i].after, cat, b.reclassified[i].after,
                  "reclassified.after " + std::to_string(i));
  }
  EXPECT_EQ(a.appeared_by_class, b.appeared_by_class);
}

// ---------------------------------------------------------------------------
// Fixture: a three-epoch catalog — two full-scope runs plus one with a
// truncated scope, so some dictionary IXPs are absent from epoch "C"
// and cross-epoch diffs have real appeared/disappeared work.

class ExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    s_ = new eval::scenario{eval::scenario::build(eval::small_scenario_config(91))};
    cat_ = new serve::catalog;
    const auto pr_a = s_->run_inference();
    cat_->ingest(s_->w, s_->view, pr_a, "A");
    auto cfg = s_->cfg.pipeline;
    cfg.seed ^= 0x9e3779b97f4a7c15ull;
    auto pr_b = s_->run_inference(cfg);
    cat_->ingest(s_->w, s_->view, pr_b, "B");
    // Epoch "C": same run, half the IXP scope.
    pr_b.scope.resize(pr_b.scope.size() / 2);
    cat_->ingest(s_->w, s_->view, pr_b, "C");
    // Epoch "N": an empty pipeline result — every row unknown with an
    // unmeasured (NaN) RTT, the all-NaN edge case.
    infer::pipeline_result pr_n;
    pr_n.scope = s_->scope;
    cat_->ingest(s_->w, s_->view, pr_n, "N");
  }
  static void TearDownTestSuite() {
    delete cat_;
    delete s_;
    cat_ = nullptr;
    s_ = nullptr;
  }

  static eval::scenario* s_;
  static serve::catalog* cat_;
};

eval::scenario* ExecTest::s_ = nullptr;
serve::catalog* ExecTest::cat_ = nullptr;

// ---------------------------------------------------------------------------

TEST_F(ExecTest, IndexesMatchLinearRecomputation) { expect_indexes_valid(*cat_); }

TEST_F(ExecTest, RandomizedSpecsMatchReference) {
  std::mt19937 rng{20180427};
  for (int c = 0; c < 400; ++c) {
    const auto sp = random_spec(rng, *cat_);
    expect_spec_equivalent(*cat_, *cat_, sp);
    if (::testing::Test::HasFailure()) FAIL() << "spec " << c << ": " << sp.describe();
  }
}

TEST_F(ExecTest, RandomizedSpecsMatchReferenceOnSecondScale) {
  // Different seed AND different scale (narrower scope, so blocks,
  // dictionaries and RTT distributions all differ).
  auto cfg = eval::small_scenario_config(17);
  cfg.top_n_ixps = 4;
  const auto s = eval::scenario::build(cfg);
  serve::catalog cat;
  cat.ingest(s.w, s.view, s.run_inference(), "A");
  auto pcfg = s.cfg.pipeline;
  pcfg.seed += 3;
  cat.ingest(s.w, s.view, s.run_inference(pcfg), "B");
  expect_indexes_valid(cat);
  std::mt19937 rng{7};
  for (int c = 0; c < 250; ++c) {
    const auto sp = random_spec(rng, cat);
    expect_spec_equivalent(cat, cat, sp);
    if (::testing::Test::HasFailure()) FAIL() << "spec " << c << ": " << sp.describe();
  }
}

TEST_F(ExecTest, AbsentIxpYieldsEmptyOnBothEngines) {
  // Every IXP dropped from epoch "C"'s scope exists in the dictionary
  // but has no block there.
  const auto& ep_c = cat_->of("C");
  bool exercised = false;
  for (const auto& entry : cat_->ixps()) {
    const auto ref = cat_->ixp_by_name(entry.name);
    ASSERT_TRUE(ref.has_value());
    if (ep_c.block_of(*ref) != nullptr) continue;
    exercised = true;
    for (const auto m : {serve::exec::mode::vectorized, serve::exec::mode::reference}) {
      auto q = serve::query{*cat_}.engine(m).epoch("C").at_ixp(entry.name);
      EXPECT_EQ(q.count(), 0u);
      EXPECT_TRUE(q.rows().empty());
      EXPECT_TRUE(serve::query{*cat_}.engine(m).epoch("C").at_ixp(entry.name).by_asn()
                      .group_counts()
                      .empty());
    }
  }
  EXPECT_TRUE(exercised) << "epoch C unexpectedly covers the whole dictionary";
}

TEST_F(ExecTest, EmptyMatchShapes) {
  for (const auto m : {serve::exec::mode::vectorized, serve::exec::mode::reference}) {
    EXPECT_EQ(serve::query{*cat_}.engine(m).epoch("A").rtt_between(-5.0, -1.0).count(),
              0u);
    EXPECT_TRUE(
        serve::query{*cat_}.engine(m).epoch("A").member(net::asn{0xFFFFFFFEu}).rows()
            .empty());
    EXPECT_TRUE(serve::query{*cat_}.engine(m).epoch("A").rtt_between(-5.0, -1.0)
                    .rtt_ecdf()
                    .empty());
    EXPECT_TRUE(serve::query{*cat_}.engine(m).epoch("A").top(0).rows().empty());
    const auto rows = cat_->of("A").rows();
    EXPECT_TRUE(serve::query{*cat_}.engine(m).epoch("A").page(rows + 7, 5).rows()
                    .empty());
  }
  // NaN bounds are rejected at the builder, so neither engine ever
  // sees a range the two would interpret differently.
  EXPECT_THROW(serve::query{*cat_}.rtt_between(std::nan(""), 1.0),
               std::invalid_argument);
  EXPECT_THROW(serve::query{*cat_}.rtt_between(0.0, std::nan("")),
               std::invalid_argument);
}

TEST_F(ExecTest, AllNanRttEpochSortsCanonicallyAndSkipsRttScans) {
  // Epoch "N" has NO measured RTT anywhere: sorting falls back to pure
  // canonical order, ECDFs are empty, and every RTT-filtered scan is
  // answered entirely from zone maps without touching a row.
  const auto& ep = cat_->of("N");
  ASSERT_GT(ep.rows(), 0u);
  for (std::size_t i = 0; i < ep.rows(); ++i)
    ASSERT_TRUE(std::isnan(ep.rtt_col()[i]));

  const auto sorted = serve::query{*cat_}.epoch("N").sort_by_rtt().rows();
  const auto canonical = serve::query{*cat_}.epoch("N").rows();
  expect_rows_eq(*cat_, canonical, *cat_, sorted, "all-NaN canonical");
  EXPECT_TRUE(serve::query{*cat_}.epoch("N").rtt_ecdf().empty());

  serve::exec::stats st;
  EXPECT_EQ(serve::query{*cat_}
                .epoch("N")
                .rtt_between(0.0, 1e9)
                .collect_stats(&st)
                .count(),
            0u);
  EXPECT_EQ(st.rows_scanned, 0u);
  EXPECT_EQ(st.rows_skipped, ep.rows());
  EXPECT_EQ(st.blocks_skipped, ep.blocks().size());

  query_spec sp;
  sp.epoch = "N";
  sp.sort = true;
  sp.page_kind = 2;
  sp.off = 3;
  sp.lim = 11;
  expect_spec_equivalent(*cat_, *cat_, sp);
}

TEST_F(ExecTest, SingleRowMemberRuns) {
  // An ASN with exactly one row: the tightest member() point lookup
  // (also the single-row range shape for the scan kernels).
  const auto& ep = cat_->of("A");
  std::map<std::uint32_t, std::size_t> freq;
  for (std::size_t i = 0; i < ep.rows(); ++i) ++freq[ep.asn_col()[i]];
  std::optional<net::asn> unique;
  for (const auto& [asn, n] : freq)
    if (n == 1) {
      unique = net::asn{asn};
      break;
    }
  if (!unique) GTEST_SKIP() << "scenario has no single-row ASN";

  query_spec sp;
  sp.epoch = "A";
  sp.member = unique;
  expect_spec_equivalent(*cat_, *cat_, sp);
  sp.sort = true;
  sp.page_kind = 1;
  sp.k = 1;
  expect_spec_equivalent(*cat_, *cat_, sp);
  EXPECT_EQ(serve::query{*cat_}.epoch("A").member(*unique).count(), 1u);
}

TEST_F(ExecTest, SortedPagesTileTheSortedOrder) {
  // nth_element partial selection: adjacent sorted pages reassemble the
  // fully sorted result exactly.
  const auto all = serve::query{*cat_}.epoch("A").sort_by_rtt().rows();
  ASSERT_GT(all.size(), 20u);
  std::vector<serve::iface_row> paged;
  const std::size_t page = 7;
  for (std::size_t off = 0; off < all.size(); off += page) {
    const auto p = serve::query{*cat_}.epoch("A").sort_by_rtt().page(off, page).rows();
    paged.insert(paged.end(), p.begin(), p.end());
  }
  expect_rows_eq(*cat_, all, *cat_, paged, "sorted page tiling");
  // And descending top(k) is a prefix of the full descending order.
  const auto desc = serve::query{*cat_}.epoch("A").sort_by_rtt(false).rows();
  const auto top = serve::query{*cat_}.epoch("A").sort_by_rtt(false).top(9).rows();
  ASSERT_EQ(top.size(), 9u);
  expect_rows_eq(*cat_, {desc.begin(), desc.begin() + 9}, *cat_, top, "desc top");
}

TEST_F(ExecTest, ScanStatsAccountForEveryRow) {
  const auto& ep = cat_->of("A");

  // Block-scan shape without early exit: scanned + skipped covers the
  // epoch exactly, and a selective RTT band skips at least one block on
  // this scenario (zone maps).
  serve::exec::stats st;
  (void)serve::query{*cat_}
      .epoch("A")
      .cls(peering_class::remote)
      .rtt_between(0.0, 1.0)
      .collect_stats(&st)
      .count();
  EXPECT_EQ(st.rows_scanned + st.rows_skipped, ep.rows());

  // member(): the permutation index prunes everything but the ASN run.
  serve::exec::stats mst;
  const auto asn = net::asn{ep.asn_col().front()};
  const auto n =
      serve::query{*cat_}.epoch("A").member(asn).collect_stats(&mst).count();
  EXPECT_EQ(mst.rows_scanned + mst.rows_skipped, ep.rows());
  EXPECT_GE(mst.rows_scanned, n);
  EXPECT_LT(mst.rows_scanned, ep.rows());

  // member() + at_ixp(): the invariant covers the whole epoch even when
  // both indexes narrow the run (and when the block is absent).
  serve::exec::stats bst;
  (void)serve::query{*cat_}
      .epoch("A")
      .at_ixp(cat_->ixps()[ep.blocks().front().ixp].name)
      .member(asn)
      .collect_stats(&bst)
      .count();
  EXPECT_EQ(bst.rows_scanned + bst.rows_skipped, ep.rows());
  for (const auto& entry : cat_->ixps()) {
    const auto ref = cat_->ixp_by_name(entry.name);
    if (cat_->of("C").block_of(*ref) != nullptr) continue;
    serve::exec::stats ast;
    EXPECT_EQ(serve::query{*cat_}
                  .epoch("C")
                  .at_ixp(entry.name)
                  .member(asn)
                  .collect_stats(&ast)
                  .count(),
              0u);
    EXPECT_EQ(ast.rows_scanned + ast.rows_skipped, cat_->of("C").rows());
    break;
  }

  // A provably-empty RTT band skips every block without touching rows.
  serve::exec::stats est;
  (void)serve::query{*cat_}
      .epoch("A")
      .rtt_between(-5.0, -1.0)
      .collect_stats(&est)
      .count();
  EXPECT_EQ(est.rows_scanned, 0u);
  EXPECT_EQ(est.rows_skipped, ep.rows());
  EXPECT_EQ(est.blocks_skipped, ep.blocks().size());

  // at_ixp(): rows outside the block are index-pruned, never scanned.
  serve::exec::stats xst;
  const auto& blk = ep.blocks().front();
  (void)serve::query{*cat_}
      .epoch("A")
      .at_ixp(cat_->ixps()[blk.ixp].name)
      .rtt_between(0.0, 1e9)
      .collect_stats(&xst)
      .count();
  EXPECT_EQ(xst.rows_scanned + xst.rows_skipped, ep.rows());
  EXPECT_LE(xst.rows_scanned, blk.end - blk.begin);

  // Early-exit canonical paging: the invariant holds even when the
  // collection short-circuits at offset + limit.
  serve::exec::stats cst;
  (void)serve::query{*cat_}
      .epoch("A")
      .cls(peering_class::unknown)
      .page(0, 1)
      .collect_stats(&cst)
      .rows();
  EXPECT_EQ(cst.rows_scanned + cst.rows_skipped, ep.rows());
}

TEST_F(ExecTest, DiffMatchesReferenceAcrossScopes) {
  for (const auto& [from, to] : std::vector<std::pair<const char*, const char*>>{
           {"A", "B"}, {"A", "C"}, {"C", "B"}}) {
    const auto fast = serve::diff_epochs(*cat_, from, to);
    const auto slow = serve::diff_epochs_reference(*cat_, from, to);
    expect_diffs_eq(*cat_, fast, slow);
    // O(1) appeared_of == linear recount.
    for (const auto c :
         {peering_class::unknown, peering_class::local, peering_class::remote}) {
      std::size_t n = 0;
      for (const auto& r : fast.appeared)
        if (r.cls == c) ++n;
      EXPECT_EQ(fast.appeared_of(c), n);
    }
  }
  // The truncated-scope epoch guarantees non-trivial join work.
  const auto d = serve::diff_epochs(*cat_, "C", "B");
  EXPECT_GT(d.appeared.size(), 0u);
  const auto d2 = serve::diff_epochs(*cat_, "B", "C");
  EXPECT_GT(d2.disappeared.size(), 0u);
}

// ---------------------------------------------------------------------------
// Zone maps / permutation indexes across persistence boundaries.

class ExecPersistTest : public ExecTest {
 protected:
  static std::string temp_path(const char* name) {
    return (std::filesystem::temp_directory_path() /
            (std::string{"opwat_exec_"} + name + "_" + std::to_string(::getpid()) +
             ".opwatc"))
        .string();
  }
};

TEST_F(ExecPersistTest, IndexesSurviveSaveLoad) {
  const auto path = temp_path("roundtrip");
  cat_->save(path);
  const auto loaded = serve::catalog::load(path);
  std::remove(path.c_str());

  expect_indexes_valid(loaded);
  std::mt19937 rng{99};
  for (int c = 0; c < 120; ++c) {
    // Reference on the original vs vectorized on the loaded copy: one
    // check covers engine equivalence AND load-time index rebuilding.
    const auto sp = random_spec(rng, *cat_);
    expect_spec_equivalent(*cat_, loaded, sp);
    if (::testing::Test::HasFailure()) FAIL() << "spec " << c << ": " << sp.describe();
  }
  const auto fast = serve::diff_epochs(loaded, "C", "B");
  const auto slow = serve::diff_epochs_reference(*cat_, "C", "B");
  expect_diffs_eq(loaded, fast, slow);
}

TEST_F(ExecPersistTest, IndexesSurviveMergeFrom) {
  const auto path = temp_path("merge");
  cat_->save(path);
  serve::catalog merged;
  merged.merge_from(path);
  std::remove(path.c_str());

  expect_indexes_valid(merged);
  std::mt19937 rng{123};
  for (int c = 0; c < 120; ++c) {
    const auto sp = random_spec(rng, *cat_);
    expect_spec_equivalent(*cat_, merged, sp);
    if (::testing::Test::HasFailure()) FAIL() << "spec " << c << ": " << sp.describe();
  }
}

}  // namespace
