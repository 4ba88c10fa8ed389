// Reference-model property tests: the LPM table against a brute-force
// linear scan, and the merge layer against an order-independent oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "opwat/net/ipv4.hpp"
#include "opwat/util/rng.hpp"

namespace {

using namespace opwat::net;
using opwat::util::rng;

/// Brute-force longest-prefix match used as the oracle.
class linear_lpm {
 public:
  void insert(const prefix& p, int v) {
    for (auto& [q, val] : entries_)
      if (q == p) {
        val = v;
        return;
      }
    entries_.push_back({p, v});
  }
  [[nodiscard]] std::optional<int> lookup(ipv4_addr a) const {
    std::optional<int> best;
    int best_len = -1;
    for (const auto& [p, v] : entries_) {
      if (p.contains(a) && p.length() > best_len) {
        best_len = p.length();
        best = v;
      }
    }
    return best;
  }
  [[nodiscard]] std::optional<int> exact(const prefix& p) const {
    for (const auto& [q, v] : entries_)
      if (q == p) return v;
    return std::nullopt;
  }
  [[nodiscard]] const std::vector<std::pair<prefix, int>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<prefix, int>> entries_;
};

class LpmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmFuzz, MatchesLinearReference) {
  rng r{GetParam()};
  lpm_table<int> fast;
  linear_lpm slow;
  const auto insert = [&](const prefix& p, int v) {
    fast.insert(p, v);
    slow.insert(p, v);
  };
  // Random prefix set, biased toward nested structures, plus host routes
  // and, for half the seeds, a default route.
  std::vector<prefix> inserted;
  for (int i = 0; i < 300; ++i) {
    const auto base = static_cast<std::uint32_t>(r.next());
    const auto len = static_cast<int>(r.uniform_int(4, 30));
    const prefix p{ipv4_addr{base}, len};
    insert(p, i);
    inserted.push_back(p);
    // Insert a sub-prefix of an existing one half the time.
    if (r.bernoulli(0.5)) {
      const auto sublen = std::min(32, len + static_cast<int>(r.uniform_int(1, 6)));
      const prefix sub{ipv4_addr{base | static_cast<std::uint32_t>(r.next() & 0xffff)},
                       sublen};
      insert(sub, 1000 + i);
      inserted.push_back(sub);
    }
    if (r.bernoulli(0.1)) {
      const auto low = static_cast<std::uint32_t>(r.next() & 0xff);
      const prefix host{ipv4_addr{base ^ low}, 32};
      insert(host, 2000 + i);
      inserted.push_back(host);
    }
  }
  if (GetParam() % 2 == 1) {
    insert(prefix{ipv4_addr{}, 0}, 5000);
    inserted.push_back(prefix{ipv4_addr{}, 0});
  }
  // Re-insert some existing prefixes with new values: the last write wins.
  for (int i = 0; i < 60; ++i) {
    const auto& p = inserted[static_cast<std::size_t>(
        r.uniform_int(0, static_cast<std::int64_t>(inserted.size()) - 1))];
    insert(p, 3000 + i);
  }
  EXPECT_EQ(fast.size(), slow.entries().size());

  // Probe random addresses, then every inserted prefix's network and
  // broadcast addresses and the addresses just outside them.
  for (int i = 0; i < 3000; ++i) {
    const ipv4_addr probe{static_cast<std::uint32_t>(r.next())};
    EXPECT_EQ(fast.lookup(probe), slow.lookup(probe)) << probe.to_string();
  }
  for (const auto& [p, v] : slow.entries()) {
    const auto first = p.network().value();
    const auto last = p.at(p.size() - 1).value();
    for (const std::uint32_t a : {first, last, first - 1, last + 1}) {
      const ipv4_addr probe{a};
      EXPECT_EQ(fast.lookup(probe), slow.lookup(probe))
          << probe.to_string() << " near " << p.to_string();
    }
  }

  // Exact lookups: every inserted prefix, its parent and child lengths
  // (mostly absent), and random prefixes.
  for (const auto& [p, v] : slow.entries()) {
    EXPECT_EQ(fast.exact(p), v) << p.to_string();
    for (const int len : {p.length() - 1, p.length() + 1}) {
      if (len < 0 || len > 32) continue;
      const prefix q{p.network(), len};
      EXPECT_EQ(fast.exact(q), slow.exact(q)) << q.to_string();
    }
  }
  for (int i = 0; i < 500; ++i) {
    const prefix q{ipv4_addr{static_cast<std::uint32_t>(r.next())},
                   static_cast<int>(r.uniform_int(0, 32))};
    EXPECT_EQ(fast.exact(q), slow.exact(q)) << q.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmFuzz, ::testing::Values(1, 2, 3, 4, 5, 99));

class PrefixContainsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixContainsFuzz, ContainsIsConsistentWithMasks) {
  rng r{GetParam()};
  for (int i = 0; i < 2000; ++i) {
    const auto base = static_cast<std::uint32_t>(r.next());
    const auto len = static_cast<int>(r.uniform_int(0, 32));
    const prefix p{ipv4_addr{base}, len};
    const ipv4_addr probe{static_cast<std::uint32_t>(r.next())};
    const bool expected =
        len == 0 || ((probe.value() ^ p.network().value()) >> (32 - len)) == 0;
    EXPECT_EQ(p.contains(probe), expected);
    // A prefix always contains its own network and last address.
    EXPECT_TRUE(p.contains(p.network()));
    EXPECT_TRUE(p.contains(p.at(p.size() - 1)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixContainsFuzz, ::testing::Values(7, 8, 9));

}  // namespace
