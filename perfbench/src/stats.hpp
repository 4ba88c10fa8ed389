// Order statistics and small validators shared by the benchmark driver
// and its self-test.  Everything here is pure: no clocks, no I/O.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `v` by linear interpolation between the
/// order statistics at rank q·(n−1) (the "linear" rule).  Sorts `v` in
/// place; NaN for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten
/// samples beyond it in a sample of `n` — the tail percentile the sample
/// can support.  0 when even the median has fewer than ten above it.
inline double highest_supported_quantile(std::size_t n) {
  constexpr std::array<double, 5> k_candidates{0.9999, 0.999, 0.99, 0.9, 0.5};
  for (const double q : k_candidates) {
    // Samples strictly above the q-quantile's rank.
    const double beyond = static_cast<double>(n) * (1.0 - q);
    if (beyond >= 10.0 - 1e-9) return q;
  }
  return 0.0;
}

/// Per-window view of timed samples: sample i happened t[i] seconds after
/// the phase start and measured v[i].  Only the floor(span_s / window_s)
/// whole windows count; samples outside them are dropped.
struct window_summary {
  std::vector<double> count;  ///< samples per window
  std::vector<double> p50;    ///< per non-empty window
  std::vector<double> p99;
};

inline window_summary by_window(const std::vector<double>& t, const std::vector<double>& v,
                                double window_s, double span_s) {
  window_summary out;
  const auto n = static_cast<std::size_t>(std::floor(span_s / window_s + 1e-9));
  std::vector<std::vector<double>> w(n);
  for (std::size_t i = 0; i < t.size() && i < v.size(); ++i) {
    if (t[i] < 0) continue;
    const auto k = static_cast<std::size_t>(t[i] / window_s);
    if (k < n) w[k].push_back(v[i]);
  }
  for (auto& s : w) {
    out.count.push_back(static_cast<double>(s.size()));
    if (s.empty()) continue;
    out.p50.push_back(quantile(s, 0.5));
    out.p99.push_back(quantile(s, 0.99));
  }
  return out;
}

/// A uniform sample of at most `cap` values from a stream (Vitter's
/// algorithm R with a fixed-seed splitmix64, so deterministic), in
/// storage reserved up front.  Memory does not grow with the stream, so a
/// faster program that times more requests does not read as a bigger one.
/// Below `cap` values it keeps them all.
class reservoir {
 public:
  explicit reservoir(std::size_t cap) : cap_(cap) { kept_.reserve(cap); }

  void add(double x) {
    ++seen_;
    sum_ += x;
    if (kept_.size() < cap_) {
      kept_.push_back(x);
      return;
    }
    const std::uint64_t j = next() % seen_;
    if (j < cap_) kept_[j] = x;
  }
  /// Forgets the values; keeps the storage and the random stream.
  void clear() {
    kept_.clear();
    seen_ = 0;
    sum_ = 0;
  }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& kept() const { return kept_; }

 private:
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t cap_;
  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  double sum_ = 0;
  std::uint64_t state_ = 0;
};

/// Offered rate of an arrival schedule: the requests due inside the
/// window [0, window_s], divided by the window.  `due_s` holds absolute
/// due times in seconds from the phase start.
inline double offered_qps(const std::vector<double>& due_s, double window_s) {
  if (window_s <= 0.0) return 0.0;
  const auto n = std::count_if(due_s.begin(), due_s.end(),
                               [&](double t) { return t >= 0.0 && t <= window_s; });
  return static_cast<double>(n) / window_s;
}

/// Mean rate of an exponential arrival process whose per-block intensity
/// multiplier is exp(N(0, sigma²)): gaps have mean e^{σ²/2}/target, so
/// the process offers target·e^{−σ²/2} requests per second on average.
inline double lognormal_burst_mean_qps(double target_qps, double sigma) {
  return target_qps * std::exp(-sigma * sigma / 2.0);
}

/// Metric names: a letter or digit, then letters, digits, '_', '.' and
/// '-', at most 64 characters in all.
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(s.front())) return false;
  return std::all_of(s.begin(), s.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
