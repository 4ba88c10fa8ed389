// IPv4 addresses, CIDR prefixes and a longest-prefix-match table.
//
// The simulator assigns synthetic address space to IXP peering LANs,
// member routers and private interconnects; the inference pipeline only
// ever sees these addresses (never ground-truth object identities), the
// same way the paper's pipeline sees raw IPs from traceroute/ping.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace opwat::net {

/// An IPv4 address (host byte order internally).
class ipv4_addr {
 public:
  constexpr ipv4_addr() = default;
  constexpr explicit ipv4_addr(std::uint32_t value) noexcept : value_(value) {}
  constexpr ipv4_addr(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) noexcept
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  /// Parses dotted-quad notation; std::nullopt on malformed input.
  [[nodiscard]] static std::optional<ipv4_addr> parse(std::string_view s) noexcept;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }

  constexpr auto operator<=>(const ipv4_addr&) const noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

/// A CIDR prefix.  Invariant: address bits below the mask are zero.
class prefix {
 public:
  constexpr prefix() = default;
  /// Normalizes the address to the network address of the prefix.
  prefix(ipv4_addr addr, int length);

  [[nodiscard]] static std::optional<prefix> parse(std::string_view cidr) noexcept;

  [[nodiscard]] bool contains(ipv4_addr a) const noexcept;
  [[nodiscard]] bool contains(const prefix& other) const noexcept;
  [[nodiscard]] ipv4_addr network() const noexcept { return network_; }
  [[nodiscard]] int length() const noexcept { return length_; }
  /// Number of addresses covered (2^(32-len)).
  [[nodiscard]] std::uint64_t size() const noexcept;
  /// i-th host address in the prefix (0 = network address).
  [[nodiscard]] ipv4_addr at(std::uint64_t i) const;
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::uint32_t mask() const noexcept;

  auto operator<=>(const prefix&) const noexcept = default;

 private:
  ipv4_addr network_{};
  int length_ = 0;
};

/// Longest-prefix-match table mapping prefixes to values of type T.
/// Insertions with an equal prefix overwrite.  Each prefix length keeps
/// its network addresses in a sorted flat vector, and a bitmask records
/// which lengths hold any prefix, so a lookup binary-searches only the
/// occupied lengths, longest first.
template <typename T>
class lpm_table {
 public:
  void insert(const prefix& p, T value) {
    const auto len = static_cast<std::size_t>(p.length());
    auto& keys = keys_[len];
    const auto key = p.network().value();
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    const auto at = it - keys.begin();
    if (it != keys.end() && *it == key) {
      values_[len][static_cast<std::size_t>(at)] = std::move(value);
      return;
    }
    keys.insert(it, key);
    values_[len].insert(values_[len].begin() + at, std::move(value));
    lengths_ |= std::uint64_t{1} << len;
    ++count_;
  }

  [[nodiscard]] std::optional<T> lookup(ipv4_addr a) const {
    for (auto m = lengths_; m != 0;) {
      const int len = std::bit_width(m) - 1;
      m &= ~(std::uint64_t{1} << len);
      const std::uint32_t key =
          len == 0 ? 0u : (a.value() & (~std::uint32_t{0} << (32 - len)));
      if (const auto* v = find(len, key)) return *v;
    }
    return std::nullopt;
  }

  /// Exact-prefix lookup.
  [[nodiscard]] std::optional<T> exact(const prefix& p) const {
    if (const auto* v = find(p.length(), p.network().value())) return *v;
    return std::nullopt;
  }

  /// Number of distinct prefixes held.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  [[nodiscard]] const T* find(int len, std::uint32_t key) const {
    const auto l = static_cast<std::size_t>(len);
    const auto it = std::lower_bound(keys_[l].begin(), keys_[l].end(), key);
    if (it == keys_[l].end() || *it != key) return nullptr;
    return &values_[l][static_cast<std::size_t>(it - keys_[l].begin())];
  }

  std::array<std::vector<std::uint32_t>, 33> keys_;  // sorted, per length
  std::array<std::vector<T>, 33> values_;            // parallel to keys_
  std::uint64_t lengths_ = 0;                        // bit L: keys_[L] non-empty
  std::size_t count_ = 0;
};

/// Autonomous System number: a strong type so ASNs, ids and counts cannot
/// be mixed up silently.
struct asn {
  std::uint32_t value = 0;
  constexpr auto operator<=>(const asn&) const noexcept = default;
};

[[nodiscard]] std::string to_string(asn a);

}  // namespace opwat::net

template <>
struct std::hash<opwat::net::ipv4_addr> {
  std::size_t operator()(const opwat::net::ipv4_addr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<opwat::net::asn> {
  std::size_t operator()(const opwat::net::asn& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value);
  }
};
