#include <gtest/gtest.h>

#include "opwat/net/ip_alloc.hpp"
#include "opwat/net/ipv4.hpp"

namespace {

using namespace opwat::net;

TEST(Ipv4, ParseValid) {
  const auto a = ipv4_addr::parse("192.168.1.42");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "192.168.1.42");
  EXPECT_EQ(ipv4_addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(ipv4_addr::parse("255.255.255.255")->value(), 0xffffffffu);
}

TEST(Ipv4, ParseRejectsMalformed) {
  EXPECT_FALSE(ipv4_addr::parse(""));
  EXPECT_FALSE(ipv4_addr::parse("1.2.3"));
  EXPECT_FALSE(ipv4_addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(ipv4_addr::parse("256.1.1.1"));
  EXPECT_FALSE(ipv4_addr::parse("1..2.3"));
  EXPECT_FALSE(ipv4_addr::parse("a.b.c.d"));
  EXPECT_FALSE(ipv4_addr::parse("1.2.3.4 "));
}

TEST(Ipv4, OctetConstructor) {
  const ipv4_addr a{10, 0, 0, 1};
  EXPECT_EQ(a.to_string(), "10.0.0.1");
}

TEST(Ipv4, Ordering) {
  EXPECT_LT(ipv4_addr(10, 0, 0, 1), ipv4_addr(10, 0, 0, 2));
  EXPECT_LT(ipv4_addr(9, 255, 255, 255), ipv4_addr(10, 0, 0, 0));
}

TEST(Prefix, NormalizesNetworkAddress) {
  const prefix p{ipv4_addr{192, 168, 1, 200}, 24};
  EXPECT_EQ(p.network().to_string(), "192.168.1.0");
  EXPECT_EQ(p.to_string(), "192.168.1.0/24");
}

TEST(Prefix, ContainsAddresses) {
  const prefix p{ipv4_addr{10, 1, 0, 0}, 16};
  EXPECT_TRUE(p.contains(ipv4_addr{10, 1, 255, 255}));
  EXPECT_FALSE(p.contains(ipv4_addr{10, 2, 0, 0}));
}

TEST(Prefix, ContainsSubPrefix) {
  const prefix big{ipv4_addr{10, 0, 0, 0}, 8};
  const prefix small{ipv4_addr{10, 3, 0, 0}, 24};
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
}

TEST(Prefix, SizeAndAt) {
  const prefix p{ipv4_addr{192, 0, 2, 0}, 24};
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.at(0).to_string(), "192.0.2.0");
  EXPECT_EQ(p.at(255).to_string(), "192.0.2.255");
  EXPECT_THROW((void)p.at(256), std::out_of_range);
}

TEST(Prefix, ParseCidr) {
  const auto p = prefix::parse("172.16.0.0/12");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->length(), 12);
  EXPECT_FALSE(prefix::parse("172.16.0.0"));
  EXPECT_FALSE(prefix::parse("172.16.0.0/33"));
  EXPECT_FALSE(prefix::parse("bad/8"));
}

TEST(Prefix, ZeroLengthCoversEverything) {
  const prefix p{ipv4_addr{1, 2, 3, 4}, 0};
  EXPECT_TRUE(p.contains(ipv4_addr{255, 255, 255, 255}));
  EXPECT_TRUE(p.contains(ipv4_addr{0, 0, 0, 0}));
}

TEST(Prefix, InvalidLengthThrows) {
  EXPECT_THROW((prefix{ipv4_addr{}, 33}), std::invalid_argument);
  EXPECT_THROW((prefix{ipv4_addr{}, -1}), std::invalid_argument);
}

TEST(Lpm, LongestMatchWins) {
  lpm_table<int> t;
  t.insert(prefix{ipv4_addr{10, 0, 0, 0}, 8}, 1);
  t.insert(prefix{ipv4_addr{10, 1, 0, 0}, 16}, 2);
  t.insert(prefix{ipv4_addr{10, 1, 2, 0}, 24}, 3);
  EXPECT_EQ(t.lookup(ipv4_addr(10, 1, 2, 3)), 3);
  EXPECT_EQ(t.lookup(ipv4_addr(10, 1, 9, 9)), 2);
  EXPECT_EQ(t.lookup(ipv4_addr(10, 9, 9, 9)), 1);
  EXPECT_FALSE(t.lookup(ipv4_addr(11, 0, 0, 0)));
}

TEST(Lpm, ExactLookup) {
  lpm_table<int> t;
  const prefix p{ipv4_addr{10, 0, 0, 0}, 8};
  t.insert(p, 7);
  EXPECT_EQ(t.exact(p), 7);
  EXPECT_FALSE(t.exact(prefix{ipv4_addr{10, 0, 0, 0}, 9}));
}

TEST(Lpm, OverwriteSamePrefix) {
  lpm_table<int> t;
  t.insert(prefix{ipv4_addr{10, 0, 0, 0}, 8}, 1);
  t.insert(prefix{ipv4_addr{10, 0, 0, 0}, 8}, 2);
  EXPECT_EQ(t.lookup(ipv4_addr(10, 0, 0, 1)), 2);
  EXPECT_EQ(t.exact(prefix{ipv4_addr{10, 0, 0, 0}, 8}), 2);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Lpm, DefaultRoute) {
  lpm_table<int> t;
  t.insert(prefix{ipv4_addr{0, 0, 0, 0}, 0}, 99);
  EXPECT_EQ(t.lookup(ipv4_addr(8, 8, 8, 8)), 99);
}

TEST(Allocator, NonOverlappingSequential) {
  prefix_allocator alloc{prefix{ipv4_addr{10, 0, 0, 0}, 8}};
  const auto a = alloc.allocate(24);
  const auto b = alloc.allocate(24);
  const auto c = alloc.allocate(20);
  EXPECT_FALSE(a.contains(b));
  EXPECT_FALSE(b.contains(c));
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(prefix(ipv4_addr{10, 0, 0, 0}, 8).contains(c));
}

TEST(Allocator, AlignmentRespected) {
  prefix_allocator alloc{prefix{ipv4_addr{10, 0, 0, 0}, 8}};
  (void)alloc.allocate(24);      // 10.0.0.0/24
  const auto p = alloc.allocate(16);  // must align to /16
  EXPECT_EQ(p.network().value() % p.size(), 0u);
}

TEST(Allocator, ExhaustionThrows) {
  prefix_allocator alloc{prefix{ipv4_addr{192, 0, 2, 0}, 24}};
  (void)alloc.allocate(25);
  (void)alloc.allocate(25);
  EXPECT_THROW((void)alloc.allocate(25), std::length_error);
}

TEST(Allocator, RequestOutsidePoolThrows) {
  prefix_allocator alloc{prefix{ipv4_addr{10, 0, 0, 0}, 16}};
  EXPECT_THROW((void)alloc.allocate(8), std::invalid_argument);
}

TEST(Asn, Formatting) {
  EXPECT_EQ(to_string(asn{65000}), "AS65000");
  EXPECT_EQ(asn{1}, asn{1});
  EXPECT_LT(asn{1}, asn{2});
}

// Property: parse(to_string(a)) == a across a spread of addresses.
class Ipv4Roundtrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Ipv4Roundtrip, Roundtrips) {
  const ipv4_addr a{GetParam()};
  const auto parsed = ipv4_addr::parse(a.to_string());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, a);
}

INSTANTIATE_TEST_SUITE_P(Addresses, Ipv4Roundtrip,
                         ::testing::Values(0u, 1u, 0xffffffffu, 0x0a000001u,
                                           0xc0a80101u, 0x7f000001u, 0xac100001u,
                                           0xdeadbeefu));

}  // namespace
