// Portal server, protocol and workload (opwat/portal/).  Pins:
//   - wire round-trips: encode ∘ decode = id for randomized requests and
//     responses (property test over util::rng draws);
//   - malformed input taxonomy: truncation at every byte boundary,
//     oversized prefixes, bad version/op/dim, trailing bytes — each maps
//     to its typed portal_errc, mirroring the store_errc style;
//   - server integration: every op served over loopback matches the
//     equivalent direct serve::query against the same snapshot;
//   - result cache: hit on repeat, invalidated by epoch publish, and the
//     latest-epoch selector re-resolves after a publish;
//   - admission control, made deterministic with the before_execute test
//     hook: a full queue and an exceeded pipeline cap shed with typed
//     `overloaded` responses immediately — never a hang;
//   - graceful shutdown: stop() drains every admitted request, and a
//     start/serve/stop cycle leaks no file descriptors;
//   - configuration: a server with zero workers is refused at
//     construction in every build type;
//   - concurrent clients racing an epoch-publishing writer (the TSan CI
//     lane runs this suite): every response is a consistent snapshot;
//   - workload determinism: same seed ⇒ byte-identical request stream;
//   - write-side robustness: send_all never throws and honors its
//     deadline against a stalled peer, a client that pipelines without
//     reading is dropped without wedging the acceptor, and
//     client::receive's timeout is one deadline even under trickled
//     bytes.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "opwat/eval/scenario.hpp"
#include "opwat/net/tcp.hpp"
#include "opwat/portal/client.hpp"
#include "opwat/portal/protocol.hpp"
#include "opwat/portal/server.hpp"
#include "opwat/portal/workload.hpp"
#include "opwat/serve/query.hpp"
#include "opwat/serve/shared_catalog.hpp"
#include "opwat/util/bounded_queue.hpp"
#include "opwat/util/latency.hpp"
#include "opwat/util/rng.hpp"

namespace {

using namespace opwat;
using namespace opwat::portal;

// ---------------------------------------------------------------------------
// Shared fixture: one small scenario + a few pre-computed pipeline
// results, so server tests spend their time in the portal, not the
// inference pipeline.

struct corpus {
  static constexpr std::size_t k_epochs = 4;
  eval::scenario s;
  std::vector<infer::pipeline_result> prs;

  static corpus build() {
    auto cfg = eval::small_scenario_config(31);
    corpus c{eval::scenario::build(cfg), {}};
    auto pcfg = c.s.cfg.pipeline;
    for (std::size_t e = 0; e < k_epochs; ++e) {
      c.prs.push_back(c.s.run_inference(pcfg));
      pcfg.seed += 1;
    }
    return c;
  }
};

class PortalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { c_ = new corpus{corpus::build()}; }
  static void TearDownTestSuite() {
    delete c_;
    c_ = nullptr;
  }
  static corpus* c_;

  /// A shared_catalog holding the first n epochs ("e0".."e{n-1}").
  static void fill(serve::shared_catalog& cat, std::size_t n) {
    for (std::size_t e = 0; e < n; ++e)
      cat.ingest(c_->s.w, c_->s.view, c_->prs[e], "e" + std::to_string(e));
  }
};

corpus* PortalTest::c_ = nullptr;

/// Blocks worker threads inside before_execute until release(); lets
/// tests freeze the pool and fill the queue deterministically.
struct worker_gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  void block() {
    std::unique_lock<std::mutex> l{m};
    ++entered;
    cv.notify_all();
    cv.wait(l, [&] { return open; });
  }
  void wait_entered(int n) {
    std::unique_lock<std::mutex> l{m};
    cv.wait(l, [&] { return entered >= n; });
  }
  void release() {
    const std::lock_guard<std::mutex> l{m};
    open = true;
    cv.notify_all();
  }
};

request make_ping(std::uint32_t id) {
  request r;
  r.op = op_code::ping;
  r.id = id;
  return r;
}

std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Protocol round-trips.

request random_request(util::rng& r) {
  request q;
  q.op = static_cast<op_code>(r.uniform_int(0, k_n_op_codes - 1));
  q.id = static_cast<std::uint32_t>(r.uniform_int(0, 1'000'000));
  if (r.bernoulli(0.5)) q.epoch = "epoch-" + std::to_string(r.uniform_int(0, 99));
  if (r.bernoulli(0.3)) q.epoch_to = "to-" + std::to_string(r.uniform_int(0, 99));
  if (r.bernoulli(0.5))
    q.ixp_id = static_cast<std::uint32_t>(r.uniform_int(0, 1000));
  q.asn = static_cast<std::uint32_t>(r.uniform_int(0, 1 << 30));
  q.rtt_lo_ms = r.uniform(0.0, 50.0);
  q.rtt_hi_ms = q.rtt_lo_ms + r.uniform(0.0, 50.0);
  q.dim = static_cast<group_dim>(r.uniform_int(0, k_n_group_dims - 1));
  if (r.bernoulli(0.3))
    q.cls_filter = static_cast<std::uint8_t>(r.uniform_int(0, 2));
  q.limit = static_cast<std::uint32_t>(r.uniform_int(1, 10'000));
  return q;
}

response random_response(util::rng& r) {
  response p;
  p.status = static_cast<portal_errc>(r.uniform_int(0, 10));
  p.id = static_cast<std::uint32_t>(r.uniform_int(0, 1 << 30));
  p.cache_hit = r.bernoulli(0.5);
  p.epoch = "e" + std::to_string(r.uniform_int(0, 9));
  if (r.bernoulli(0.3)) p.message = "detail " + std::to_string(r.uniform_int(0, 99));
  p.total = static_cast<std::uint64_t>(r.uniform_int(0, 1 << 20));
  const auto n_rows = static_cast<std::size_t>(r.uniform_int(0, 20));
  for (std::size_t i = 0; i < n_rows; ++i) {
    row_record row;
    row.ip = static_cast<std::uint32_t>(r.uniform_int(1, 1 << 30));
    row.ixp = static_cast<std::uint32_t>(r.uniform_int(0, 500));
    row.asn = static_cast<std::uint32_t>(r.uniform_int(1, 1 << 30));
    row.cls = static_cast<std::uint8_t>(r.uniform_int(0, 2));
    row.step = static_cast<std::uint8_t>(r.uniform_int(0, 6));
    row.rtt_ms = r.bernoulli(0.8) ? r.uniform(0.0, 300.0)
                                  : std::numeric_limits<double>::quiet_NaN();
    p.rows.push_back(row);
  }
  const auto n_groups = static_cast<std::size_t>(r.uniform_int(0, 10));
  for (std::size_t i = 0; i < n_groups; ++i)
    p.groups.push_back(group_record{
        "g" + std::to_string(i),
        static_cast<std::uint64_t>(r.uniform_int(0, 1 << 20))});
  p.appeared = static_cast<std::uint64_t>(r.uniform_int(0, 1000));
  p.disappeared = static_cast<std::uint64_t>(r.uniform_int(0, 1000));
  p.reclassified = static_cast<std::uint64_t>(r.uniform_int(0, 1000));
  const auto n_labels = static_cast<std::size_t>(r.uniform_int(0, 5));
  for (std::size_t i = 0; i < n_labels; ++i)
    p.labels.push_back("l" + std::to_string(i));
  return p;
}

std::string_view payload_of(const std::string& frame) {
  return std::string_view{frame}.substr(k_frame_prefix_bytes);
}

TEST(PortalProtocol, RequestRoundTripProperty) {
  util::rng root{101};
  for (std::uint64_t i = 0; i < 500; ++i) {
    auto r = root.stream("req", i);
    const request q = random_request(r);
    const auto frame = encode_request(q);
    const request back = decode_request(payload_of(frame));
    EXPECT_EQ(q, back) << "request " << i;
    // NaN-tolerant compare is not needed: requests carry no NaN fields
    // (rtt bounds are drawn finite above; the server rejects NaN).
  }
}

TEST(PortalProtocol, ResponseRoundTripProperty) {
  util::rng root{202};
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto r = root.stream("resp", i);
    const response p = random_response(r);
    const auto frame = encode_response(p);
    const response back = decode_response(payload_of(frame));
    // operator== on double NaN is false; compare NaN positions apart.
    ASSERT_EQ(p.rows.size(), back.rows.size());
    for (std::size_t k = 0; k < p.rows.size(); ++k) {
      if (std::isnan(p.rows[k].rtt_ms)) {
        EXPECT_TRUE(std::isnan(back.rows[k].rtt_ms));
      } else {
        EXPECT_EQ(p.rows[k], back.rows[k]);
      }
    }
    response a = p;
    response b = back;
    a.rows.clear();
    b.rows.clear();
    EXPECT_EQ(a, b) << "response " << i;
  }
}

TEST(PortalProtocol, TruncationAtEveryBoundaryThrowsTyped) {
  util::rng r{303};
  const request q = random_request(r);
  const auto frame = encode_request(q);
  const auto payload = payload_of(frame);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    try {
      (void)decode_request(payload.substr(0, cut));
      FAIL() << "decode of " << cut << "/" << payload.size()
             << " bytes did not throw";
    } catch (const protocol_error& e) {
      EXPECT_TRUE(e.kind() == portal_errc::truncated ||
                  e.kind() == portal_errc::bad_frame)
          << "cut=" << cut << " kind=" << to_string(e.kind());
    }
  }
}

TEST(PortalProtocol, TrailingBytesRejected) {
  const auto frame = encode_request(make_ping(1));
  const std::string extended = std::string{payload_of(frame)} + "x";
  try {
    (void)decode_request(extended);
    FAIL() << "trailing byte accepted";
  } catch (const protocol_error& e) {
    EXPECT_EQ(e.kind(), portal_errc::bad_frame);
  }
}

TEST(PortalProtocol, BadVersionOpAndDimRejected) {
  const auto frame = encode_request(make_ping(1));
  std::string payload{payload_of(frame)};

  auto patched = payload;
  patched[0] = 99;  // version byte
  EXPECT_THROW((void)decode_request(patched), protocol_error);
  try {
    (void)decode_request(patched);
  } catch (const protocol_error& e) {
    EXPECT_EQ(e.kind(), portal_errc::bad_version);
  }

  patched = payload;
  patched[6] = 99;  // op byte: ver u8 | kind u8 | id u32 | op u8
  try {
    (void)decode_request(patched);
    FAIL() << "bad op accepted";
  } catch (const protocol_error& e) {
    EXPECT_EQ(e.kind(), portal_errc::bad_frame);
  }
}

TEST(PortalProtocol, FrameSizeEnforcesCap) {
  std::string prefix;
  wire::put_u32(prefix, k_max_payload_bytes + 1);
  EXPECT_THROW((void)frame_size(prefix), protocol_error);
  std::string ok_prefix;
  wire::put_u32(ok_prefix, 16);
  EXPECT_EQ(frame_size(ok_prefix), 16u + k_frame_prefix_bytes);
  EXPECT_FALSE(frame_size("ab").has_value());  // prefix incomplete
}

TEST(PortalProtocol, CacheKeyIgnoresIdAndIrrelevantFields) {
  request a;
  a.op = op_code::group_by;
  a.dim = group_dim::cls;
  a.id = 1;
  a.asn = 12345;  // irrelevant for group_by
  request b = a;
  b.id = 999;
  b.asn = 54321;
  b.rtt_lo_ms = 7.0;  // irrelevant for group_by
  EXPECT_EQ(cache_key(a), cache_key(b));
  request c = a;
  c.dim = group_dim::metro;
  EXPECT_NE(cache_key(a), cache_key(c));
  request d = a;
  d.op = op_code::member;
  EXPECT_NE(cache_key(a), cache_key(d));
}

// ---------------------------------------------------------------------------
// Server integration: loopback results match direct serve::query.

TEST_F(PortalTest, ServedResultsMatchDirectQuery) {
  serve::shared_catalog cat;
  fill(cat, 2);
  server srv{cat};
  srv.start();
  client c{"127.0.0.1", srv.port()};
  const auto snap = cat.snapshot();

  // epochs
  {
    request q;
    q.op = op_code::epochs;
    q.id = 1;
    const auto r = c.call(q);
    ASSERT_EQ(r.status, portal_errc::ok);
    EXPECT_EQ(r.labels, snap->labels());
  }

  // group_by cls on the latest epoch == direct by_class() group_counts
  {
    request q;
    q.op = op_code::group_by;
    q.dim = group_dim::cls;
    q.id = 2;
    const auto r = c.call(q);
    ASSERT_EQ(r.status, portal_errc::ok);
    EXPECT_EQ(r.epoch, "e1");  // latest resolved
    serve::query direct{*snap};
    direct.epoch("e1").by_class().top(100);
    const auto want = direct.group_counts();
    ASSERT_EQ(r.groups.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(r.groups[i].key, want[i].key);
      EXPECT_EQ(r.groups[i].count, want[i].count);
    }
  }

  // member: pick a real ASN out of the latest epoch
  {
    const auto asns = snap->at(static_cast<serve::epoch_id>(1)).asn_col();
    ASSERT_FALSE(asns.empty());
    request q;
    q.op = op_code::member;
    q.asn = asns[asns.size() / 2];
    q.limit = 10;
    q.id = 3;
    const auto r = c.call(q);
    ASSERT_EQ(r.status, portal_errc::ok);
    serve::query direct{*snap};
    direct.epoch("e1").member(net::asn{q.asn});
    EXPECT_EQ(r.total, direct.count());
    EXPECT_LE(r.rows.size(), 10u);
    for (const auto& row : r.rows) EXPECT_EQ(row.asn, q.asn);
  }

  // rtt_band: totals match, rows sorted by RTT
  {
    request q;
    q.op = op_code::rtt_band;
    q.rtt_lo_ms = 0.0;
    q.rtt_hi_ms = 5.0;
    q.limit = 50;
    q.id = 4;
    const auto r = c.call(q);
    ASSERT_EQ(r.status, portal_errc::ok);
    serve::query direct{*snap};
    direct.epoch("e1").rtt_between(0.0, 5.0);
    EXPECT_EQ(r.total, direct.count());
    for (std::size_t i = 1; i < r.rows.size(); ++i)
      EXPECT_LE(r.rows[i - 1].rtt_ms, r.rows[i].rtt_ms);
  }

  // diff e0 → e1 matches diff_epochs
  {
    request q;
    q.op = op_code::diff;
    q.epoch = "e0";
    q.epoch_to = "e1";
    q.id = 5;
    const auto r = c.call(q);
    ASSERT_EQ(r.status, portal_errc::ok);
    const auto d = serve::diff_epochs(*snap, "e0", "e1");
    EXPECT_EQ(r.appeared, d.appeared.size());
    EXPECT_EQ(r.disappeared, d.disappeared.size());
    EXPECT_EQ(r.reclassified, d.reclassified.size());
  }

  // typed errors: unknown epoch, unknown IXP, NaN band, bad class
  {
    request q;
    q.op = op_code::member;
    q.epoch = "no-such-epoch";
    q.id = 6;
    EXPECT_EQ(c.call(q).status, portal_errc::unknown_epoch);

    request q2;
    q2.op = op_code::member;
    q2.ixp_id = 999999;
    q2.id = 7;
    EXPECT_EQ(c.call(q2).status, portal_errc::unknown_ixp);

    request q3;
    q3.op = op_code::rtt_band;
    q3.rtt_lo_ms = std::numeric_limits<double>::quiet_NaN();
    q3.id = 8;
    EXPECT_EQ(c.call(q3).status, portal_errc::bad_request);

    request q4;
    q4.op = op_code::group_by;
    q4.dim = group_dim::cls;
    q4.cls_filter = 7;
    q4.id = 9;
    EXPECT_EQ(c.call(q4).status, portal_errc::bad_request);
  }

  srv.stop();
}

TEST_F(PortalTest, MalformedFramesGetTypedResponsesAndConnectionSurvives) {
  serve::shared_catalog cat;
  fill(cat, 1);
  server srv{cat};
  srv.start();
  client c{"127.0.0.1", srv.port()};

  // A structurally valid frame whose op byte is garbage: the server
  // answers with the decode error's typed status (id echoed best-effort
  // from the id field) and keeps the connection.
  auto frame = encode_request(make_ping(77));
  frame[k_frame_prefix_bytes + 6] = 99;  // op byte
  ASSERT_TRUE(net::send_all(c.fd(), frame));
  const auto bad = c.receive(5000);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, portal_errc::bad_frame);
  EXPECT_EQ(bad->id, 77u);

  // The same connection still serves valid requests.
  const auto pong = c.call(make_ping(78));
  EXPECT_EQ(pong.status, portal_errc::ok);
  EXPECT_EQ(pong.id, 78u);

  // An oversized length prefix is unrecoverable: typed response, then
  // the server drops the connection.
  std::string huge;
  wire::put_u32(huge, k_max_payload_bytes + 1);
  ASSERT_TRUE(net::send_all(c.fd(), huge));
  const auto over = c.receive(5000);
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over->status, portal_errc::oversized);
  EXPECT_THROW((void)c.receive(5000), net::socket_error);

  EXPECT_EQ(srv.stats().protocol_errors, 2u);
  srv.stop();
}

TEST_F(PortalTest, HttpDebugSurface) {
  serve::shared_catalog cat;
  fill(cat, 1);
  server srv{cat};
  srv.start();

  const auto http_get = [&](const std::string& path) {
    net::unique_fd fd{net::connect_tcp("127.0.0.1", srv.port())};
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_TRUE(net::send_all(fd.get(), req));
    std::string out;
    std::array<char, 4096> buf;
    while (true) {
      const auto n = net::recv_some(fd.get(), buf);
      if (n > 0) {
        out.append(buf.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) break;  // EOF: server closes after one exchange
      pollfd p{fd.get(), POLLIN, 0};
      ::poll(&p, 1, 5000);
    }
    return out;
  };

  const auto health = http_get("/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
  const auto epochs = http_get("/epochs");
  EXPECT_NE(epochs.find("e0"), std::string::npos);
  const auto missing = http_get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_EQ(srv.stats().http_requests, 3u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Result cache.

TEST_F(PortalTest, CacheHitsAndInvalidatesOnPublish) {
  serve::shared_catalog cat;
  fill(cat, 1);
  server srv{cat};
  srv.start();
  client c{"127.0.0.1", srv.port()};

  request q;
  q.op = op_code::group_by;
  q.dim = group_dim::cls;
  q.id = 1;

  const auto r1 = c.call(q);
  ASSERT_EQ(r1.status, portal_errc::ok);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.epoch, "e0");

  q.id = 2;
  const auto r2 = c.call(q);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.id, 2u);  // id is per-request even on a hit
  EXPECT_EQ(r2.groups.size(), r1.groups.size());

  // The concrete label and the latest-selector share one entry.
  request q_explicit = q;
  q_explicit.epoch = "e0";
  q_explicit.id = 3;
  EXPECT_TRUE(c.call(q_explicit).cache_hit);

  // Publish epoch e1: the cache clears and "latest" re-resolves.
  cat.ingest(c_->s.w, c_->s.view, c_->prs[1], "e1");
  q.id = 4;
  const auto r3 = c.call(q);
  ASSERT_EQ(r3.status, portal_errc::ok);
  EXPECT_FALSE(r3.cache_hit);
  EXPECT_EQ(r3.epoch, "e1");

  const auto s = srv.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.catalog_version, 2u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Admission control (deterministic via the before_execute gate).

TEST_F(PortalTest, FullQueueShedsWithOverloadedNeverHangs) {
  serve::shared_catalog cat;
  fill(cat, 1);
  worker_gate gate;
  server_config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.cache_entries = 0;
  cfg.before_execute = [&gate] { gate.block(); };
  server srv{cat, cfg};
  srv.start();
  client c{"127.0.0.1", srv.port()};

  c.send(make_ping(1));     // admitted, popped, worker blocks in the gate
  gate.wait_entered(1);
  c.send(make_ping(2));     // admitted, sits in the (cap-1) queue
  // Give the acceptor time to admit #2 before the sheddable ones — the
  // shed responses below prove #3/#4 arrived after it.
  for (int i = 0; i < 200 && srv.stats().requests_admitted < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  ASSERT_EQ(srv.stats().requests_admitted, 2u);
  c.send(make_ping(3));     // queue full → immediate overloaded
  c.send(make_ping(4));     // queue full → immediate overloaded

  for (std::uint32_t want : {3u, 4u}) {
    const auto r = c.receive(5000);
    ASSERT_TRUE(r.has_value()) << "shed response " << want << " never came";
    EXPECT_EQ(r->status, portal_errc::overloaded);
    EXPECT_EQ(r->id, want);
  }

  gate.release();
  for (std::uint32_t want : {1u, 2u}) {
    const auto r = c.receive(5000);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, portal_errc::ok);
    EXPECT_EQ(r->id, want);
  }
  EXPECT_EQ(srv.stats().shed_queue_full, 2u);
  srv.stop();
}

TEST_F(PortalTest, PipelineCapShedsPerConnection) {
  serve::shared_catalog cat;
  fill(cat, 1);
  worker_gate gate;
  server_config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  cfg.max_pipeline = 2;
  cfg.cache_entries = 0;
  cfg.before_execute = [&gate] { gate.block(); };
  server srv{cat, cfg};
  srv.start();
  client c{"127.0.0.1", srv.port()};

  c.send(make_ping(1));  // in flight 1 (worker blocks)
  gate.wait_entered(1);
  c.send(make_ping(2));  // in flight 2 = cap
  for (int i = 0; i < 200 && srv.stats().requests_admitted < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  c.send(make_ping(3));  // over the cap → shed
  c.send(make_ping(4));  // over the cap → shed

  for (std::uint32_t want : {3u, 4u}) {
    const auto r = c.receive(5000);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, portal_errc::overloaded);
    EXPECT_EQ(r->id, want);
  }
  // A second connection is not throttled by the first one's pipeline.
  client c2{"127.0.0.1", srv.port()};
  c2.send(make_ping(10));
  gate.release();
  EXPECT_EQ(c2.receive(5000)->status, portal_errc::ok);
  for (std::uint32_t want : {1u, 2u})
    EXPECT_EQ(c.receive(5000)->id, want);
  EXPECT_EQ(srv.stats().shed_pipeline, 2u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Graceful shutdown.

TEST_F(PortalTest, StopDrainsAdmittedRequests) {
  serve::shared_catalog cat;
  fill(cat, 1);
  worker_gate gate;
  server_config cfg;
  cfg.workers = 1;
  cfg.cache_entries = 0;
  cfg.before_execute = [&gate] { gate.block(); };
  server srv{cat, cfg};
  srv.start();
  client c{"127.0.0.1", srv.port()};

  for (std::uint32_t id : {1u, 2u, 3u}) c.send(make_ping(id));
  gate.wait_entered(1);
  for (int i = 0; i < 200 && srv.stats().requests_admitted < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  ASSERT_EQ(srv.stats().requests_admitted, 3u);

  std::thread stopper{[&] { srv.stop(); }};
  // stop() must not complete while a worker still holds a request.
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  gate.release();
  stopper.join();

  // Every admitted request got its response before the socket closed.
  for (std::uint32_t want : {1u, 2u, 3u}) {
    const auto r = c.receive(5000);
    ASSERT_TRUE(r.has_value()) << "request " << want << " was not drained";
    EXPECT_EQ(r->status, portal_errc::ok);
    EXPECT_EQ(r->id, want);
  }
  EXPECT_THROW((void)c.receive(5000), net::socket_error);  // then EOF
  EXPECT_EQ(srv.stats().responses_ok, 3u);
}

TEST_F(PortalTest, ZeroWorkersIsRejectedInEveryBuild) {
  serve::shared_catalog cat;
  fill(cat, 1);
  server_config cfg;
  cfg.workers = 0;
  EXPECT_THROW((server{cat, cfg}), std::invalid_argument);
}

TEST_F(PortalTest, StartStopLoopLeaksNoFds) {
  serve::shared_catalog cat;
  fill(cat, 1);
  // One throwaway cycle first so lazily-created descriptors (epoll
  // instances, DNS, etc.) exist before the baseline count.
  {
    server srv{cat};
    srv.start();
    client c{"127.0.0.1", srv.port()};
    EXPECT_EQ(c.call(make_ping(1)).status, portal_errc::ok);
    srv.stop();
  }
  const auto baseline = open_fds();
  for (int cycle = 0; cycle < 3; ++cycle) {
    server srv{cat};
    srv.start();
    client c{"127.0.0.1", srv.port()};
    EXPECT_EQ(c.call(make_ping(1)).status, portal_errc::ok);
    srv.stop();
  }
  EXPECT_EQ(open_fds(), baseline);
}

// ---------------------------------------------------------------------------
// Concurrency: clients race an epoch-publishing writer (TSan target).

TEST_F(PortalTest, ConcurrentClientsRacePublish) {
  serve::shared_catalog cat;
  fill(cat, 1);
  server_config cfg;
  cfg.workers = 2;
  server srv{cat, cfg};
  srv.start();

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  constexpr int k_clients = 3;

  std::vector<std::thread> clients;
  clients.reserve(k_clients);
  for (int t = 0; t < k_clients; ++t) {
    clients.emplace_back([&, t] {
      client c{"127.0.0.1", srv.port()};
      std::uint32_t id = static_cast<std::uint32_t>(t) * 1'000'000;
      while (!done.load(std::memory_order_relaxed)) {
        request q;
        q.op = (id % 2 == 0) ? op_code::group_by : op_code::epochs;
        q.dim = group_dim::cls;
        q.id = id++;
        const auto r = c.call(q);
        // Every response reflects one fully-published snapshot: the
        // resolved epoch is a label that exists, and group keys are
        // valid class names.
        if (r.status != portal_errc::ok) bad.fetch_add(1);
        if (q.op == op_code::group_by) {
          if (r.epoch.empty() || r.epoch[0] != 'e') bad.fetch_add(1);
          if (r.groups.empty() || r.groups.size() > 3) bad.fetch_add(1);
        } else if (r.labels.empty() || r.labels.front() != "e0") {
          bad.fetch_add(1);
        }
      }
    });
  }

  for (std::size_t e = 1; e < corpus::k_epochs; ++e) {
    std::this_thread::sleep_for(std::chrono::milliseconds{30});
    cat.ingest(c_->s.w, c_->s.view, c_->prs[e], "e" + std::to_string(e));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{30});
  done.store(true);
  for (auto& th : clients) th.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(srv.stats().catalog_version, corpus::k_epochs);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Workload determinism.

TEST_F(PortalTest, WorkloadIsDeterministicPerSeed) {
  serve::shared_catalog cat;
  fill(cat, 2);
  const auto snap = cat.snapshot();

  workload_config wcfg;
  wcfg.seed = 9;
  const workload a{*snap, wcfg};
  const workload b{*snap, wcfg};
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(encode_request(a.nth(i)), encode_request(b.nth(i))) << i;
    EXPECT_EQ(a.gap_s(i), b.gap_s(i)) << i;
    EXPECT_GE(a.gap_s(i), 0.0);
  }
  // Out-of-order and repeated draws do not disturb the stream.
  const auto early = encode_request(a.nth(3));
  (void)a.nth(199);
  (void)a.nth(42);
  EXPECT_EQ(encode_request(a.nth(3)), early);

  wcfg.seed = 10;
  const workload d{*snap, wcfg};
  bool differs = false;
  for (std::uint64_t i = 0; i < 200 && !differs; ++i)
    differs = encode_request(a.nth(i)) != encode_request(d.nth(i));
  EXPECT_TRUE(differs) << "different seeds produced identical streams";

  // Every generated request decodes and is servable.
  serve::shared_catalog cat2;
  fill(cat2, 2);
  server srv{cat2};
  srv.start();
  client c{"127.0.0.1", srv.port()};
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto r = c.call(a.nth(i));
    EXPECT_EQ(r.status, portal_errc::ok) << "request " << i << ": " << r.message;
  }
  srv.stop();
}

// ---------------------------------------------------------------------------
// Write-side robustness: bounded writes, stalled peers, receive deadline.

TEST_F(PortalTest, GroupByTotalIsFullCountWhenLimitTruncates) {
  serve::shared_catalog cat;
  fill(cat, 1);
  server srv{cat};
  srv.start();
  client c{"127.0.0.1", srv.port()};

  serve::query direct{*cat.snapshot()};
  direct.epoch("e0").by_asn();
  const auto all = direct.group_counts();
  ASSERT_GT(all.size(), 1u);

  request q;
  q.op = op_code::group_by;
  q.dim = group_dim::asn;
  q.limit = 1;
  q.id = 1;
  const auto r = c.call(q);
  ASSERT_EQ(r.status, portal_errc::ok);
  ASSERT_EQ(r.groups.size(), 1u);
  // total reports the FULL group count, like member/rtt_band do for
  // rows; the group list itself is the limit-capped window.
  EXPECT_EQ(r.total, all.size());
  EXPECT_EQ(r.groups[0].key, all[0].key);
  EXPECT_EQ(r.groups[0].count, all[0].count);
  srv.stop();
}

TEST(NetSendAll, HonorsDeadlineAndNeverThrowsOnDeadPeer) {
  auto listen = net::listen_tcp("127.0.0.1", 0);
  auto sender = net::connect_tcp("127.0.0.1", net::local_port(listen.get()));
  net::unique_fd receiver{
      ::accept4(listen.get(), nullptr, nullptr, SOCK_CLOEXEC)};
  ASSERT_TRUE(receiver.valid());
  net::set_nonblocking(sender.get(), true);
  const int small = 4096;
  ::setsockopt(sender.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

  // The receiver never reads: an 8 MiB write must stall, and the
  // deadline must turn the stall into `false`, not an indefinite poll.
  const std::string big(8 * 1024 * 1024, 'x');
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(net::send_all(sender.get(), big, 200));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds{5});

  // A vanished peer (RST on close with unread data) is `false` too —
  // never an exception, whatever errno the kernel picks.
  receiver.reset();
  EXPECT_FALSE(net::send_all(sender.get(), big, 200));
}

TEST_F(PortalTest, StalledReaderIsDroppedAndServerStaysResponsive) {
  serve::shared_catalog cat;
  fill(cat, 1);
  server_config cfg;
  cfg.workers = 1;
  cfg.max_pipeline = 4;
  cfg.cache_entries = 0;
  cfg.write_timeout_ms = 50;
  server srv{cat, cfg};
  srv.start();

  // A misbehaving peer: pipelines thousands of pings and never reads a
  // byte.  Its responses (mostly acceptor-written pipeline sheds) fill
  // the socket until the server's bounded write stalls; the server must
  // drop it instead of wedging the acceptor in that write.
  auto bad = net::connect_tcp("127.0.0.1", srv.port());
  net::set_nonblocking(bad.get(), true);
  const auto frame = encode_request(make_ping(1));
  // Wall-clock bound, not just an iteration cap: under sanitizers a
  // slow server can keep each send just under its budget for a long
  // time without ever stalling one outright.
  const auto flood_until =
      std::chrono::steady_clock::now() + std::chrono::seconds{2};
  for (int i = 0;
       i < 200'000 && std::chrono::steady_clock::now() < flood_until; ++i)
    if (!net::send_all(bad.get(), frame, 50)) break;  // server dropped us

  // The acceptor is alive: a well-behaved client still gets served.
  // (Before bounded writes this hung forever, so the generous timeout
  // costs nothing in the passing case.)
  client good{"127.0.0.1", srv.port()};
  good.send(make_ping(7));
  const auto r = good.receive(30'000);
  ASSERT_TRUE(r.has_value()) << "server wedged behind the stalled reader";
  EXPECT_EQ(r->status, portal_errc::ok);
  EXPECT_EQ(r->id, 7u);
  srv.stop();
}

TEST(PortalClient, ReceiveTimeoutIsOneDeadlineUnderTrickledBytes) {
  auto listen = net::listen_tcp("127.0.0.1", 0);
  client c{"127.0.0.1", net::local_port(listen.get())};
  net::unique_fd peer{::accept4(listen.get(), nullptr, nullptr, SOCK_CLOEXEC)};
  ASSERT_TRUE(peer.valid());

  std::atomic<bool> stop{false};
  std::thread trickler{[&] {
    std::string prefix;
    wire::put_u32(prefix, 64);  // a frame that never completes in time
    (void)net::send_all(peer.get(), prefix);
    for (int i = 0; i < 40 && !stop.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds{50});
      (void)net::send_all(peer.get(), "x");
    }
  }};

  // Bytes landing every 50 ms must not keep resetting a 300 ms timeout:
  // the call times out once, roughly on schedule.
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = c.receive(300);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  stop.store(true);
  trickler.join();
  EXPECT_FALSE(r.has_value());
  EXPECT_GE(elapsed, std::chrono::milliseconds{290});
  EXPECT_LT(elapsed, std::chrono::milliseconds{1500});
}

// ---------------------------------------------------------------------------
// Supporting utilities picked up by this PR.

TEST(BoundedQueue, PushPopShedAndCloseSemantics) {
  util::bounded_queue<int> q{2};
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: the shed primitive
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed
  EXPECT_EQ(q.pop(), 2);        // drains what was admitted
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), std::nullopt);  // closed + drained
}

TEST(LatencyRecorder, QuantilesAreOrderedAndMaxExact) {
  util::latency_recorder rec;
  for (std::uint64_t v = 1; v <= 10'000; ++v) rec.record_ns(v * 1000);
  EXPECT_EQ(rec.count(), 10'000u);
  EXPECT_EQ(rec.max_ns(), 10'000'000u);
  EXPECT_LE(rec.p50_ns(), rec.p99_ns());
  EXPECT_LE(rec.p99_ns(), rec.p999_ns());
  EXPECT_LE(rec.p999_ns(), rec.max_ns());
  // Log-bucketed: each quantile within one octave's sub-bucket width.
  EXPECT_NEAR(static_cast<double>(rec.p50_ns()), 5e6, 5e6 / 32.0 * 2);
  EXPECT_NEAR(static_cast<double>(rec.p99_ns()), 9.9e6, 9.9e6 / 32.0 * 2);

  util::latency_recorder other;
  other.record_ns(20'000'000);
  rec.merge(other);
  EXPECT_EQ(rec.count(), 10'001u);
  EXPECT_EQ(rec.max_ns(), 20'000'000u);
  EXPECT_EQ(rec.quantile_ns(1.0), 20'000'000u);
}

}  // namespace
