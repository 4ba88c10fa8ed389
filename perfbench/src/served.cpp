// The served path, for query_direct's traced run: the same request
// stream served by an in-process portal::server at the default
// server_config (2 workers) over the catalog query_direct replays, with
// a publisher beside it.  It measures the portal (protocol, server,
// client, workload) and net layers as per-layer figures; none of them
// is gated, because on a shared 4-vCPU host every served throughput and
// latency figure moved from run to run by far more than any usable bound
// (NOTES.md has the numbers).
//
// One load-generator thread holds two connections:
//
//   closed loop   each connection keeps k_window requests in flight: two
//                 callers that each wait for their reply.
//   open loop     requests fire on the workload's bursty schedule at a
//                 fixed offered rate; latency is timed from each request's
//                 due time, so a stall is charged to every request it
//                 delays.
//
// The generator never spins: it waits in ppoll() on both sockets, with
// the time to the next due request as the timeout under a 1 ns timer
// slack.
//
// The publisher, every k_publish_period, rewrites the 3-epoch snapshot,
// appends a fourth epoch (fsync) and reloads it strictly into the shared
// catalog — opwatd's SIGHUP path — then waits until the server's stats op
// reports the new catalog version.  The epoch count is the same at every
// publish, so publish cost is too.
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <ctime>
#include <exception>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "opwat/portal/client.hpp"
#include "opwat/portal/server.hpp"
#include "opwat/portal/workload.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace opwat;

namespace {

constexpr std::size_t k_connections = 2;
/// Closed-loop requests in flight per connection.
constexpr std::size_t k_window = 1;
/// Open-loop in-flight cap per connection, below the server's default
/// per-connection pipeline limit (128): a generator that fell behind
/// must not burst its backlog into pipeline sheds.
constexpr std::size_t k_open_inflight = 64;
/// Open-loop schedule: 40 k req/s target with log-normal bursts of
/// sigma 0.7 offers 40000·e^(−0.245) ≈ 31.3 k req/s on average.
constexpr double k_target_qps = 40000.0;
constexpr double k_burstiness = 0.7;
constexpr auto k_publish_period = std::chrono::milliseconds{200};
/// Every k_sample-th request is checked against the in-process answer
/// and replayed for the per-layer attribution.
constexpr std::uint64_t k_sample = 8;
constexpr double k_warmup_s = 0.5;
constexpr int k_drain_timeout_ms = 2000;
/// Throughput and latency are taken per window, then the median window:
/// a host stall then moves one window, not the run's figure.
constexpr double k_window_s = 1.0;

using stats_map = std::unordered_map<std::string, std::uint64_t>;

stats_map fetch_stats(portal::client& c) {
  portal::request req;
  req.op = portal::op_code::stats;
  req.id = 1;
  stats_map out;
  for (const auto& g : c.call(req).groups) out.emplace(g.key, g.count);
  return out;
}

std::uint64_t delta(const stats_map& a, const stats_map& b, const char* key) {
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  const std::uint64_t va = ia == a.end() ? 0 : ia->second;
  const std::uint64_t vb = ib == b.end() ? 0 : ib->second;
  return vb - va;
}

/// One phase's accounting.  Request k of the phase has stream index
/// base + k and wire id uint32(base + k).
struct phase {
  std::uint64_t base = 0;
  std::int64_t t0_ns = 0;
  std::vector<std::int64_t> start_ns;  ///< send time (closed) or due time (open)
  std::vector<std::uint8_t> answered;
  std::vector<double> latency_ns;
  std::vector<double> done_s;   ///< per answer: receive time, from phase start
  std::vector<double> start_s;  ///< per answer: send or due time, from phase start
  std::vector<double> late_ns;  ///< open loop: send time − due time
  std::vector<double> due_s;    ///< open loop: schedule, from phase start
  std::uint64_t ok = 0, shed = 0, errors = 0, duplicates = 0, strays = 0;
  /// Sampled ok responses.
  struct sampled {
    std::uint64_t index;  ///< stream index
    portal::response resp;
    double latency_ns;
  };
  std::vector<sampled> sample;

  [[nodiscard]] std::uint64_t sent() const { return start_ns.size(); }
  [[nodiscard]] std::uint64_t unanswered() const {
    std::uint64_t n = 0;
    for (const auto a : answered) n += a == 0;
    return n;
  }
};

class load_gen {
 public:
  load_gen(std::uint16_t port, const portal::workload& wl) : wl_(wl) {
    for (std::size_t c = 0; c < k_connections; ++c)
      conns_.push_back(std::make_unique<portal::client>("127.0.0.1", port));
    inflight_.assign(k_connections, 0);
  }

  phase closed_loop(std::uint64_t base, double seconds) {
    phase ph;
    ph.base = base;
    const auto t0 = now_ns();
    ph.t0_ns = t0;
    const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      for (std::size_t c = 0; c < k_connections; ++c)
        while (inflight_[c] < k_window) send(ph, c, now_ns());
      wait_and_drain(ph, 50'000'000);
    }
    drain(ph);
    return ph;
  }

  phase open_loop(std::uint64_t base, double seconds) {
    phase ph;
    ph.base = base;
    const auto t0 = now_ns();
    ph.t0_ns = t0;
    const auto window_ns = static_cast<std::int64_t>(seconds * 1e9);
    double t = 0;
    for (std::uint64_t k = 0;; ++k) {
      t += wl_.gap_s(base + k);
      const auto due = t0 + static_cast<std::int64_t>(t * 1e9);
      if (due - t0 > window_ns) break;
      ph.due_s.push_back(t);
      // Sleep in ppoll until the due time, answering responses meanwhile.
      for (auto now = now_ns(); now < due; now = now_ns()) wait_and_drain(ph, due - now);
      const std::size_t c = k % k_connections;
      while (inflight_[c] >= k_open_inflight) {
        if (!wait_and_drain(ph, k_drain_timeout_ms * 1'000'000LL)) break;
      }
      const auto sent_at = now_ns();
      ph.late_ns.push_back(static_cast<double>(sent_at - due));
      send(ph, c, due);
    }
    drain(ph);
    return ph;
  }

 private:
  void send(phase& ph, std::size_t c, std::int64_t start) {
    const std::uint64_t i = ph.base + ph.start_ns.size();
    conns_[c]->send(wl_.nth(i));
    ph.start_ns.push_back(start);
    ph.answered.push_back(0);
    ++inflight_[c];
  }

  /// Waits up to timeout_ns for a readable socket and consumes every
  /// buffered response; false when nothing arrived.
  bool wait_and_drain(phase& ph, std::int64_t timeout_ns) {
    std::array<pollfd, k_connections> fds{};
    for (std::size_t c = 0; c < k_connections; ++c) fds[c] = pollfd{conns_[c]->fd(), POLLIN, 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return false;
    bool got = false;
    for (std::size_t c = 0; c < k_connections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (auto resp = conns_[c]->try_receive()) {
        --inflight_[c];
        account(ph, *resp);
        got = true;
      }
    }
    return got;
  }

  void drain(phase& ph) {
    while (std::any_of(inflight_.begin(), inflight_.end(), [](std::size_t n) { return n > 0; })) {
      if (!wait_and_drain(ph, k_drain_timeout_ms * 1'000'000LL)) break;  // unanswered
    }
    inflight_.assign(k_connections, 0);
  }

  void account(phase& ph, const portal::response& resp) {
    const auto now = now_ns();
    const std::uint64_t k = static_cast<std::uint32_t>(resp.id - static_cast<std::uint32_t>(ph.base));
    if (k >= ph.answered.size()) {
      ++ph.strays;
      return;
    }
    if (ph.answered[k]++ != 0) {
      ++ph.duplicates;
      return;
    }
    const auto latency = static_cast<double>(now - ph.start_ns[k]);
    ph.latency_ns.push_back(latency);
    ph.done_s.push_back(static_cast<double>(now - ph.t0_ns) / 1e9);
    ph.start_s.push_back(static_cast<double>(ph.start_ns[k] - ph.t0_ns) / 1e9);
    if (resp.status == portal::portal_errc::ok) {
      ++ph.ok;
      if (k % k_sample == 0) ph.sample.push_back(phase::sampled{ph.base + k, resp, latency});
    } else if (resp.status == portal::portal_errc::overloaded) {
      ++ph.shed;
    } else {
      ++ph.errors;
    }
  }

  const portal::workload& wl_;
  std::vector<std::unique_ptr<portal::client>> conns_;
  std::vector<std::size_t> inflight_;
};

/// The sampled requests answered in-process, with the server's responses.
struct replay_out {
  std::vector<portal::request> reqs;
  std::vector<portal::response> resps;
  double exec_ns = 0;  ///< summed in-process snapshot + execution time
};

replay_out replay_sample(const phase& ph, const portal::workload& wl, const serve::shared_catalog& shared) {
  replay_out out;
  for (const auto& smp : ph.sample) {
    const auto req = wl.nth(smp.index);
    const auto t0 = now_ns();
    const auto snap = shared.snapshot();
    (void)answer(req, *snap);
    out.exec_ns += static_cast<double>(now_ns() - t0);
    out.reqs.push_back(req);
    out.resps.push_back(smp.resp);
  }
  return out;
}

}  // namespace

void measure_served(serve::shared_catalog& shared, const fixture& fx, std::uint64_t seed,
                    double seconds, tracer& pub_tr, report& rep, layer_values& lv) {
  // Precise ppoll wake-ups for the generator (this thread).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  portal::server srv{shared};
  srv.start();
  const std::uint16_t port = srv.port();
  portal::client stats_client{"127.0.0.1", port};
  const auto served_via = [](portal::client& c) {
    return [&c](std::uint64_t v) { return fetch_stats(c)["catalog_version"] >= v; };
  };
  const auto snap_before = shared.snapshot();
  portal::workload_config wcfg;
  wcfg.target_qps = k_target_qps;
  wcfg.burstiness = k_burstiness;
  const auto wl = traffic(*snap_before, seed, wcfg);
  load_gen gen{port, wl};
  (void)gen.closed_loop(0, k_warmup_s);  // fills the result cache

  std::atomic<bool> stop{false};
  std::vector<double> live;
  std::exception_ptr pub_error;
  std::thread publisher;
  // Stops and joins the publisher on every way out, exceptions included.
  struct publisher_guard {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~publisher_guard() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } guard{stop, publisher};
  publisher = std::thread{[&] {
    try {
      portal::client c{"127.0.0.1", port};
      const auto served = served_via(c);
      const std::string path = fx.store_path + ".live";
      auto next_at = std::chrono::steady_clock::now() + k_publish_period;
      while (!stop.load()) {
        std::this_thread::sleep_until(next_at);
        if (stop.load()) break;
        live.push_back(publish_once(fx.full, fx.next, path, shared, served, pub_tr));
        next_at += k_publish_period;
      }
    } catch (...) {
      pub_error = std::current_exception();
    }
  }};
  const double closed_s = seconds / 2;
  const double open_s = seconds - closed_s;
  const auto stats0 = fetch_stats(stats_client);
  const phase closed = gen.closed_loop(10'000'000, closed_s);
  const phase open = gen.open_loop(20'000'000, open_s);
  const auto stats1 = fetch_stats(stats_client);
  stop.store(true);
  publisher.join();
  srv.stop();
  if (pub_error) {
    try {
      std::rethrow_exception(pub_error);
    } catch (const std::exception& e) {
      rep.check(false, std::string{"publisher failed: "} + e.what());
    }
  }
  rep.check(!live.empty(), "the publisher never published");

  // ---- correctness: every id answered once; sampled answers match
  // serve::query on the snapshot that served them ----
  const auto snap_after = shared.snapshot();
  std::uint64_t mismatches = 0;
  for (const phase* ph : {&closed, &open}) {
    rep.check(ph->duplicates == 0 && ph->strays == 0,
              "responses answered twice or with unknown ids (" + std::to_string(ph->duplicates) +
                  " duplicates, " + std::to_string(ph->strays) + " strays)");
    rep.check(ph->unanswered() == 0,
              std::to_string(ph->unanswered()) + " requests were never answered");
    // An error response to a well-formed request from the stream is a
    // wrong answer.  A shed is the server's typed answer to overload: it
    // is correct, but counts as a failed request below.
    rep.check(ph->errors == 0,
              std::to_string(ph->errors) + " requests were answered with an error");
    for (const auto& smp : ph->sample) {
      const auto req = wl.nth(smp.index);
      const auto bytes = canonical_bytes(smp.resp);
      // Before the first live publish the server answers from the set-up
      // snapshot, after it from the published one (same rows, one more
      // epoch label); no other snapshot is ever served.
      const bool match = bytes == canonical_bytes(answer(req, *snap_before)) ||
                         bytes == canonical_bytes(answer(req, *snap_after));
      mismatches += match ? 0 : 1;
    }
  }
  rep.check(mismatches == 0,
            std::to_string(mismatches) + " sampled served responses differ from serve::query");
  const std::uint64_t sent = closed.sent() + open.sent();
  rep.add_attempted(sent);
  rep.add_failed(sent - closed.ok - open.ok);

  const auto win = by_window(closed.done_s, closed.latency_ns, k_window_s, closed_s);
  const auto open_lat = summarize_latency(open.latency_ns);
  const double offered = offered_qps(open.due_s, open_s);
  std::vector<double> late = open.late_ns;
  const double late_p99_us = quantile(late, 0.99) / 1000.0;
  std::cout << "served closed loop (" << k_connections << " connections x " << k_window
            << " in flight): " << closed.sent() << " sent; per " << k_window_s
            << " s window: median " << median(win.count) / k_window_s << " req/s, p50 "
            << median(win.p50) / 1000.0 << " us, p99 " << median(win.p99) / 1000.0 << " us\n"
            << "served open loop: " << open.sent() << " sent, offered " << offered
            << " req/s (target " << k_target_qps << ", log-normal burst mean "
            << lognormal_burst_mean_qps(k_target_qps, k_burstiness)
            << "), generator late p99 " << late_p99_us << " us; due-time latency "
            << describe(open_lat) << "\n"
            << "served failures: shed " << closed.shed + open.shed << ", errors "
            << closed.errors + open.errors << ", unanswered "
            << closed.unanswered() + open.unanswered() << "; live publishes " << live.size()
            << "\n";

  const auto hits = delta(stats0, stats1, "cache_hits");
  const auto misses = delta(stats0, stats1, "cache_misses");
  lv["portal.cache_hit_rate"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  lv["portal.shed_queue_full"] = static_cast<double>(delta(stats0, stats1, "shed_queue_full"));
  lv["portal.shed_pipeline"] = static_cast<double>(delta(stats0, stats1, "shed_pipeline"));
  lv["portal.protocol_errors"] = static_cast<double>(delta(stats0, stats1, "protocol_errors"));
  lv["portal.requests_admitted"] =
      static_cast<double>(delta(stats0, stats1, "requests_admitted"));
  lv["portal.closed_qps"] = median(win.count) / k_window_s;
  lv["portal.closed_p50_us"] = median(win.p50) / 1000.0;
  lv["portal.closed_p99_us"] = median(win.p99) / 1000.0;
  lv["portal.open_p50_us"] = open_lat.p50_us;
  lv["portal.open_p99_us"] = open_lat.p99_us;
  lv["gen.offered_qps"] = offered;
  lv["gen.late_p99_us"] = late_p99_us;

  // Exec share: the closed loop's sampled requests replayed in-process,
  // over their client-observed latency.
  const auto plain = replay_sample(closed, wl, shared);
  double observed_ns = 0;
  for (const auto& smp : closed.sample) observed_ns += smp.latency_ns;
  lv["portal.exec_share"] = plain.exec_ns / observed_ns;
  const auto proto = time_protocol(plain.reqs, plain.resps);
  lv["portal.protocol.encode_ns"] = proto.encode_ns;
  lv["portal.protocol.decode_ns"] = proto.decode_ns;
  lv["net.bytes_per_request"] = proto.bytes_per_request;
  lv["net.bytes_per_response"] = proto.bytes_per_response;
  lv["serve.append_ms"] = median_span_ns(pub_tr, "serve.append") / 1e6;
  lv["serve.reload_ms"] = median_span_ns(pub_tr, "serve.reload") / 1e6;
  lv["serve.publishes"] = static_cast<double>(live.size());
  lv["portal.publish_ms"] = median(live);
}

}  // namespace perfbench
