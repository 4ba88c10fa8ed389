#include "opwat/portal/server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "opwat/serve/query.hpp"
#include "opwat/util/annotations.hpp"
#include "opwat/util/contracts.hpp"
#include "opwat/util/json.hpp"

namespace opwat::portal {

namespace {

/// Ops whose ok-responses are pure functions of (request, snapshot) —
/// the cacheable set.
bool cacheable_op(op_code op) noexcept {
  switch (op) {
    case op_code::member:
    case op_code::rtt_band:
    case op_code::group_by:
    case op_code::diff:
    case op_code::epochs:
      return true;
    case op_code::ping:
    case op_code::stats:
      return false;
  }
  return false;
}

response error_response(portal_errc status, std::string msg) {
  response r;
  r.status = status;
  r.message = std::move(msg);
  return r;
}

/// How long the listen fd stays parked out of epoll after accept4 hit
/// descriptor exhaustion (effective granularity is the acceptor's
/// 200 ms epoll tick).
constexpr auto k_accept_backoff = std::chrono::milliseconds{100};

row_record to_record(const serve::iface_row& row) {
  row_record rec;
  rec.ip = row.ip.value();
  rec.ixp = row.ixp;
  rec.asn = row.asn.value;
  rec.cls = static_cast<std::uint8_t>(row.cls);
  rec.step = static_cast<std::uint8_t>(row.step);
  rec.rtt_ms = row.rtt_min_ms;
  return rec;
}

}  // namespace

// --- internal pieces ---------------------------------------------------------

struct server::counters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> responses_ok{0};
  std::atomic<std::uint64_t> responses_error{0};
  std::atomic<std::uint64_t> shed_queue_full{0};
  std::atomic<std::uint64_t> shed_pipeline{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> accept_errors{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> http_requests{0};
};

struct server::connection {
  explicit connection(net::unique_fd f) : fd(std::move(f)) {}

  net::unique_fd fd;
  /// Read-side state; acceptor thread only.
  std::string inbuf;
  bool http = false;
  /// Response frames from workers and acceptor interleave here.
  util::annotated_mutex write_mu;
  std::atomic<std::size_t> in_flight{0};
  /// Set once a write failed or stalled past the budget: later
  /// responses are dropped instead of written to a socket known bad.
  std::atomic<bool> dead{false};
};

struct server::job {
  std::shared_ptr<connection> conn;
  request req;
};

/// Version-tagged result cache keyed on canonical request bytes.  A
/// lookup only hits when the entry was computed against the current
/// publish version, so stale results are unreachable even between the
/// publish and the invalidation hook that clears them out.
class server::result_cache {
 public:
  explicit result_cache(std::size_t cap) : cap_(cap) {}

  [[nodiscard]] std::optional<response> find(const std::string& key,
                                             std::uint64_t version) const {
    const util::reader_lock lock{mu_};
    const auto it = map_.find(key);
    if (it == map_.end() || it->second.version != version) return std::nullopt;
    return it->second.resp;
  }

  void insert(std::string key, std::uint64_t version, const response& resp) {
    const util::writer_lock lock{mu_};
    if (map_.size() >= cap_) map_.clear();  // coarse but bounded
    map_.insert_or_assign(std::move(key), entry{version, resp});
  }

  void clear() {
    const util::writer_lock lock{mu_};
    map_.clear();
  }

 private:
  struct entry {
    std::uint64_t version = 0;
    response resp;
  };

  const std::size_t cap_;
  mutable util::annotated_shared_mutex mu_;
  std::unordered_map<std::string, entry> map_ OPWAT_GUARDED_BY(mu_);
};

// --- lifecycle ---------------------------------------------------------------

server::server(serve::shared_catalog& cat, server_config cfg)
    : cat_(cat),
      cfg_(std::move(cfg)),
      stats_(std::make_unique<counters>()),
      cache_(cfg_.cache_entries > 0
                 ? std::make_unique<result_cache>(cfg_.cache_entries)
                 : nullptr) {
  // Checked in every build: with no worker the server would listen and
  // admit requests it never answers.
  if (cfg_.workers == 0)
    throw std::invalid_argument{"portal server needs at least one worker"};
}

server::~server() { stop(); }

void server::start() {
  OPWAT_ASSERT(!started_, "portal server is single-use: construct a new one");
  started_ = true;

  listen_fd_ = net::listen_tcp(cfg_.bind_addr, cfg_.port);
  net::set_nonblocking(listen_fd_.get(), true);
  port_ = net::local_port(listen_fd_.get());

  queue_ = std::make_unique<util::bounded_queue<job>>(cfg_.queue_capacity);
  pool_ = std::make_unique<util::thread_pool>(cfg_.workers);

  if (cache_) {
    cat_.set_publish_hook([this](std::uint64_t) { cache_->clear(); });
  }

  acceptor_ = std::thread{[this] { acceptor_loop(); }};
  dispatcher_ = std::thread{[this] {
    pool_->parallel_for(cfg_.workers, [this](std::size_t) { worker_loop(); });
  }};
}

void server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  stopping_.store(true, std::memory_order_release);
  wake_.signal();
  // The joins and queue are guarded: a start() that threw (bind
  // failure) leaves started_ set with no threads launched, and the
  // destructor still runs this path.
  if (acceptor_.joinable()) acceptor_.join();
  // Admitted jobs drain: close() lets pop() hand out the backlog, then
  // return nullopt to every worker.
  if (queue_) queue_->close();
  if (dispatcher_.joinable()) dispatcher_.join();
  // All threads are gone; destroying the connections closes their fds.
  conns_.clear();
  listen_fd_.reset();
  cat_.set_publish_hook({});
}

server_stats server::stats() const {
  server_stats s;
  s.connections_accepted = stats_->accepted.load(std::memory_order_relaxed);
  s.connections_refused = stats_->refused.load(std::memory_order_relaxed);
  s.connections_active = stats_->active.load(std::memory_order_relaxed);
  s.requests_admitted = stats_->admitted.load(std::memory_order_relaxed);
  s.responses_ok = stats_->responses_ok.load(std::memory_order_relaxed);
  s.responses_error = stats_->responses_error.load(std::memory_order_relaxed);
  s.shed_queue_full = stats_->shed_queue_full.load(std::memory_order_relaxed);
  s.shed_pipeline = stats_->shed_pipeline.load(std::memory_order_relaxed);
  s.protocol_errors = stats_->protocol_errors.load(std::memory_order_relaxed);
  s.accept_errors = stats_->accept_errors.load(std::memory_order_relaxed);
  s.cache_hits = stats_->cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = stats_->cache_misses.load(std::memory_order_relaxed);
  s.http_requests = stats_->http_requests.load(std::memory_order_relaxed);
  s.catalog_version = cat_.version();
  const auto h = health();
  s.degraded = h.degraded ? 1 : 0;
  s.quarantined_epochs = h.quarantined_epochs;
  s.bytes_truncated = h.bytes_truncated;
  s.reload_failures = h.reload_failures;
  return s;
}

void server::set_health(const health_status& h) {
  const util::mutex_lock lock{health_mu_};
  health_ = h;
}

health_status server::health() const {
  const util::mutex_lock lock{health_mu_};
  return health_;
}

// --- acceptor ----------------------------------------------------------------

void server::acceptor_loop() {
  net::epoll_io ep;
  ep.add(listen_fd_.get());
  ep.add(wake_.fd());

  while (!stopping_.load(std::memory_order_acquire)) {
    if (listen_parked_ &&
        std::chrono::steady_clock::now() >= rearm_listen_at_) {
      ep.add(listen_fd_.get());
      listen_parked_ = false;
    }
    const auto events = ep.wait(200);
    for (const auto& e : events) {
      if (e.fd == wake_.fd()) {
        wake_.drain();
        continue;  // loop condition re-checks stopping_
      }
      if (e.fd == listen_fd_.get()) {
        on_accept(ep);
        continue;
      }
      const auto it = conns_.find(e.fd);
      if (it == conns_.end()) continue;  // already dropped this sweep
      if (!on_readable(it->second, e.hangup)) {
        ep.del(e.fd);
        stats_->active.fetch_sub(1, std::memory_order_relaxed);
        conns_.erase(it);  // fd closes when the last in-flight job drops it
      }
    }
  }
}

// opwat-lint: region(nonblocking): acceptor-thread event handlers — a blocked
// acceptor stalls every connection, so only bounded net::send_all/recv_some
// calls may touch the network here (enforced by the blocking-in-handler rule).
void server::on_accept(net::epoll_io& ep) {
  while (true) {
    net::unique_fd fd = net::accept_conn(listen_fd_.get());
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      stats_->accept_errors.fetch_add(1, std::memory_order_relaxed);
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Descriptor/buffer exhaustion: the listen fd stays readable, so
        // a plain return would make level-triggered epoll spin at 100%
        // CPU.  Park it; acceptor_loop re-arms after the backoff.
        ep.del(listen_fd_.get());
        listen_parked_ = true;
        rearm_listen_at_ = std::chrono::steady_clock::now() + k_accept_backoff;
        return;
      }
      continue;  // ECONNABORTED etc.: that connection only, keep accepting
    }
    if (conns_.size() >= cfg_.max_connections) {
      // One typed refusal, then close: the client learns WHY instantly
      // instead of timing out against a silent drop.
      stats_->refused.fetch_add(1, std::memory_order_relaxed);
      response r = error_response(portal_errc::overloaded,
                                  "connection limit reached");
      (void)net::send_all(fd.get(), encode_response(r), cfg_.write_timeout_ms);
      continue;
    }
    net::set_nodelay(fd.get());
    stats_->accepted.fetch_add(1, std::memory_order_relaxed);
    stats_->active.fetch_add(1, std::memory_order_relaxed);
    const int raw = fd.get();
    conns_.emplace(raw, std::make_shared<connection>(std::move(fd)));
    ep.add(raw);
  }
}

bool server::on_readable(const std::shared_ptr<connection>& conn, bool hangup) {
  std::array<char, 64 * 1024> buf;
  bool saw_eof = false;
  try {
    while (true) {
      const auto n = net::recv_some(conn->fd.get(), buf);
      if (n > 0) {
        conn->inbuf.append(buf.data(), static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < buf.size()) break;
        continue;
      }
      if (n == 0) saw_eof = true;
      break;  // EOF or EAGAIN
    }
  } catch (const net::socket_error&) {
    // A hard recv error (EIO, ENOTCONN, injected net-recv fault...) is
    // fatal to this connection only; escaping here would take down the
    // whole acceptor thread.  Treat it as EOF: already-admitted requests
    // still get their responses, the read side is reaped now.
    saw_eof = true;
  }

  // HTTP debug mode: a connection opening with "GET " is one JSON
  // exchange, then closed.
  if (!conn->http && conn->inbuf.size() >= 4 &&
      conn->inbuf.compare(0, 4, "GET ") == 0)
    conn->http = true;
  if (conn->http) {
    if (conn->inbuf.find("\r\n\r\n") != std::string::npos) {
      handle_http(conn);
      return false;
    }
    if (saw_eof || hangup || conn->inbuf.size() > 8 * 1024) return false;
    return true;
  }

  // Binary framing: admit every complete frame buffered so far.  One
  // cursor and one erase at the end — erasing per frame would make
  // draining a deeply pipelined buffer quadratic in its size.
  std::size_t consumed = 0;
  while (true) {
    // opwat-lint: allow(wire-safety): cursor over the connection buffer; consumed <= inbuf.size() by construction and all decoding below goes through frame_size/wire::reader
    const std::string_view rest{conn->inbuf.data() + consumed,
                                conn->inbuf.size() - consumed};
    std::optional<std::size_t> total;
    try {
      total = frame_size(rest);
    } catch (const protocol_error& e) {
      // The stream itself is unsynchronized after a bad prefix: answer
      // once, then drop the connection.
      stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      respond(conn, error_response(e.kind(), e.what()));
      return false;
    }
    if (!total || rest.size() < *total) break;
    const std::string_view payload =
        rest.substr(k_frame_prefix_bytes, *total - k_frame_prefix_bytes);
    try {
      request req = decode_request(payload);
      admit(conn, std::move(req));
    } catch (const protocol_error& e) {
      // Framing is intact, the payload is not: typed error, connection
      // keeps going.  Best-effort id echo so the client can correlate.
      stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      response r = error_response(e.kind(), e.what());
      if (payload.size() >= 6) {
        wire::reader rd{payload.substr(2, 4)};
        r.id = rd.get_u32();
      }
      respond(conn, r);
    }
    consumed += *total;
  }
  conn->inbuf.erase(0, consumed);

  if (saw_eof || hangup) {
    // Keep serving what was already admitted (workers hold the
    // connection alive and may still write on a half-closed socket) but
    // drop the read side.
    return false;
  }
  return true;
}

void server::admit(const std::shared_ptr<connection>& conn, request req) {
  if (stopping_.load(std::memory_order_acquire)) {
    response r = error_response(portal_errc::shutting_down, "server is draining");
    r.id = req.id;
    respond(conn, r);
    return;
  }
  if (conn->in_flight.load(std::memory_order_relaxed) >= cfg_.max_pipeline) {
    stats_->shed_pipeline.fetch_add(1, std::memory_order_relaxed);
    response r = error_response(portal_errc::overloaded,
                                "per-connection pipeline limit reached");
    r.id = req.id;
    respond(conn, r);
    return;
  }
  const std::uint32_t id = req.id;
  conn->in_flight.fetch_add(1, std::memory_order_relaxed);
  if (!queue_->try_push(job{conn, std::move(req)})) {
    conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    stats_->shed_queue_full.fetch_add(1, std::memory_order_relaxed);
    response r = error_response(portal_errc::overloaded, "request queue full");
    r.id = id;
    respond(conn, r);
    return;
  }
  stats_->admitted.fetch_add(1, std::memory_order_relaxed);
}

void server::handle_http(const std::shared_ptr<connection>& conn) {
  stats_->http_requests.fetch_add(1, std::memory_order_relaxed);
  // Request line: "GET <path> HTTP/1.x".
  const auto line_end = conn->inbuf.find("\r\n");
  const std::string line = conn->inbuf.substr(0, line_end);
  std::string path = "/";
  const auto sp1 = line.find(' ');
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp1 != std::string::npos && sp2 != std::string::npos)
    path = line.substr(sp1 + 1, sp2 - sp1 - 1);

  util::json_writer w;
  const char* http_status = "200 OK";
  if (path == "/healthz") {
    const auto h = health();
    w.begin_object();
    w.key("ok").value(true);
    w.key("degraded").value(h.degraded);
    w.end_object();
  } else if (path == "/stats") {
    const auto s = stats();
    w.begin_object();
    w.key("connections_accepted").value(s.connections_accepted);
    w.key("connections_refused").value(s.connections_refused);
    w.key("connections_active").value(s.connections_active);
    w.key("requests_admitted").value(s.requests_admitted);
    w.key("responses_ok").value(s.responses_ok);
    w.key("responses_error").value(s.responses_error);
    w.key("shed_queue_full").value(s.shed_queue_full);
    w.key("shed_pipeline").value(s.shed_pipeline);
    w.key("protocol_errors").value(s.protocol_errors);
    w.key("accept_errors").value(s.accept_errors);
    w.key("cache_hits").value(s.cache_hits);
    w.key("cache_misses").value(s.cache_misses);
    w.key("http_requests").value(s.http_requests);
    w.key("catalog_version").value(s.catalog_version);
    w.key("degraded").value(s.degraded);
    w.key("quarantined_epochs").value(s.quarantined_epochs);
    w.key("bytes_truncated").value(s.bytes_truncated);
    w.key("reload_failures").value(s.reload_failures);
    w.end_object();
  } else if (path == "/epochs") {
    const auto snap = cat_.snapshot();
    const auto labels = snap->labels();
    w.begin_object();
    w.key("epochs").begin_array();
    for (const auto& l : labels) w.value(l);
    w.end_array();
    w.end_object();
  } else {
    http_status = "404 Not Found";
    w.begin_object();
    w.key("error").value("unknown path; try /healthz /stats /epochs");
    w.end_object();
  }

  const std::string& body = w.str();
  std::string head = "HTTP/1.0 " + std::string{http_status} +
                     "\r\nContent-Type: application/json\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
  const util::mutex_lock lock{conn->write_mu};
  (void)net::send_all(conn->fd.get(), head + body, cfg_.write_timeout_ms);
}
// opwat-lint: endregion(nonblocking)

// --- workers -----------------------------------------------------------------

void server::worker_loop() {
  // Absolute backstop: a worker must never die (an escaped exception
  // would shrink the pool for good and terminate the process at stop()),
  // so the error-response attempt itself may not throw, and in_flight
  // must come back down no matter what.
  const auto backstop = [this](job& j, const char* what) noexcept {
    try {
      response r = error_response(portal_errc::internal, what);
      r.id = j.req.id;
      respond(j.conn, r);
    } catch (...) {
    }
    j.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
  };
  while (auto j = queue_->pop()) {
    try {
      process(*j);
    } catch (const std::exception& e) {
      backstop(*j, e.what());
    } catch (...) {
      backstop(*j, "unknown internal error");
    }
  }
}

// opwat-lint: region(nonblocking): worker request path — workers must drain
// the admitted backlog even under shutdown, so everything from dequeue to the
// response write is bounded (send_all carries cfg_.write_timeout_ms).
void server::process(job& j) {
  if (cfg_.before_execute) cfg_.before_execute();

  // Version BEFORE snapshot: if a publish lands in between, results
  // computed on the newer snapshot are tagged with the older version
  // and simply miss later — stale data is never served, only a cache
  // opportunity is lost.
  const std::uint64_t version = cat_.version();
  const auto snap = cat_.snapshot();

  request req = j.req;
  req.limit = std::min(req.limit, cfg_.max_limit);
  response resp;
  bool done = false;

  // Resolve the epoch label(s) up front so the cache key is canonical
  // ("latest" and its concrete label share an entry).
  const bool needs_epoch = req.op == op_code::member ||
                           req.op == op_code::rtt_band ||
                           req.op == op_code::group_by || req.op == op_code::diff;
  if (needs_epoch) {
    if (snap->epoch_count() == 0) {
      resp = error_response(portal_errc::unknown_epoch, "catalog holds no epochs");
      done = true;
    } else {
      const auto latest =
          snap->at(static_cast<serve::epoch_id>(snap->epoch_count() - 1)).label();
      if (req.epoch.empty()) req.epoch = latest;
      if (req.op == op_code::diff && req.epoch_to.empty()) req.epoch_to = latest;
      if (!snap->find(req.epoch)) {
        resp = error_response(portal_errc::unknown_epoch,
                              "unknown epoch label: " + req.epoch);
        done = true;
      } else if (req.op == op_code::diff && !snap->find(req.epoch_to)) {
        resp = error_response(portal_errc::unknown_epoch,
                              "unknown epoch label: " + req.epoch_to);
        done = true;
      }
    }
  }

  const bool cacheable = !done && cache_ && cacheable_op(req.op);
  std::string key;
  if (cacheable) {
    key = cache_key(req);
    if (auto hit = cache_->find(key, version)) {
      stats_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      resp = std::move(*hit);
      resp.cache_hit = true;
      done = true;
    } else {
      stats_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (!done) {
    resp = execute(req, *snap);
    if (cacheable && resp.status == portal_errc::ok)
      cache_->insert(std::move(key), version, resp);
  }

  resp.id = j.req.id;
  respond(j.conn, resp);
  j.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
}

response server::execute(const request& req, const serve::catalog& snap) const {
  response resp;
  try {
    switch (req.op) {
      case op_code::ping:
        break;

      case op_code::member: {
        serve::query q{snap};
        q.epoch(req.epoch);
        resp.epoch = req.epoch;
        if (req.ixp_id != k_no_ixp_filter) {
          if (!snap.ixp_by_id(req.ixp_id))
            return error_response(portal_errc::unknown_ixp,
                                  "unknown IXP id: " + std::to_string(req.ixp_id));
          q.at_ixp(world::ixp_id{req.ixp_id});
        }
        q.member(net::asn{req.asn});
        resp.total = q.count();
        q.page(0, req.limit);
        const auto rows = q.rows();
        resp.rows.reserve(rows.size());
        for (const auto& row : rows) resp.rows.push_back(to_record(row));
        break;
      }

      case op_code::rtt_band: {
        if (std::isnan(req.rtt_lo_ms) || std::isnan(req.rtt_hi_ms) ||
            req.rtt_lo_ms > req.rtt_hi_ms)
          return error_response(portal_errc::bad_request,
                                "rtt_band needs lo <= hi, both numbers");
        serve::query q{snap};
        q.epoch(req.epoch);
        resp.epoch = req.epoch;
        if (req.ixp_id != k_no_ixp_filter) {
          if (!snap.ixp_by_id(req.ixp_id))
            return error_response(portal_errc::unknown_ixp,
                                  "unknown IXP id: " + std::to_string(req.ixp_id));
          q.at_ixp(world::ixp_id{req.ixp_id});
        }
        q.rtt_between(req.rtt_lo_ms, req.rtt_hi_ms);
        resp.total = q.count();
        q.sort_by_rtt().page(0, req.limit);
        const auto rows = q.rows();
        resp.rows.reserve(rows.size());
        for (const auto& row : rows) resp.rows.push_back(to_record(row));
        break;
      }

      case op_code::group_by: {
        serve::query q{snap};
        q.epoch(req.epoch);
        resp.epoch = req.epoch;
        if (req.ixp_id != k_no_ixp_filter) {
          if (!snap.ixp_by_id(req.ixp_id))
            return error_response(portal_errc::unknown_ixp,
                                  "unknown IXP id: " + std::to_string(req.ixp_id));
          q.at_ixp(world::ixp_id{req.ixp_id});
        }
        if (req.cls_filter != k_no_cls_filter) {
          if (req.cls_filter >= infer::k_n_peering_classes)
            return error_response(portal_errc::bad_request,
                                  "unknown peering class " +
                                      std::to_string(req.cls_filter));
          q.cls(static_cast<infer::peering_class>(req.cls_filter));
        }
        switch (req.dim) {
          case group_dim::ixp: q.by_ixp(); break;
          case group_dim::asn: q.by_asn(); break;
          case group_dim::metro: q.by_metro(); break;
          case group_dim::cls: q.by_class(); break;
          case group_dim::step: q.by_step(); break;
        }
        // total is the FULL group count, the response window is
        // limit-capped — same split member/rtt_band get from count() +
        // page().
        const auto groups = q.group_counts();
        resp.total = groups.size();
        const std::size_t n_groups =
            std::min<std::size_t>(groups.size(), req.limit);
        resp.groups.reserve(n_groups);
        for (std::size_t i = 0; i < n_groups; ++i)
          resp.groups.push_back(group_record{groups[i].key, groups[i].count});
        break;
      }

      case op_code::diff: {
        const auto d = serve::diff_epochs(snap, req.epoch, req.epoch_to);
        resp.epoch = req.epoch;
        resp.labels = {req.epoch, req.epoch_to};
        resp.appeared = d.appeared.size();
        resp.disappeared = d.disappeared.size();
        resp.reclassified = d.reclassified.size();
        resp.total = d.appeared.size() + d.disappeared.size() +
                     d.reclassified.size();
        break;
      }

      case op_code::epochs:
        resp.labels = snap.labels();
        resp.total = resp.labels.size();
        break;

      case op_code::stats: {
        const auto s = stats();
        const auto put = [&resp](std::string_view k, std::uint64_t v) {
          resp.groups.push_back(group_record{std::string{k}, v});
        };
        put("connections_accepted", s.connections_accepted);
        put("connections_refused", s.connections_refused);
        put("connections_active", s.connections_active);
        put("requests_admitted", s.requests_admitted);
        put("responses_ok", s.responses_ok);
        put("responses_error", s.responses_error);
        put("shed_queue_full", s.shed_queue_full);
        put("shed_pipeline", s.shed_pipeline);
        put("protocol_errors", s.protocol_errors);
        put("accept_errors", s.accept_errors);
        put("cache_hits", s.cache_hits);
        put("cache_misses", s.cache_misses);
        put("http_requests", s.http_requests);
        put("catalog_version", s.catalog_version);
        put("degraded", s.degraded);
        put("quarantined_epochs", s.quarantined_epochs);
        put("bytes_truncated", s.bytes_truncated);
        put("reload_failures", s.reload_failures);
        break;
      }
    }
  } catch (const std::invalid_argument& e) {
    return error_response(portal_errc::bad_request, e.what());
  }
  return resp;
}

void server::respond(const std::shared_ptr<connection>& conn, const response& r) {
  if (r.status == portal_errc::ok)
    stats_->responses_ok.fetch_add(1, std::memory_order_relaxed);
  else
    stats_->responses_error.fetch_add(1, std::memory_order_relaxed);
  if (conn->dead.load(std::memory_order_acquire)) return;
  const std::string frame = encode_response(r);
  const util::mutex_lock lock{conn->write_mu};
  if (conn->dead.load(std::memory_order_relaxed)) return;
  if (!net::send_all(conn->fd.get(), frame, cfg_.write_timeout_ms)) {
    // Peer gone or stalled past the write budget.  Mark the connection
    // dead so no thread writes (or waits) on it again, and shut the
    // socket down so the acceptor's epoll sees EOF and reaps it.
    conn->dead.store(true, std::memory_order_release);
    ::shutdown(conn->fd.get(), SHUT_RDWR);
  }
}
// opwat-lint: endregion(nonblocking)

}  // namespace opwat::portal
