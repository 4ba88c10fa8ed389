// The opwat portal server: a network-facing query front end over
// serve::shared_catalog — the piece that turns the catalog library into
// the paper's §9 public portal ("serve heavy traffic from millions of
// users" is the ROADMAP's north star; this is the serving tier).
//
// Architecture (one process, fixed thread count):
//
//   acceptor thread        epoll loop owning the listen socket and
//                          every connection's read side: accepts,
//                          assembles length-prefixed frames, decodes
//                          requests, applies ADMISSION CONTROL, and
//                          hands admitted jobs to the worker queue.
//                          Never executes a query; its writes (shed /
//                          protocol-error frames, HTTP debug replies)
//                          are bounded by cfg.write_timeout_ms, so a
//                          slow client can stall it only briefly, never
//                          forever.
//   worker pool            cfg.workers threads on a util::thread_pool,
//                          each looping pop → execute → respond.  Every
//                          query runs lock-free against a
//                          shared_catalog::snapshot() (RCU) — a writer
//                          publishing a new epoch never blocks serving.
//   bounded job queue      util::bounded_queue between the two; when it
//                          is full the acceptor sheds the request with
//                          a typed `overloaded` response immediately —
//                          under overload the portal degrades to fast
//                          rejections, never to a hang.
//
// Admission control, in order: connection cap (excess accepts get one
// `overloaded` frame and a close), per-connection in-flight cap
// (pipelining beyond cfg.max_pipeline sheds), queue capacity (full
// queue sheds).  Every shed is counted and visible in the stats op.
//
// Write policy: response frames are written inline under a
// per-connection mutex with a bounded budget (cfg.write_timeout_ms).  A
// peer that stalls a write past the budget — or errors the socket in
// any way — is marked dead: the connection is shut down so the epoll
// loop reaps it, later responses to it are dropped, and no acceptor or
// worker thread ever blocks indefinitely on a slow client.
//
// Result cache: responses of the pure query ops are cached under their
// canonical request bytes (protocol.hpp cache_key) with the epoch label
// resolved, tagged with the shared_catalog publish version.  A publish
// both bumps the version (making stale entries unreachable) and clears
// the cache via the publish hook, so readers never see pre-publish
// results for post-publish queries.
//
// Debug mode: a connection whose first bytes are "GET " is served as
// one HTTP/1.0 JSON exchange (GET /stats, /epochs, /healthz) and
// closed — enough to poke a live server with curl; the binary protocol
// is the real surface.
//
// Shutdown (stop(), also the destructor): stop accepting, close the
// listen socket, let workers DRAIN every admitted request and write its
// response, then join all threads and close every connection.  A
// request admitted before stop() always gets its response; frames still
// buffered but not yet admitted are dropped with the connection.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "opwat/net/tcp.hpp"
#include "opwat/portal/protocol.hpp"
#include "opwat/serve/shared_catalog.hpp"
#include "opwat/util/annotations.hpp"
#include "opwat/util/bounded_queue.hpp"
#include "opwat/util/thread_pool.hpp"

namespace opwat::portal {

struct server_config {
  std::string bind_addr = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  std::uint16_t port = 0;
  /// Query worker threads; 0 makes the constructor throw
  /// std::invalid_argument.
  std::size_t workers = 2;
  std::size_t max_connections = 1024;
  /// Bounded job queue between acceptor and workers; a full queue sheds
  /// with `overloaded`.
  std::size_t queue_capacity = 4096;
  /// In-flight requests one connection may pipeline before shedding.
  std::size_t max_pipeline = 128;
  /// Result-cache entry cap (whole cache is cleared when exceeded and
  /// on every epoch publish); 0 disables caching.
  std::size_t cache_entries = 8192;
  /// Rows/groups per response are clamped to this, bounding frames well
  /// below the protocol's 1 MiB payload cap.
  std::uint32_t max_limit = 10000;
  /// Budget for writing one response frame; a peer that stalls a write
  /// longer than this is dropped.  Keeps every server thread's writes
  /// bounded — -1 (wait forever) is only sane for trusted loopback
  /// peers.
  int write_timeout_ms = 5000;
  /// Test instrumentation: when set, workers call this before executing
  /// each admitted request (tests block it to make overload and
  /// admission-limit behavior deterministic).  Leave empty in
  /// production.
  std::function<void()> before_execute;
};

/// Counter snapshot (stats() and the `stats` op / GET /stats).
struct server_stats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_pipeline = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t accept_errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t catalog_version = 0;
  /// Health mirror (set_health): 1 when the served snapshot is not the
  /// full intact store — epochs were quarantined by a recover-mode load,
  /// or a reload was rejected and the previous snapshot is still up.
  std::uint64_t degraded = 0;
  /// Epoch records a recover-mode load dropped (corrupt / torn tail).
  std::uint64_t quarantined_epochs = 0;
  /// Bytes the salvage walk discarded from the store file's tail.
  std::uint64_t bytes_truncated = 0;
  /// Reloads (SIGHUP) rejected while the server kept the old snapshot.
  std::uint64_t reload_failures = 0;
};

/// What the operator of a self-healing portal needs to see: is the
/// served catalog the whole intact store, or did recovery/quarantine
/// shrink it?  Owned by whoever loads the store (opwatd, tests) and
/// pushed into the server with set_health(); surfaced through
/// GET /healthz ("degraded"), GET /stats and the binary stats op.
struct health_status {
  bool degraded = false;
  std::uint64_t quarantined_epochs = 0;
  std::uint64_t bytes_truncated = 0;
  std::uint64_t reload_failures = 0;
};

class server {
 public:
  /// Binds nothing yet; start() does.  The shared_catalog must outlive
  /// the server.  The server registers itself as the catalog's publish
  /// hook for cache invalidation (one server per shared_catalog).
  explicit server(serve::shared_catalog& cat, server_config cfg = {});
  /// stop()s if still running.
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Binds, listens and launches the acceptor + worker threads.  Call
  /// once; throws net::socket_error on bind failure.
  void start();
  /// Graceful shutdown: stops accepting, drains every admitted request,
  /// joins all threads, closes every descriptor.  Idempotent.
  void stop();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] server_stats stats() const;

  /// Replaces the published health mirror (thread-safe; callable before
  /// start() and while serving — opwatd updates it after every load and
  /// SIGHUP reload attempt).
  void set_health(const health_status& h);
  [[nodiscard]] health_status health() const;

 private:
  struct counters;
  struct connection;
  struct job;
  class result_cache;

  void acceptor_loop();
  void on_accept(net::epoll_io& ep);
  /// Reads, frames and admits from one connection; returns false when
  /// the connection should be dropped from the event loop.
  bool on_readable(const std::shared_ptr<connection>& conn, bool hangup);
  void admit(const std::shared_ptr<connection>& conn, request req);
  void handle_http(const std::shared_ptr<connection>& conn);

  void worker_loop();
  void process(job& j);
  [[nodiscard]] response execute(const request& req,
                                 const serve::catalog& snap) const;
  /// Serializes and writes one response frame (thread-safe per conn).
  void respond(const std::shared_ptr<connection>& conn, const response& r);

  serve::shared_catalog& cat_;
  server_config cfg_;
  std::uint16_t port_ = 0;

  net::unique_fd listen_fd_;
  net::wakeup_pipe wake_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::unique_ptr<util::bounded_queue<job>> queue_;
  std::unique_ptr<util::thread_pool> pool_;
  std::thread acceptor_;
  std::thread dispatcher_;  ///< runs pool_->parallel_for over worker loops

  /// Live connections; acceptor-thread-only between start and join.
  std::unordered_map<int, std::shared_ptr<connection>> conns_;

  /// Accept-backoff state (acceptor thread only): under fd exhaustion
  /// (EMFILE/ENFILE) the listen fd is parked out of epoll until
  /// rearm_listen_at_, else level-triggered epoll would busy-spin on
  /// the still-readable listen socket.
  bool listen_parked_ = false;
  std::chrono::steady_clock::time_point rearm_listen_at_{};

  std::unique_ptr<counters> stats_;
  std::unique_ptr<result_cache> cache_;

  mutable util::annotated_mutex health_mu_;
  health_status health_ OPWAT_GUARDED_BY(health_mu_);
};

}  // namespace opwat::portal
