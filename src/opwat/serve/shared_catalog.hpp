// Snapshot-isolated concurrent access to a serve catalog — the step
// from "one catalog per process" toward serving many portal users while
// new months are being ingested.
//
// Model: read-copy-update over an immutable catalog.
//
//   - Readers call snapshot() and get a `std::shared_ptr<const
//     catalog>`: a fully-published, immutable catalog they can run the
//     fluent queries (opwat/serve/query.hpp) on for as long as they
//     hold the pointer, with no torn state ever — a snapshot either
//     contains an epoch completely or not at all.  Acquiring the
//     snapshot is one brief shared-lock pointer copy; every query after
//     that runs on the immutable snapshot with no locks at all, so
//     any number of threads can scan the same snapshot concurrently.
//   - The writer (ingest / merge_from / load / clear) copies the
//     current catalog, mutates the private copy OUTSIDE any lock
//     readers touch, and publishes it by swapping the shared pointer
//     under a short exclusive lock.  Writers serialize among
//     themselves; readers are never blocked for the duration of an
//     ingest, only for the pointer swap.
//
// (An std::atomic<std::shared_ptr> publish was the first cut, but
// libstdc++ 12's _Sp_atomic trips TSan's race detector; the shared-
// mutex pointer copy is equivalent here and sanitizer-clean — epochs
// arrive monthly, queries arrive constantly, so the snapshot-acquire
// cost is noise.  bench_catalog_io measures it.)
//
// Cost model: publishing copies the whole catalog (columns are flat
// vectors, so this is a handful of memcpys), which is the right trade
// for the portal workload.
//
// The vectorized query engine's auxiliary structures — zone maps and
// the ASN/IP permutation indexes (opwat/serve/exec.hpp) — are built by
// epoch::rebuild_indexes before an epoch becomes reachable and are
// immutable afterwards, so they ride the published snapshot exactly
// like the columns: readers consult them lock-free while a writer
// prepares the next catalog copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "opwat/serve/catalog.hpp"
#include "opwat/util/annotations.hpp"

namespace opwat::serve {

class shared_catalog {
 public:
  /// Starts with an empty catalog (snapshot() never returns null).
  shared_catalog();
  /// Starts from an already-populated catalog.
  explicit shared_catalog(catalog initial);

  /// The current fully-published snapshot: immutable, and stays valid
  /// for the life of the pointer, unaffected by concurrent ingests.
  [[nodiscard]] std::shared_ptr<const catalog> snapshot() const;

  /// Ingests one pipeline run as a new epoch and publishes the result
  /// (see catalog::ingest).  Throws catalog_error on duplicate labels —
  /// in that case nothing is published.
  epoch_id ingest(const world::world& w, const db::merged_view& view,
                  const infer::pipeline_result& pr, std::string_view label);

  /// Replaces the published catalog with the snapshot file at `path`.
  void load(const std::string& path);
  /// load() with an explicit recovery policy (catalog::load overload).
  /// Under `recover`, a damaged file publishes its longest valid epoch
  /// prefix — the quarantined tail is visible in the returned report so
  /// the server can mark itself degraded.  An UNRECOVERABLE file
  /// (wrong magic/version) throws store_error instead of publishing an
  /// empty catalog: a reload must never silently evict the snapshot
  /// readers already depend on.
  recovery_report load(const std::string& path, recovery_policy policy);
  /// Merges the snapshot file at `path` into the published catalog
  /// (see catalog::merge_from) and publishes the result.
  void merge_from(const std::string& path);
  /// Saves the current snapshot to `path` (readers are not blocked;
  /// concurrent ingests published during the save are not included).
  void save(const std::string& path) const;
  /// Publishes an empty catalog.
  void clear();

  /// Epoch count of the current snapshot (a convenience; like every
  /// read it can be stale by the time the caller acts on it — grab a
  /// snapshot() for consistent multi-step reads).
  [[nodiscard]] std::size_t epoch_count() const;

  /// Monotone publish counter: 0 at construction, incremented by every
  /// successful publish (ingest / load / merge_from / clear).  A cache
  /// keyed on query bytes can tag entries with the version they were
  /// computed against and treat any mismatch as stale — the portal
  /// server's result cache does exactly that.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Registers the hook invoked after every publish with the new
  /// version number (replacing any previous hook; empty to unregister).
  /// The hook runs on the publishing thread AFTER the swap — a
  /// snapshot() taken inside it sees the new catalog — and outside the
  /// pointer lock, so it may take snapshots and locks freely but must
  /// not publish (that would self-deadlock on the writer mutex).
  void set_publish_hook(std::function<void(std::uint64_t)> hook);

 private:
  /// Copy-mutate-publish: runs `fn(catalog&)` on a private copy of the
  /// current catalog under the writer lock, then swaps it in.
  template <typename Fn>
  auto update(Fn&& fn);
  /// Swaps the pointer and runs the publish hook; every caller must be
  /// inside a writer_ critical section (clang-enforced).
  void publish(std::shared_ptr<const catalog> next) OPWAT_REQUIRES(writer_);

  /// Guards ONLY the pointer swap/copy.
  mutable util::annotated_shared_mutex ptr_lock_;
  std::shared_ptr<const catalog> current_ OPWAT_GUARDED_BY(ptr_lock_);
  /// Serializes copy-mutate-publish cycles.
  util::annotated_mutex writer_;
  std::atomic<std::uint64_t> version_{0};
  /// Publish hook; read/written only under writer_ (every publish path
  /// holds it), so no separate synchronization is needed.
  std::function<void(std::uint64_t)> on_publish_ OPWAT_GUARDED_BY(writer_);
};

}  // namespace opwat::serve
