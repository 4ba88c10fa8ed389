// A small fixed-size worker pool for data-parallel fan-out.
//
// Deliberately work-stealing-free: the only primitive is parallel_for,
// which hands out indices from a shared atomic counter.  That is exactly
// what the inference engine's shard executor needs — shards are
// independent and similar in cost, so a ticket counter beats per-worker
// deques in both simplicity and determinism of the memory-order story
// (claim via fetch_add, publish via the completion latch).
//
// Workers are started once and reused across parallel_for calls; the
// caller blocks until every index has been processed and every worker has
// checked back in, so shard state written inside the body is safely
// visible to the caller afterwards (release on the latch, acquire on the
// wait).
//
// All shared state is guarded by the annotated mutex below and checked
// by clang's thread-safety analysis (util/annotations.hpp); workers copy
// the job pointer out under the lock before running it, so nothing
// guarded is ever touched outside m_.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "opwat/util/annotations.hpp"

namespace opwat::util {

class thread_pool {
 public:
  /// Starts `threads` workers (0 = std::thread::hardware_concurrency()).
  explicit thread_pool(std::size_t threads = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for every i in [0, n), distributed over the workers.
  /// Blocks until all n indices completed.  If any invocation throws, the
  /// first exception is rethrown here after the loop has drained (the
  /// remaining indices still run).  Reentrant calls from inside a body
  /// are not supported.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body)
      OPWAT_EXCLUDES(m_);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;

  annotated_mutex m_;
  std::condition_variable_any start_cv_;
  std::condition_variable_any done_cv_;
  bool stop_ OPWAT_GUARDED_BY(m_) = false;

  // Current job: published under m_ (workers copy body_/n_ out while
  // holding the lock), indices then claimed lock-free via next_.
  std::uint64_t epoch_ OPWAT_GUARDED_BY(m_) = 0;  ///< bumped per parallel_for
  const std::function<void(std::size_t)>* body_ OPWAT_GUARDED_BY(m_) = nullptr;
  std::size_t n_ OPWAT_GUARDED_BY(m_) = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t workers_done_ OPWAT_GUARDED_BY(m_) = 0;
  std::exception_ptr error_ OPWAT_GUARDED_BY(m_);
};

}  // namespace opwat::util
