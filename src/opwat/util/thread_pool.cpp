#include "opwat/util/thread_pool.hpp"

#include <algorithm>

namespace opwat::util {

thread_pool::thread_pool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

thread_pool::~thread_pool() {
  {
    const mutex_lock lock{m_};
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    // Copy the job out under the lock; the epoch protocol guarantees
    // the caller cannot republish body_/n_ until every worker has
    // checked back in below, so the copies stay valid for the drain.
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t n = 0;
    {
      mutex_lock lock{m_};
      while (!stop_ && epoch_ == seen) start_cv_.wait(lock);
      if (stop_) return;
      seen = epoch_;
      body = body_;
      n = n_;
    }
    // Drain the ticket counter.  Every worker runs until no indices are
    // left, then checks in; the caller resumes only after all check-ins,
    // so no worker can still be touching job state when the next
    // parallel_for republishes it.
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*body)(i);
      } catch (...) {
        const mutex_lock lock{m_};
        if (!error_) error_ = std::current_exception();
      }
    }
    {
      const mutex_lock lock{m_};
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void thread_pool::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  {
    const mutex_lock lock{m_};
    body_ = &body;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    workers_done_ = 0;
    error_ = nullptr;
    ++epoch_;
  }
  start_cv_.notify_all();

  std::exception_ptr err;
  {
    mutex_lock lock{m_};
    while (workers_done_ != workers_.size()) done_cv_.wait(lock);
    body_ = nullptr;
    err = error_;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace opwat::util
