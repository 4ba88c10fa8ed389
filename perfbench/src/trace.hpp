// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent).  The benchmark opens one around
// each call it makes into a library module's public functions; nesting
// comes from the scope guards, so a span's parent is whatever span was
// open on the same tracer when it started.  One tracer belongs to one
// thread.  Spans stay in memory until write() at the end of the run.
//
// A disabled tracer records nothing and its guards cost one branch, so
// the untraced run can keep the same call sites.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct span_rec {
  const char* name = "";  ///< string literal: spans never own their names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same tracer, -1 = root
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}

  /// Closes its span when it goes out of scope.
  class scope {
   public:
    scope(tracer* t, std::int32_t idx) noexcept : t_(t), idx_(idx) {}
    ~scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer* t_;
    std::int32_t idx_;
  };

  /// Opens a span named `name` (a string literal) under the innermost
  /// open span.
  [[nodiscard]] scope open(const char* name);

  [[nodiscard]] const std::vector<span_rec>& spans() const noexcept { return spans_; }
  /// Per span: its duration minus the part its direct children cover.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Summed self time per span name inside each root span named `root`:
  /// result[k][name] is the self time of `name` inside the k-th such root.
  [[nodiscard]] std::vector<std::map<std::string, std::int64_t>> self_by_root(
      const std::string& root) const;

  /// One line per span: thread, index, parent, name, start, end (ns).
  void write(std::ostream& out, int thread) const;

 private:
  void close(std::int32_t idx) noexcept;
  /// Per span: the index of its root span.
  [[nodiscard]] std::vector<std::int32_t> roots() const;

  bool enabled_;
  std::vector<span_rec> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
