#include "trace.hpp"

#include <chrono>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

tracer::scope tracer::open(const char* name) {
  if (!enabled_) return scope{nullptr, -1};
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span_rec{name, now_ns(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(idx);
  return scope{this, idx};
}

void tracer::close(std::int32_t idx) noexcept {
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto p = spans_[i].parent;
    if (p >= 0) self[static_cast<std::size_t>(p)] -= spans_[i].end_ns - spans_[i].start_ns;
  }
  return self;
}

std::vector<std::int32_t> tracer::roots() const {
  // Parents always precede their children, so one forward pass suffices.
  std::vector<std::int32_t> root(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto p = spans_[i].parent;
    root[i] = p < 0 ? static_cast<std::int32_t>(i) : root[static_cast<std::size_t>(p)];
  }
  return root;
}

std::vector<std::map<std::string, std::int64_t>> tracer::self_by_root(
    const std::string& root) const {
  const auto self = self_ns();
  const auto root_of = roots();
  std::vector<std::map<std::string, std::int64_t>> out;
  std::map<std::int32_t, std::size_t> slot;  // root span index -> out index
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto r = root_of[i];
    if (root != spans_[static_cast<std::size_t>(r)].name) continue;
    auto [it, inserted] = slot.try_emplace(r, out.size());
    if (inserted) out.emplace_back();
    out[it->second][spans_[i].name] += self[i];
  }
  return out;
}

void tracer::write(std::ostream& out, int thread) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << thread << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
}

}  // namespace perfbench
