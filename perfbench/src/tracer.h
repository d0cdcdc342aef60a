// Span tracer for the traced run: records a span around each of the
// benchmark's own calls into a layer (api, sim, svc). Every span is folded
// into per-name count / total / self time in memory; only a bounded,
// evenly spaced sample of raw spans is kept for the span file, so a run
// with millions of spans neither drops its totals nor grows without bound.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_math.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Aggregate {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  struct RawSpan {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  ///< name id of the enclosing span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Keeps every `sample_every`-th closed span, at most `keep_max`.
  Tracer(std::uint64_t sample_every, std::size_t keep_max)
      : sample_every_(sample_every == 0 ? 1 : sample_every),
        keep_max_(keep_max) {
    names_.push_back({"(root)", 0, 0, 0});
  }

  /// Registers a span name once; the id indexes aggregates().
  std::uint32_t intern(std::string_view name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i].name == name) {
        return i;
      }
    }
    names_.push_back({std::string(name), 0, 0, 0});
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void begin(std::uint32_t name) { open_.push_back({name, now_ns(), {}}); }

  void end() {
    const std::int64_t end = now_ns();
    const Open span = open_.back();
    open_.pop_back();
    Aggregate& agg = names_[span.name];
    ++agg.count;
    agg.total_ns += end - span.start;
    agg.self_ns += (end - span.start) - span.children.total();
    if (!open_.empty()) {
      open_.back().children.add(span.start, end);
    }
    if (closed_++ % sample_every_ == 0 && sample_.size() < keep_max_) {
      sample_.push_back({span.name, open_.empty() ? 0 : open_.back().name,
                         span.start, end});
    }
  }

  [[nodiscard]] const std::vector<Aggregate>& aggregates() const {
    return names_;
  }
  [[nodiscard]] const std::vector<RawSpan>& sample() const { return sample_; }
  [[nodiscard]] std::uint64_t spans() const { return closed_; }

 private:
  struct Open {
    std::uint32_t name;
    std::int64_t start;
    Coverage children;
  };

  std::uint64_t sample_every_;
  std::size_t keep_max_;
  std::vector<Aggregate> names_;
  std::vector<Open> open_;
  std::vector<RawSpan> sample_;
  std::uint64_t closed_ = 0;
};

/// RAII span; a null tracer (the untraced runs) costs one branch.
class Span {
 public:
  Span(Tracer* tracer, std::uint32_t name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->begin(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
