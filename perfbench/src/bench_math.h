// The benchmark's own arithmetic: percentiles and the tail-sample rule,
// span self time, the per-workload failure fractions, and the run digest.
// Kept apart from agilla_perf.cpp so bench_math_test.cpp can pin it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `values` by linear interpolation between the
/// closest ranks (the "R7" rule spreadsheets and numpy use). 0 for no
/// samples.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A tail percentile is reportable only when at least this many samples
/// lie beyond it; otherwise it is one or two outliers, not a percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Samples strictly beyond percentile `p` (in percent) out of `n`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

// ------------------------------------------------------------- self time

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of the union of `intervals` clipped to [lo, hi]: children that
/// overlap each other are counted once.
inline std::int64_t covered(std::vector<Interval> intervals, std::int64_t lo,
                            std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (const Interval& i : intervals) {
    const std::int64_t s = std::max(i.start, reach);
    const std::int64_t e = std::min(i.end, hi);
    if (e > s) {
      total += e - s;
      reach = e;
    }
  }
  return total;
}

/// A span's self time: its duration minus the part its children cover.
inline std::int64_t self_time(const Interval& span,
                              const std::vector<Interval>& children) {
  return (span.end - span.start) - covered(children, span.start, span.end);
}

/// Streaming form of covered() for children reported in start order (how
/// a single-threaded tracer closes nested spans): O(1) memory per parent.
class Coverage {
 public:
  void add(std::int64_t start, std::int64_t end) {
    const std::int64_t s = std::max(start, reach_);
    if (end > s) {
      total_ += end - s;
      reach_ = end;
    }
  }
  [[nodiscard]] std::int64_t total() const { return total_; }

 private:
  std::int64_t total_ = 0;
  std::int64_t reach_ = std::numeric_limits<std::int64_t>::min();
};

// ------------------------------------------------------- failure shares

/// Failed operations over attempted ones; 0 when nothing was attempted.
struct FailShare {
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;

  [[nodiscard]] double frac() const {
    if (attempted == 0) {
      return 0.0;
    }
    return static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// Mesh workloads: failed migrations plus remote timeouts, over
/// migrations plus remote ops started.
inline FailShare mesh_fail(std::uint64_t migrations_failed,
                           std::uint64_t remote_timeouts,
                           std::uint64_t migrations_started,
                           std::uint64_t remote_started) {
  return {migrations_failed + remote_timeouts,
          migrations_started + remote_started};
}

/// Gateway workload: error replies, failed async results, protocol errors
/// and unfinished clients, over commands sent plus async ops.
inline FailShare gateway_fail(std::uint64_t error_replies,
                              std::uint64_t async_failed,
                              std::uint64_t protocol_errors,
                              std::uint64_t unfinished_clients,
                              std::uint64_t commands_sent,
                              std::uint64_t async_ops) {
  return {error_replies + async_failed + protocol_errors + unfinished_clients,
          commands_sent + async_ops};
}

// --------------------------------------------------------------- digest

/// FNV-1a over the simulated outcome of one repetition. Only virtual-time
/// quantities go in, so equal digests mean equal simulations.
class Digest {
 public:
  void mix(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::size_t k = 0; k < size; ++k) {
      hash_ = (hash_ ^ bytes[k]) * kPrime;
    }
  }
  void mix(std::uint64_t value) { mix(&value, sizeof(value)); }
  void mix(std::string_view text) {
    mix(static_cast<std::uint64_t>(text.size()));
    mix(text.data(), text.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace perfbench
