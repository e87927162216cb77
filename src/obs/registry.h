// Metrics registry — the unified observability surface of the repository.
//
// Named counters, gauges and fixed-bucket histograms, registered once and
// incremented from hot paths with relaxed atomics (no lock on the write
// path; registration and snapshotting take a mutex that writers never
// touch). A Registry is safe to share between every shard thread of a
// UdpCluster and a background scrape thread: snapshot() observes each
// instrument atomically, so a concurrent scrape sees a consistent,
// monotonically advancing view of every counter.
//
// Two conventions keep the exporters (obs/exporters.h) trivial:
//   * counter names end in `_total` (Prometheus counter convention);
//   * instruments are identified by (name, labels); asking again for the
//     same identity returns the same instrument, which is what lets many
//     call sites — or repeated scrapes — share one cell.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace epto::obs {

/// Label set of one instrument, e.g. {{"node","3"},{"mode","logical"}}.
/// Order is preserved and significant for identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

/// Monotonically increasing count. set() exists for the mirror pattern:
/// a shard thread that already maintains plain uint64 stats (the sans-io
/// core's OrderingStats/DisseminationStats) publishes them by storing the
/// current value once per round — still monotonic, still race-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (queue depths, lags, high-water marks).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: cumulative-style export, atomic per-bucket
/// counts. Bounds are inclusive upper edges; an implicit +Inf bucket
/// catches the tail. Bounds are fixed at registration so observe() is a
/// branchless-ish linear scan plus two atomic adds — no allocation, no
/// lock, suitable for once-per-round hot paths.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// the last entry being the +Inf overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucketCounts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sumBits_{0};  // double stored as bits, CAS-added
};

/// One instrument's state, captured atomically relative to writers.
struct Sample {
  std::string name;
  Labels labels;
  Kind kind = Kind::Counter;
  std::uint64_t counter = 0;                ///< Kind::Counter
  std::int64_t gauge = 0;                   ///< Kind::Gauge
  std::vector<double> bounds;               ///< Kind::Histogram
  std::vector<std::uint64_t> buckets;       ///< parallel to bounds, +Inf last
  std::uint64_t count = 0;                  ///< Kind::Histogram
  double sum = 0.0;                         ///< Kind::Histogram
};

/// Snapshot of a whole registry, in instrument registration order.
using Snapshot = std::vector<Sample>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Re-requesting an existing (name, labels) identity
  /// returns the same instrument; requesting it with a different kind
  /// is a contract violation.
  Counter& counter(const std::string& name, const Labels& labels = {})
      EPTO_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, const Labels& labels = {}) EPTO_EXCLUDES(mutex_);
  /// `upperBounds` is only consulted on first registration; empty uses
  /// defaultBounds().
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       std::vector<double> upperBounds = {}) EPTO_EXCLUDES(mutex_);

  [[nodiscard]] Snapshot snapshot() const EPTO_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t instrumentCount() const EPTO_EXCLUDES(mutex_);

  /// {start, start*factor, ...} — `count` exponentially spaced bounds.
  [[nodiscard]] static std::vector<double> exponentialBounds(double start, double factor,
                                                             std::size_t count);
  /// 1,2,4,...,4096 — sized for per-round ball/buffer cardinalities.
  [[nodiscard]] static std::vector<double> defaultBounds();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind = Kind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& findOrCreate(const std::string& name, const Labels& labels, Kind kind,
                      std::vector<double> upperBounds) EPTO_EXCLUDES(mutex_);
  [[nodiscard]] static std::string keyOf(const std::string& name, const Labels& labels);

  mutable util::Mutex mutex_;
  /// Registration order. Entries are created under mutex_ and never
  /// destroyed before the registry, so the Counter/Gauge/Histogram
  /// references handed out stay valid and lock-free for writers.
  std::vector<std::unique_ptr<Entry>> entries_ EPTO_GUARDED_BY(mutex_);
  std::unordered_map<std::string, Entry*> index_ EPTO_GUARDED_BY(mutex_);  // keyOf -> entry
};

}  // namespace epto::obs
