// yanc::obs metrics: a lock-cheap registry of named Counters, Gauges and
// fixed-bucket latency Histograms.
//
// The paper's thesis is that *all* controller state should be observable
// through the file system; this registry is the in-memory half of that
// story, and mount_stats_fs (stats_fs.hpp) materializes it as the
// procfs-style subtree /yanc/.stats.
//
// Usage contract:
//   * registration (`registry.counter("vfs/lookup_total")`) takes a mutex
//     and is meant to happen once, at subsystem construction.  The returned
//     handle is a plain pointer with registry lifetime — hot paths keep it
//     and never touch the registry again.
//   * updates through handles are single relaxed atomic ops; concurrent
//     writers never block each other or readers.
//   * metric names are '/'-separated paths ("subsystem/metric_total");
//     /yanc/.stats turns each segment into a directory level.  Counters
//     end in `_total`, gauges describe a level (`_depth`, `_bytes`),
//     histograms end in their unit (`_ns`) and export
//     `<name>_{count,p50,p90,p99}`.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "yanc/dbg/lockdep.hpp"

namespace yanc::obs {

/// Monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, connected switches, bytes resident).
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket log-linear histogram (HdrHistogram-style): values are
/// binned into powers of two, each split into 16 linear sub-buckets, so
/// any reported percentile is within ~6% of the true value.  record() is
/// three relaxed atomic adds; percentile() walks the (fixed-size) bucket
/// array and may be called concurrently with recording.
class Histogram {
 public:
  static constexpr int kSubBits = 4;                      // 16 sub-buckets
  static constexpr int kSubCount = 1 << kSubBits;
  static constexpr int kMaxExp = 40;                      // tracks up to ~2^40
  static constexpr int kBucketCount =
      kSubCount + (kMaxExp - kSubBits) * kSubCount;

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t mean() const noexcept {
    auto n = count();
    return n == 0 ? 0 : sum() / n;
  }

  /// Value at percentile `p` in [0, 100]: the representative (midpoint)
  /// value of the bucket holding the rank-th sample.  0 when empty.
  std::uint64_t percentile(double p) const noexcept;

  static int bucket_of(std::uint64_t value) noexcept {
    if (value < kSubCount) return static_cast<int>(value);
    int msb = std::bit_width(value) - 1;
    if (msb >= kMaxExp) msb = kMaxExp - 1;  // clamp outliers into last decade
    auto sub = static_cast<int>((value >> (msb - kSubBits)) & (kSubCount - 1));
    return (msb - kSubBits + 1) * kSubCount + sub;
  }
  /// Midpoint of the value range bucket `index` covers.
  static std::uint64_t bucket_mid(int index) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

/// One exported (path, value) pair — what /yanc/.stats turns into a file.
struct ExportedValue {
  std::string path;  // e.g. "vfs/lookup_total", "vfs/op_ns_p99"
  std::string value;
};

/// Named metric storage.  Handles returned by counter()/gauge()/histogram()
/// stay valid (and stable in memory) for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create.  A name registered as one kind cannot be re-registered
  /// as another; the mismatched call returns nullptr.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Kind of a registered name, or nullopt.
  bool contains(std::string_view name) const;
  std::size_t size() const;

  /// Bumped on every registration; lets /yanc/.stats keep its tree until
  /// the name set actually changes.
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Flat export of every metric: counters and gauges one row each,
  /// histograms expanded to _count/_p50/_p90/_p99 rows.  Sorted by path.
  std::vector<ExportedValue> export_values() const;

  /// Export paths only (values are formatted on demand by value_of) —
  /// this is what /yanc/.stats builds its directory tree from.
  std::vector<std::string> export_paths() const;

  /// Current formatted value of one exported path ("vfs/op_ns_p99"),
  /// or nullopt if no metric exports that path.
  std::optional<std::string> value_of(const std::string& path) const;

 private:
  struct Entry {
    MetricKind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  template <typename T>
  T* find_or_create(std::string_view name, MetricKind kind,
                    std::deque<T>& storage, T* Entry::*slot);
  static void export_entry(const std::string& name, const Entry& entry,
                           std::vector<ExportedValue>& out);

  mutable dbg::Mutex<dbg::Rank::obs_metrics> mu_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace yanc::obs
