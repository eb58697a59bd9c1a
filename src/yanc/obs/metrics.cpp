#include "yanc/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace yanc::obs {

std::uint64_t Histogram::bucket_mid(int index) noexcept {
  if (index < kSubCount) return static_cast<std::uint64_t>(index);
  int decade = index / kSubCount - 1 + kSubBits;  // msb of values in bucket
  int sub = index % kSubCount;
  std::uint64_t lo = (std::uint64_t{1} << decade) +
                     (static_cast<std::uint64_t>(sub) << (decade - kSubBits));
  std::uint64_t width = std::uint64_t{1} << (decade - kSubBits);
  return lo + width / 2;
}

std::uint64_t Histogram::percentile(double p) const noexcept {
  std::uint64_t total = count();
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 *
                                                   static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_mid(i);
  }
  return bucket_mid(kBucketCount - 1);  // racing writers; report the tail
}

template <typename T>
T* Registry::find_or_create(std::string_view name, MetricKind kind,
                            std::deque<T>& storage, T* Entry::*slot) {
  dbg::LockGuard lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end())
    return it->second.kind == kind ? it->second.*slot : nullptr;
  storage.emplace_back();
  Entry entry;
  entry.kind = kind;
  entry.*slot = &storage.back();
  entries_.emplace(std::string(name), entry);
  generation_.fetch_add(1, std::memory_order_release);
  return &storage.back();
}

Counter* Registry::counter(std::string_view name) {
  return find_or_create(name, MetricKind::counter, counters_,
                        &Entry::counter);
}

Gauge* Registry::gauge(std::string_view name) {
  return find_or_create(name, MetricKind::gauge, gauges_, &Entry::gauge);
}

Histogram* Registry::histogram(std::string_view name) {
  return find_or_create(name, MetricKind::histogram, histograms_,
                        &Entry::histogram);
}

bool Registry::contains(std::string_view name) const {
  dbg::LockGuard lock(mu_);
  return entries_.find(name) != entries_.end();
}

std::size_t Registry::size() const {
  dbg::LockGuard lock(mu_);
  return entries_.size();
}

namespace {

// The rows a histogram exports, `<name><suffix>`, in sorted order.  The
// sum of a service-time histogram is the stage's busy time.
constexpr std::string_view kHistogramRows[] = {"_count", "_p50", "_p90",
                                               "_p99", "_sum"};

std::string histogram_row(const Histogram& h, std::string_view suffix) {
  if (suffix == "_count") return std::to_string(h.count());
  if (suffix == "_sum") return std::to_string(h.sum());
  if (suffix == "_p50") return std::to_string(h.percentile(50));
  if (suffix == "_p90") return std::to_string(h.percentile(90));
  return std::to_string(h.percentile(99));
}

}  // namespace

std::vector<std::string> Registry::export_paths() const {
  std::vector<std::string> out;
  dbg::LockGuard lock(mu_);
  for (const auto& [name, entry] : entries_) {
    if (entry.kind == MetricKind::histogram) {
      for (std::string_view suffix : kHistogramRows)
        out.push_back(name + std::string(suffix));
    } else {
      out.push_back(name);
    }
  }
  return out;
}

std::optional<std::string> Registry::value_of(const std::string& path) const {
  dbg::LockGuard lock(mu_);
  auto it = entries_.find(path);
  if (it != entries_.end()) {
    switch (it->second.kind) {
      case MetricKind::counter:
        return std::to_string(it->second.counter->value());
      case MetricKind::gauge:
        return std::to_string(it->second.gauge->value());
      case MetricKind::histogram:
        break;  // histograms export only suffixed paths
    }
    return std::nullopt;
  }
  // Histogram sub-file: strip a known suffix and look the base name up.
  for (std::string_view suffix : kHistogramRows) {
    if (path.size() <= suffix.size() ||
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    auto base = entries_.find(path.substr(0, path.size() - suffix.size()));
    if (base == entries_.end() ||
        base->second.kind != MetricKind::histogram)
      continue;
    return histogram_row(*base->second.histogram, suffix);
  }
  return std::nullopt;
}

}  // namespace yanc::obs
