// Shared pieces of the yanc end-to-end benchmark: the seeded input
// generator, block statistics, the per-layer span ledger used by traced
// runs, and the result record every workload fills in.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace yanc::vfs {
class Vfs;
}

namespace yb {

/// Wall clock: run length and anything spanning several threads.
inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The clock the single-threaded workloads (reactive_l2, cluster_push)
/// and every set-up are timed on: the calling thread's CPU clock.  Their
/// pumped loops never wait, so it differs from the wall clock only by
/// time the vCPU was stolen or the thread preempted, which a shared VM
/// can lose in bursts of up to half its time.  read_monitor's threads can
/// sleep on a contended lock, so it times everything on wall_ns().
std::uint64_t now_ns();

/// splitmix64: the benchmark's own generator, so inputs for a seed stay
/// fixed whatever the system under test does with its own RNGs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

// --- allocation accounting (alloc.cpp) -------------------------------------

namespace alloc {
struct Count {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
/// Turns counting on for every thread (traced runs only).
void enable(bool on);
/// This thread's allocations since it started.
Count thread_count();
}  // namespace alloc

// --- span ledger ------------------------------------------------------------

/// One benchmark-timed public call into a layer of the stack.
enum class Kind : std::uint8_t {
  sw_handle_frame,
  sw_pump,
  sw_expire_flows,
  driver_poll,
  apps_poll,
  net_run,
  cluster_tick,
  cluster_round,
  dist_run,
  dist_revive,
  netfs_commit,
  netfs_read_flow,
  vfs_read,
  vfs_stat,
  vfs_readdir,
  vfs_write,
  obs_stats_read,
  kCount
};
constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);

/// Layers a span is charged to (module names of src/yanc).
/// `harness` holds cluster::Harness::tick(), the one step the benchmark
/// cannot split into public calls.
enum class Layer : std::uint8_t {
  sw, driver, apps, net, cluster, harness, dist, netfs, vfs, obs, kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* kind_name(Kind kind);
Layer layer_of(Kind kind);
const char* layer_name(Layer layer);

/// Spans of one thread.  Disabled (the untraced runs) it records nothing
/// and a Timed scope costs one branch.
class Ledger {
 public:
  struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t alloc_bytes;
    std::uint32_t parent;  // round id, or kOpBit | op id
    std::uint32_t allocs;
    Kind kind;
  };
  struct Totals {
    std::uint64_t ns = 0;
    std::uint64_t allocs = 0;
  };
  static constexpr std::uint32_t kOpBit = 0x80000000u;
  /// Spans kept for the trace file; totals keep counting past it.
  static constexpr std::size_t kMaxKept = 1u << 18;

  bool on = false;
  /// The clock spans are timed on.
  std::uint64_t (*clock)() = now_ns;
  /// Parent of the spans recorded next (round or op).
  std::uint32_t parent = 0;
  /// Per-call durations are kept only for kinds whose p50 is reported.
  bool keep_durations = false;

  void record(Kind kind, std::uint64_t start, std::uint64_t end,
              alloc::Count before, alloc::Count after);
  /// Folds another thread's ledger into this one.
  void merge(const Ledger& other);

  const std::array<Totals, kKinds>& totals() const { return totals_; }
  std::uint64_t busy_ns() const;
  /// Median duration of one kind's calls, in ns (0 when none kept).
  double p50_ns(Kind kind) const;
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::array<Totals, kKinds> totals_{};
  std::array<std::vector<std::uint32_t>, kKinds> durations_{};
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span: times the enclosed call into a layer when the ledger is on.
class Timed {
 public:
  Timed(Ledger& ledger, Kind kind) {
    if (!ledger.on) return;
    ledger_ = &ledger;
    kind_ = kind;
    before_ = alloc::thread_count();
    start_ = ledger.clock();
  }
  ~Timed() {
    if (ledger_)
      ledger_->record(kind_, start_, ledger_->clock(), before_,
                      alloc::thread_count());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Ledger* ledger_ = nullptr;
  Kind kind_{};
  alloc::Count before_;
  std::uint64_t start_ = 0;
};

// --- statistics ---------------------------------------------------------------

/// Nearest-rank percentile of `v` (sorted in place), p in (0, 100].
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);

/// One measured block: a fixed number of identical rounds.  Workloads
/// add raw wall time and per-op latencies as rounds run and call probe()
/// between rounds; each round's numbers are then scaled by the host
/// factor of the probes on either side of it.  Latencies are reduced to
/// percentiles when the block ends, so memory stays flat.
struct Block {
  double wall_s = 0;               // raw
  std::uint64_t ops = 0;
  std::vector<double> latency_us;  // raw, one per completed op
  double probe_ms = 0;             // sum of every probe of the block
  int probes = 0;
  // Filled by probe() and finish():
  double scaled_s = 0;             // wall time in reference seconds
  double p50_us = 0, tail_us = 0;  // reference microseconds
  double raw_p50_us = 0, raw_tail_us = 0;

  /// Times one host probe (outside the block's wall time) and scales the
  /// rounds since the previous probe.
  void probe();
  /// Scales the rounds since the previous probe by `factor`.
  void close_rounds(double factor);
  /// Mean probe time / nominal over the whole block.
  double host_factor() const;
  void finish(double tail_pct);

 private:
  std::vector<double> scaled_latency_us_;
  std::size_t closed_ops_ = 0;  // latencies already scaled
  double closed_wall_s_ = 0;
  double last_probe_ms_ = 0;
};

/// Block estimators shared by every workload: medians across blocks of
/// per-block throughput, p50 and tail percentile, each scaled by the
/// block's host factor (times in reference seconds).
struct Summary {
  double throughput_per_s = 0;
  double latency_p50_us = 0;
  double latency_tail_us = 0;
  // The same estimators on unscaled wall time (diagnostics).
  double raw_throughput_per_s = 0;
  double raw_latency_p50_us = 0;
  double raw_latency_tail_us = 0;
  double host_factor = 0;  // median across blocks
  std::size_t blocks = 0;
  std::uint64_t ops = 0;
};
Summary summarize(const std::vector<Block>& blocks);

// --- run record ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for smoke runs (counts and checks, meaningless timings).
  bool smoke = false;
  std::string trace_out;  // spans file written by traced runs
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Ordered name -> (value, unit).
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Free-form diagnostics printed to stderr as one JSON object.
  std::map<std::string, double> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a wrong output; the run then reports correct=false.
  void wrong(const std::string& what);
};

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();
/// Current resident set (VmRSS) in MiB.
double rss_mb();

/// Fixed reference loop (ten host probes), in ms: a host-speed
/// sentinel taken before and after each run, reported and never gated.
double host_sentinel_ms();

/// A short (~5 ms on a quiet host) reference workload independent of
/// yanc — 12k path-like string keys in an ordered map, built, probed and
/// freed — timed between rounds to follow the host's speed through a
/// run.  An untimed pass of the same work comes first, so the timed pass
/// always starts from the cache state that pass left, whatever the round
/// before it touched.  Block times on reactive_l2 scale with it with
/// slope 0.94 in log space (correlation 0.93 over 219 blocks of six runs).
double host_probe_ms();
/// host_probe_ms() on the 4-vCPU Xeon VM of README.md at full speed.
constexpr double kProbeNominalMs = 5.0;
/// Runs `setup` between two host probes; returns its wall time in
/// seconds scaled by the probes' host factor.
double timed_setup_s(const std::function<void()>& setup);

/// Writes the spans of `ledger` as tab-separated lines (kind, layer,
/// start_ns, end_ns relative to `origin_ns`, parent, allocs, bytes).
void write_spans(const std::string& path, const Ledger& ledger,
                 std::uint64_t origin_ns);

/// The per-layer metric set every traced run prints (zeros where a
/// layer is not on the workload's path), in BENCHMARK.json order.
struct LayerReport {
  std::map<std::string, double> values;
  void set(const std::string& name, double value) { values[name] = value; }
};
void emit_layer_metrics(Outcome& result, const LayerReport& report);

/// The end of every run: notes shared by all workloads, then the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
void finish_outcome(Outcome& result, const Args& args, const Summary& summary,
                    const std::vector<double>& setup_s,
                    double sentinel_before_ms, LayerReport& report);

/// Counter snapshot across the stack; deltas of two give the count
/// metrics.  Workloads add what they own (switches, transport, polls).
struct StackCounters {
  std::uint64_t vfs_total = 0, vfs_lookups = 0, vfs_writes = 0,
                vfs_metadata = 0, dcache_hit = 0, dcache_miss = 0;
  std::uint64_t coalesced = 0, batch_count = 0, batch_sum = 0,
                msgs_out = 0, retries = 0, audits = 0, resyncs = 0;
  std::uint64_t applies = 0, repairs = 0, failovers = 0,
                failover_ns_sum = 0;
  std::uint64_t dist_msgs = 0, dist_bytes = 0;
  std::uint64_t flow_mods = 0, packet_ins = 0, polls = 0;
  /// Adds one controller's Vfs op counters and registry metrics.
  void add(yanc::vfs::Vfs& vfs);
};

/// Per-op count metrics from two snapshots.
void count_metrics(LayerReport& report, const StackCounters& before,
                   const StackCounters& after, std::uint64_t ops);

/// Per-layer busy time and allocations per op, and ledger coverage.
void ledger_metrics(LayerReport& report, const Ledger& ledger,
                    std::uint64_t ops, std::uint64_t loop_wall_ns);

Outcome run_reactive_l2(const Args& args);
Outcome run_cluster_push(const Args& args);
Outcome run_read_monitor(const Args& args);

}  // namespace yb
