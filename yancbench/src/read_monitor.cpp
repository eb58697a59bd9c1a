// read_monitor: monitoring queries against the controller's FS from
// several threads at once — the read path under real parallelism.
//
// Set-up builds /net with 64 switches x 32 committed flows and mounts
// /yanc/.stats.  Each thread replays its own seeded query stream every
// round (a closed loop: the next query is issued when the last returns).
// Query targets are Zipf-skewed over more distinct paths than the Vfs
// dentry cache holds, so a hot set stays cached and a cold tail does not.
// The mix, per 16 queries: 8 flow-field read_file, 2 netfs::read_flow,
// 2 readdir + stat of every entry (ls -l), 3 /yanc/.stats reads and one
// read-modify-write of a counter file the thread owns.
//
// The driver, OpenFlow and switches are not on this path.  Every time is
// taken on the wall clock: a thread asleep on a contended lock is part of
// what this workload measures.  That also exposes it to host steal, which
// made it too unsteady to gate: it is run by hand and left out of
// BENCHMARK.json (README, "Why read_monitor is not gated").
#include <algorithm>
#include <barrier>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/obs/stats_fs.hpp"

namespace yb {
namespace {

using namespace yanc;

struct Shape {
  std::size_t switches;
  std::size_t flows;  // per switch
  std::size_t threads;
  std::size_t queries;  // per thread per round
  std::size_t warmup_rounds;
};
constexpr Shape kFull{64, 32, 4, 4096, 4};
constexpr Shape kSmoke{4, 4, 2, 256, 1};

constexpr double kZipfExponent = 1.0;
/// Tail percentile: p99, with ~160 samples beyond it per round; five
/// seeds spread 0.04 of its median.
constexpr double kTailPct = 99;
constexpr std::size_t kCountersPerThread = 8;

enum class QueryKind : std::uint8_t { field, flow, listing, stats, counter };

/// Kinds of the 16 queries in each group of a stream.
constexpr std::array<QueryKind, 16> kMix{
    QueryKind::field, QueryKind::field,   QueryKind::stats,
    QueryKind::field, QueryKind::flow,    QueryKind::field,
    QueryKind::listing, QueryKind::field, QueryKind::stats,
    QueryKind::field, QueryKind::flow,    QueryKind::counter,
    QueryKind::field, QueryKind::listing, QueryKind::field,
    QueryKind::stats};

struct Query {
  QueryKind kind;
  std::uint32_t target;
};

/// Zipf(s) sampler over n ranks via the inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  std::size_t draw(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Everything a query is checked against, captured once after set-up.
struct Catalog {
  std::vector<std::string> field_paths, field_bytes;
  std::vector<std::string> flow_dirs;
  std::vector<flow::FlowSpec> flow_specs;
  std::vector<std::vector<std::string>> flow_entries;  // readdir names
  std::vector<std::string> stats_paths;
};

/// Per-thread state: stream, owned counters, ledger, latencies.
struct Worker {
  std::vector<Query> stream;
  std::vector<std::string> counter_paths;
  std::vector<std::uint64_t> counter_values;
  Ledger ledger;
  std::vector<double> latency_us;
  std::uint64_t start_ns = 0, end_ns = 0;  // last stream run, wall clock
  std::uint64_t wall_ns = 0, cpu_ns = 0;   // all stream runs so far
  alloc::Count allocs;        // allocations while traced
  std::string error;          // first wrong output seen
};

class Monitor {
 public:
  explicit Monitor(const Shape& shape) : shape_(shape) {}

  void setup() {
    vfs_ = std::make_shared<vfs::Vfs>();
    if (!netfs::mount_yanc_fs(*vfs_)) throw std::runtime_error("mount /net");
    netfs::NetDir net(vfs_);
    for (std::size_t s = 0; s < shape_.switches; ++s) {
      std::string name = "sw" + std::to_string(s + 1);
      if (net.add_switch(name)) throw std::runtime_error("add_switch");
      for (std::size_t f = 0; f < shape_.flows; ++f) {
        flow::FlowSpec spec;
        spec.match.dl_type = 0x0800;
        spec.match.nw_proto = 6;
        spec.match.nw_dst = Cidr(
            Ipv4Address(0x0a000000u + static_cast<std::uint32_t>(
                                          (s << 8) | f)),
            32);
        spec.match.tp_dst = static_cast<std::uint16_t>(1000 + f);
        spec.priority = static_cast<std::uint16_t>(100 + f);
        spec.idle_timeout = 30;
        spec.actions = {flow::Action::output(
            static_cast<std::uint16_t>(1 + (s + f) % 4))};
        if (netfs::write_flow(*vfs_,
                              "/net/switches/" + name + "/flows/f" +
                                  std::to_string(f),
                              spec))
          throw std::runtime_error("write_flow");
      }
    }
    if (!obs::mount_stats_fs(*vfs_)) throw std::runtime_error("mount stats");
    if (vfs_->mkdir("/net/.monitor")) throw std::runtime_error("mkdir");
    for (std::size_t t = 0; t < shape_.threads; ++t) {
      std::string dir = "/net/.monitor/t" + std::to_string(t);
      if (vfs_->mkdir(dir)) throw std::runtime_error("mkdir");
      for (std::size_t c = 0; c < kCountersPerThread; ++c)
        if (vfs_->write_file(dir + "/c" + std::to_string(c), "0"))
          throw std::runtime_error("counter file");
    }
  }

  /// Reads back what set-up wrote: the expected bytes of every query.
  void catalog() {
    for (std::size_t s = 0; s < shape_.switches; ++s)
      for (std::size_t f = 0; f < shape_.flows; ++f) {
        std::string dir = "/net/switches/sw" + std::to_string(s + 1) +
                          "/flows/f" + std::to_string(f);
        auto spec = netfs::read_flow(*vfs_, dir);
        auto entries = vfs_->readdir(dir);
        if (!spec || !entries) throw std::runtime_error("catalog " + dir);
        std::vector<std::string> names;
        for (const auto& e : *entries) {
          names.push_back(e.name);
          if (e.type == vfs::FileType::directory) continue;
          auto bytes = vfs_->read_file(dir + "/" + e.name);
          if (!bytes) throw std::runtime_error("catalog read");
          cat_.field_paths.push_back(dir + "/" + e.name);
          cat_.field_bytes.push_back(*bytes);
        }
        cat_.flow_dirs.push_back(dir);
        cat_.flow_specs.push_back(*spec);
        cat_.flow_entries.push_back(std::move(names));
      }
    for (const auto& path : vfs_->metrics()->export_paths())
      cat_.stats_paths.push_back("/yanc/.stats/" + path);
  }

  /// Seeded per-thread streams; targets are Zipf ranks over a seeded
  /// permutation, so the hot set is spread over switches.
  void plan(std::uint64_t seed) {
    Rng rng(seed);
    auto permuted = [&](std::size_t n) {
      std::vector<std::uint32_t> p(n);
      for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
      rng.shuffle(p);
      return p;
    };
    const auto field_perm = permuted(cat_.field_paths.size());
    const auto flow_perm = permuted(cat_.flow_dirs.size());
    const auto stats_perm = permuted(cat_.stats_paths.size());
    const Zipf field_zipf(field_perm.size(), kZipfExponent);
    const Zipf flow_zipf(flow_perm.size(), kZipfExponent);
    const Zipf stats_zipf(stats_perm.size(), kZipfExponent);
    workers_.clear();
    for (std::size_t t = 0; t < shape_.threads; ++t) {
      auto w = std::make_unique<Worker>();
      w->ledger.clock = wall_ns;
      for (std::size_t q = 0; q < shape_.queries; ++q) {
        QueryKind kind = kMix[q % kMix.size()];
        std::uint32_t target = 0;
        switch (kind) {
          case QueryKind::field:
            target = field_perm[field_zipf.draw(rng)];
            break;
          case QueryKind::flow:
          case QueryKind::listing:
            target = flow_perm[flow_zipf.draw(rng)];
            break;
          case QueryKind::stats:
            target = stats_perm[stats_zipf.draw(rng)];
            break;
          case QueryKind::counter:
            target = static_cast<std::uint32_t>(rng.below(kCountersPerThread));
            break;
        }
        w->stream.push_back(Query{kind, target});
      }
      for (std::size_t c = 0; c < kCountersPerThread; ++c)
        w->counter_paths.push_back("/net/.monitor/t" + std::to_string(t) +
                                   "/c" + std::to_string(c));
      w->counter_values.assign(kCountersPerThread, 0);
      workers_.push_back(std::move(w));
    }
  }

  std::size_t distinct_targets() const {
    return cat_.field_paths.size() + cat_.flow_dirs.size() +
           cat_.stats_paths.size() + shape_.threads * kCountersPerThread;
  }

  /// Runs one thread's whole stream once.
  void run_stream(Worker& w) {
    const std::uint64_t cpu0 = now_ns();
    w.start_ns = wall_ns();
    const alloc::Count allocs_before = alloc::thread_count();
    for (const Query& q : w.stream) {
      const std::uint64_t start = wall_ns();
      w.ledger.parent = Ledger::kOpBit | static_cast<std::uint32_t>(
                                             w.latency_us.size());
      if (!run_query(w, q) && w.error.empty())
        w.error = "query kind " + std::to_string(static_cast<int>(q.kind)) +
                  " target " + std::to_string(q.target);
      w.latency_us.push_back(static_cast<double>(wall_ns() - start) / 1e3);
    }
    if (w.ledger.on) {
      const alloc::Count after = alloc::thread_count();
      w.allocs.count += after.count - allocs_before.count;
      w.allocs.bytes += after.bytes - allocs_before.bytes;
    }
    w.end_ns = wall_ns();
    w.wall_ns += w.end_ns - w.start_ns;
    w.cpu_ns += now_ns() - cpu0;
  }

  vfs::Vfs& vfs() { return *vfs_; }
  std::vector<std::unique_ptr<Worker>>& workers() { return workers_; }
  std::size_t threads() const { return shape_.threads; }

 private:
  bool run_query(Worker& w, const Query& q) {
    Ledger& L = w.ledger;
    switch (q.kind) {
      case QueryKind::field: {
        Result<std::string> r = std::string();
        {
          Timed t(L, Kind::vfs_read);
          r = vfs_->read_file(cat_.field_paths[q.target]);
        }
        return r && *r == cat_.field_bytes[q.target];
      }
      case QueryKind::flow: {
        Result<flow::FlowSpec> r = flow::FlowSpec();
        {
          Timed t(L, Kind::netfs_read_flow);
          r = netfs::read_flow(*vfs_, cat_.flow_dirs[q.target]);
        }
        return r && *r == cat_.flow_specs[q.target];
      }
      case QueryKind::listing: {
        const std::string& dir = cat_.flow_dirs[q.target];
        Result<std::vector<vfs::DirEntry>> r =
            std::vector<vfs::DirEntry>();
        {
          Timed t(L, Kind::vfs_readdir);
          r = vfs_->readdir(dir);
        }
        const auto& want = cat_.flow_entries[q.target];
        if (!r || r->size() != want.size()) return false;
        for (std::size_t i = 0; i < want.size(); ++i) {
          if ((*r)[i].name != want[i]) return false;
          Timed t(L, Kind::vfs_stat);
          if (!vfs_->stat(dir + "/" + want[i])) return false;
        }
        return true;
      }
      case QueryKind::stats: {
        Result<std::string> r = std::string();
        {
          Timed t(L, Kind::obs_stats_read);
          r = vfs_->read_file(cat_.stats_paths[q.target]);
        }
        // Live values: the check is that one number comes back.
        if (!r || r->empty()) return false;
        std::size_t digits = 0;
        for (char c : *r) {
          if (c == '\n') break;
          if ((c < '0' || c > '9') && c != '.' && c != '-') return false;
          ++digits;
        }
        return digits > 0;
      }
      case QueryKind::counter: {
        const std::string& path = w.counter_paths[q.target];
        std::uint64_t& value = w.counter_values[q.target];
        Result<std::string> r = std::string();
        {
          Timed t(L, Kind::vfs_read);
          r = vfs_->read_file(path);
        }
        if (!r || *r != std::to_string(value)) return false;
        ++value;
        Timed t(L, Kind::vfs_write);
        return !vfs_->write_file(path, std::to_string(value));
      }
    }
    return false;
  }

  Shape shape_;
  std::shared_ptr<vfs::Vfs> vfs_;
  Catalog cat_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Worker threads that replay their streams once per round, in step.
class Pool {
 public:
  explicit Pool(Monitor& monitor)
      : monitor_(monitor), sync_(static_cast<std::ptrdiff_t>(
                               monitor.threads() + 1)) {
    for (std::size_t t = 0; t < monitor.threads(); ++t)
      threads_.emplace_back([this, t] { loop(t); });
  }
  ~Pool() {
    stop_ = true;
    sync_.arrive_and_wait();
    for (auto& th : threads_) th.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// One round on every thread.
  void round() {
    sync_.arrive_and_wait();  // start
    sync_.arrive_and_wait();  // all streams done
  }

 private:
  void loop(std::size_t t) {
    for (;;) {
      sync_.arrive_and_wait();
      if (stop_) return;
      monitor_.run_stream(*monitor_.workers()[t]);
      sync_.arrive_and_wait();
    }
  }

  Monitor& monitor_;
  std::barrier<> sync_;
  bool stop_ = false;  // written before a barrier phase the threads read after
  std::vector<std::thread> threads_;
};

/// Collects each worker's latencies into one block per round.  Every
/// thread is its own closed-loop client, so the round's throughput is the
/// sum of the threads' query rates, each over its own stream's wall time
/// (waits on a lock included): a thread whose vCPU is stolen does not
/// stall the others' count.  Times are not scaled by host probes here: on
/// four threads the probes made the 10-run spreads worse.
Block collect(Monitor& monitor, Outcome& result) {
  Block b;
  double rate = 0;
  for (auto& w : monitor.workers()) {
    const double stream_s = static_cast<double>(w->end_ns - w->start_ns) / 1e9;
    rate += static_cast<double>(w->latency_us.size()) / stream_s;
    b.ops += w->latency_us.size();
    b.latency_us.insert(b.latency_us.end(), w->latency_us.begin(),
                        w->latency_us.end());
    w->latency_us.clear();
    if (!w->error.empty()) {
      result.wrong("wrong read: " + w->error);
      w->error.clear();
    }
  }
  // The round's effective length at the summed rate.
  b.wall_s = static_cast<double>(b.ops) / rate;
  b.close_rounds(1.0);
  return b;
}

/// `rounds` rounds at full parallelism, or rounds until `seconds` pass
/// (at least `min_rounds`) when rounds == 0.
std::vector<Block> measure(Monitor& monitor, Pool& pool, std::size_t rounds,
                           double seconds, std::size_t min_rounds,
                           Outcome& result) {
  std::vector<Block> out;
  const std::uint64_t t0 = wall_ns();
  for (;;) {
    if (rounds ? out.size() >= rounds
               : (out.size() >= min_rounds &&
                  static_cast<double>(wall_ns() - t0) / 1e9 >= seconds))
      break;
    pool.round();
    out.push_back(collect(monitor, result));
    out.back().finish(kTailPct);
  }
  return out;
}

}  // namespace

Outcome run_read_monitor(const Args& args) {
  Shape shape = args.smoke ? kSmoke : kFull;
  // Never more threads than cores: the workload measures parallel
  // reads, not time slicing.
  shape.threads = std::max<std::size_t>(
      1, std::min<std::size_t>(shape.threads,
                               std::thread::hardware_concurrency()));
  Outcome result;
  LayerReport report;
  const double sentinel_before = host_sentinel_ms();

  const int setups = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Monitor> monitor;
  for (int i = 0; i < setups; ++i) {
    monitor.reset();
    setup_s.push_back(timed_setup_s([&] {
      monitor = std::make_unique<Monitor>(shape);
      monitor->setup();
    }));
  }
  monitor->catalog();
  monitor->plan(args.seed);
  result.notes["distinct_targets"] =
      static_cast<double>(monitor->distinct_targets());
  result.notes["threads"] = static_cast<double>(shape.threads);

  Summary summary;
  std::uint64_t attempted = 0;
  {
    Pool pool(*monitor);
    measure(*monitor, pool, shape.warmup_rounds, 0, 0, result);
    result.notes["rss_after_warmup_mb"] = rss_mb();
    if (!args.trace) {
      auto blocks = measure(*monitor, pool, 0, args.seconds,
                            args.smoke ? 2 : 5, result);
      summary = summarize(blocks);
      attempted = summary.ops;
    } else {
      const std::size_t n = args.smoke ? 2 : 6;
      auto plain = measure(*monitor, pool, n, 0, 0, result);
      summary = summarize(plain);
      StackCounters before, after;
      before.add(monitor->vfs());
      std::uint64_t wall_before = 0;
      for (auto& w : monitor->workers()) {
        w->ledger.on = true;
        w->ledger.keep_durations = true;
        wall_before += w->wall_ns;
      }
      alloc::enable(true);
      auto traced = measure(*monitor, pool, n, 0, 0, result);
      alloc::enable(false);
      after.add(monitor->vfs());
      Ledger merged;
      std::uint64_t busy_ns = 0;  // the threads' time inside traced streams
      alloc::Count allocs;
      for (auto& w : monitor->workers()) {
        w->ledger.on = false;
        merged.merge(w->ledger);
        busy_ns += w->wall_ns;
        allocs.count += w->allocs.count;
        allocs.bytes += w->allocs.bytes;
      }
      busy_ns -= wall_before;
      Summary ts = summarize(traced);
      attempted = summary.ops + ts.ops;
      const double ops = static_cast<double>(ts.ops);
      ledger_metrics(report, merged, ts.ops, busy_ns);
      report.set("vfs.read_us", merged.p50_ns(Kind::vfs_read) / 1e3);
      report.set("vfs.stat_us", merged.p50_ns(Kind::vfs_stat) / 1e3);
      report.set("vfs.readdir_us", merged.p50_ns(Kind::vfs_readdir) / 1e3);
      report.set("vfs.write_us", merged.p50_ns(Kind::vfs_write) / 1e3);
      report.set("netfs.read_flow_us",
                 merged.p50_ns(Kind::netfs_read_flow) / 1e3);
      report.set("obs.stats_read_us",
                 merged.p50_ns(Kind::obs_stats_read) / 1e3);
      count_metrics(report, before, after, ts.ops);
      report.set("alloc.count_per_op", static_cast<double>(allocs.count) / ops);
      report.set("alloc.bytes_per_op", static_cast<double>(allocs.bytes) / ops);
      report.set("trace.overhead_pct",
                 100.0 * (1.0 - ts.throughput_per_s / summary.throughput_per_s));
      write_spans(args.trace_out, merged,
                  merged.spans().empty() ? 0 : merged.spans().front().start_ns);
      // The same streams on one thread: read.scaling_4v1, on the wall
      // clock throughputs of the two phases, which run back to back.
      std::uint64_t one_ns = 0, one_ops = 0;
      for (std::size_t r = 0; r < n; ++r) {
        for (auto& w : monitor->workers()) {
          monitor->run_stream(*w);
          one_ns += w->end_ns - w->start_ns;
        }
        one_ops += collect(*monitor, result).ops;
      }
      attempted += one_ops;
      const double one_tput =
          static_cast<double>(one_ops) / (static_cast<double>(one_ns) / 1e9);
      report.set("read.scaling_4v1", summary.raw_throughput_per_s / one_tput);
    }
  }
  // The share of the streams' wall time spent on a CPU; the rest was
  // stolen, preempted, or asleep on a contended lock.
  std::uint64_t stream_wall = 0, stream_cpu = 0;
  for (const auto& w : monitor->workers()) {
    stream_wall += w->wall_ns;
    stream_cpu += w->cpu_ns;
  }
  if (stream_wall)
    result.notes["stream_cpu_share"] =
        static_cast<double>(stream_cpu) / static_cast<double>(stream_wall);
  result.attempted = attempted;
  result.failed = 0;  // every query returns or the run is wrong
  finish_outcome(result, args, summary, setup_s, sentinel_before, report);
  return result;
}

}  // namespace yb
