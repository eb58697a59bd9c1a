#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory_resource>
#include <set>
#include <sstream>
#include <string>
#include <time.h>

#include "yanc/vfs/vfs.hpp"

namespace yb {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

struct KindInfo {
  const char* name;
  Layer layer;
};
constexpr std::array<KindInfo, kKinds> kKindInfo{{
    {"sw.handle_frame", Layer::sw},
    {"sw.pump", Layer::sw},
    {"sw.expire_flows", Layer::sw},
    {"driver.poll", Layer::driver},
    {"apps.poll", Layer::apps},
    {"net.run", Layer::net},
    {"cluster.tick", Layer::cluster},
    {"cluster.round", Layer::harness},
    {"dist.run", Layer::dist},
    {"dist.revive", Layer::dist},
    {"netfs.commit", Layer::netfs},
    {"netfs.read_flow", Layer::netfs},
    {"vfs.read", Layer::vfs},
    {"vfs.stat", Layer::vfs},
    {"vfs.readdir", Layer::vfs},
    {"vfs.write", Layer::vfs},
    {"obs.stats_read", Layer::obs},
}};

constexpr std::array<const char*, kLayers> kLayerNames{
    "sw", "driver", "apps", "net", "cluster", "harness",
    "dist", "netfs", "vfs", "obs"};

}  // namespace

const char* kind_name(Kind kind) {
  return kKindInfo[static_cast<std::size_t>(kind)].name;
}
Layer layer_of(Kind kind) {
  return kKindInfo[static_cast<std::size_t>(kind)].layer;
}
const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

void Ledger::record(Kind kind, std::uint64_t start, std::uint64_t end,
                    alloc::Count before, alloc::Count after) {
  auto& t = totals_[static_cast<std::size_t>(kind)];
  std::uint64_t allocs = after.count - before.count;
  std::uint64_t bytes = after.bytes - before.bytes;
  t.ns += end - start;
  t.allocs += allocs;
  if (keep_durations)
    durations_[static_cast<std::size_t>(kind)].push_back(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(end - start,
                                                           UINT32_MAX)));
  if (spans_.size() < kMaxKept)
    spans_.push_back(Span{start, end, bytes, parent,
                          static_cast<std::uint32_t>(allocs), kind});
  else
    ++dropped_;
}

void Ledger::merge(const Ledger& other) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    totals_[k].ns += other.totals_[k].ns;
    totals_[k].allocs += other.totals_[k].allocs;
    durations_[k].insert(durations_[k].end(), other.durations_[k].begin(),
                         other.durations_[k].end());
  }
  for (const auto& s : other.spans_) {
    if (spans_.size() < kMaxKept)
      spans_.push_back(s);
    else
      ++dropped_;
  }
  dropped_ += other.dropped_;
}

std::uint64_t Ledger::busy_ns() const {
  std::uint64_t ns = 0;
  for (const auto& t : totals_) ns += t.ns;
  return ns;
}

double Ledger::p50_ns(Kind kind) const {
  const auto& d = durations_[static_cast<std::size_t>(kind)];
  if (d.empty()) return 0;
  std::vector<double> v(d.begin(), d.end());
  return percentile(v, 50);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Block::probe() {
  const double ms = host_probe_ms();
  const double before = last_probe_ms_ ? last_probe_ms_ : ms;
  close_rounds((before + ms) / 2 / kProbeNominalMs);
  last_probe_ms_ = ms;
  probe_ms += ms;
  ++probes;
}

void Block::close_rounds(double factor) {
  for (std::size_t i = closed_ops_; i < latency_us.size(); ++i)
    scaled_latency_us_.push_back(latency_us[i] / factor);
  closed_ops_ = latency_us.size();
  scaled_s += (wall_s - closed_wall_s_) / factor;
  closed_wall_s_ = wall_s;
}

double Block::host_factor() const {
  return probes ? probe_ms / probes / kProbeNominalMs : 1.0;
}

void Block::finish(double tail_pct) {
  p50_us = percentile(scaled_latency_us_, 50);
  tail_us = percentile(scaled_latency_us_, tail_pct);
  raw_p50_us = percentile(latency_us, 50);
  raw_tail_us = percentile(latency_us, tail_pct);
  std::vector<double>().swap(latency_us);
  std::vector<double>().swap(scaled_latency_us_);
}

Summary summarize(const std::vector<Block>& blocks) {
  // On reactive_l2 and cluster_push, times are in reference seconds: each
  // round's time and latencies are divided by the host factor of the
  // probes around it, because the VM this was measured on has phases of
  // seconds to minutes in which memory-bound code runs up to 2x slower,
  // and the probe slows with it.  read_monitor's blocks have factor 1.
  // The median across blocks absorbs what the probes miss.
  Summary s;
  std::vector<double> tput, p50, tail, raw_tput, raw_p50, raw_tail, factor;
  for (const auto& b : blocks) {
    if (b.ops == 0 || b.wall_s <= 0 || b.scaled_s <= 0) continue;
    tput.push_back(static_cast<double>(b.ops) / b.scaled_s);
    p50.push_back(b.p50_us);
    tail.push_back(b.tail_us);
    raw_tput.push_back(static_cast<double>(b.ops) / b.wall_s);
    raw_p50.push_back(b.raw_p50_us);
    raw_tail.push_back(b.raw_tail_us);
    factor.push_back(b.host_factor());
    s.ops += b.ops;
    ++s.blocks;
  }
  s.throughput_per_s = median(tput);
  s.latency_p50_us = median(p50);
  s.latency_tail_us = median(tail);
  s.raw_throughput_per_s = median(raw_tput);
  s.raw_latency_p50_us = median(raw_p50);
  s.raw_latency_tail_us = median(raw_tail);
  s.host_factor = median(factor);
  return s;
}

void Outcome::wrong(const std::string& what) {
  if (correct) std::fprintf(stderr, "yancbench: wrong output: %s\n", what.c_str());
  correct = false;
}

namespace {
double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::size_t len = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      std::istringstream fields(line.substr(len));
      double kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}
}  // namespace

double peak_rss_mb() { return status_kb("VmHWM:") / 1024.0; }
double rss_mb() { return status_kb("VmRSS:") / 1024.0; }

double host_sentinel_ms() {
  // The probe's own work, so the sentinel adds nothing to peak RSS.
  double ms = 0;
  for (int i = 0; i < 10; ++i) ms += host_probe_ms();
  return ms;
}

double timed_setup_s(const std::function<void()>& setup) {
  const double before = host_probe_ms();
  const std::uint64_t t0 = now_ns();
  setup();
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  const double after = host_probe_ms();
  return wall_s / ((before + after) / 2 / kProbeNominalMs);
}

namespace {
/// The probe's work; returns the keys found (all of them).
std::size_t probe_work(std::pmr::memory_resource* pool) {
  std::size_t found = 0;
  std::pmr::map<std::pmr::string, std::pmr::string> m(pool);
  auto key = [&](int i) {
    char buf[64];
    char* p = buf;
    auto put = [&](const char* text) {
      while (*text) *p++ = *text++;
    };
    put("/net/switches/sw");
    p = std::to_chars(p, buf + sizeof buf, i % 64).ptr;
    put("/flows/f");
    p = std::to_chars(p, buf + sizeof buf, i * 7919 % 12000).ptr;
    put("/match.nw_dst");
    return std::pmr::string(buf, p, pool);
  };
  for (int i = 0; i < 12000; ++i) {
    std::pmr::string k = key(i);
    std::pmr::string v(k.begin() + static_cast<std::ptrdiff_t>(k.size() / 2),
                       k.end(), pool);
    m.emplace(std::move(k), std::move(v));
  }
  for (int i = 0; i < 12000; ++i) found += m.count(key(i));
  return found;
}
}  // namespace

double host_probe_ms() {
  // The probe allocates from its own per-thread pool, so the heap state
  // the workload leaves behind cannot make it faster or slower.  The
  // pool (~2.5 MB) is larger than one core's L2, so the untimed pass
  // leaves the same cache contents behind whatever ran before it.
  thread_local std::pmr::unsynchronized_pool_resource pool;
  std::size_t found = probe_work(&pool);
  const std::uint64_t t0 = now_ns();
  found += probe_work(&pool);
  const std::uint64_t t1 = now_ns();
  if (found == 1) std::fputs("", stderr);  // keeps the work observable
  return static_cast<double>(t1 - t0) / 1e6;
}

void write_spans(const std::string& path, const Ledger& ledger,
                 std::uint64_t origin_ns) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "yancbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "# kind\tlayer\tstart_ns\tend_ns\tparent\tallocs\tbytes\n");
  for (const auto& s : ledger.spans()) {
    const char* parent_kind = (s.parent & Ledger::kOpBit) ? "op" : "round";
    std::fprintf(f, "%s\t%s\t%llu\t%llu\t%s:%u\t%u\t%llu\n",
                 kind_name(s.kind), layer_name(layer_of(s.kind)),
                 static_cast<unsigned long long>(s.start_ns - origin_ns),
                 static_cast<unsigned long long>(s.end_ns - origin_ns),
                 parent_kind, s.parent & ~Ledger::kOpBit, s.allocs,
                 static_cast<unsigned long long>(s.alloc_bytes));
  }
  if (ledger.dropped())
    std::fprintf(f, "# %llu further spans counted but not kept\n",
                 static_cast<unsigned long long>(ledger.dropped()));
  std::fclose(f);
}

namespace {
// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<const char*, const char*>>& layer_metric_list() {
  static const std::vector<std::pair<const char*, const char*>> list{
      {"sw.busy_us", "us"},
      {"driver.busy_us", "us"},
      {"apps.busy_us", "us"},
      {"net.busy_us", "us"},
      {"cluster.busy_us", "us"},
      {"harness.busy_us", "us"},
      {"dist.busy_us", "us"},
      {"netfs.commit_us", "us"},
      {"vfs.read_us", "us"},
      {"vfs.stat_us", "us"},
      {"vfs.readdir_us", "us"},
      {"vfs.write_us", "us"},
      {"netfs.read_flow_us", "us"},
      {"obs.stats_read_us", "us"},
      {"read.scaling_4v1", "ratio"},
      {"vfs.ops_per_op", "count"},
      {"vfs.lookups_per_op", "count"},
      {"vfs.writes_per_op", "count"},
      {"vfs.metadata_per_op", "count"},
      {"vfs.dcache_hit_ratio", "ratio"},
      {"watch.coalesced_per_op", "count"},
      {"driver.batch_size_mean", "count"},
      {"driver.msgs_out_per_op", "count"},
      {"driver.retries_per_op", "count"},
      {"sw.flow_mods_per_op", "count"},
      {"sw.packet_ins_per_op", "count"},
      {"loop.polls_per_op", "count"},
      {"dist.msgs_per_op", "count"},
      {"dist.bytes_per_op", "B"},
      {"dist.applies_per_op", "count"},
      {"cluster.failover_ms", "ms"},
      {"cluster.rounds_per_failover", "count"},
      {"cluster.failover_virtual_us", "us"},
      {"driver.resyncs_per_failover", "count"},
      {"dist.repairs_per_failover", "count"},
      {"alloc.count_per_op", "count"},
      {"alloc.bytes_per_op", "B"},
      {"sw.allocs_per_op", "count"},
      {"driver.allocs_per_op", "count"},
      {"apps.allocs_per_op", "count"},
      {"net.allocs_per_op", "count"},
      {"cluster.allocs_per_op", "count"},
      {"harness.allocs_per_op", "count"},
      {"dist.allocs_per_op", "count"},
      {"netfs.allocs_per_op", "count"},
      {"vfs.allocs_per_op", "count"},
      {"obs.allocs_per_op", "count"},
      {"ledger.coverage_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"host.sentinel_ms", "ms"},
  };
  return list;
}
}  // namespace

void emit_layer_metrics(Outcome& result, const LayerReport& report) {
  std::set<std::string> known;
  for (const auto& [name, unit] : layer_metric_list()) {
    known.insert(name);
    auto it = report.values.find(name);
    result.metric(name, it == report.values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : report.values)
    if (!known.count(name))
      std::fprintf(stderr, "yancbench: unlisted layer metric %s\n",
                   name.c_str());
}

void finish_outcome(Outcome& result, const Args& args, const Summary& summary,
                    const std::vector<double>& setup_s,
                    double sentinel_before_ms, LayerReport& report) {
  const double sentinel_after_ms = host_sentinel_ms();
  auto& notes = result.notes;
  notes["rss_end_mb"] = rss_mb();
  notes["blocks"] = static_cast<double>(summary.blocks);
  notes["host_sentinel_before_ms"] = sentinel_before_ms;
  notes["host_sentinel_after_ms"] = sentinel_after_ms;
  notes["setup_s_min"] = *std::min_element(setup_s.begin(), setup_s.end());
  notes["setup_s_max"] = *std::max_element(setup_s.begin(), setup_s.end());
  notes["raw_throughput_per_s"] = summary.raw_throughput_per_s;
  notes["raw_latency_p50_us"] = summary.raw_latency_p50_us;
  notes["raw_latency_tail_us"] = summary.raw_latency_tail_us;
  notes["host_factor"] = summary.host_factor;
  if (!args.trace) {
    result.metric("throughput_per_s", summary.throughput_per_s, "1/s");
    result.metric("latency_p50_us", summary.latency_p50_us, "us");
    result.metric("latency_tail_us", summary.latency_tail_us, "us");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    report.set("host.sentinel_ms",
               0.5 * (sentinel_before_ms + sentinel_after_ms));
    emit_layer_metrics(result, report);
  }
}

void StackCounters::add(yanc::vfs::Vfs& vfs) {
  const auto& oc = vfs.counters();
  vfs_total += oc.total.load();
  vfs_lookups += oc.lookups.load();
  vfs_writes += oc.writes.load();
  vfs_metadata += oc.metadata.load();
  // Look names up without registering them: a new name would change the
  // /yanc/.stats tree under the workload.
  auto& reg = *vfs.metrics();
  auto counter = [&](const char* name) -> std::uint64_t {
    return reg.contains(name) ? reg.counter(name)->value() : 0;
  };
  auto histogram = [&](const char* name, std::uint64_t& count,
                       std::uint64_t& sum) {
    if (!reg.contains(name)) return;
    auto* h = reg.histogram(name);
    count += h->count();
    sum += h->sum();
  };
  dcache_hit += counter("vfs/dcache_hit_total");
  dcache_miss += counter("vfs/dcache_miss_total");
  coalesced += counter("watch/coalesced_total");
  msgs_out += counter("driver/of/msg_out_total");
  retries += counter("driver/of/retry_total");
  audits += counter("driver/of/audit_total");
  resyncs += counter("driver/of/resync_total");
  applies += counter("dist/replication_apply_total");
  repairs += counter("dist/anti_entropy_repair_total");
  histogram("driver/of/batch_size", batch_count, batch_sum);
  histogram("cluster/failover_latency_ns", failovers, failover_ns_sum);
}

void count_metrics(LayerReport& report, const StackCounters& before,
                   const StackCounters& after, std::uint64_t ops) {
  if (ops == 0) return;
  auto per_op = [&](std::uint64_t StackCounters::*field) {
    return static_cast<double>(after.*field - before.*field) /
           static_cast<double>(ops);
  };
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report.set("vfs.ops_per_op", per_op(&StackCounters::vfs_total));
  report.set("vfs.lookups_per_op", per_op(&StackCounters::vfs_lookups));
  report.set("vfs.writes_per_op", per_op(&StackCounters::vfs_writes));
  report.set("vfs.metadata_per_op", per_op(&StackCounters::vfs_metadata));
  const std::uint64_t hits = after.dcache_hit - before.dcache_hit;
  report.set("vfs.dcache_hit_ratio",
             ratio(hits, hits + after.dcache_miss - before.dcache_miss));
  report.set("watch.coalesced_per_op", per_op(&StackCounters::coalesced));
  report.set("driver.batch_size_mean",
             ratio(after.batch_sum - before.batch_sum,
                   after.batch_count - before.batch_count));
  report.set("driver.msgs_out_per_op", per_op(&StackCounters::msgs_out));
  report.set("driver.retries_per_op", per_op(&StackCounters::retries));
  report.set("sw.flow_mods_per_op", per_op(&StackCounters::flow_mods));
  report.set("sw.packet_ins_per_op", per_op(&StackCounters::packet_ins));
  report.set("loop.polls_per_op", per_op(&StackCounters::polls));
  report.set("dist.msgs_per_op", per_op(&StackCounters::dist_msgs));
  report.set("dist.bytes_per_op", per_op(&StackCounters::dist_bytes));
  report.set("dist.applies_per_op", per_op(&StackCounters::applies));
}

void ledger_metrics(LayerReport& report, const Ledger& ledger,
                    std::uint64_t ops, std::uint64_t loop_wall_ns) {
  if (ops == 0) return;
  const auto& t = ledger.totals();
  const double per_op_us = 1.0 / (static_cast<double>(ops) * 1000.0);
  std::array<std::uint64_t, kLayers> ns{}, allocs{};
  for (std::size_t k = 0; k < kKinds; ++k) {
    auto layer = static_cast<std::size_t>(layer_of(static_cast<Kind>(k)));
    ns[layer] += t[k].ns;
    allocs[layer] += t[k].allocs;
  }
  auto busy = [&](Layer layer) {
    return static_cast<double>(ns[static_cast<std::size_t>(layer)]) *
           per_op_us;
  };
  report.set("sw.busy_us", busy(Layer::sw));
  report.set("driver.busy_us", busy(Layer::driver));
  report.set("apps.busy_us", busy(Layer::apps));
  report.set("net.busy_us", busy(Layer::net));
  report.set("cluster.busy_us", busy(Layer::cluster));
  report.set("harness.busy_us", busy(Layer::harness));
  report.set("dist.busy_us", busy(Layer::dist));
  report.set("netfs.commit_us",
             static_cast<double>(
                 t[static_cast<std::size_t>(Kind::netfs_commit)].ns) *
                 per_op_us);
  for (std::size_t l = 0; l < kLayers; ++l)
    report.set(std::string(layer_name(static_cast<Layer>(l))) +
                   ".allocs_per_op",
               static_cast<double>(allocs[l]) / static_cast<double>(ops));
  if (loop_wall_ns)
    report.set("ledger.coverage_pct",
               100.0 * static_cast<double>(ledger.busy_ns()) /
                   static_cast<double>(loop_wall_ns));
}

}  // namespace yb
