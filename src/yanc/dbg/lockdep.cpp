#include "yanc/dbg/lockdep.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if YANC_DBG_LOCKS
#include <unistd.h>  // getpid: the edge export writes one file per process
#endif

namespace yanc::dbg {

const char* rank_name(Rank r) noexcept {
  switch (r) {
    case Rank::vfs_mounts: return "vfs_mounts";
    case Rank::vfs_dcache: return "vfs_dcache";
    case Rank::vfs_namespace: return "vfs_namespace";
    case Rank::vfs_data_shard: return "vfs_data_shard";
    case Rank::vfs_emit: return "vfs_emit";
    case Rank::watch_registry: return "watch_registry";
    case Rank::watch_queue: return "watch_queue";
    case Rank::synth_fs: return "synth_fs";
    case Rank::faults_injector: return "faults_injector";
    case Rank::obs_metrics: return "obs_metrics";
    case Rank::obs_trace: return "obs_trace";
    case Rank::obs_tracer: return "obs_tracer";
    case Rank::net_listener: return "net_listener";
    case Rank::net_channel: return "net_channel";
    case Rank::packet_pool: return "packet_pool";
    case Rank::dist_transport: return "dist_transport";
    case Rank::driver: return "driver";
    case Rank::cluster_manager: return "cluster_manager";
  }
  return "unknown_rank";
}

#if YANC_DBG_LOCKS

namespace detail {
namespace {

constexpr int kN = static_cast<int>(kRankCount);
constexpr int kMaxHeld = 32;

struct HeldEntry {
  Rank rank;
  std::source_location loc;
};
thread_local HeldEntry t_held[kMaxHeld];
thread_local int t_depth = 0;

// Acquired-while-held edges: g_edge[a][b] set once the process has seen
// rank b acquired while rank a was held.  The matrix only ever gains
// edges, so the lock-free fast path (skip everything for a known edge)
// is safe; publication and the cycle check serialize on g_mu.
std::atomic<bool> g_edge[kN][kN];
std::mutex g_mu;  // yanc-lint: allow(raw-mutex) lockdep's own graph lock
                  // cannot be a ranked lock without infinite regress

struct EdgeSite {
  // Where the edge was first created: the site holding `a` and the site
  // acquiring `b`.  Written once under g_mu.
  const char* holder_file = "?";
  unsigned holder_line = 0;
  const char* acquire_file = "?";
  unsigned acquire_line = 0;
};
EdgeSite g_site[kN][kN];

/// DFS: is `to` reachable from `from` over recorded edges?  Fills `path`
/// with the rank chain (inclusive of both ends) when found.  Runs under
/// g_mu; the graph has kRankCount nodes, so recursion depth is trivial.
bool find_path(int from, int to, bool (&visited)[kN], int (&path)[kN + 1],
               int& path_len) {
  path[path_len++] = from;
  if (from == to) return true;
  visited[from] = true;
  for (int next = 0; next < kN; ++next) {
    if (visited[next] || !g_edge[from][next].load(std::memory_order_relaxed))
      continue;
    if (find_path(next, to, visited, path, path_len)) return true;
  }
  --path_len;
  return false;
}

[[noreturn]] void die_cycle(Rank held, const std::source_location& held_loc,
                            Rank acq, const std::source_location& acq_loc,
                            const int* path, int path_len) {
  std::fprintf(stderr,
               "yanc::dbg lock-order violation (would deadlock):\n"
               "  acquiring %-14s at %s:%u\n"
               "  while holding %-10s acquired at %s:%u\n"
               "  but the opposite order is already established:\n",
               rank_name(acq), acq_loc.file_name(),
               static_cast<unsigned>(acq_loc.line()), rank_name(held),
               held_loc.file_name(), static_cast<unsigned>(held_loc.line()));
  for (int i = 0; i + 1 < path_len; ++i) {
    const EdgeSite& site = g_site[path[i]][path[i + 1]];
    std::fprintf(stderr,
                 "    %s -> %s  (held at %s:%u, acquired at %s:%u)\n",
                 rank_name(static_cast<Rank>(path[i])),
                 rank_name(static_cast<Rank>(path[i + 1])), site.holder_file,
                 site.holder_line, site.acquire_file, site.acquire_line);
  }
  std::fprintf(stderr, "  see docs/CORRECTNESS.md for the rank table\n");
  std::abort();
}

[[noreturn]] void die_same_rank(Rank r, const std::source_location& first,
                                const std::source_location& second) {
  std::fprintf(stderr,
               "yanc::dbg same-rank nesting (no code path may hold two "
               "%s locks):\n"
               "  first  acquired at %s:%u\n"
               "  second acquired at %s:%u\n"
               "  see docs/CORRECTNESS.md for the rank table\n",
               rank_name(r), first.file_name(),
               static_cast<unsigned>(first.line()), second.file_name(),
               static_cast<unsigned>(second.line()));
  std::abort();
}

}  // namespace

void on_acquire(Rank r, std::source_location loc) {
  const int ri = static_cast<int>(r);
  for (int i = 0; i < t_depth; ++i) {
    if (t_held[i].rank == r) die_same_rank(r, t_held[i].loc, loc);
  }
  for (int i = 0; i < t_depth; ++i) {
    const int hi = static_cast<int>(t_held[i].rank);
    if (g_edge[hi][ri].load(std::memory_order_relaxed)) continue;
    std::lock_guard graph_lock(g_mu);  // yanc-lint: allow(raw-mutex) ditto
    if (g_edge[hi][ri].load(std::memory_order_relaxed)) continue;
    // Before publishing held->acquiring, make sure the reverse direction
    // is not already reachable — that closure is the deadlock.
    bool visited[kN] = {};
    int path[kN + 1];
    int path_len = 0;
    if (find_path(ri, hi, visited, path, path_len))
      die_cycle(t_held[i].rank, t_held[i].loc, r, loc, path, path_len);
    g_site[hi][ri] = EdgeSite{t_held[i].loc.file_name(),
                              static_cast<unsigned>(t_held[i].loc.line()),
                              loc.file_name(),
                              static_cast<unsigned>(loc.line())};
    g_edge[hi][ri].store(true, std::memory_order_relaxed);
  }
  if (t_depth == kMaxHeld) {
    std::fprintf(stderr,
                 "yanc::dbg: lock nesting depth exceeded %d acquiring %s "
                 "at %s:%u (runaway recursion under locks?)\n",
                 kMaxHeld, rank_name(r), loc.file_name(),
                 static_cast<unsigned>(loc.line()));
    std::abort();
  }
  t_held[t_depth++] = HeldEntry{r, loc};
}

void on_release(Rank r) noexcept {
  // Search from the top: releases are usually LIFO, but MutationScope
  // legitimately drops the namespace lock while the emit lock stays held.
  for (int i = t_depth - 1; i >= 0; --i) {
    if (t_held[i].rank != r) continue;
    for (int j = i; j + 1 < t_depth; ++j) t_held[j] = t_held[j + 1];
    --t_depth;
    return;
  }
  // Releasing a rank that is not held: only reachable through API misuse
  // (e.g. unlocking an unowned UniqueLock); make it loud in checked builds.
  std::fprintf(stderr, "yanc::dbg: release of %s which is not held\n",
               rank_name(r));
  std::abort();
}

int held_depth() noexcept { return t_depth; }

}  // namespace detail

std::vector<LockEdge> lock_edges() {
  std::vector<LockEdge> out;
  // yanc-lint: allow(raw-mutex) lockdep's own graph lock, as above
  std::lock_guard graph_lock(detail::g_mu);
  for (int a = 0; a < detail::kN; ++a) {
    for (int b = 0; b < detail::kN; ++b) {
      if (!detail::g_edge[a][b].load(std::memory_order_relaxed)) continue;
      const auto& site = detail::g_site[a][b];
      out.push_back(LockEdge{static_cast<Rank>(a), static_cast<Rank>(b),
                             site.holder_file, site.holder_line,
                             site.acquire_file, site.acquire_line});
    }
  }
  return out;
}

std::string dump_lock_edges() {
  std::string out;
  char line[512];
  for (const LockEdge& e : lock_edges()) {
    std::snprintf(line, sizeof line, "%s %s %s:%u %s:%u\n",
                  rank_name(e.held), rank_name(e.acquired), e.holder_file,
                  e.holder_line, e.acquire_file, e.acquire_line);
    out += line;
  }
  return out;
}

namespace {

void export_edges_at_exit() {
  const char* base = std::getenv("YANC_LOCK_EDGES_OUT");
  if (!base || !*base) return;
  char path[512];
  std::snprintf(path, sizeof path, "%s.%ld", base,
                static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(path, "w");
  if (!f) return;
  std::string text = dump_lock_edges();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

// Self-registering: any process linked against yanc exports its observed
// edge graph at exit when YANC_LOCK_EDGES_OUT is set — no test changes
// needed for the coverage sweep.
[[maybe_unused]] const bool g_export_registered = [] {
  if (std::getenv("YANC_LOCK_EDGES_OUT")) std::atexit(&export_edges_at_exit);
  return true;
}();

}  // namespace

#else  // !YANC_DBG_LOCKS — no graph is recorded; the API stays callable.

std::vector<LockEdge> lock_edges() { return {}; }
std::string dump_lock_edges() { return {}; }

#endif  // YANC_DBG_LOCKS

}  // namespace yanc::dbg
