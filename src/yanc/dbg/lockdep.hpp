// yanc::dbg — lockdep-lite: ranked mutex wrappers with runtime lock-order
// validation (kernel practice the paper's §3 reuse argument points at).
//
// Every lock in the codebase belongs to a named class (dbg::Rank).  In
// checked builds (YANC_DBG_LOCKS=1, the default) each acquisition records
// "rank A was held while rank B was acquired" in a process-wide edge
// graph; an acquisition that would close a cycle — i.e. two code paths
// that take the same two lock classes in opposite orders, a deadlock
// waiting for the right schedule — aborts immediately with both lock
// names and both acquisition sites.  Unlike TSan, this catches the
// inversion on ANY schedule that exercises the two paths, not just the
// schedule that actually interleaves them.
//
// Rules enforced:
//   * no cycles in the acquired-while-held graph (the deadlock check);
//   * no same-rank nesting: a thread never holds two locks of one rank
//     (no code path in the tree needs it, and allowing it would hide
//     A-B/B-A inversions between instances of that rank);
//   * bounded nesting depth (kMaxHeld), a sanity backstop.
//
// In release builds (YANC_DBG_LOCKS=0) the wrappers are alias templates
// for the raw standard types and the guards are the standard guards:
// zero overhead, byte-for-byte identical to pre-lockdep code.
//
// docs/CORRECTNESS.md has the full rank table: what each rank protects
// and what it may be held under.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <source_location>
#include <string>
#include <vector>

#ifndef YANC_DBG_LOCKS
#define YANC_DBG_LOCKS 1
#endif

namespace yanc::dbg {

/// Every lock class in the tree, one enumerator per class.  Multiple
/// instances of a class (64 vfs data shards, one WatchQueue per consumer)
/// share a rank: the same-rank rule then also proves no code path ever
/// holds two instances at once, which is what makes per-instance order
/// irrelevant.  dist_transport and driver are reserved: those layers are
/// currently single-threaded by design (simnet scheduler), and any lock
/// they grow must take its place in this table.
enum class Rank : std::uint8_t {
  vfs_mounts = 0,   // Vfs mount table
  vfs_dcache,       // Vfs resolution (dentry) cache
  vfs_namespace,    // MemFs namespace (mu_)
  vfs_data_shard,   // MemFs per-inode content shards
  vfs_emit,         // MemFs watch fan-out order lock (emit_mu_)
  watch_registry,   // WatchRegistry subscription map
  watch_queue,      // WatchQueue consumer queues
  synth_fs,         // vfs::SynthFs node table
  faults_injector,  // faults::Injector plans + rng
  obs_metrics,      // obs::Registry name map
  obs_trace,        // obs::TraceRing ring
  obs_tracer,       // obs::Tracer correlation maps + stage-handle cache
  net_listener,     // net::Listener accept backlog
  net_channel,      // net::Channel shared queue pair
  packet_pool,      // fast::PacketPool free list
  // yanc-analyze: allow(rank-unused) reserved: dist runs on the simnet scheduler thread
  dist_transport,   // reserved (dist layer is scheduler-single-threaded)
  // yanc-analyze: allow(rank-unused) reserved: drivers run on the caller's thread
  driver,           // reserved (drivers run on the caller's thread)
  cluster_manager,  // cluster::Manager lease/election state
};

inline constexpr std::size_t kRankCount = 18;

/// Stable lower_snake name for diagnostics ("vfs_namespace").
const char* rank_name(Rank r) noexcept;

/// One observed acquired-while-held edge, with the sites that first
/// created it (file/line of the holder and of the acquisition).
struct LockEdge {
  Rank held;
  Rank acquired;
  const char* holder_file;
  unsigned holder_line;
  const char* acquire_file;
  unsigned acquire_line;
};

/// Snapshot of the process-wide runtime edge graph, ordered by rank pair.
/// Empty in release builds (YANC_DBG_LOCKS=0): no graph is recorded.
std::vector<LockEdge> lock_edges();

/// Text form, one edge per line:
///   <held> <acquired> <holder_file>:<line> <acquire_file>:<line>
/// Consumed by `yanc-analyze --runtime-edges` for the static-vs-runtime
/// lock-coverage report, and exposed at /yanc/.stats/dbg/lock_edges.
/// Additionally, when the environment variable YANC_LOCK_EDGES_OUT is set
/// at startup, every process writes this dump to "<value>.<pid>" at exit
/// (one file per process: a ctest run spans many binaries).
std::string dump_lock_edges();

#if YANC_DBG_LOCKS

namespace detail {
/// Validates acquiring `r` against the caller's held set and the global
/// edge graph; aborts with a full report on violation, records the edge
/// and pushes onto the per-thread held stack otherwise.  Called BEFORE
/// blocking on the underlying mutex, so a real deadlock is diagnosed
/// instead of hung.
void on_acquire(Rank r, std::source_location loc);
/// Pops `r` from the per-thread held stack (out-of-order release is
/// fine: MutationScope releases the namespace lock before the emit lock).
void on_release(Rank r) noexcept;
/// Current nesting depth of the calling thread (tests).
int held_depth() noexcept;
}  // namespace detail

/// std::mutex with a rank.  Satisfies Lockable, so the standard guards
/// work too — but prefer the dbg guards below: their source_location
/// default argument captures the *call site*, which is what the
/// violation report prints.
template <Rank R>
class Mutex {
 public:
  void lock(std::source_location loc = std::source_location::current()) {
    detail::on_acquire(R, loc);
    m_.lock();
  }
  bool try_lock(std::source_location loc = std::source_location::current()) {
    // A try_lock cannot deadlock by itself, but an inverted try-order is
    // still a latent bug on the path that later uses lock(); validate the
    // same way.  Validation precedes the attempt, so failure paths are
    // indistinguishable from success in the graph.
    detail::on_acquire(R, loc);
    if (m_.try_lock()) return true;
    detail::on_release(R);
    return false;
  }
  void unlock() {
    // Validate before touching the raw mutex: releasing a lock this
    // thread does not hold must die with our diagnostic, not as raw UB
    // (or a TSan interceptor abort) inside std::mutex.
    detail::on_release(R);
    m_.unlock();
  }
  static constexpr Rank rank() noexcept { return R; }

 private:
  std::mutex m_;
};

/// std::shared_mutex with a rank.  Shared and exclusive acquisitions feed
/// the same edge graph: reader-vs-writer inversions deadlock just as hard.
template <Rank R>
class SharedMutex {
 public:
  void lock(std::source_location loc = std::source_location::current()) {
    detail::on_acquire(R, loc);
    m_.lock();
  }
  void unlock() {
    detail::on_release(R);  // validate-then-release, as in Mutex::unlock
    m_.unlock();
  }
  void lock_shared(std::source_location loc =
                       std::source_location::current()) {
    detail::on_acquire(R, loc);
    m_.lock_shared();
  }
  void unlock_shared() {
    detail::on_release(R);  // validate-then-release, as in Mutex::unlock
    m_.unlock_shared();
  }
  static constexpr Rank rank() noexcept { return R; }

 private:
  std::shared_mutex m_;
};

/// lock_guard analogue; captures the construction site.
template <class M>
class LockGuard {
 public:
  explicit LockGuard(M& m,
                     std::source_location loc = std::source_location::current())
      : m_(m) {
    m_.lock(loc);
  }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  M& m_;
};

/// unique_lock analogue: relockable, usable with dbg::CondVar.  Re-locks
/// report the original construction site (the wait loop's caller is the
/// interesting frame, not the wait internals).
template <class M>
class UniqueLock {
 public:
  explicit UniqueLock(M& m,
                      std::source_location loc = std::source_location::current())
      : m_(&m), loc_(loc) {
    m_->lock(loc_);
    owns_ = true;
  }
  ~UniqueLock() {
    if (owns_) m_->unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() {
    m_->lock(loc_);
    owns_ = true;
  }
  void unlock() {
    m_->unlock();
    owns_ = false;
  }
  bool owns_lock() const noexcept { return owns_; }

 private:
  M* m_;
  std::source_location loc_;
  bool owns_ = false;
};

/// shared_lock analogue (shared side of SharedMutex).
template <class M>
class SharedLock {
 public:
  explicit SharedLock(M& m,
                      std::source_location loc = std::source_location::current())
      : m_(m) {
    m_.lock_shared(loc);
  }
  ~SharedLock() { m_.unlock_shared(); }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  M& m_;
};

/// dbg::UniqueLock is not std::unique_lock, so waits go through the
/// any-lockable condition variable.
using CondVar = std::condition_variable_any;

#else  // !YANC_DBG_LOCKS — wrappers vanish into the raw standard types.

template <Rank>
using Mutex = std::mutex;
template <Rank>
using SharedMutex = std::shared_mutex;
template <class M>
using LockGuard = std::lock_guard<M>;
template <class M>
using UniqueLock = std::unique_lock<M>;
template <class M>
using SharedLock = std::shared_lock<M>;
using CondVar = std::condition_variable;

// The release-build contract the benchmarks rely on: a ranked mutex IS a
// raw mutex, not a wrapper around one.
static_assert(std::is_same_v<Mutex<Rank::vfs_namespace>, std::mutex>);
static_assert(
    std::is_same_v<SharedMutex<Rank::vfs_namespace>, std::shared_mutex>);
static_assert(sizeof(Mutex<Rank::vfs_emit>) == sizeof(std::mutex));

#endif  // YANC_DBG_LOCKS

}  // namespace yanc::dbg
