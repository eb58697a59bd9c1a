// Vfs: mount table, path resolution and the POSIX-flavoured call surface
// that applications use.
//
// Responsibilities (mirroring the kernel VFS the paper leans on):
//   - mounts: any Filesystem can be mounted at any directory; the yanc FS
//     mounts at /net, a ReplicatedFs can mount *underneath* it (§6), and a
//     ViewFs can mount a slice at /net/views/<v> for namespaced apps.
//   - path walking: component-wise lookup with symlink following (ELOOP
//     guard), ".." tracked through mount crossings, per-component execute
//     permission checks against the caller's Credentials.
//   - handles: open() returns a FileHandle implementing read/write with
//     O_APPEND/O_TRUNC semantics on top of the stateless Filesystem API.
//   - accounting: every public call increments an op counter; this is the
//     "system call" count that §8.1's performance argument is about, and
//     the benchmarks report it (EXP-1/2/3).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "yanc/dbg/lockdep.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/vfs/acl.hpp"
#include "yanc/vfs/filesystem.hpp"

namespace yanc::vfs {

struct MountOptions {
  bool read_only = false;
};

/// Cumulative operation counters (the simulated syscall count).
struct OpCounters {
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> metadata{0};  // stat/readdir/chmod/xattr/...
  std::atomic<std::uint64_t> lookups{0};   // per-component resolutions
};

class FileHandle;
class WatchHandle;

class Vfs {
 public:
  /// A fresh Vfs has an empty MemFs mounted at "/".
  Vfs();

  // --- mounts ----------------------------------------------------------
  [[nodiscard]] Status mount(const std::string& path, FilesystemPtr fs,
               MountOptions options = {});
  [[nodiscard]] Status umount(const std::string& path);
  /// The filesystem mounted exactly at `path` (not resolved), if any.
  FilesystemPtr mounted_at(const std::string& path) const;

  // --- resolution --------------------------------------------------------
  struct Resolved {
    FilesystemPtr fs;
    NodeId node = kInvalidNode;
    bool read_only = false;
    // Full logical (mount-table) path the walk ended at, with ".." and
    // symlinks already resolved ("" means "/").  This is the canonical key
    // for mount-point comparisons: lexical prefixes lie about paths that
    // reach a mount root via ".." or a symlink.
    std::string logical;
  };
  /// Resolves `path` to (filesystem, node).  `follow_final` controls
  /// whether a trailing symlink is followed (stat vs lstat).
  /// `root` confines resolution to a subtree (namespace support): ".."
  /// cannot escape it and absolute symlink targets re-anchor at it.
  Result<Resolved> resolve(std::string_view path, const Credentials& creds,
                           bool follow_final = true,
                           const std::string& root = "/");

  // --- file I/O -----------------------------------------------------------
  Result<std::shared_ptr<FileHandle>> open(std::string_view path, int flags,
                                           std::uint32_t mode,
                                           const Credentials& creds,
                                           const std::string& root = "/");
  /// Whole-file read.
  Result<std::string> read_file(std::string_view path,
                                const Credentials& creds = {},
                                const std::string& root = "/");
  /// Whole-file write: creates the file if absent, truncates otherwise.
  [[nodiscard]] Status write_file(std::string_view path, std::string_view data,
                    const Credentials& creds = {},
                    const std::string& root = "/");
  [[nodiscard]] Status append_file(std::string_view path, std::string_view data,
                     const Credentials& creds = {},
                     const std::string& root = "/");

  // --- namespace ops --------------------------------------------------------
  Result<Stat> stat(std::string_view path, const Credentials& creds = {},
                    const std::string& root = "/");
  Result<Stat> lstat(std::string_view path, const Credentials& creds = {},
                     const std::string& root = "/");
  Result<std::vector<DirEntry>> readdir(std::string_view path,
                                        const Credentials& creds = {},
                                        const std::string& root = "/");
  [[nodiscard]] Status mkdir(std::string_view path, std::uint32_t mode = 0755,
               const Credentials& creds = {}, const std::string& root = "/");
  /// mkdir -p: creates missing ancestors; EEXIST only if the final path
  /// exists and is not a directory.
  [[nodiscard]] Status mkdir_p(std::string_view path, std::uint32_t mode = 0755,
                 const Credentials& creds = {}, const std::string& root = "/");
  [[nodiscard]] Status unlink(std::string_view path, const Credentials& creds = {},
                const std::string& root = "/");
  [[nodiscard]] Status rmdir(std::string_view path, const Credentials& creds = {},
               const std::string& root = "/");
  /// rm -r: recursive removal (used by tests and the shell's `rm -r`).
  [[nodiscard]] Status remove_all(std::string_view path, const Credentials& creds = {},
                    const std::string& root = "/");
  [[nodiscard]] Status rename(std::string_view from, std::string_view to,
                const Credentials& creds = {}, const std::string& root = "/");
  [[nodiscard]] Status symlink(std::string_view target, std::string_view linkpath,
                 const Credentials& creds = {}, const std::string& root = "/");
  Result<std::string> readlink(std::string_view path,
                               const Credentials& creds = {},
                               const std::string& root = "/");
  [[nodiscard]] Status link(std::string_view existing, std::string_view linkpath,
              const Credentials& creds = {}, const std::string& root = "/");

  // --- metadata ------------------------------------------------------------
  [[nodiscard]] Status chmod(std::string_view path, std::uint32_t mode,
               const Credentials& creds = {}, const std::string& root = "/");
  [[nodiscard]] Status chown(std::string_view path, Uid uid, Gid gid,
               const Credentials& creds = {}, const std::string& root = "/");
  [[nodiscard]] Status truncate(std::string_view path, std::uint64_t size,
                  const Credentials& creds = {},
                  const std::string& root = "/");
  [[nodiscard]] Status setxattr(std::string_view path, const std::string& name,
                  std::vector<std::uint8_t> value,
                  const Credentials& creds = {},
                  const std::string& root = "/");
  Result<std::vector<std::uint8_t>> getxattr(std::string_view path,
                                             const std::string& name,
                                             const Credentials& creds = {},
                                             const std::string& root = "/");
  Result<std::vector<std::string>> listxattr(std::string_view path,
                                             const Credentials& creds = {},
                                             const std::string& root = "/");
  [[nodiscard]] Status removexattr(std::string_view path, const std::string& name,
                     const Credentials& creds = {},
                     const std::string& root = "/");

  /// ACL convenience: stores/reads the ACL via its system xattr.
  [[nodiscard]] Status set_acl(std::string_view path, const Acl& acl,
                 const Credentials& creds = {}, const std::string& root = "/");
  Result<Acl> get_acl(std::string_view path, const Credentials& creds = {},
                      const std::string& root = "/");

  /// access(2)-style probe.
  [[nodiscard]] Status access(std::string_view path, std::uint8_t want,
                const Credentials& creds = {}, const std::string& root = "/");

  // --- monitoring ------------------------------------------------------------
  /// Registers a watch on the node `path` resolves to.  The returned handle
  /// unregisters on destruction.
  Result<std::shared_ptr<WatchHandle>> watch(std::string_view path,
                                             std::uint32_t mask,
                                             WatchQueuePtr queue,
                                             const Credentials& creds = {},
                                             const std::string& root = "/");

  const OpCounters& counters() const noexcept { return counters_; }
  void reset_counters();

  /// The metrics registry every subsystem working over this Vfs shares
  /// (never null).  mount_stats_fs materializes it at /yanc/.stats;
  /// drivers, netfs and the distributed layer register their own handles
  /// here.
  const std::shared_ptr<obs::Registry>& metrics() const noexcept {
    return metrics_;
  }

 private:
  struct Mount {
    FilesystemPtr fs;
    MountOptions options;
  };
  struct Frame;  // resolver walk frame (defined in vfs.cpp)

  /// Operation classes mirrored into both OpCounters (the syscall model
  /// the benchmarks read) and the obs registry (the /yanc/.stats surface).
  enum class OpKind { read, write, metadata, lookup };

  /// Filesystems a resolution read, each with its change_gen() captured at
  /// first visit — *before* any of its state was read, so a concurrent
  /// mutation can only make the cached entry look stale, never fresh.
  using DcacheDeps = std::vector<std::pair<FilesystemPtr, std::uint64_t>>;

  /// One resolution-cache entry: the answer plus everything needed to
  /// prove it is still the answer.
  struct DentryEntry {
    Resolved resolved;
    DcacheDeps deps;
    std::uint64_t mount_gen = 0;  // mount table unchanged since insert
  };

  static std::string dcache_key(const std::string& norm_root,
                                const std::string& norm_path,
                                bool follow_final, const Credentials& creds);

  Result<Resolved> walk_components(std::vector<Frame>& stack,
                                   std::deque<std::string>& components,
                                   const Credentials& creds, bool follow_final,
                                   std::size_t base_depth, int& symlinks_left,
                                   DcacheDeps* deps);
  Result<Resolved> resolve_parent(std::string_view path,
                                  const Credentials& creds, std::string* leaf,
                                  const std::string& root);
  bool is_mount_point(const std::string& logical_path) const;
  void count_op(OpKind kind);

  mutable dbg::SharedMutex<dbg::Rank::vfs_mounts> mounts_mu_;
  std::map<std::string, Mount> mounts_;  // resolved logical path -> mount
  // Bumped on every mount/umount; resolution-cache entries recorded under
  // an older generation are never returned.
  std::atomic<std::uint64_t> mount_gen_{1};

  // Resolution (dentry) cache: successful resolutions only, keyed by
  // (namespace root, normalized path, follow_final, credentials).  Capped;
  // cleared wholesale when full (entries revalidate cheaply, so churn is
  // benign).
  static constexpr std::size_t kDcacheCap = 4096;
  mutable dbg::SharedMutex<dbg::Rank::vfs_dcache> dcache_mu_;
  std::unordered_map<std::string, DentryEntry> dcache_;

  OpCounters counters_;
  std::shared_ptr<obs::Registry> metrics_;
  struct ObsHandles {
    obs::Counter* lookup_total;
    obs::Counter* read_total;
    obs::Counter* write_total;
    obs::Counter* metadata_total;
    obs::Counter* dcache_hit_total;
    obs::Counter* dcache_miss_total;
    obs::Histogram* op_ns;  // wall latency of public Vfs operations
  } obs_;
};

/// An open file: stateful offset + O_* semantics over the stateless
/// Filesystem API.
class FileHandle {
 public:
  FileHandle(FilesystemPtr fs, NodeId node, int flags, Credentials creds,
             Vfs* vfs);

  Result<std::string> read(std::uint64_t size);
  Result<std::uint64_t> write(std::string_view data);
  /// Atomically swaps in `data` as the whole file content (no intermediate
  /// truncated state is ever visible to readers).
  Result<std::uint64_t> replace(std::string_view data);
  Result<std::string> pread(std::uint64_t offset, std::uint64_t size);
  Result<std::uint64_t> pwrite(std::uint64_t offset, std::string_view data);
  Result<Stat> stat();
  void seek(std::uint64_t offset) { offset_ = offset; }
  std::uint64_t offset() const noexcept { return offset_; }
  NodeId node() const noexcept { return node_; }

 private:
  bool readable() const noexcept;
  bool writable() const noexcept;

  FilesystemPtr fs_;
  NodeId node_;
  int flags_;
  Credentials creds_;
  Vfs* vfs_;
  std::uint64_t offset_ = 0;
};

/// RAII watch registration.
class WatchHandle {
 public:
  WatchHandle(FilesystemPtr fs, WatchRegistry::WatchId id)
      : fs_(std::move(fs)), id_(id) {}
  ~WatchHandle() { fs_->unwatch(id_); }
  WatchHandle(const WatchHandle&) = delete;
  WatchHandle& operator=(const WatchHandle&) = delete;

 private:
  FilesystemPtr fs_;
  WatchRegistry::WatchId id_;
};

/// Normalizes a path: makes it absolute, squeezes slashes, resolves "."
/// lexically (".." is left for the resolver, which must follow symlinks).
std::string normalize_path(std::string_view path);

/// A Linux-mount-namespace stand-in (§5.3): the same Vfs seen through a
/// different root directory.  Applications given a Namespace cannot name,
/// and therefore cannot touch, anything outside their subtree — this is how
/// yanc isolates per-view applications.
class Namespace {
 public:
  Namespace(std::shared_ptr<Vfs> vfs, std::string root, Credentials creds);

  /// The process-visible API: identical shape to Vfs, paths interpreted
  /// inside the namespace root.
  Result<std::string> read_file(std::string_view path);
  [[nodiscard]] Status write_file(std::string_view path, std::string_view data);
  [[nodiscard]] Status append_file(std::string_view path, std::string_view data);
  Result<Stat> stat(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path);
  [[nodiscard]] Status mkdir(std::string_view path, std::uint32_t mode = 0755);
  [[nodiscard]] Status unlink(std::string_view path);
  [[nodiscard]] Status rmdir(std::string_view path);
  [[nodiscard]] Status rename(std::string_view from, std::string_view to);
  [[nodiscard]] Status symlink(std::string_view target, std::string_view linkpath);
  Result<std::string> readlink(std::string_view path);
  Result<std::shared_ptr<WatchHandle>> watch(std::string_view path,
                                             std::uint32_t mask,
                                             WatchQueuePtr queue);

  const std::string& root() const noexcept { return root_; }
  const Credentials& credentials() const noexcept { return creds_; }
  Vfs& vfs() noexcept { return *vfs_; }

 private:
  std::shared_ptr<Vfs> vfs_;
  std::string root_;
  Credentials creds_;
};

}  // namespace yanc::vfs
