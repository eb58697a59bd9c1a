// Vfs: mount table, path resolution and the POSIX-flavoured call surface
// that applications use.
//
// Responsibilities (mirroring the kernel VFS the paper leans on):
//   - mounts: any Filesystem can be mounted at any directory; the yanc FS
//     (a netfs::YancFs, or in a cluster a dist::ReplicatedYancFs, §6)
//     mounts at /net, and SynthFs trees at /yanc/.stats, /yanc/.trace and
//     /yanc/.faults.  Views (§4.2) are subtrees at /net/views/<v>, which
//     a Namespace confines their apps to.
//   - path walking: component-wise lookup with symlink following (ELOOP
//     guard), ".." tracked through mount crossings, per-component execute
//     permission checks against the caller's Credentials.
//   - handles: open() returns a FileHandle implementing read/write with
//     O_APPEND/O_TRUNC semantics on top of the stateless Filesystem API.
//   - directory-relative calls: the Resolved that resolve() returns serves
//     as a directory handle, as a dirfd does for openat(2) and its
//     siblings.  resolve, read_file, write_file, mkdir, unlink and readdir
//     take such a handle plus one component name, so a caller that touches
//     several files of one object directory (a flow's fields, a packet-in's
//     pkt_* files) walks the directory's path once and each file with one
//     Filesystem::walk_step.  The handle follows its node: a rename keeps
//     it valid, an rmdir makes every call on it return not_found, and a
//     directory made later under the old name is never reached.  One case
//     differs from a dirfd: a symlink leaf whose target climbs above the
//     directory ("../x") is finished through the directory's path, so once
//     the directory has moved it gives not_found.
//   - accounting: every public call increments an op counter; this is the
//     "system call" count that §8.1's performance argument is about, and
//     the benchmarks report it (EXP-1/2/3).  The counters are the
//     vfs/*_total files under /yanc/.stats; counters() reads them.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "yanc/dbg/lockdep.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/vfs/acl.hpp"
#include "yanc/vfs/filesystem.hpp"

namespace yanc::vfs {

struct MountOptions {
  bool read_only = false;
};

/// Operation counts (the simulated syscall count) since the last
/// Vfs::reset_counters(); Vfs::counters() fills one in.
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
    FileType type = FileType::directory;  // of `node`, as the walk found it
    bool read_only = false;
    // Full logical (mount-table) path the walk ended at, with ".." and
    // symlinks already resolved ("" means "/").  This is the canonical key
    // for mount-point comparisons: lexical prefixes lie about paths that
    // reach a mount root via ".." or a symlink.
    std::string logical;
    // `logical` begins with the logical path of the namespace root the
    // walk was confined to, this many bytes long (0 for "/").
    std::uint32_t root_len = 0;
  };
  /// Resolves `path` to (filesystem, node) by walking it, one
  /// Filesystem::walk_step per component.  `follow_final` controls
  /// whether a trailing symlink is followed (stat vs lstat).
  /// `root` confines resolution to a subtree (namespace support): ".."
  /// cannot escape it and absolute symlink targets re-anchor at it.
  Result<Resolved> resolve(std::string_view path, const Credentials& creds,
                           bool follow_final = true,
                           std::string_view root = "/");

  // --- directory-relative calls (openat-style) -----------------------------
  // Each call takes `dir`, a Resolved from an earlier resolve(), and
  // `name`, one component; "", ".", ".." and names containing '/' give
  // invalid_argument.  A call acts as the path call on dir's path + "/" +
  // name does (permissions, read-only mounts, mount crossings, symlinks,
  // errors, trace ingress), and resolve(dir) plus the call count what the
  // path call counts, except that a write_file that creates its file does
  // not walk the directory a second time and a final symlink whose target
  // leaves `dir` walks more (below).  `dir` stays confined to the
  // namespace root it was resolved under.  Keep a handle only for the
  // work that resolved it: it holds no lock and is never invalidated.

  /// The entry `name` in `dir`: one walk step.  A final symlink to follow
  /// is walked on from dir's frame while its target stays below `dir`.
  /// One that leaves it (an absolute target, or ".." above `dir`) is
  /// finished by the path walk from the namespace root; for ".." that walk
  /// goes through dir's path and must reach dir's node there, else the
  /// call gives not_found.
  Result<Resolved> resolve(const Resolved& dir, std::string_view name,
                           const Credentials& creds, bool follow_final = true);
  Result<std::string> read_file(const Resolved& dir, std::string_view name,
                                const Credentials& creds = {});
  [[nodiscard]] Status write_file(const Resolved& dir, std::string_view name,
                                  std::string_view data,
                                  const Credentials& creds = {});
  [[nodiscard]] Status mkdir(const Resolved& dir, std::string_view name,
                             std::uint32_t mode = 0755,
                             const Credentials& creds = {});
  [[nodiscard]] Status unlink(const Resolved& dir, std::string_view name,
                              const Credentials& creds = {});
  Result<std::vector<DirEntry>> readdir(const Resolved& dir,
                                        std::string_view name,
                                        const Credentials& creds = {});
  /// Lists `dir` itself, as readdir on its path does (fdopendir(3)).
  Result<std::vector<DirEntry>> readdir(const Resolved& dir,
                                        const Credentials& creds = {});

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

  /// The op counts since the last reset_counters(), read from the
  /// vfs/*_total registry counters; `total` is the sum of the other four.
  OpCounters counters() const;
  /// Starts counters() from zero; the registry counters keep counting.
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
  struct Frame;  // one directory on the resolver's walk stack
  struct Walk;   // the walk stack, its logical path and its pinned fs
  struct Walks;  // the walks of one resolution: at most two
  class WalkLease;
  /// What a resolution found, borrowed from the walk that found it or
  /// from the Resolved a directory-relative call was given; valid while
  /// that walk stays leased and that Resolved alive.  Resolved is the
  /// owning copy a caller keeps.
  struct Target {
    Filesystem* fs;              // the filesystem `node` is in
    const FilesystemPtr* owner;  // the pointer that keeps `fs` alive
    NodeId node;
    FileType type;
    bool read_only;
    std::string_view logical;  // as Resolved::logical
    std::uint32_t root_len;
    /// Borrows `r`: the directory of a call on a handle.
    static Target of(const Resolved& r) noexcept {
      return Target{r.fs.get(), &r.fs, r.node, r.type, r.read_only,
                    r.logical, r.root_len};
    }
    /// The owning copy, for a caller that keeps it.
    Resolved keep() const {
      return Resolved{*owner, node, type, read_only, std::string(logical),
                      root_len};
    }
  };
  /// The file an open acts on, borrowed as a Target is.
  struct OpenTarget {
    Filesystem* fs;
    const FilesystemPtr* owner;
    NodeId node;
  };

  /// Operation classes, one vfs/*_total registry counter each.
  enum class OpKind { read, write, metadata, lookup };

  [[nodiscard]] Status walk(Walk& w, std::string_view rest,
                            const Credentials& creds, bool follow_final,
                            std::size_t base_depth, int& symlinks_left);
  /// Starts `w` at the root mount and walks it to the namespace root
  /// `norm_root` (a normal path), always following symlinks.
  [[nodiscard]] Status anchor(Walk& w, std::string_view norm_root,
                              const Credentials& creds, int& symlinks_left);
  /// Counts w's lookups and returns its top frame, or `ec`.
  Result<Target> finish(Walk& w, Status ec, std::uint32_t root_len);
  /// Walks `path` (made normal in w's buffer if it is not) in `w`.
  Result<Target> find(Walk& w, std::string_view path,
                      const Credentials& creds, bool follow_final,
                      std::string_view root);
  /// find() of the normal path `norm`.
  Result<Target> find_normal(Walk& w, std::string_view norm,
                             const Credentials& creds, bool follow_final,
                             std::string_view root);
  /// The walk of resolve(dir, name): in ws.walk, and when a symlink's
  /// target leaves `dir`, finished in ws.rewalk.
  Result<Target> find(Walks& ws, const Resolved& dir, std::string_view name,
                      const Credentials& creds, bool follow_final);
  /// The directory holding `path`'s last component, which `leaf` is set
  /// to view (into `path`, or into w's buffer).
  Result<Target> find_parent(Walk& w, std::string_view path,
                             const Credentials& creds, std::string_view* leaf,
                             std::string_view root);
  /// open() without the handle: resolves `path`, creating, checking and
  /// truncating the file as `flags` ask, and counts as one metadata op.
  /// write_file and append_file act on the node it returns directly.
  Result<OpenTarget> open_target(Walks& ws, std::string_view path, int flags,
                                 std::uint32_t mode, const Credentials& creds,
                                 std::string_view root);
  Result<OpenTarget> open_target(Walks& ws, const Resolved& dir,
                                 std::string_view name, int flags,
                                 std::uint32_t mode, const Credentials& creds);
  /// open_target's checks, and its truncation, on a file the walk found.
  Result<OpenTarget> open_found(const Target& found, int flags,
                                const Credentials& creds);
  /// open_target's O_CREAT of `leaf` in the directory `parent`.
  Result<OpenTarget> create_in(const Target& parent, std::string_view leaf,
                               std::uint32_t mode, const Credentials& creds);
  // The bodies that a call and its directory-relative twin share, on what
  // each has resolved; the public calls keep the timing and the counts.
  Result<std::string> read_target(const Target& target,
                                  const Credentials& creds);
  [[nodiscard]] Status write_target(const OpenTarget& target,
                                    std::string_view data,
                                    const Credentials& creds);
  Result<std::vector<DirEntry>> list_dir(const Target& target,
                                         const Credentials& creds);
  [[nodiscard]] Status mkdir_in(const Target& parent, std::string_view leaf,
                                std::uint32_t mode, const Credentials& creds);
  [[nodiscard]] Status unlink_in(const Target& parent, std::string_view leaf,
                                 const Credentials& creds);
  /// Whether the entry `leaf` of the directory whose logical path is
  /// `parent` is a mount point.
  bool is_mount_point(std::string_view parent, std::string_view leaf) const;
  /// The mount filter's "maybe": false when no mount key other than "/"
  /// ends in the component `last` and is `len` bytes long.  Reads no lock.
  bool may_be_mount(std::string_view last, std::size_t len) const noexcept;
  /// Recomputes the mount filter from mounts_ (mounts_mu_ exclusive).
  void refilter_mounts();
  /// Adds `n` operations of one class to its registry counter.
  void count_op(OpKind kind, std::uint64_t n = 1);

  mutable dbg::SharedMutex<dbg::Rank::vfs_mounts> mounts_mu_;
  std::map<std::string, Mount> mounts_;  // resolved logical path -> mount
  // The filesystem mounted at "/", which no mount or umount replaces:
  // every walk starts there without the mount table.
  FilesystemPtr root_fs_;
  // One bit per (last component, length) of the mount keys below "/";
  // written under mounts_mu_ exclusive, read by walks without it.
  static constexpr std::size_t kMountFilterWords = 4;
  std::array<std::atomic<std::uint64_t>, kMountFilterWords> mount_filter_{};

  std::shared_ptr<obs::Registry> metrics_;
  struct ObsHandles {
    // vfs/{read,write,metadata,lookup}_total, indexed by OpKind.
    std::array<obs::Counter*, 4> op_total;
    obs::Histogram* op_ns;  // wall latency of public Vfs operations
  } obs_;
  // What the op_total counters read at the last reset_counters().
  std::array<std::atomic<std::uint64_t>, 4> counter_base_{};
};

/// An open file: stateful offset + O_* semantics over the stateless
/// Filesystem API.
class FileHandle {
 public:
  FileHandle(FilesystemPtr fs, NodeId node, int flags, Credentials creds);

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
