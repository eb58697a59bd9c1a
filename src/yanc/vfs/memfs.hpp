// MemFs: the reference in-memory Filesystem implementation.
//
// This is the substitution for the kernel VFS + FUSE backing store the
// paper's prototype uses (§8): full POSIX semantics — permissions with
// sticky-bit deletion rules, ACL-aware access checks, hard links with nlink
// accounting, symlinks, rename with all the edge cases, xattrs, quotas
// (ENOSPC), and inotify-style change notification at every mutation point.
//
// Concurrency model (docs/PERFORMANCE.md has the full writeup):
//   * mu_ (shared_mutex) — shared for read-only namespace ops (lookup,
//     getattr, readdir, readlink, xattr reads, access), exclusive for
//     namespace mutations (create/unlink/rename/chmod/...).
//   * data shards — file content plus the size/version/mtime it implies
//     are additionally guarded by a per-inode lock shard, so write() needs
//     only mu_ shared + its shard exclusive: content writes to distinct
//     files proceed in parallel with each other and with all readers.
//   * watch emission — mutations queue events while locked and fan them
//     out after unlock (emit_mu_ keeps fan-out in operation order), so no
//     consumer queue is ever touched under the filesystem lock.  Only a
//     node with a watch gets an event: each inode counts its watches.
// The libyanc fastpath (yanc::fast) still bypasses all of this, and the
// benchmarks measure the difference (EXP-2).
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "yanc/dbg/lockdep.hpp"
#include "yanc/vfs/acl.hpp"
#include "yanc/vfs/filesystem.hpp"

namespace yanc::vfs {

struct MemFsOptions {
  std::size_t max_inodes = 0;  // 0 = unlimited
  std::size_t max_bytes = 0;   // total file payload quota; 0 = unlimited
  std::size_t name_max = 255;  // per-component name limit (ENAMETOOLONG)
};

class MemFs : public Filesystem {
 public:
  explicit MemFs(MemFsOptions options = {});

  NodeId root() const override { return kRootNode; }

  /// Under one shared hold of mu_: the directory's type and search
  /// permission, then the child's entry and type.
  Result<WalkStep> walk_step(NodeId dir, std::string_view name,
                             const Credentials& creds) override;
  Result<NodeId> lookup(NodeId parent, const std::string& name) override;
  Result<Stat> getattr(NodeId node) override;
  Result<std::vector<DirEntry>> readdir(NodeId dir) override;

  Result<NodeId> mkdir(NodeId parent, const std::string& name,
                       std::uint32_t mode, const Credentials& creds) override;
  Result<NodeId> create(NodeId parent, const std::string& name,
                        std::uint32_t mode, const Credentials& creds) override;
  Result<NodeId> symlink(NodeId parent, const std::string& name,
                         const std::string& target,
                         const Credentials& creds) override;
  Result<std::string> readlink(NodeId node) override;
  [[nodiscard]] Status link(NodeId node, NodeId parent, const std::string& name,
              const Credentials& creds) override;

  [[nodiscard]] Status unlink(NodeId parent, const std::string& name,
                const Credentials& creds) override;
  [[nodiscard]] Status rmdir(NodeId parent, const std::string& name,
               const Credentials& creds) override;
  [[nodiscard]] Status rename(NodeId old_parent, const std::string& old_name,
                NodeId new_parent, const std::string& new_name,
                const Credentials& creds) override;

  Result<std::string> read(NodeId node, std::uint64_t offset,
                           std::uint64_t size,
                           const Credentials& creds) override;
  Result<std::uint64_t> write(NodeId node, std::uint64_t offset,
                              std::string_view data,
                              const Credentials& creds) override;
  [[nodiscard]] Status truncate(NodeId node, std::uint64_t size,
                  const Credentials& creds) override;
  Result<std::uint64_t> replace(NodeId node, std::string_view data,
                                const Credentials& creds) override;

  [[nodiscard]] Status chmod(NodeId node, std::uint32_t mode,
               const Credentials& creds) override;
  [[nodiscard]] Status chown(NodeId node, Uid uid, Gid gid,
               const Credentials& creds) override;

  [[nodiscard]] Status setxattr(NodeId node, const std::string& name,
                  std::vector<std::uint8_t> value,
                  const Credentials& creds) override;
  Result<std::vector<std::uint8_t>> getxattr(NodeId node,
                                             const std::string& name) override;
  Result<std::vector<std::string>> listxattr(NodeId node) override;
  [[nodiscard]] Status removexattr(NodeId node, const std::string& name,
                     const Credentials& creds) override;

  [[nodiscard]] Status access(NodeId node, std::uint8_t want,
                const Credentials& creds) override;

  Result<WatchRegistry::WatchId> watch(NodeId node, std::uint32_t mask,
                                       WatchQueuePtr queue) override;
  void unwatch(WatchRegistry::WatchId id) override;

  // --- introspection (tests, quotas, benchmarks) -------------------------
  std::size_t inode_count() const;
  std::size_t bytes_used() const;

  /// Canonical path of a node from parent hints ("/" for the root).
  /// Used by layers that need a location-independent name for a node
  /// (e.g. replication).
  Result<std::string> path_of(NodeId node) const;

  /// Value of xattr `name` on `node` or its nearest ancestor that has it.
  std::optional<std::vector<std::uint8_t>> nearest_xattr(
      NodeId node, const std::string& name) const;

 protected:
  static constexpr NodeId kRootNode = 1;

  struct Inode {
    FileType type = FileType::regular;
    std::uint32_t mode = 0;
    Uid uid = 0;
    Gid gid = 0;
    std::uint32_t nlink = 0;
    // Watches registered on this node: written by watch/unwatch under mu_
    // exclusive, so a mutation reads it under either hold of mu_.
    std::uint32_t watches = 0;
    std::uint64_t version = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
    std::string data;                        // regular file content
    // Directory entries, sorted; std::less<> lets a walk step find a
    // string_view component without building a string.
    std::map<std::string, NodeId, std::less<>> children;
    std::string target;                      // symlink target
    std::map<std::string, std::vector<std::uint8_t>> xattrs;
    std::optional<Acl> acl;  // parsed cache of the ACL xattr
    // Canonical parent hint for directed notification (child-name events).
    NodeId parent_hint = kInvalidNode;
    std::string name_hint;
  };

  // All hooks below are called with mu_ held — exclusively, except
  // on_write, which the concurrent write() path calls with mu_ shared plus
  // the inode's data shard exclusive.  on_write overrides may therefore
  // read structures that only mutate under the exclusive lock, but must
  // not write them.

  /// Lets subclasses (YancFs) veto or observe writes to typed files.
  [[nodiscard]] virtual Status on_write(NodeId /*node*/, const std::string& /*content*/) {
    return ok_status();
  }
  /// Called after a directory was created; YancFs populates schema children
  /// (as the creating identity, so applications own their own objects).
  virtual void on_mkdir(NodeId /*node*/, NodeId /*parent*/,
                        const std::string& /*name*/,
                        const Credentials& /*creds*/) {}
  /// Whether rmdir on this non-empty directory may recurse (paper §3.2:
  /// removing a switch removes its subtree).
  virtual bool rmdir_recursive_allowed(NodeId /*node*/) { return false; }
  /// Lets subclasses veto symlink targets (e.g. `peer` must point at a
  /// port, §3.3).  Called before the link is created.
  [[nodiscard]] virtual Status on_symlink(NodeId /*parent*/, const std::string& /*name*/,
                            const std::string& /*target*/) {
    return ok_status();
  }
  /// Called just before an inode is destroyed (nlink hit zero or subtree
  /// teardown); lets subclasses drop bookkeeping keyed by NodeId.
  virtual void on_remove_node(NodeId /*node*/) {}

  // --- internals shared with subclasses ----------------------------------
  mutable dbg::SharedMutex<dbg::Rank::vfs_namespace> mu_;
  // Serializes post-unlock watch fan-out so event delivery order matches
  // operation order.  Lock order: mu_ → emit_mu_ → per-queue locks
  // (vfs_namespace → vfs_emit → watch_queue in the dbg rank table).
  dbg::Mutex<dbg::Rank::vfs_emit> emit_mu_;
  WatchRegistry watches_;

  // Per-inode data lock shards: file content (and the size/version/mtime
  // it implies) may be mutated either under mu_ exclusive, or under mu_
  // shared + the inode's shard exclusive; readers hold mu_ shared + the
  // shard shared.  Sharded by NodeId so distinct files rarely collide.
  static constexpr std::size_t kDataShards = 64;
  using DataShard = dbg::SharedMutex<dbg::Rank::vfs_data_shard>;
  mutable std::array<DataShard, kDataShards> data_shards_;
  DataShard& shard_of(NodeId id) const {
    return data_shards_[id % kDataShards];
  }

  // A mutation's watch notifications, recorded under the lock and fanned
  // out after it drops.  `drop` defers WatchRegistry::drop_node the same
  // way so a destroyed node's delete_self still reaches its subscribers.
  struct PendingAction {
    enum class Kind : std::uint8_t { emit, drop } kind;
    Event ev;  // emit payload; ev.node is the target for drop
  };

  /// RAII scope for namespace mutations: takes mu_ exclusively, and on
  /// destruction drains pending_actions_ and delivers them outside the
  /// lock (in operation order, via emit_mu_).  Public mutators and
  /// subclass overrides open one of these instead of locking mu_ directly.
  class MutationScope {
   public:
    explicit MutationScope(MemFs& fs) : fs_(fs), lock_(fs.mu_) {}
    ~MutationScope();
    MutationScope(const MutationScope&) = delete;
    MutationScope& operator=(const MutationScope&) = delete;

   private:
    MemFs& fs_;
    dbg::UniqueLock<dbg::SharedMutex<dbg::Rank::vfs_namespace>> lock_;
  };

  Inode* find(NodeId id);
  const Inode* find(NodeId id) const;
  [[nodiscard]] Status check_access_locked(const Inode& node, std::uint8_t want,
                             const Credentials& creds) const;
  Result<NodeId> new_node_locked(FileType type, std::uint32_t mode,
                                 const Credentials& creds);
  Result<NodeId> add_child_locked(NodeId parent, const std::string& name,
                                  FileType type, std::uint32_t mode,
                                  const Credentials& creds);
  /// Recursively destroys a subtree (no permission checks; caller checked).
  void destroy_subtree_locked(NodeId node);
  void touch_locked(Inode& node);
  std::uint64_t now_ns() { return tick_.fetch_add(1, std::memory_order_relaxed) + 1; }
  /// Queues an event on `node`, whose inode is `ino`, for post-unlock
  /// delivery, if the node has a watch: no queue would get it otherwise
  /// (requires mu_ exclusive).
  void queue_event_locked(NodeId node, const Inode& ino, std::uint32_t mask,
                          std::string_view name = {},
                          std::uint32_t cookie = 0);
  /// Queues a deferred WatchRegistry::drop_node of `node`, whose inode is
  /// `ino`, if it has a watch (requires mu_ exclusive).
  void queue_drop_locked(NodeId node, const Inode& ino);
  /// Queues an event on the node and, when a parent hint exists, a matching
  /// named event on the parent directory (inotify delivers both).
  void emit_node_event_locked(NodeId node, std::uint32_t mask);
  /// The modified events a content change of `node` owes, into `out`: on
  /// the node and, named, on its parent, each only if watched.  Requires
  /// mu_ in either mode; returns how many it wrote.
  std::size_t modified_events_locked(NodeId node, const Inode& ino,
                                     Event (&out)[2]) const;
  /// Fans out events built under a shared hold of mu_, after it dropped.
  void emit_unlocked(Event (&events)[2], std::size_t n);

  // Unlocked-entry helpers so subclass overrides can reuse base behaviour.
  Result<NodeId> mkdir_locked(NodeId parent, const std::string& name,
                              std::uint32_t mode, const Credentials& creds);
  Result<NodeId> create_locked(NodeId parent, const std::string& name,
                               std::uint32_t mode, const Credentials& creds);
  Result<std::uint64_t> write_locked(NodeId node, std::uint64_t offset,
                                     std::string_view data,
                                     const Credentials& creds);
  Result<std::string> read_locked(NodeId node, std::uint64_t offset,
                                  std::uint64_t size,
                                  const Credentials& creds);
  Result<NodeId> lookup_locked(NodeId parent, const std::string& name) const;
  [[nodiscard]] Status unlink_locked(NodeId parent, const std::string& name,
                       const Credentials& creds);
  [[nodiscard]] Status rmdir_locked(NodeId parent, const std::string& name,
                      const Credentials& creds);
  [[nodiscard]] Status rename_locked(NodeId old_parent, const std::string& old_name,
                       NodeId new_parent, const std::string& new_name,
                       const Credentials& creds);
  Result<NodeId> symlink_locked(NodeId parent, const std::string& name,
                                const std::string& target,
                                const Credentials& creds);

  MemFsOptions options_;
  std::unordered_map<NodeId, Inode> inodes_;
  NodeId next_node_ = kRootNode + 1;
  // Atomic: the concurrent write() path advances these under mu_ shared.
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::size_t> bytes_used_{0};
  std::uint32_t next_cookie_ = 1;
  std::vector<PendingAction> pending_actions_;  // guarded by mu_ exclusive
  // The batch being fanned out; guarded by emit_mu_.  It trades buffers
  // with pending_actions_ under both locks, so both keep their capacity.
  std::vector<PendingAction> emitting_actions_;
};

}  // namespace yanc::vfs
