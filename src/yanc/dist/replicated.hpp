// ReplicatedYancFs: a yanc file system whose mutations replicate across a
// cluster — the paper's §6 claim made concrete: "you can layer any number
// of distributed file systems on top of the yanc file system and arrive at
// a distributed SDN controller."
//
// Replication happens *below* the Filesystem API, so applications,
// drivers, and shell tools on every node are completely unaware of it:
// a flow directory committed on node A materializes on node B, where B's
// driver pushes it into B's switches (exactly the paper's NFS proof of
// concept, and its vision of switches participating directly, §7.1).
//
// Two consistency models, selectable per subtree via the extended
// attribute `user.yanc.consistency` (§5.1: "we plan on utilizing
// [extended attributes] to specify consistency requirements"):
//   strict   — NFS-like primary ordering: mutations are routed through the
//              primary synchronously (the origin pays a round trip,
//              recorded in sync_delay_ns) and fan out from there.
//   eventual — WheelFS-like: apply locally at once, broadcast
//              asynchronously, last-writer-wins on conflicting content.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "yanc/dist/transport.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/util/bytes.hpp"

namespace yanc::dist {

enum class Mode : std::uint8_t { strict, eventual };

inline constexpr const char* kConsistencyXattr = "user.yanc.consistency";

struct ReplicaOptions {
  Mode default_mode = Mode::strict;
};

class ReplicatedYancFs : public netfs::YancFs {
 public:
  explicit ReplicatedYancFs(ReplicaOptions options = {});

  /// Wires the replica into a cluster.  `primary` orders strict-mode ops.
  void attach(Transport* transport, Transport::NodeId self,
              Transport::NodeId primary);

  /// Self-service cluster wiring: joins `transport` (registering this
  /// replica's op-log handler) and attaches, returning the node id the
  /// transport assigned.  The external equivalent of what dist::Cluster
  /// does for its own members — cluster::Harness uses it because
  /// handle_message is otherwise private.
  Transport::NodeId join_cluster(Transport& transport,
                                 Transport::NodeId primary = 0);
  /// Re-registers the op-log handler after Transport::leave(self) — node
  /// revival.  The transport bumps the incarnation, so anything in flight
  /// to the dead node stays dead.
  void rejoin_cluster();

  // Mutating operations (overridden to replicate after local success).
  Result<vfs::NodeId> mkdir(vfs::NodeId parent, const std::string& name,
                            std::uint32_t mode,
                            const vfs::Credentials& creds) override;
  Result<vfs::NodeId> create(vfs::NodeId parent, const std::string& name,
                             std::uint32_t mode,
                             const vfs::Credentials& creds) override;
  Result<std::uint64_t> write(vfs::NodeId node, std::uint64_t offset,
                              std::string_view data,
                              const vfs::Credentials& creds) override;
  Status truncate(vfs::NodeId node, std::uint64_t size,
                  const vfs::Credentials& creds) override;
  Result<std::uint64_t> replace(vfs::NodeId node, std::string_view data,
                                const vfs::Credentials& creds) override;
  Status unlink(vfs::NodeId parent, const std::string& name,
                const vfs::Credentials& creds) override;
  Status rmdir(vfs::NodeId parent, const std::string& name,
               const vfs::Credentials& creds) override;
  Status rename(vfs::NodeId old_parent, const std::string& old_name,
                vfs::NodeId new_parent, const std::string& new_name,
                const vfs::Credentials& creds) override;
  Result<vfs::NodeId> symlink(vfs::NodeId parent, const std::string& name,
                              const std::string& target,
                              const vfs::Credentials& creds) override;
  Status chmod(vfs::NodeId node, std::uint32_t mode,
               const vfs::Credentials& creds) override;
  Status chown(vfs::NodeId node, vfs::Uid uid, vfs::Gid gid,
               const vfs::Credentials& creds) override;
  Status setxattr(vfs::NodeId node, const std::string& name,
                  std::vector<std::uint8_t> value,
                  const vfs::Credentials& creds) override;
  Status removexattr(vfs::NodeId node, const std::string& name,
                     const vfs::Credentials& creds) override;

  /// Registers dist/replication_{apply,conflict}_total and
  /// dist/replication_lag_ns in `registry` (typically the registry of the
  /// Vfs this replica is mounted into).  Lag is virtual time from the
  /// origin's emit to this node's apply.  Also registers
  /// dist/anti_entropy_{round,repair,pull}_total.
  void bind_metrics(obs::Registry& registry);

  /// Anti-entropy (§6 made honest about lossy links), a Merkle-style pull.
  /// Every directory has a 64-bit digest over its children's names, types
  /// and last-writer versions, each subdirectory's own digest, and the
  /// deletion tombstones below it.  This sends each peer only the root
  /// digest.  A peer whose root digest differs pulls this replica's
  /// listings one level at a time — one request per level, naming every
  /// directory whose digest differs — and repairs its divergence from
  /// them: recreate what it missed, adopt newer content, and honour
  /// deletions it never saw.  Op-log replication keeps replicas
  /// converged when every message arrives; this pass restores
  /// convergence when some did not, and a lost digest, pull or listing
  /// leaves the divergence for the next round.  One full round =
  /// Cluster::anti_entropy_round() (every node sends once).
  void send_anti_entropy();

  /// The root digest, as this replica keeps it current on every local and
  /// remote change.
  std::uint64_t root_digest() const noexcept { return known_.digest; }
  /// The same digest hashed from scratch — the whole tree, every version
  /// and tombstone: what root_digest() must always equal.
  std::uint64_t root_digest_uncached();

  // --- statistics --------------------------------------------------------
  std::uint64_t local_ops() const noexcept { return local_ops_; }
  std::uint64_t remote_ops_applied() const noexcept { return remote_ops_; }
  std::uint64_t conflicts_ignored() const noexcept { return conflicts_; }
  /// Total synchronous delay charged by strict-mode primary round trips.
  std::uint64_t sync_delay_ns() const noexcept { return sync_delay_ns_; }
  /// Nodes/files this replica fixed up during anti-entropy merges.
  std::uint64_t repairs_applied() const noexcept { return repairs_; }
  /// Directory listings this replica pulled during anti-entropy.
  std::uint64_t listings_pulled() const noexcept { return pulls_; }

 private:
  friend class Cluster;

  struct Op;
  struct Listing;
  void handle_message(Transport::NodeId from,
                      const std::vector<std::uint8_t>& bytes);
  /// Applies a (possibly remote) op; returns false on conflict.
  bool apply(const Op& op);
  /// Replicates an op after local success.
  void emit(Op op);
  Mode mode_for(vfs::NodeId node) const;
  /// Resolves `path` from the root.  With `recreate`, missing directories
  /// on the way are recreated (without versions of their own, each counted
  /// as a repair).
  Result<vfs::NodeId> resolve_local(std::string_view path,
                                    bool recreate = false);

  using Version = std::pair<std::uint64_t, std::uint64_t>;  // (ts, origin)
  /// What this replica knows about one path, in a trie keyed by path
  /// component (the root is known_): the last writer's version of the path,
  /// its newest deletion, whether the local tree has a node there, and the
  /// digest bookkeeping, kept current on every change.  A directory's
  /// digest is the sum of what its trie children count:
  ///   counted = entry hash (name, type, version, digest) if it exists
  ///           + its own tombstone's hash
  ///           + the tombstones below it, unless it is a directory here,
  /// so a tombstone below a path that is no longer a directory is counted
  /// by its nearest directory ancestor.
  struct Known {
    Version version{};                 // {0, 0}: no write known
    std::optional<Version> tombstone;  // a deletion covers its subtree
    bool exists = false;               // mirrors the local tree
    std::uint8_t type = 0;             // its listing entry type, if so
    std::uint64_t digest = 0;       // sum of the children's `counted`
    std::uint64_t tombs_below = 0;  // sum of the tombstone hashes below
    std::uint64_t tomb_hash = 0;    // this path's own tombstone's hash
    // What this node last added to its parent's digest / tombs_below.
    std::uint64_t counted = 0;
    std::uint64_t counted_tombs = 0;
    std::map<std::string, std::unique_ptr<Known>, std::less<>> children;

    /// The node of `path` below this one; nullptr when nothing is known.
    const Known* find(std::string_view path) const;
    /// The child `name`, created when missing.
    Known& child(std::string_view name);
    /// Recomputes what this node (named `name`) adds to its parent,
    /// adding the difference to `parent`.
    void recount(Known& parent, std::string_view name);
    /// Recomputes the digest bookkeeping of this whole subtree.
    void rebuild();
    /// Marks this subtree as absent from the local tree.
    void forget_tree();
    /// Erases the versions in this subtree that `newer` out-ranks; true
    /// when any went.
    bool drop_versions(Version newer);
    /// Moves every version in this subtree into `versions`, and every
    /// tombstone strictly below this node into `tombstones`, each keyed by
    /// its path with `path` as this node's (extended and restored in
    /// place).
    void take_history(std::string& path,
                      std::vector<std::pair<std::string, Version>>& versions,
                      std::vector<std::pair<std::string, Version>>& tombstones);
    Version newest() const;
  };
  /// Applies `change` to the trie node of `path` (created when missing),
  /// then recounts every node on the way back up to the root.  `change`
  /// must leave the node's own subtree consistent (rebuild() it when it
  /// touched more than the node).
  template <typename Change>
  void update(std::string_view path, Change change);
  /// Mirrors the local subtree of `node` (of `type`) into `known`.
  void mirror(Known& known, vfs::NodeId node, vfs::FileType type);
  /// After a node was created, removed or renamed at `path`.
  void note_namespace_change(std::string_view path);
  Version version_of(std::string_view path) const;
  void set_version(std::string_view path, Version version);
  Version newest_in_subtree(std::string_view path) const;
  /// The newest tombstone at `dir` or above it.
  std::optional<Version> covering_tombstone(std::string_view dir) const;
  void record_tombstone(std::string_view path, Version version);
  /// Folds one (local or remote) op into known_.
  void note_version(const Op& op);
  /// Digest of the directory `dir` at `path` ("" = root) hashed from the
  /// local tree and `known` (its trie node; nullptr: none) alone; `path`
  /// is extended and restored in place.
  std::uint64_t hash_dir(vfs::NodeId dir, const Known* known,
                         std::string& path);

  // --- anti-entropy exchange ---------------------------------------------
  void handle_anti_entropy(Transport::NodeId from,
                           const std::vector<std::uint8_t>& bytes);
  void send_pull(Transport::NodeId to, const std::vector<std::string>& dirs);
  /// Answers a pull: one listing per named directory that exists here.
  void serve_pull(Transport::NodeId to, BufReader& r,
                  std::span<const std::uint8_t> bytes);
  /// Appends the listing of the directory `dir` at `path`; false (and
  /// nothing written) when `dir` is not a directory.
  bool put_listing(BufWriter& w, vfs::NodeId dir, std::string& path);
  /// Merges one listing; appends the subdirectories whose digests still
  /// differ to `next`.
  void merge_listing(const Listing& listing, std::vector<std::string>& next);
  void remove_subtree_local(const std::string& path);
  /// Merges one listing entry named `leaf` inside the local directory
  /// `parent`, whose local version is `local`; returns its local node, or
  /// kInvalidNode when it is missing and could not be created.
  vfs::NodeId merge_entry_local(vfs::NodeId parent, const std::string& leaf,
                                std::uint8_t type, std::string_view path,
                                Version local, Version version,
                                std::string_view data);
  void count_repair();
  /// A flow directory's `version` file is its commit point (§3.4): its
  /// watchers read the directory when it changes.  Called after a remote
  /// change at `path` (an applied op or an anti-entropy repair) whose
  /// version is `change`.  When a `version` file beside `path` holds a
  /// newer write, the change belongs to a commit this replica already
  /// shows, which was torn until now (the change's op was lost or
  /// overtaken): the commit is announced again, as a modified event on
  /// that file with no write and nothing sent.
  void reannounce_commit(std::string_view path, Version change);

  ReplicaOptions options_;
  Transport* transport_ = nullptr;
  Transport::NodeId self_ = 0;
  Transport::NodeId primary_ = 0;
  bool applying_remote_ = false;
  std::uint64_t lamport_ = 0;
  // Last-writer-wins bookkeeping: the (ts, origin) of the newest content
  // write or node creation seen for each path, and the deletions, kept as
  // tombstones so anti-entropy never resurrects a path a newer
  // unlink/rmdir removed.
  Known known_;
  std::uint64_t local_ops_ = 0;
  std::uint64_t remote_ops_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t sync_delay_ns_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t pulls_ = 0;
  obs::Counter* apply_metric_ = nullptr;
  obs::Counter* conflict_metric_ = nullptr;
  obs::Counter* ae_round_metric_ = nullptr;
  obs::Counter* ae_repair_metric_ = nullptr;
  obs::Counter* ae_pull_metric_ = nullptr;
  obs::Histogram* lag_metric_ = nullptr;
};

struct ClusterOptions {
  std::size_t nodes = 2;
  VirtualClock::duration link_latency = std::chrono::microseconds(500);
  Mode default_mode = Mode::strict;
};

/// A cluster of replicated yanc file systems over one simulated transport.
/// Node 0 is the primary for strict-mode subtrees.
class Cluster {
 public:
  Cluster(net::Scheduler& scheduler, ClusterOptions options);

  std::size_t size() const noexcept { return replicas_.size(); }
  std::shared_ptr<ReplicatedYancFs> fs(std::size_t node) {
    return replicas_.at(node);
  }
  Transport& transport() noexcept { return transport_; }

  void partition(std::size_t a, std::size_t b) {
    transport_.set_partitioned(a, b, true);
  }
  void heal(std::size_t a, std::size_t b) {
    transport_.set_partitioned(a, b, false);
  }

  /// One anti-entropy round: every replica sends its root digest to every
  /// peer, and the peers that differ pull what they lack.  Run the
  /// scheduler afterwards, then repeat once more if repairs on one node
  /// must propagate knowledge back to the others.
  void anti_entropy_round() {
    for (auto& replica : replicas_) replica->send_anti_entropy();
  }

 private:
  Transport transport_;
  std::vector<std::shared_ptr<ReplicatedYancFs>> replicas_;
};

}  // namespace yanc::dist
