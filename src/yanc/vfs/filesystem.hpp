// The Filesystem interface: the contract between the mount layer (Vfs) and
// any concrete file system.
//
// This is the load-bearing abstraction of the whole reproduction.  The
// paper's architecture works *because* everything is a file system:
//   - MemFs                  : plain storage (the yanc FS's backing store)
//   - netfs::YancFs          : MemFs + network-object schema semantics (§3)
//   - dist::ReplicatedYancFs : a YancFs whose mutations replicate across
//                              a cluster (§6)
//   - SynthFs                : read-only generated files (/yanc/.stats,
//                              /yanc/.trace, /yanc/.faults)
// All of them implement this one interface, so the distributed layer
// slides underneath the yanc FS without anyone noticing, and
// Linux-namespace-style isolation is just a different root directory.
// Views (§4.2) are not filesystems of their own: view::Slicer and
// view::BigSwitch keep each view as a subtree under views/ and translate
// between it and its parent tree, so views stack on views.
//
// The interface is node-based (like the FUSE lowlevel API): the Vfs layer
// owns path walking, symlink following and mount crossing; filesystems only
// ever see (parent-node, name) pairs.  Calls are stateless — there are no
// per-open server-side handles — which is what makes the replicated
// implementation straightforward.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "yanc/util/result.hpp"
#include "yanc/vfs/types.hpp"
#include "yanc/vfs/watch.hpp"

namespace yanc::vfs {

/// What one step of a path walk found: the child node and its type.
struct WalkStep {
  NodeId node = kInvalidNode;
  FileType type = FileType::regular;
};

class Filesystem {
 public:
  virtual ~Filesystem() = default;

  /// Root directory node of this filesystem.
  virtual NodeId root() const = 0;

  // --- namespace operations -------------------------------------------
  /// One component of a Vfs path walk, as one call: checks that `dir` is a
  /// directory `creds` may search (execute), then finds `name` in it and
  /// reports the child's type.  Errors, in the order checked: not_found
  /// (no `dir`), not_dir, access_denied, then not_found (no `name`).  The
  /// Vfs never passes "", "." or "..".
  virtual Result<WalkStep> walk_step(NodeId dir, std::string_view name,
                                     const Credentials& creds) = 0;
  virtual Result<NodeId> lookup(NodeId parent, const std::string& name) = 0;
  virtual Result<Stat> getattr(NodeId node) = 0;
  virtual Result<std::vector<DirEntry>> readdir(NodeId dir) = 0;

  virtual Result<NodeId> mkdir(NodeId parent, const std::string& name,
                               std::uint32_t mode,
                               const Credentials& creds) = 0;
  virtual Result<NodeId> create(NodeId parent, const std::string& name,
                                std::uint32_t mode,
                                const Credentials& creds) = 0;
  virtual Result<NodeId> symlink(NodeId parent, const std::string& name,
                                 const std::string& target,
                                 const Credentials& creds) = 0;
  virtual Result<std::string> readlink(NodeId node) = 0;
  /// Hard link `node` into `parent` as `name`.
  [[nodiscard]] virtual Status link(NodeId node, NodeId parent, const std::string& name,
                      const Credentials& creds) = 0;

  [[nodiscard]] virtual Status unlink(NodeId parent, const std::string& name,
                        const Credentials& creds) = 0;
  [[nodiscard]] virtual Status rmdir(NodeId parent, const std::string& name,
                       const Credentials& creds) = 0;
  [[nodiscard]] virtual Status rename(NodeId old_parent, const std::string& old_name,
                        NodeId new_parent, const std::string& new_name,
                        const Credentials& creds) = 0;

  // --- data operations --------------------------------------------------
  virtual Result<std::string> read(NodeId node, std::uint64_t offset,
                                   std::uint64_t size,
                                   const Credentials& creds) = 0;
  virtual Result<std::uint64_t> write(NodeId node, std::uint64_t offset,
                                      std::string_view data,
                                      const Credentials& creds) = 0;
  [[nodiscard]] virtual Status truncate(NodeId node, std::uint64_t size,
                          const Credentials& creds) = 0;
  /// Replaces the entire content of `node` with `data`.  The base
  /// implementation is truncate + write — two separately-visible states, so
  /// a concurrent reader can observe the intermediate empty file.
  /// Filesystems that can do better override it to commit the new content
  /// in one step (MemFs swaps it under a single content-shard lock);
  /// Vfs::write_file routes through this so whole-file rewrites are atomic
  /// with respect to readers.
  virtual Result<std::uint64_t> replace(NodeId node, std::string_view data,
                                        const Credentials& creds) {
    if (auto ec = truncate(node, 0, creds); ec) return ec;
    return write(node, 0, data, creds);
  }

  // --- metadata ----------------------------------------------------------
  [[nodiscard]] virtual Status chmod(NodeId node, std::uint32_t mode,
                       const Credentials& creds) = 0;
  [[nodiscard]] virtual Status chown(NodeId node, Uid uid, Gid gid,
                       const Credentials& creds) = 0;

  [[nodiscard]] virtual Status setxattr(NodeId node, const std::string& name,
                          std::vector<std::uint8_t> value,
                          const Credentials& creds) = 0;
  virtual Result<std::vector<std::uint8_t>> getxattr(
      NodeId node, const std::string& name) = 0;
  virtual Result<std::vector<std::string>> listxattr(NodeId node) = 0;
  [[nodiscard]] virtual Status removexattr(NodeId node, const std::string& name,
                             const Credentials& creds) = 0;

  // --- permissions --------------------------------------------------------
  /// Checks rwx access on one node (POSIX mode bits + ACL if present).
  [[nodiscard]] virtual Status access(NodeId node, std::uint8_t want,
                        const Credentials& creds) = 0;

  // --- monitoring -----------------------------------------------------------
  /// Registers `queue` for events matching `mask` on `node` (§5.2).
  virtual Result<WatchRegistry::WatchId> watch(NodeId node, std::uint32_t mask,
                                               WatchQueuePtr queue) = 0;
  virtual void unwatch(WatchRegistry::WatchId id) = 0;
};

using FilesystemPtr = std::shared_ptr<Filesystem>;

}  // namespace yanc::vfs
