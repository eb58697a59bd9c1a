// SynthFs: a synthetic file system declared as a node table — the
// procfs/sysfs way of exposing a program's internal state as files, and
// the per-node ops-table shape of a classic vnode layer.
//
// A mount declares its tree instead of implementing the Filesystem
// vtable:
//   - directories are declared by path: declaring a file or a list
//     directory declares its missing ancestors;
//   - each file has a read callback, called at read time, so `cat`
//     always sees the live value;
//   - a file may also have a write callback that parses, then applies, a
//     whole-value write (`echo x > file`): an invalid value fails with
//     the callback's error and changes nothing;
//   - a list directory gets its entries from a callback at lookup and
//     readdir time, in the order the callback returns them, and reads
//     every entry through one callback taking the entry's name;
//   - an optional grow callback runs at the start of each lookup, readdir
//     and refresh(), so a mount can declare files lazily (/yanc/.stats
//     adds one per newly registered metric).
//
// Every other operation has one answer: namespace mutations are EPERM,
// a write to a file without a writer is EACCES, a write to a directory
// EISDIR.  Modes follow from the table: directories 0555, files 0444, or
// 0644 when they have a writer.  Declared nodes are never removed; a list
// directory's entries come and go with its callback.
//
// Locking: the `synth_fs` rank guards the node table only.  No callback
// and no watch emit runs under it, so a callback may take any lock (the
// metrics registry, the tracer, the fault injector) without adding an
// edge below synth_fs.  A declared node's callbacks never change after
// declaration, and declared nodes are never erased, which is what lets
// an operation call them after dropping the lock.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "yanc/dbg/lockdep.hpp"
#include "yanc/vfs/filesystem.hpp"

namespace yanc::vfs {

class SynthFs : public Filesystem {
 public:
  using Reader = std::function<std::string()>;
  /// Parses, then applies, one whole-value write; an error changes nothing.
  using Writer = std::function<Status(std::string_view)>;
  /// A list directory's current entry names, in listing order.
  using Lister = std::function<std::vector<std::string>()>;
  /// Content of one list-directory entry.
  using EntryReader = std::function<std::string(const std::string& name)>;
  using Grow = std::function<void(SynthFs&)>;

  explicit SynthFs(Grow grow = {});

  /// Declares file `path` (relative to this file system's root), with its
  /// missing parent directories.  A path already declared keeps its first
  /// declaration; a path that crosses a file or names a directory is
  /// refused (kInvalidNode).
  NodeId add_file(std::string_view path, Reader read, Writer write = {});
  /// Declares list directory `path`: entries from `list`, each read by
  /// `read(name)`.
  NodeId add_list(std::string_view path, Lister list, EntryReader read);

  /// Emits `modified` on every declared file (and on its directory, with
  /// the file's name) whose content changed since the previous refresh —
  /// the inotify side of the tree, since reads never emit.  Watch-based
  /// consumers pair a WatchQueue with periodic refresh() calls.  Returns
  /// the number of files that changed.
  std::size_t refresh();

  NodeId root() const override { return kRoot; }

  // --- the node table -------------------------------------------------------
  Result<NodeId> lookup(NodeId parent, const std::string& name) override;
  Result<Stat> getattr(NodeId node) override;
  Result<std::vector<DirEntry>> readdir(NodeId dir) override;
  Result<std::string> read(NodeId node, std::uint64_t offset,
                           std::uint64_t size,
                           const Credentials& creds) override;
  Result<std::uint64_t> write(NodeId node, std::uint64_t offset,
                              std::string_view data,
                              const Credentials& creds) override;
  Status truncate(NodeId node, std::uint64_t size,
                  const Credentials& creds) override;
  Status access(NodeId node, std::uint8_t want,
                const Credentials& creds) override;
  Result<WatchRegistry::WatchId> watch(NodeId node, std::uint32_t mask,
                                       WatchQueuePtr queue) override;
  void unwatch(WatchRegistry::WatchId id) override { watches_.remove(id); }

  // --- everything else: the tree is declared, not edited ------------------
  Result<NodeId> mkdir(NodeId, const std::string&, std::uint32_t,
                       const Credentials&) override {
    return Errc::not_permitted;
  }
  Result<NodeId> create(NodeId, const std::string&, std::uint32_t,
                        const Credentials&) override {
    return Errc::not_permitted;
  }
  Result<NodeId> symlink(NodeId, const std::string&, const std::string&,
                         const Credentials&) override {
    return Errc::not_permitted;
  }
  Result<std::string> readlink(NodeId) override {
    return Errc::invalid_argument;
  }
  Status link(NodeId, NodeId, const std::string&,
              const Credentials&) override {
    return Errc::not_permitted;
  }
  Status unlink(NodeId, const std::string&, const Credentials&) override {
    return Errc::not_permitted;
  }
  Status rmdir(NodeId, const std::string&, const Credentials&) override {
    return Errc::not_permitted;
  }
  Status rename(NodeId, const std::string&, NodeId, const std::string&,
                const Credentials&) override {
    return Errc::not_permitted;
  }
  Status chmod(NodeId, std::uint32_t, const Credentials&) override {
    return Errc::not_permitted;
  }
  Status chown(NodeId, Uid, Gid, const Credentials&) override {
    return Errc::not_permitted;
  }
  Status setxattr(NodeId, const std::string&, std::vector<std::uint8_t>,
                  const Credentials&) override {
    return Errc::not_permitted;
  }
  Status removexattr(NodeId, const std::string&,
                     const Credentials&) override {
    return Errc::not_permitted;
  }
  Result<std::vector<std::uint8_t>> getxattr(NodeId,
                                             const std::string&) override {
    return Errc::not_found;
  }
  Result<std::vector<std::string>> listxattr(NodeId) override {
    return std::vector<std::string>{};
  }

 private:
  static constexpr NodeId kRoot = 1;

  struct Node {
    FileType type = FileType::directory;
    std::string name;
    NodeId parent = kInvalidNode;
    // Directories: children by name (list directories: the entries
    // handed out so far).
    std::map<std::string, NodeId, std::less<>> children;
    Reader read;             // declared files
    Writer write;            // declared files that accept writes
    Lister list;             // list directories
    EntryReader read_entry;  // list directories
    std::uint64_t version = 0;
    std::string last_value;  // content at the previous refresh()
  };

  /// What a file operation needs once the lock is dropped.  `read`
  /// points into a declared node (never erased); a list entry is read
  /// through its directory's callback with a copy of its name.
  struct FileRef {
    const Reader* read = nullptr;
    const EntryReader* read_entry = nullptr;
    std::string entry;
    std::string content() const {
      return read ? (*read)() : (*read_entry)(entry);
    }
  };

  void grow() {
    if (grow_) grow_(*this);
  }
  /// Walks `parts` from the root, declaring missing directories and a
  /// leaf of `leaf_type`; kInvalidNode when the table disagrees.  New
  /// nodes are appended to `created` for the caller to announce once the
  /// lock is dropped.
  NodeId declare_locked(const std::vector<std::string>& parts,
                        FileType leaf_type,
                        std::vector<std::pair<NodeId, std::string>>& created);
  /// The node a list entry `name` of `dir` is served under.
  NodeId entry_locked(NodeId dir, const std::string& name);
  FileRef ref_locked(const Node& file) const;
  Result<FileRef> file_ref(NodeId node) const;
  void announce(const std::vector<std::pair<NodeId, std::string>>& created);

  const Grow grow_;
  mutable dbg::Mutex<dbg::Rank::synth_fs> mu_;
  std::unordered_map<NodeId, Node> nodes_;
  NodeId next_node_ = kRoot + 1;
  std::uint64_t refresh_tick_ = 0;
  WatchRegistry watches_;
};

}  // namespace yanc::vfs
