#include "yanc/vfs/synth_fs.hpp"

#include <algorithm>

#include "yanc/util/strings.hpp"

namespace yanc::vfs {

SynthFs::SynthFs(Grow grow) : grow_(std::move(grow)) {
  nodes_.emplace(kRoot, Node{});
}

NodeId SynthFs::declare_locked(
    const std::vector<std::string>& parts, FileType leaf_type,
    std::vector<std::pair<NodeId, std::string>>& created) {
  NodeId cur = kRoot;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    FileType type =
        i + 1 == parts.size() ? leaf_type : FileType::directory;
    Node& dir = nodes_.at(cur);
    auto it = dir.children.find(parts[i]);
    if (it != dir.children.end()) {
      // A name is either a file or a directory; a declaration that
      // disagrees with the table is refused rather than corrupting it.
      if (nodes_.at(it->second).type != type) return kInvalidNode;
      cur = it->second;
      continue;
    }
    if (dir.list) return kInvalidNode;  // entries come from the callback
    NodeId child = next_node_++;
    dir.children.emplace(parts[i], child);
    Node& node = nodes_[child];
    node.type = type;
    node.name = parts[i];
    node.parent = cur;
    created.emplace_back(cur, parts[i]);
    cur = child;
  }
  return cur;
}

void SynthFs::announce(
    const std::vector<std::pair<NodeId, std::string>>& created) {
  // A node appearing in a watched directory is observable, like procfs
  // gaining an entry.
  for (const auto& [dir, name] : created)
    watches_.emit(dir, event::created, name);
}

NodeId SynthFs::add_file(std::string_view path, Reader read, Writer write) {
  auto parts = split_nonempty(path, '/');
  if (parts.empty() || !read) return kInvalidNode;
  std::vector<std::pair<NodeId, std::string>> created;
  NodeId id = kInvalidNode;
  {
    dbg::LockGuard lock(mu_);
    id = declare_locked(parts, FileType::regular, created);
    if (id != kInvalidNode) {
      Node& node = nodes_.at(id);
      if (nodes_.at(node.parent).list) {
        id = kInvalidNode;  // a list entry, not a declared file
      } else if (!node.read) {
        node.read = std::move(read);
        node.write = std::move(write);
      }
    }
  }
  announce(created);
  return id;
}

NodeId SynthFs::add_list(std::string_view path, Lister list,
                         EntryReader read) {
  std::vector<std::pair<NodeId, std::string>> created;
  NodeId id = kInvalidNode;
  {
    dbg::LockGuard lock(mu_);
    id = declare_locked(split_nonempty(path, '/'), FileType::directory,
                        created);
    if (id != kInvalidNode) {
      Node& node = nodes_.at(id);
      if (!node.children.empty() || node.list) {
        id = kInvalidNode;  // already a plain or a list directory
      } else {
        node.list = std::move(list);
        node.read_entry = std::move(read);
      }
    }
  }
  announce(created);
  return id;
}

NodeId SynthFs::entry_locked(NodeId dir, const std::string& name) {
  Node& parent = nodes_.at(dir);
  auto it = parent.children.find(name);
  if (it != parent.children.end()) return it->second;
  NodeId id = next_node_++;
  parent.children.emplace(name, id);
  Node& node = nodes_[id];
  node.type = FileType::regular;
  node.name = name;
  node.parent = dir;
  return id;
}

SynthFs::FileRef SynthFs::ref_locked(const Node& file) const {
  FileRef ref;
  if (file.read) {
    ref.read = &file.read;
  } else {
    ref.read_entry = &nodes_.at(file.parent).read_entry;
    ref.entry = file.name;
  }
  return ref;
}

Result<SynthFs::FileRef> SynthFs::file_ref(NodeId id) const {
  dbg::LockGuard lock(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Errc::not_found;
  if (it->second.type == FileType::directory) return Errc::is_dir;
  return ref_locked(it->second);
}

Result<NodeId> SynthFs::lookup(NodeId parent, const std::string& name) {
  grow();
  const Lister* list = nullptr;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(parent);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& dir = it->second;
    if (dir.type != FileType::directory) return Errc::not_dir;
    if (!dir.list) {
      auto child = dir.children.find(name);
      if (child == dir.children.end()) return Errc::not_found;
      return child->second;
    }
    list = &dir.list;
  }
  auto names = (*list)();
  if (std::find(names.begin(), names.end(), name) == names.end())
    return Errc::not_found;
  dbg::LockGuard lock(mu_);
  return entry_locked(parent, name);
}

Result<Stat> SynthFs::getattr(NodeId id) {
  Stat st;
  st.ino = id;
  st.nlink = 1;
  FileRef ref;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& node = it->second;
    st.type = node.type;
    st.version = node.version;
    st.mtime_ns = refresh_tick_;
    if (node.type == FileType::directory) {
      st.mode = 0555;
      st.size = node.children.size();
      return st;
    }
    st.mode = node.write ? 0644 : 0444;
    ref = ref_locked(node);
  }
  st.size = ref.content().size();
  return st;
}

Result<std::vector<DirEntry>> SynthFs::readdir(NodeId id) {
  grow();
  std::vector<DirEntry> out;
  const Lister* list = nullptr;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& dir = it->second;
    if (dir.type != FileType::directory) return Errc::not_dir;
    if (!dir.list) {
      out.reserve(dir.children.size());
      for (const auto& [name, child] : dir.children)
        out.push_back({name, child, nodes_.at(child).type});
      return out;
    }
    list = &dir.list;
  }
  auto names = (*list)();
  dbg::LockGuard lock(mu_);
  // Entries the callback no longer lists are forgotten here, so the
  // table holds one listing's worth of them, not every name ever served.
  auto& children = nodes_.at(id).children;
  for (auto it = children.begin(); it != children.end();) {
    if (std::find(names.begin(), names.end(), it->first) != names.end()) {
      ++it;
      continue;
    }
    nodes_.erase(it->second);
    it = children.erase(it);
  }
  out.reserve(names.size());
  for (auto& name : names) {
    NodeId entry = entry_locked(id, name);
    out.push_back({std::move(name), entry, FileType::regular});
  }
  return out;
}

Result<std::string> SynthFs::read(NodeId node, std::uint64_t offset,
                                  std::uint64_t size, const Credentials&) {
  auto ref = file_ref(node);
  if (!ref) return ref.error();
  std::string content = ref->content();
  if (offset >= content.size()) return std::string();
  if (offset == 0 && size >= content.size()) return content;
  return content.substr(offset, size);
}

Result<std::uint64_t> SynthFs::write(NodeId id, std::uint64_t offset,
                                     std::string_view data,
                                     const Credentials&) {
  const Writer* writer = nullptr;
  NodeId parent = kInvalidNode;
  const std::string* name = nullptr;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& node = it->second;
    if (node.type == FileType::directory) return Errc::is_dir;
    if (!node.write) return Errc::access_denied;
    writer = &node.write;
    parent = node.parent;
    name = &node.name;  // a writable node is declared: never erased
  }
  // Control files take whole values (echo > file); an offset write has
  // no sensible parse.
  if (offset != 0) return Errc::invalid_argument;
  if (auto ec = (*writer)(data)) return ec;
  {
    dbg::LockGuard lock(mu_);
    ++nodes_.at(id).version;
  }
  watches_.emit(id, event::modified);
  watches_.emit(parent, event::modified, *name);
  return static_cast<std::uint64_t>(data.size());
}

Status SynthFs::truncate(NodeId id, std::uint64_t size, const Credentials&) {
  dbg::LockGuard lock(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Errc::not_found;
  if (it->second.type == FileType::directory) return Errc::is_dir;
  if (!it->second.write) return Errc::access_denied;
  // O_TRUNC on open is accepted as a no-op so `echo x > file` works; the
  // value only changes when the new content arrives in write().
  return size == 0 ? ok_status() : make_error_code(Errc::invalid_argument);
}

Status SynthFs::access(NodeId id, std::uint8_t want, const Credentials&) {
  dbg::LockGuard lock(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return Errc::not_found;
  if ((want & 2) && !it->second.write) return Errc::access_denied;
  return ok_status();
}

Result<WatchRegistry::WatchId> SynthFs::watch(NodeId id, std::uint32_t mask,
                                              WatchQueuePtr queue) {
  {
    dbg::LockGuard lock(mu_);
    if (nodes_.find(id) == nodes_.end()) return Errc::not_found;
  }
  return watches_.add(id, mask, std::move(queue));
}

std::size_t SynthFs::refresh() {
  grow();
  struct Target {
    NodeId id;
    NodeId parent;
    const std::string* name;
    const Reader* read;
  };
  std::vector<Target> targets;
  {
    dbg::LockGuard lock(mu_);
    ++refresh_tick_;
    for (const auto& [id, node] : nodes_)
      if (node.read)
        targets.push_back({id, node.parent, &node.name, &node.read});
  }
  std::size_t changed = 0;
  for (const auto& target : targets) {
    std::string content = (*target.read)();
    {
      dbg::LockGuard lock(mu_);
      Node& node = nodes_.at(target.id);
      if (content == node.last_value) continue;
      node.last_value = std::move(content);
      ++node.version;
    }
    ++changed;
    watches_.emit(target.id, event::modified);
    watches_.emit(target.parent, event::modified, *target.name);
  }
  return changed;
}

}  // namespace yanc::vfs
