#include "yanc/dist/replicated.hpp"

#include <tuple>

#include "yanc/util/bytes.hpp"
#include "yanc/util/log.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::dist {

using vfs::Credentials;
using vfs::NodeId;

namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

void put_string(BufWriter& w, std::string_view s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(as_bytes(s));
}

/// Reads a length-prefixed string as a view into `bytes`, the buffer `r`
/// reads; empty once `r` is poisoned.
std::string_view get_view(BufReader& r, std::span<const std::uint8_t> bytes) {
  std::uint32_t len = r.u32();
  std::size_t at = r.pos();
  r.skip(len);
  if (!r.ok()) return {};
  return {reinterpret_cast<const char*>(bytes.data()) + at, len};
}

/// True when `path` lies strictly below the directory `dir` ("" = root).
bool is_below(std::string_view path, std::string_view dir) {
  return path.size() > dir.size() && path[dir.size()] == '/' &&
         path.starts_with(dir);
}

std::pair<std::string, std::string> dir_and_leaf(const std::string& path) {
  auto slash = path.rfind('/');
  if (slash == std::string::npos || slash == 0)
    return {"/", path.substr(slash == std::string::npos ? 0 : 1)};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

}  // namespace

struct ReplicatedYancFs::Op {
  enum class Kind : std::uint8_t {
    mkdir,
    create,
    write,
    truncate,
    unlink,
    rmdir,
    rename,
    symlink,
    chmod,
    chown,
    setxattr,
    removexattr,
    anti_entropy,  // data = encoded Snapshot
  };
  Kind kind = Kind::mkdir;
  bool via_primary = false;  // strict op awaiting primary fan-out
  std::uint64_t ts = 0;      // Lamport timestamp
  std::uint64_t origin = 0;
  std::uint64_t sent_ns = 0;  // origin's virtual time at emit (lag metric)
  std::string path;
  std::string aux;  // rename destination / symlink target / xattr name
  // Write payload / xattr value / snapshot, borrowed: from the mutating
  // call that emits the op, or from the message bytes it was decoded from.
  std::string_view data;
  std::uint64_t offset = 0;  // write offset / truncate size
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;

  std::vector<std::uint8_t> encode() const {
    BufWriter w;
    w.u8(static_cast<std::uint8_t>(kind));
    w.u8(via_primary ? 1 : 0);
    w.u64(ts);
    w.u64(origin);
    w.u64(sent_ns);
    w.u64(offset);
    w.u32(mode);
    w.u32(uid);
    w.u32(gid);
    put_string(w, path);
    put_string(w, aux);
    put_string(w, data);
    return w.take();
  }

  static Result<Op> decode(std::span<const std::uint8_t> bytes) {
    BufReader r(bytes);
    Op op;
    op.kind = static_cast<Kind>(r.u8());
    op.via_primary = r.u8() != 0;
    op.ts = r.u64();
    op.origin = r.u64();
    op.sent_ns = r.u64();
    op.offset = r.u64();
    op.mode = r.u32();
    op.uid = r.u32();
    op.gid = r.u32();
    op.path = get_view(r, bytes);
    op.aux = get_view(r, bytes);
    op.data = get_view(r, bytes);
    if (!r.ok()) return Errc::protocol_error;
    return op;
  }
};

// A Snapshot is one replica's view of its entire tree, exchanged during
// anti-entropy: preorder entries (parents before children) with the
// last-writer version each path was created/written at, plus the
// tombstones of everything deleted.  Layout: u32 entry count, entries,
// u32 tombstone count, tombstones.  The sender writes it straight from
// its tree (send_anti_entropy); the receiver decodes views into the
// message bytes, which outlive the merge.
struct ReplicatedYancFs::Snapshot {
  enum Type : std::uint8_t { dir = 0, file = 1, symlink = 2 };
  struct Entry {
    std::uint8_t type = dir;
    std::string_view path;
    Version version;
    std::string_view data;  // file content / symlink target
  };
  std::vector<Entry> entries;
  std::vector<std::pair<std::string_view, Version>> tombstones;

  static void put_entry(BufWriter& w, std::uint8_t type, std::string_view path,
                        Version version, std::string_view data) {
    w.u8(type);
    w.u64(version.first);
    w.u64(version.second);
    put_string(w, path);
    put_string(w, data);
  }

  static void put_tombstone(BufWriter& w, std::string_view path,
                            Version version) {
    w.u64(version.first);
    w.u64(version.second);
    put_string(w, path);
  }

  static Result<Snapshot> decode(std::span<const std::uint8_t> bytes) {
    // The smallest encodings bound what a corrupt count can reserve.
    constexpr std::size_t kMinEntry = 1 + 8 + 8 + 4 + 4;
    constexpr std::size_t kMinTombstone = 8 + 8 + 4;
    BufReader r(bytes);
    Snapshot snap;
    std::uint32_t n = r.u32();
    snap.entries.reserve(std::min<std::size_t>(n, r.remaining() / kMinEntry));
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      Entry e;
      e.type = r.u8();
      e.version.first = r.u64();
      e.version.second = r.u64();
      e.path = get_view(r, bytes);
      e.data = get_view(r, bytes);
      snap.entries.push_back(e);
    }
    std::uint32_t t = r.u32();
    snap.tombstones.reserve(
        std::min<std::size_t>(t, r.remaining() / kMinTombstone));
    for (std::uint32_t i = 0; i < t && r.ok(); ++i) {
      Version version;
      version.first = r.u64();
      version.second = r.u64();
      snap.tombstones.emplace_back(get_view(r, bytes), version);
    }
    if (!r.ok()) return Errc::protocol_error;
    return snap;
  }
};

ReplicatedYancFs::ReplicatedYancFs(ReplicaOptions options)
    : options_(options) {}

void ReplicatedYancFs::attach(Transport* transport, Transport::NodeId self,
                              Transport::NodeId primary) {
  transport_ = transport;
  self_ = self;
  primary_ = primary;
}

Transport::NodeId ReplicatedYancFs::join_cluster(Transport& transport,
                                                 Transport::NodeId primary) {
  auto id = transport.join(
      [this](Transport::NodeId from, const std::vector<std::uint8_t>& bytes) {
        handle_message(from, bytes);
      });
  attach(&transport, id, primary);
  return id;
}

void ReplicatedYancFs::rejoin_cluster() {
  if (!transport_) return;
  transport_->rejoin(self_, [this](Transport::NodeId from,
                                   const std::vector<std::uint8_t>& bytes) {
    handle_message(from, bytes);
  });
}

Mode ReplicatedYancFs::mode_for(NodeId node) const {
  auto value = nearest_xattr(node, kConsistencyXattr);
  if (!value) return options_.default_mode;
  std::string text(value->begin(), value->end());
  auto trimmed = trim(text);
  if (trimmed == "eventual") return Mode::eventual;
  if (trimmed == "strict") return Mode::strict;
  return options_.default_mode;
}

Result<NodeId> ReplicatedYancFs::resolve_local(std::string_view path) {
  NodeId node = root();
  std::string comp;
  for (std::size_t pos = 0; pos < path.size();) {
    std::size_t end = std::min(path.find('/', pos), path.size());
    if (end > pos) {
      comp.assign(path.substr(pos, end - pos));
      auto next = lookup(node, comp);
      if (!next) return next.error();
      node = *next;
    }
    pos = end + 1;
  }
  return node;
}

void ReplicatedYancFs::bind_metrics(obs::Registry& registry) {
  apply_metric_ = registry.counter("dist/replication_apply_total");
  conflict_metric_ = registry.counter("dist/replication_conflict_total");
  lag_metric_ = registry.histogram("dist/replication_lag_ns");
  ae_round_metric_ = registry.counter("dist/anti_entropy_round_total");
  ae_repair_metric_ = registry.counter("dist/anti_entropy_repair_total");
}

void ReplicatedYancFs::emit(Op op) {
  if (!transport_ || applying_remote_) return;
  op.ts = ++lamport_;
  op.origin = self_;
  op.sent_ns = transport_->clock().now_ns();
  ++local_ops_;
  note_version(op);

  // Consistency is chosen by the nearest xattr above the op's target.
  Mode mode = options_.default_mode;
  if (auto node = resolve_local(op.path))
    mode = mode_for(*node);
  else if (auto parent = resolve_local(dir_and_leaf(op.path).first))
    mode = mode_for(*parent);

  if (mode == Mode::strict && self_ != primary_) {
    // Synchronous routing through the primary: the caller pays the round
    // trip (modelled as accounted virtual time; the op itself travels the
    // simulated link so remote visibility is still ordered by arrival).
    sync_delay_ns_ += 2 * static_cast<std::uint64_t>(
                              transport_->latency().count());
    op.via_primary = true;
    // A filter-eaten op here diverges this replica until the next
    // anti-entropy round repairs it; that repair path is the point.
    std::ignore = transport_->send(self_, primary_, op.encode());
    return;
  }
  transport_->broadcast(self_, op.encode());
}

void ReplicatedYancFs::handle_message(Transport::NodeId from,
                                      const std::vector<std::uint8_t>& bytes) {
  auto op = Op::decode(bytes);
  if (!op) {
    log_error("dist", "undecodable replication op");
    return;
  }
  lamport_ = std::max(lamport_, op->ts);
  if (op->kind == Op::Kind::anti_entropy) {
    auto snap = Snapshot::decode(as_bytes(op->data));
    if (snap)
      apply_anti_entropy(*snap);
    else
      log_error("dist", "undecodable anti-entropy snapshot");
    return;
  }
  note_version(*op);
  bool applied = apply(*op);
  if (applied) {
    ++remote_ops_;
    if (apply_metric_) apply_metric_->add();
    if (lag_metric_ && transport_) {
      std::uint64_t now = transport_->clock().now_ns();
      if (now >= op->sent_ns) lag_metric_->record(now - op->sent_ns);
    }
  } else {
    ++conflicts_;
    if (conflict_metric_) conflict_metric_->add();
  }
  (void)from;

  // Primary fan-out for strict ops that were routed through us.
  if (op->via_primary && self_ == primary_) {
    Op fanned = *op;
    fanned.via_primary = false;
    for (Transport::NodeId node = 0; node < transport_->size(); ++node)
      if (node != self_ && node != op->origin)
        // Same deal as broadcast: per-link loss is anti-entropy's job.
        std::ignore = transport_->send(self_, node, fanned.encode());
  }
}

bool ReplicatedYancFs::apply(const Op& op) {
  applying_remote_ = true;
  auto done = [&](bool ok) {
    applying_remote_ = false;
    return ok;
  };
  Credentials root_creds;
  auto [dir, leaf] = dir_and_leaf(op.path);

  switch (op.kind) {
    case Op::Kind::mkdir: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto r = mkdir(*parent, leaf, op.mode, root_creds);
      return done(r.ok() || r.error() == make_error_code(Errc::exists));
    }
    case Op::Kind::create: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto r = create(*parent, leaf, op.mode, root_creds);
      return done(r.ok() || r.error() == make_error_code(Errc::exists));
    }
    case Op::Kind::write:
    case Op::Kind::truncate: {
      // Last-writer-wins on content: a concurrently newer local write
      // (greater ts, or equal ts from a higher node id) survives.
      auto it = write_versions_.find(op.path);
      if (it != write_versions_.end() &&
          it->second > std::make_pair(op.ts, op.origin))
        return done(false);
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      bool ok;
      if (op.kind == Op::Kind::write)
        ok = write(*node, op.offset, op.data, root_creds).ok();
      else
        ok = !truncate(*node, op.offset, root_creds);
      if (ok) write_versions_[op.path] = {op.ts, op.origin};
      return done(ok);
    }
    case Op::Kind::unlink: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto ec = unlink(*parent, leaf, root_creds);
      return done(!ec || ec == make_error_code(Errc::not_found));
    }
    case Op::Kind::rmdir: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto ec = rmdir(*parent, leaf, root_creds);
      return done(!ec || ec == make_error_code(Errc::not_found));
    }
    case Op::Kind::rename: {
      auto [to_dir, to_leaf] = dir_and_leaf(op.aux);
      auto from_parent = resolve_local(dir);
      auto to_parent = resolve_local(to_dir);
      if (!from_parent || !to_parent) return done(false);
      return done(
          !rename(*from_parent, leaf, *to_parent, to_leaf, root_creds));
    }
    case Op::Kind::symlink: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto r = symlink(*parent, leaf, op.aux, root_creds);
      return done(r.ok() || r.error() == make_error_code(Errc::exists));
    }
    case Op::Kind::chmod: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      return done(!chmod(*node, op.mode, root_creds));
    }
    case Op::Kind::chown: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      return done(!chown(*node, op.uid, op.gid, root_creds));
    }
    case Op::Kind::setxattr: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      std::vector<std::uint8_t> value(op.data.begin(), op.data.end());
      return done(!setxattr(*node, op.aux, std::move(value), root_creds));
    }
    case Op::Kind::removexattr: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      auto ec = removexattr(*node, op.aux, root_creds);
      return done(!ec || ec == make_error_code(Errc::not_found));
    }
    case Op::Kind::anti_entropy:
      break;  // dispatched in handle_message, never reaches apply()
  }
  return done(false);
}

// --- anti-entropy --------------------------------------------------------------

void ReplicatedYancFs::note_version(const Op& op) {
  Version version{op.ts, op.origin};
  switch (op.kind) {
    case Op::Kind::mkdir:
    case Op::Kind::create:
    case Op::Kind::symlink:
    case Op::Kind::write:
    case Op::Kind::truncate: {
      auto& v = write_versions_[op.path];
      v = std::max(v, version);
      break;
    }
    case Op::Kind::unlink:
    case Op::Kind::rmdir:
      record_tombstone(op.path, version);
      break;
    case Op::Kind::rename: {
      // Content knowledge follows the subtree to its new name; the old
      // name gets a tombstone so stale copies of it stay dead.
      std::vector<std::pair<std::string, Version>> moved;
      if (auto it = write_versions_.find(op.path);
          it != write_versions_.end()) {
        moved.emplace_back(op.aux, it->second);
        write_versions_.erase(it);
      }
      std::string prefix = op.path + "/";
      for (auto it = write_versions_.lower_bound(prefix);
           it != write_versions_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;) {
        moved.emplace_back(op.aux + it->first.substr(op.path.size()),
                           it->second);
        it = write_versions_.erase(it);
      }
      record_tombstone(op.path, version);
      for (auto& [path, v] : moved) {
        auto& slot = write_versions_[path];
        slot = std::max(slot, v);
      }
      auto& dest = write_versions_[op.aux];
      dest = std::max(dest, version);
      break;
    }
    default:
      break;  // metadata-only ops don't move the LWW needle
  }
}

ReplicatedYancFs::Version ReplicatedYancFs::version_of(
    std::string_view path) const {
  auto it = write_versions_.find(path);
  return it == write_versions_.end() ? Version{0, 0} : it->second;
}

void ReplicatedYancFs::set_version(std::string_view path, Version version) {
  if (auto it = write_versions_.find(path); it != write_versions_.end())
    it->second = version;
  else
    write_versions_.emplace(std::string(path), version);
}

ReplicatedYancFs::Version ReplicatedYancFs::newest_in_subtree(
    std::string_view path) const {
  Version newest = version_of(path);
  std::string prefix = std::string(path) + "/";
  for (auto it = write_versions_.lower_bound(prefix);
       it != write_versions_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    newest = std::max(newest, it->second);
  return newest;
}

bool ReplicatedYancFs::tombstoned(std::string_view path,
                                  Version version) const {
  if (tombstones_.empty()) return false;
  auto dead = [&](std::string_view prefix) {
    auto it = tombstones_.find(prefix);
    return it != tombstones_.end() && !(it->second < version);
  };
  // A tombstone covers the path itself and everything below it, so probe
  // the path and each prefix that ends at a `/` ("/a/b": "", "/a", "/a/b").
  for (auto slash = path.find('/'); slash != std::string_view::npos;
       slash = path.find('/', slash + 1))
    if (dead(path.substr(0, slash))) return true;
  return dead(path);
}

void ReplicatedYancFs::record_tombstone(std::string_view path,
                                        Version version) {
  if (auto it = tombstones_.find(path); it == tombstones_.end())
    tombstones_.emplace(std::string(path), version);
  else if (it->second < version)
    it->second = version;
  // The deletion supersedes any content knowledge it is newer than;
  // strictly newer writes survive (they out-rank the tombstone).
  if (auto wit = write_versions_.find(path);
      wit != write_versions_.end() && wit->second <= version)
    write_versions_.erase(wit);
  std::string prefix = std::string(path) + "/";
  for (auto wit = write_versions_.lower_bound(prefix);
       wit != write_versions_.end() &&
       wit->first.compare(0, prefix.size(), prefix) == 0;)
    wit = wit->second <= version ? write_versions_.erase(wit)
                                 : std::next(wit);
}

void ReplicatedYancFs::count_repair() {
  ++repairs_;
  if (ae_repair_metric_) ae_repair_metric_->add();
}

void ReplicatedYancFs::snapshot_subtree(vfs::NodeId node, std::string& path,
                                        BufWriter& out, std::uint32_t& count) {
  auto st = getattr(node);
  if (!st) return;
  if (!path.empty()) {
    std::uint8_t type = Snapshot::dir;
    std::string data;
    if (st->is_symlink()) {
      type = Snapshot::symlink;
      if (auto target = readlink(node)) data = std::move(*target);
    } else if (!st->is_dir()) {
      type = Snapshot::file;
      if (auto content = read(node, 0, st->size, Credentials::root()))
        data = std::move(*content);
    }
    Snapshot::put_entry(out, type, path, version_of(path), data);
    ++count;
  }
  if (!st->is_dir()) return;
  auto children = readdir(node);
  if (!children) return;
  std::size_t len = path.size();
  for (const auto& child : *children) {
    path += '/';
    path += child.name;
    snapshot_subtree(child.node, path, out, count);
    path.resize(len);
  }
}

void ReplicatedYancFs::send_anti_entropy() {
  if (!transport_) return;
  // The entry count is known only after the walk: patch it in place.
  BufWriter snap;
  snap.u32(0);
  std::uint32_t count = 0;
  std::string path;
  snapshot_subtree(root(), path, snap, count);
  snap.patch_u16(0, static_cast<std::uint16_t>(count >> 16));
  snap.patch_u16(2, static_cast<std::uint16_t>(count));
  snap.u32(static_cast<std::uint32_t>(tombstones_.size()));
  for (const auto& [dead, version] : tombstones_)
    Snapshot::put_tombstone(snap, dead, version);
  Op op;
  op.kind = Op::Kind::anti_entropy;
  op.ts = ++lamport_;
  op.origin = self_;
  op.sent_ns = transport_->clock().now_ns();
  op.data = {reinterpret_cast<const char*>(snap.data().data()), snap.size()};
  if (ae_round_metric_) ae_round_metric_->add();
  transport_->broadcast(self_, op.encode());
}

void ReplicatedYancFs::apply_anti_entropy(const Snapshot& snap) {
  applying_remote_ = true;
  // Deletions first: adopt tombstones we have not seen, and tear down any
  // local subtree the tombstone out-ranks.  A strictly newer local write
  // survives, and the entries below re-teach it to replicas that lack it.
  for (const auto& [path, version] : snap.tombstones) {
    bool existed = resolve_local(path).ok();
    record_tombstone(path, version);
    if (existed && !(newest_in_subtree(path) > version)) {
      remove_subtree_local(std::string(path));
      count_repair();
    }
  }
  // Then creations and content, parents before children (preorder).
  // `dirs` is the chain of directories above the current entry, so each
  // entry costs one lookup in its parent.  A tombstoned directory stays
  // on the chain unresolved (kInvalidNode): it is recreated, without a
  // version of its own, only when an entry below it outlives the
  // tombstone and needs a parent.
  struct Dir {
    std::string_view path;
    NodeId node;
  };
  std::vector<Dir> dirs{{"", root()}};
  std::string leaf;
  auto resolve_chain = [&]() -> NodeId {
    std::size_t i = dirs.size();
    while (dirs[i - 1].node == vfs::kInvalidNode) --i;  // root is resolved
    for (; i < dirs.size(); ++i) {
      leaf.assign(dirs[i].path.substr(dirs[i].path.rfind('/') + 1));
      auto node = lookup(dirs[i - 1].node, leaf);
      if (!node) {
        node = mkdir(dirs[i - 1].node, leaf, 0755, Credentials{});
        if (!node) return vfs::kInvalidNode;
        count_repair();
      }
      dirs[i].node = *node;
    }
    return dirs.back().node;
  };
  for (const auto& entry : snap.entries) {
    std::string_view path = entry.path;
    while (dirs.size() > 1 && !is_below(path, dirs.back().path))
      dirs.pop_back();
    std::size_t slash = path.rfind('/');
    std::string_view parent =
        path.substr(0, slash == std::string_view::npos ? 0 : slash);
    bool parent_on_chain = dirs.back().path == parent;
    if (tombstoned(path, entry.version)) {
      if (entry.type == Snapshot::dir && parent_on_chain)
        dirs.push_back({path, vfs::kInvalidNode});
      continue;
    }
    NodeId parent_node = vfs::kInvalidNode;
    if (parent_on_chain)
      parent_node = resolve_chain();
    else if (auto found = resolve_local(parent))
      parent_node = *found;  // the parent's own merge failed, or out of order
    if (parent_node == vfs::kInvalidNode) continue;
    leaf.assign(path.substr(slash + 1));
    NodeId node = merge_entry_local(parent_node, leaf, entry.type, path,
                                    entry.version, entry.data);
    if (entry.type == Snapshot::dir && node != vfs::kInvalidNode)
      dirs.push_back({path, node});
  }
  applying_remote_ = false;
}

void ReplicatedYancFs::remove_subtree_local(const std::string& path) {
  auto node = resolve_local(path);
  if (!node) return;
  auto st = getattr(*node);
  if (!st) return;
  if (st->is_dir()) {
    if (auto children = readdir(*node))
      for (const auto& child : *children)
        remove_subtree_local(path + "/" + child.name);
  }
  auto [dir, leaf] = dir_and_leaf(path);
  auto parent = resolve_local(dir);
  if (!parent) return;
  Credentials root_creds;
  if (st->is_dir())
    (void)rmdir(*parent, leaf, root_creds);
  else
    (void)unlink(*parent, leaf, root_creds);
}

NodeId ReplicatedYancFs::merge_entry_local(NodeId parent,
                                           const std::string& leaf,
                                           std::uint8_t type,
                                           std::string_view path,
                                           Version version,
                                           std::string_view data) {
  Credentials root_creds;
  Version local = version_of(path);
  if (auto node = lookup(parent, leaf)) {
    if (!(version > local)) return *node;  // ours is as new or newer
    if (type == Snapshot::file) {
      // Adopt the newer content wholesale (anti-entropy ships whole
      // files, not deltas).
      if (truncate(*node, 0, root_creds)) return *node;
      if (!data.empty() && !write(*node, 0, data, root_creds)) return *node;
      count_repair();
    }
    set_version(path, version);  // dirs/symlinks: version only
    return *node;
  }
  // Missing locally: recreate it.
  Result<NodeId> created = Errc::not_found;
  switch (type) {
    case Snapshot::dir:
      created = mkdir(parent, leaf, 0755, root_creds);
      break;
    case Snapshot::file:
      created = create(parent, leaf, 0644, root_creds);
      if (created && !data.empty())
        (void)write(*created, 0, data, root_creds);
      break;
    case Snapshot::symlink:
      created = symlink(parent, leaf, std::string(data), root_creds);
      break;
  }
  if (!created) return vfs::kInvalidNode;
  set_version(path, std::max(local, version));
  count_repair();
  return *created;
}

// --- mutating overrides -------------------------------------------------------

Result<NodeId> ReplicatedYancFs::mkdir(NodeId parent, const std::string& name,
                                       std::uint32_t mode,
                                       const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::mkdir(parent, name, mode, creds);
  if (r && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::mkdir;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    op.mode = mode;
    emit(std::move(op));
  }
  return r;
}

Result<NodeId> ReplicatedYancFs::create(NodeId parent, const std::string& name,
                                        std::uint32_t mode,
                                        const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::create(parent, name, mode, creds);
  if (r && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::create;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    op.mode = mode;
    emit(std::move(op));
  }
  return r;
}

Result<std::uint64_t> ReplicatedYancFs::write(NodeId node,
                                              std::uint64_t offset,
                                              std::string_view data,
                                              const Credentials& creds) {
  auto r = YancFs::write(node, offset, data, creds);
  if (r && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::write;
      op.path = *path;
      op.offset = offset;
      op.data = data;
      emit(std::move(op));
    }
  }
  return r;
}

Status ReplicatedYancFs::truncate(NodeId node, std::uint64_t size,
                                  const Credentials& creds) {
  auto ec = YancFs::truncate(node, size, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::truncate;
      op.path = *path;
      op.offset = size;
      emit(std::move(op));
    }
  }
  return ec;
}

Result<std::uint64_t> ReplicatedYancFs::replace(NodeId node,
                                                std::string_view data,
                                                const Credentials& creds) {
  // Locally atomic (MemFs swaps content under one shard lock); on the wire
  // it is the existing truncate+write pair — remote application is already
  // asynchronous, so the two-op window adds nothing new there.
  auto r = YancFs::replace(node, data, creds);
  if (r && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op t;
      t.kind = Op::Kind::truncate;
      t.path = *path;
      t.offset = 0;
      emit(std::move(t));
      Op w;
      w.kind = Op::Kind::write;
      w.path = *path;
      w.offset = 0;
      w.data = data;
      emit(std::move(w));
    }
  }
  return r;
}

Status ReplicatedYancFs::unlink(NodeId parent, const std::string& name,
                                const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto ec = YancFs::unlink(parent, name, creds);
  if (!ec && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::unlink;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    emit(std::move(op));
  }
  return ec;
}

Status ReplicatedYancFs::rmdir(NodeId parent, const std::string& name,
                               const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto ec = YancFs::rmdir(parent, name, creds);
  if (!ec && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::rmdir;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    emit(std::move(op));
  }
  return ec;
}

Status ReplicatedYancFs::rename(NodeId old_parent, const std::string& old_name,
                                NodeId new_parent,
                                const std::string& new_name,
                                const Credentials& creds) {
  auto from_path = path_of(old_parent);
  auto to_path = path_of(new_parent);
  auto ec = YancFs::rename(old_parent, old_name, new_parent, new_name, creds);
  if (!ec && !applying_remote_ && from_path && to_path) {
    Op op;
    op.kind = Op::Kind::rename;
    op.path = (*from_path == "/" ? "" : *from_path) + "/" + old_name;
    op.aux = (*to_path == "/" ? "" : *to_path) + "/" + new_name;
    emit(std::move(op));
  }
  return ec;
}

Result<NodeId> ReplicatedYancFs::symlink(NodeId parent,
                                         const std::string& name,
                                         const std::string& target,
                                         const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::symlink(parent, name, target, creds);
  if (r && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::symlink;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    op.aux = target;
    emit(std::move(op));
  }
  return r;
}

Status ReplicatedYancFs::chmod(NodeId node, std::uint32_t mode,
                               const Credentials& creds) {
  auto ec = YancFs::chmod(node, mode, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::chmod;
      op.path = *path;
      op.mode = mode;
      emit(std::move(op));
    }
  }
  return ec;
}

Status ReplicatedYancFs::chown(NodeId node, vfs::Uid uid, vfs::Gid gid,
                               const Credentials& creds) {
  auto ec = YancFs::chown(node, uid, gid, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::chown;
      op.path = *path;
      op.uid = uid;
      op.gid = gid;
      emit(std::move(op));
    }
  }
  return ec;
}

Status ReplicatedYancFs::setxattr(NodeId node, const std::string& name,
                                  std::vector<std::uint8_t> value,
                                  const Credentials& creds) {
  std::string copy(value.begin(), value.end());
  auto ec = YancFs::setxattr(node, name, std::move(value), creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::setxattr;
      op.path = *path;
      op.aux = name;
      op.data = copy;
      emit(std::move(op));
    }
  }
  return ec;
}

Status ReplicatedYancFs::removexattr(NodeId node, const std::string& name,
                                     const Credentials& creds) {
  auto ec = YancFs::removexattr(node, name, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::removexattr;
      op.path = *path;
      op.aux = name;
      emit(std::move(op));
    }
  }
  return ec;
}

// --- Cluster -------------------------------------------------------------------

Cluster::Cluster(net::Scheduler& scheduler, ClusterOptions options)
    : transport_(scheduler, options.link_latency) {
  for (std::size_t i = 0; i < options.nodes; ++i) {
    auto replica = std::make_shared<ReplicatedYancFs>(
        ReplicaOptions{options.default_mode});
    replicas_.push_back(replica);
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    auto replica = replicas_[i];
    Transport::NodeId id = transport_.join(
        [replica](Transport::NodeId from,
                  const std::vector<std::uint8_t>& bytes) {
          replica->handle_message(from, bytes);
        });
    replica->attach(&transport_, id, /*primary=*/0);
  }
}

}  // namespace yanc::dist
