#include "yanc/dist/replicated.hpp"

#include <algorithm>
#include <limits>
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

std::pair<std::string, std::string> dir_and_leaf(const std::string& path) {
  auto slash = path.rfind('/');
  if (slash == std::string::npos || slash == 0)
    return {"/", path.substr(slash == std::string::npos ? 0 : 1)};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

// Anti-entropy messages share the op log's link and its first byte, which
// tells them from ops (every Op::Kind is below kFirstAe), and carry the
// sender's Lamport clock next.  Layouts after those nine bytes:
//   digest:  u64 root digest
//   pull:    u32 count, count x directory path
//   listing: u32 count, count x Listing (see ReplicatedYancFs::Listing)
enum class Ae : std::uint8_t { digest = 0x80, pull, listing };
constexpr std::uint8_t kFirstAe = static_cast<std::uint8_t>(Ae::digest);

// Listing entry types; a digest hashes the same codes.
enum EntryType : std::uint8_t { kDir = 0, kFile = 1, kSymlink = 2 };

std::uint8_t entry_type(vfs::FileType type) {
  switch (type) {
    case vfs::FileType::directory:
      return kDir;
    case vfs::FileType::symlink:
      return kSymlink;
    default:
      return kFile;
  }
}

/// Calls `fn(name)` for each component of `path` ("/a/b": "a", "b") while
/// it returns true.
template <typename Fn>
void for_each_component(std::string_view path, Fn fn) {
  for (std::size_t pos = 0; pos < path.size();) {
    std::size_t end = std::min(path.find('/', pos), path.size());
    if (end > pos && !fn(path.substr(pos, end - pos))) return;
    pos = end + 1;
  }
}

/// The path of `name` inside the directory at `parent` (path_of's form).
std::string child_path(const std::string& parent, std::string_view name) {
  std::string path = parent == "/" ? std::string() : parent;
  path += '/';
  path += name;
  return path;
}

// The digest hash: the fields are fed as 64-bit words (a string as its
// length, then its bytes eight at a time, zero-padded), each folded in by
// xor and a multiply by 2^64/phi, and the result is finished with
// MurmurHash3's fmix64, so the per-entry hashes a directory adds up differ
// in every bit.  Fixed here, not std::hash, so every replica and every
// build computes the same digest.
class Hash64 {
 public:
  Hash64& u64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ull;
    return *this;
  }
  Hash64& str(std::string_view s) {
    u64(s.size());
    for (std::size_t at = 0; at < s.size(); at += 8) {
      std::uint64_t word = 0;
      for (std::size_t i = 0; i < 8 && at + i < s.size(); ++i)
        word |= std::uint64_t{static_cast<unsigned char>(s[at + i])} << (8 * i);
      u64(word);
    }
    return *this;
  }
  std::uint64_t done() const {
    std::uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// A directory's digest is the sum (mod 2^64) of one hash per child and one
// per tombstone it covers, so it does not depend on the order either is
// visited in.  The leading tag keeps the two kinds apart.
std::uint64_t entry_hash(std::string_view name, std::uint8_t type,
                         std::pair<std::uint64_t, std::uint64_t> version,
                         std::uint64_t digest) {
  return Hash64()
      .u64(type)
      .str(name)
      .u64(version.first)
      .u64(version.second)
      .u64(digest)
      .done();
}

std::uint64_t tombstone_hash(std::string_view path,
                             std::pair<std::uint64_t, std::uint64_t> version) {
  return Hash64()
      .u64(0xff)
      .str(path)
      .u64(version.first)
      .u64(version.second)
      .done();
}

/// Calls `fn(path, version)` for every tombstone strictly below the trie
/// node `known` at `path` (extended and restored in place).
template <typename Known, typename Fn>
void for_each_tombstone_below(const Known& known, std::string& path, Fn& fn) {
  const std::size_t len = path.size();
  for (const auto& [name, child] : known.children) {
    path += '/';
    path += name;
    if (child->tombstone) fn(path, *child->tombstone);
    for_each_tombstone_below(*child, path, fn);
    path.resize(len);
  }
}

/// Walks the `children` of the directory at `path` (sorted by name, as
/// readdir returns them) beside the children of its trie node `known`
/// (nullptr: none), which sort the same way.  Calls `on_child(child,
/// below)` with `path` extended to the child and `below` its trie node
/// (nullptr: nothing known), and `on_tombstone(path, version)` for every
/// tombstone the directory's digest covers: each one directly below it,
/// and each deeper one whose first component is not a subdirectory, so a
/// tombstone below a path that is no longer a directory is covered by its
/// nearest directory ancestor.  `path` is restored on return.
template <typename Known, typename OnChild, typename OnTombstone>
void walk_dir(const Known* known, std::string& path,
              const std::vector<vfs::DirEntry>& children, OnChild on_child,
              OnTombstone on_tombstone) {
  using Iter = decltype(known->children.begin());
  Iter it{}, end{};
  if (known) {
    it = known->children.begin();
    end = known->children.end();
  }
  const std::size_t len = path.size();
  // Tombstones at `below` (now at `path`) and, unless it is a directory
  // here, below it.
  auto covered = [&](const Known& below, bool is_dir) {
    if (below.tombstone) on_tombstone(path, *below.tombstone);
    if (!is_dir) for_each_tombstone_below(below, path, on_tombstone);
  };
  // Trie children sorting before `stop` (nullptr: all) have no child
  // here: only their tombstones count.
  auto only_known = [&](const std::string* stop) {
    for (; it != end && (!stop || it->first < *stop); ++it) {
      if (!it->second->tombstone && it->second->children.empty()) continue;
      path += '/';
      path += it->first;
      covered(*it->second, false);
      path.resize(len);
    }
  };
  for (const auto& child : children) {
    only_known(&child.name);
    const Known* below = nullptr;
    if (it != end && it->first == child.name) below = (it++)->second.get();
    path += '/';
    path += child.name;
    on_child(child, below);
    if (below) covered(*below, child.type == vfs::FileType::directory);
    path.resize(len);
  }
  only_known(nullptr);
}

}  // namespace

struct ReplicatedYancFs::Op {
  enum class Kind : std::uint8_t {
    mkdir,
    create,
    write,
    truncate,
    replace,  // the whole content, applied in one step
    unlink,
    rmdir,
    rename,
    symlink,
    chmod,
    chown,
    setxattr,
    removexattr,
  };
  Kind kind = Kind::mkdir;
  bool via_primary = false;  // strict op awaiting primary fan-out
  std::uint64_t ts = 0;      // Lamport timestamp
  std::uint64_t origin = 0;
  std::uint64_t sent_ns = 0;  // origin's virtual time at emit (lag metric)
  std::string path;
  std::string aux;  // rename destination / symlink target / xattr name
  // Write payload / xattr value, borrowed: from the mutating call that
  // emits the op, or from the message bytes it was decoded from.
  std::string_view data;
  std::uint64_t offset = 0;  // write offset / truncate size
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  // The origin's version of `path` before the op, carried (and encoded)
  // only by the ops that change a copy instead of replacing it: a receiver
  // whose copy has another version cannot end with the origin's bytes.
  Version base{};

  bool carries_base() const {
    return kind == Kind::write || kind == Kind::truncate ||
           kind == Kind::rename;
  }

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
    if (carries_base()) {
      w.u64(base.first);
      w.u64(base.second);
    }
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
    if (op.carries_base()) {
      op.base.first = r.u64();
      op.base.second = r.u64();
    }
    op.path = get_view(r, bytes);
    op.aux = get_view(r, bytes);
    op.data = get_view(r, bytes);
    if (!r.ok()) return Errc::protocol_error;
    return op;
  }
};

// A Listing is one directory of one replica, what a pull asks for: every
// child with its type and last-writer version, each subdirectory's digest
// (0 for files), each file's content and symlink's target, and the
// tombstones the directory's digest covers.  Layout: path, u32 entry
// count, entries (u8 type, u64 ts, u64 origin, u64 digest, name, data),
// u32 tombstone count, tombstones (u64 ts, u64 origin, path).  The sender
// writes it straight from its tree (put_listing); the receiver decodes
// views into the message bytes, which outlive the merge.
struct ReplicatedYancFs::Listing {
  struct Entry {
    std::uint8_t type = kDir;
    Version version;
    std::uint64_t digest = 0;
    std::string_view name;
    std::string_view data;  // file content / symlink target
  };
  std::string_view dir;
  std::vector<Entry> entries;
  std::vector<std::pair<std::string_view, Version>> tombstones;

  /// Decodes the listings of a listing message, `r` past its header.
  static Result<std::vector<Listing>> decode(
      BufReader& r, std::span<const std::uint8_t> bytes) {
    // The smallest encodings bound what a corrupt count can reserve.
    constexpr std::size_t kMinListing = 4 + 4 + 4;
    constexpr std::size_t kMinEntry = 1 + 8 + 8 + 8 + 4 + 4;
    constexpr std::size_t kMinTombstone = 8 + 8 + 4;
    std::vector<Listing> out;
    std::uint32_t count = r.u32();
    out.reserve(std::min<std::size_t>(count, r.remaining() / kMinListing));
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      Listing& l = out.emplace_back();
      l.dir = get_view(r, bytes);
      std::uint32_t n = r.u32();
      l.entries.reserve(std::min<std::size_t>(n, r.remaining() / kMinEntry));
      for (std::uint32_t j = 0; j < n && r.ok(); ++j) {
        Entry& e = l.entries.emplace_back();
        e.type = r.u8();
        e.version.first = r.u64();
        e.version.second = r.u64();
        e.digest = r.u64();
        e.name = get_view(r, bytes);
        e.data = get_view(r, bytes);
      }
      std::uint32_t t = r.u32();
      l.tombstones.reserve(
          std::min<std::size_t>(t, r.remaining() / kMinTombstone));
      for (std::uint32_t j = 0; j < t && r.ok(); ++j) {
        Version version;
        version.first = r.u64();
        version.second = r.u64();
        l.tombstones.emplace_back(get_view(r, bytes), version);
      }
    }
    if (!r.ok()) return Errc::protocol_error;
    return out;
  }
};

ReplicatedYancFs::ReplicatedYancFs(ReplicaOptions options)
    : options_(options) {
  // The yanc schema the base class populated is the first thing to mirror.
  mirror(known_, root(), vfs::FileType::directory);
  known_.rebuild();
}

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

Result<NodeId> ReplicatedYancFs::resolve_local(std::string_view path,
                                               bool recreate) {
  Result<NodeId> node = root();
  std::string comp;
  for_each_component(path, [&](std::string_view name) {
    comp.assign(name);
    auto next = lookup(*node, comp);
    if (!next && recreate) {
      next = mkdir(*node, comp, 0755, Credentials{});
      if (next) count_repair();
    }
    node = next;
    return node.ok();
  });
  return node;
}

void ReplicatedYancFs::bind_metrics(obs::Registry& registry) {
  apply_metric_ = registry.counter("dist/replication_apply_total");
  conflict_metric_ = registry.counter("dist/replication_conflict_total");
  lag_metric_ = registry.histogram("dist/replication_lag_ns");
  ae_round_metric_ = registry.counter("dist/anti_entropy_round_total");
  ae_repair_metric_ = registry.counter("dist/anti_entropy_repair_total");
  ae_pull_metric_ = registry.counter("dist/anti_entropy_pull_total");
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
  if (!bytes.empty() && bytes[0] >= kFirstAe) {
    handle_anti_entropy(from, bytes);
    return;
  }
  auto op = Op::decode(bytes);
  if (!op) {
    log_error("dist", "undecodable replication op");
    return;
  }
  lamport_ = std::max(lamport_, op->ts);
  // A content op records its version in apply(), once its bytes are in:
  // a version without its content would make this replica's digest claim
  // a write it never holds, and a merge could never repair the file.
  if (op->kind != Op::Kind::write && op->kind != Op::Kind::truncate &&
      op->kind != Op::Kind::replace)
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
    case Op::Kind::truncate:
    case Op::Kind::replace: {
      // Last-writer-wins on content: a concurrently newer local write
      // (greater ts, or equal ts from a higher node id) survives.
      Version version{op.ts, op.origin};
      const Version local = version_of(op.path);
      if (local > version) return done(false);
      // A replace brings the whole content.  A write at an offset or a
      // truncate yields the origin's bytes only on the origin's copy (the
      // op's base); another copy is left as it is, bytes and version, so
      // its digest differs and the next round pulls the origin's copy.
      if (op.kind != Op::Kind::replace && local != op.base) return done(false);
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      bool ok;
      if (op.kind == Op::Kind::write)
        ok = write(*node, op.offset, op.data, root_creds).ok();
      else if (op.kind == Op::Kind::replace)
        ok = replace(*node, op.data, root_creds).ok();
      else
        ok = !truncate(*node, op.offset, root_creds);
      if (ok) {
        set_version(op.path, version);
        reannounce_commit(op.path, version);
      }
      return done(ok);
    }
    case Op::Kind::unlink: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto ec = unlink(*parent, leaf, root_creds);
      if (!ec) reannounce_commit(op.path, Version{op.ts, op.origin});
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
  }
  return done(false);
}

// --- versions and tombstones -----------------------------------------------

const ReplicatedYancFs::Known* ReplicatedYancFs::Known::find(
    std::string_view path) const {
  const Known* known = this;
  for_each_component(path, [&](std::string_view name) {
    auto it = known->children.find(name);
    known = it == known->children.end() ? nullptr : it->second.get();
    return known != nullptr;
  });
  return known;
}

ReplicatedYancFs::Known& ReplicatedYancFs::Known::child(
    std::string_view name) {
  auto it = children.find(name);
  if (it == children.end())
    it = children.emplace(std::string(name), std::make_unique<Known>()).first;
  return *it->second;
}

void ReplicatedYancFs::Known::recount(Known& parent, std::string_view name) {
  const bool is_dir = exists && type == kDir;
  const std::uint64_t now =
      (exists ? entry_hash(name, type, version, is_dir ? digest : 0) : 0) +
      tomb_hash + (is_dir ? 0 : tombs_below);
  const std::uint64_t now_tombs = tomb_hash + tombs_below;
  parent.digest += now - counted;
  parent.tombs_below += now_tombs - counted_tombs;
  counted = now;
  counted_tombs = now_tombs;
}

void ReplicatedYancFs::Known::rebuild() {
  digest = 0;
  tombs_below = 0;
  for (auto& [name, below] : children) {
    below->rebuild();
    below->counted = below->counted_tombs = 0;
    below->recount(*this, name);
  }
}

void ReplicatedYancFs::Known::forget_tree() {
  exists = false;
  for (auto& [name, below] : children) below->forget_tree();
}

bool ReplicatedYancFs::Known::drop_versions(Version newer) {
  bool dropped = version != Version{} && version <= newer;
  if (dropped) version = {};
  for (auto& [name, below] : children)
    dropped = below->drop_versions(newer) || dropped;
  return dropped;
}

void ReplicatedYancFs::Known::take_history(
    std::string& path, std::vector<std::pair<std::string, Version>>& versions,
    std::vector<std::pair<std::string, Version>>& tombstones) {
  if (version != Version{}) {
    versions.emplace_back(path, version);
    version = {};
  }
  const std::size_t len = path.size();
  for (auto& [name, below] : children) {
    path += '/';
    path += name;
    if (below->tombstone) {
      tombstones.emplace_back(path, *below->tombstone);
      below->tombstone.reset();
      below->tomb_hash = 0;
    }
    below->take_history(path, versions, tombstones);
    path.resize(len);
  }
}

ReplicatedYancFs::Version ReplicatedYancFs::Known::newest() const {
  Version newest = version;
  for (const auto& [name, below] : children)
    newest = std::max(newest, below->newest());
  return newest;
}

template <typename Change>
void ReplicatedYancFs::update(std::string_view path, Change change) {
  // Down to the node, then recount each one on the way back up.
  auto down = [&](auto& self, Known& known, std::string_view rest) -> void {
    auto start = rest.find_first_not_of('/');
    if (start == std::string_view::npos) {
      change(known);
      return;
    }
    rest.remove_prefix(start);
    std::string_view name = rest.substr(0, rest.find('/'));
    Known& below = known.child(name);
    self(self, below, rest.substr(name.size()));
    below.recount(known, name);
  };
  down(down, known_, path);
}

void ReplicatedYancFs::mirror(Known& known, NodeId node, vfs::FileType type) {
  known.exists = true;
  known.type = entry_type(type);
  if (type != vfs::FileType::directory) return;
  if (auto children = readdir(node))
    for (const auto& child : *children)
      mirror(known.child(child.name), child.node, child.type);
}

void ReplicatedYancFs::note_namespace_change(std::string_view path) {
  update(path, [&](Known& known) {
    known.forget_tree();
    if (auto node = resolve_local(path))
      if (auto st = getattr(*node)) mirror(known, *node, st->type);
    known.rebuild();
  });
}

void ReplicatedYancFs::note_version(const Op& op) {
  Version version{op.ts, op.origin};
  auto raise = [&](std::string_view path, Version v) {
    if (version_of(path) < v) set_version(path, v);
  };
  switch (op.kind) {
    case Op::Kind::mkdir:
    case Op::Kind::create:
    case Op::Kind::symlink:
    case Op::Kind::write:
    case Op::Kind::truncate:
    case Op::Kind::replace:
      raise(op.path, version);
      break;
    case Op::Kind::unlink:
    case Op::Kind::rmdir:
      record_tombstone(op.path, version);
      break;
    case Op::Kind::rename: {
      // Content knowledge, and the deletions below the old name, follow
      // the subtree to its new name, so a stale copy moved there cannot
      // carry back an entry deleted under the old; the old name gets a
      // tombstone so stale copies of it stay dead.  The new name takes
      // the rename's version only over the copy the origin renamed (the
      // op's base): a stale copy keeps the version it had, so the digests
      // differ until anti-entropy pulls the origin's copy.
      const bool renamed_base = version_of(op.path) == op.base;
      std::vector<std::pair<std::string, Version>> moved, buried;
      update(op.path, [&](Known& from) {
        std::string dest = op.aux;
        from.take_history(dest, moved, buried);
        from.rebuild();
      });
      record_tombstone(op.path, version);
      for (auto& [path, v] : moved) raise(path, v);
      for (auto& [path, v] : buried) record_tombstone(path, v);
      if (renamed_base) raise(op.aux, version);
      break;
    }
    default:
      break;  // metadata-only ops don't move the LWW needle
  }
}

ReplicatedYancFs::Version ReplicatedYancFs::version_of(
    std::string_view path) const {
  const Known* known = known_.find(path);
  return known ? known->version : Version{};
}

void ReplicatedYancFs::set_version(std::string_view path, Version version) {
  update(path, [&](Known& known) { known.version = version; });
}

ReplicatedYancFs::Version ReplicatedYancFs::newest_in_subtree(
    std::string_view path) const {
  const Known* known = known_.find(path);
  return known ? known->newest() : Version{};
}

std::optional<ReplicatedYancFs::Version> ReplicatedYancFs::covering_tombstone(
    std::string_view dir) const {
  // A tombstone covers its path and everything below it: the newest on
  // the way down to `dir` (nothing deletes the root).
  std::optional<Version> newest;
  const Known* known = &known_;
  for_each_component(dir, [&](std::string_view name) {
    auto it = known->children.find(name);
    if (it == known->children.end()) return false;
    known = it->second.get();
    if (known->tombstone && (!newest || *newest < *known->tombstone))
      newest = known->tombstone;
    return true;
  });
  return newest;
}

void ReplicatedYancFs::record_tombstone(std::string_view path,
                                        Version version) {
  update(path, [&](Known& known) {
    if (!known.tombstone || *known.tombstone < version) {
      known.tombstone = version;
      known.tomb_hash = tombstone_hash(path, version);
    }
    // The deletion supersedes any content knowledge it is newer than;
    // strictly newer writes survive (they out-rank the tombstone).
    if (known.drop_versions(version)) known.rebuild();
  });
}

void ReplicatedYancFs::count_repair() {
  ++repairs_;
  if (ae_repair_metric_) ae_repair_metric_->add();
}

// --- digests -----------------------------------------------------------------

std::uint64_t ReplicatedYancFs::root_digest_uncached() {
  std::string path;
  return hash_dir(root(), &known_, path);
}

std::uint64_t ReplicatedYancFs::hash_dir(NodeId dir, const Known* known,
                                         std::string& path) {
  std::uint64_t digest = 0;
  if (auto children = readdir(dir))
    walk_dir(
        known, path, *children,
        [&](const vfs::DirEntry& child, const Known* below) {
          std::uint64_t sub = child.type == vfs::FileType::directory
                                  ? hash_dir(child.node, below, path)
                                  : 0;
          digest += entry_hash(child.name, entry_type(child.type),
                               below ? below->version : Version{}, sub);
        },
        [&](std::string_view dead, Version version) {
          digest += tombstone_hash(dead, version);
        });
  return digest;
}

// --- anti-entropy exchange -------------------------------------------------

void ReplicatedYancFs::send_anti_entropy() {
  if (!transport_) return;
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(Ae::digest));
  w.u64(lamport_);
  w.u64(root_digest());
  if (ae_round_metric_) ae_round_metric_->add();
  transport_->broadcast(self_, w.data());
}

void ReplicatedYancFs::handle_anti_entropy(
    Transport::NodeId from, const std::vector<std::uint8_t>& bytes) {
  BufReader r(bytes);
  auto kind = static_cast<Ae>(r.u8());
  lamport_ = std::max(lamport_, r.u64());
  switch (kind) {
    case Ae::digest: {
      std::uint64_t theirs = r.u64();
      if (!r.ok()) break;
      if (theirs != root_digest()) send_pull(from, {std::string()});
      return;
    }
    case Ae::pull:
      serve_pull(from, r, bytes);
      return;
    case Ae::listing: {
      auto listings = Listing::decode(r, bytes);
      if (!listings) break;
      std::vector<std::string> next;
      applying_remote_ = true;
      for (const auto& listing : *listings) merge_listing(listing, next);
      applying_remote_ = false;
      if (!next.empty()) send_pull(from, next);
      return;
    }
  }
  log_error("dist", "undecodable anti-entropy message");
}

void ReplicatedYancFs::send_pull(Transport::NodeId to,
                                 const std::vector<std::string>& dirs) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(Ae::pull));
  w.u64(lamport_);
  w.u32(static_cast<std::uint32_t>(dirs.size()));
  for (const auto& dir : dirs) put_string(w, dir);
  // A lost pull, like a lost listing, leaves the divergence for the next
  // round.
  std::ignore = transport_->send(self_, to, w.take());
}

void ReplicatedYancFs::serve_pull(Transport::NodeId to, BufReader& r,
                                  std::span<const std::uint8_t> bytes) {
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(Ae::listing));
  w.u64(lamport_);
  const std::size_t count_at = w.size();
  w.u32(0);  // patched below: directories gone since the peer saw them
             // are left out
  std::uint32_t listed = 0;
  std::string path;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    path.assign(get_view(r, bytes));
    if (!r.ok()) break;
    if (auto node = resolve_local(path); node && put_listing(w, *node, path))
      ++listed;
  }
  if (!r.ok()) {
    log_error("dist", "undecodable anti-entropy pull");
    return;
  }
  w.patch_u16(count_at, static_cast<std::uint16_t>(listed >> 16));
  w.patch_u16(count_at + 2, static_cast<std::uint16_t>(listed));
  std::ignore = transport_->send(self_, to, w.take());
}

bool ReplicatedYancFs::put_listing(BufWriter& w, NodeId dir,
                                   std::string& path) {
  auto children = readdir(dir);
  if (!children) return false;
  put_string(w, path);
  w.u32(static_cast<std::uint32_t>(children->size()));
  // The covered tombstones follow the entries: gather them on the way.
  std::vector<std::pair<std::string, Version>> dead;
  std::string data;
  walk_dir(
      known_.find(path), path, *children,
      [&](const vfs::DirEntry& child, const Known* below) {
        const std::uint8_t type = entry_type(child.type);
        data.clear();
        if (type == kSymlink) {
          if (auto target = readlink(child.node)) data = std::move(*target);
        } else if (type == kFile) {
          if (auto content =
                  read(child.node, 0, std::numeric_limits<std::uint64_t>::max(),
                       Credentials::root()))
            data = std::move(*content);
        }
        Version version = below ? below->version : Version{};
        w.u8(type);
        w.u64(version.first);
        w.u64(version.second);
        w.u64(below && type == kDir ? below->digest : 0);
        put_string(w, child.name);
        put_string(w, data);
      },
      [&](std::string_view tomb, Version version) {
        dead.emplace_back(tomb, version);
      });
  w.u32(static_cast<std::uint32_t>(dead.size()));
  for (const auto& [tomb, version] : dead) {
    w.u64(version.first);
    w.u64(version.second);
    put_string(w, tomb);
  }
  return true;
}

void ReplicatedYancFs::merge_listing(const Listing& listing,
                                     std::vector<std::string>& next) {
  ++pulls_;
  if (ae_pull_metric_) ae_pull_metric_->add();
  // Deletions first: adopt tombstones we have not seen, and tear down any
  // local subtree the tombstone out-ranks.  A strictly newer local write
  // survives, and the entries below re-teach it to replicas that lack it.
  for (const auto& [path, version] : listing.tombstones) {
    const Known* known = known_.find(path);
    bool existed = known && known->exists;
    record_tombstone(path, version);
    if (existed && !(newest_in_subtree(path) > version)) {
      remove_subtree_local(std::string(path));
      count_repair();
      reannounce_commit(path, version);
    }
  }
  // Then creations and content.  An entry is dead when a tombstone at its
  // path, or at or above the directory (`cover`, probed once per
  // listing), is at least as new.  The directory itself is resolved on
  // first need, and recreated when a deletion removed it but an entry
  // outlives that tombstone.
  const std::optional<Version> cover = covering_tombstone(listing.dir);
  const Known* dir_known = known_.find(listing.dir);
  std::optional<NodeId> parent;
  std::string path(listing.dir);
  std::string leaf;
  const std::size_t len = path.size();
  for (const auto& entry : listing.entries) {
    path.resize(len);
    path += '/';
    path += entry.name;
    const Known* known = dir_known ? dir_known->find(entry.name) : nullptr;
    std::optional<Version> dead = cover;
    if (known && known->tombstone && (!dead || *dead < *known->tombstone))
      dead = known->tombstone;
    if (!dead || entry.version > *dead) {
      if (!parent) {
        auto found = resolve_local(listing.dir, /*recreate=*/true);
        parent = found ? *found : vfs::kInvalidNode;
      }
      if (*parent == vfs::kInvalidNode) continue;
      leaf.assign(entry.name);
      merge_entry_local(*parent, leaf, entry.type, path,
                        known ? known->version : Version{}, entry.version,
                        entry.data);
    }
    // Whether merged or deleted here (the peer may list entries below it
    // that outlive the tombstone), descend where the digests still
    // differ; a missing directory counts as empty.
    if (entry.type != kDir) continue;
    if (!known) known = known_.find(path);
    const bool mine_is_dir = known && known->exists && known->type == kDir;
    if ((mine_is_dir ? known->digest : 0) != entry.digest)
      next.push_back(path);
  }
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
                                           Version local, Version version,
                                           std::string_view data) {
  Credentials root_creds;
  if (auto node = lookup(parent, leaf)) {
    if (!(version > local)) return *node;  // ours is as new or newer
    if (type == kFile) {
      // Adopt the newer content wholesale, in one step (listings ship
      // whole files, not deltas).
      if (!replace(*node, data, root_creds)) return *node;
      count_repair();
    }
    set_version(path, version);  // dirs/symlinks: version only
    if (type == kFile) reannounce_commit(path, version);
    return *node;
  }
  // Missing locally: recreate it.
  Result<NodeId> created = Errc::not_found;
  switch (type) {
    case kDir:
      created = mkdir(parent, leaf, 0755, root_creds);
      break;
    case kFile:
      created = create(parent, leaf, 0644, root_creds);
      if (created && !data.empty())
        (void)write(*created, 0, data, root_creds);
      break;
    case kSymlink:
      created = symlink(parent, leaf, std::string(data), root_creds);
      break;
  }
  if (!created) return vfs::kInvalidNode;
  // The version of what was created, even when a newer one was heard of:
  // the digests then keep differing until that newer write arrives.
  set_version(path, version);
  count_repair();
  if (type == kFile) reannounce_commit(path, version);
  return *created;
}

void ReplicatedYancFs::reannounce_commit(std::string_view path,
                                         Version change) {
  const auto slash = path.rfind('/');
  if (slash == std::string_view::npos) return;
  const std::string_view dir = path.substr(0, slash);
  if (path.substr(slash + 1) == netfs::kCommitFile) return;
  // Cheap refusals first: the trie knows whether a commit point sits
  // beside `path` and which write it holds, without touching the tree.
  const Known* known = known_.find(dir);
  if (!known) return;
  auto commit = known->children.find(netfs::kCommitFile);
  if (commit == known->children.end() || !commit->second->exists ||
      !(change < commit->second->version))
    return;
  auto node = resolve_local(std::string(dir) + '/' + netfs::kCommitFile);
  if (!node) return;
  MutationScope scope(*this);
  emit_node_event_locked(*node, vfs::event::modified);
}

// --- mutating overrides -------------------------------------------------------

Result<NodeId> ReplicatedYancFs::mkdir(NodeId parent, const std::string& name,
                                       std::uint32_t mode,
                                       const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::mkdir(parent, name, mode, creds);
  if (r && parent_path) {
    Op op;
    op.kind = Op::Kind::mkdir;
    op.path = child_path(*parent_path, name);
    op.mode = mode;
    note_namespace_change(op.path);
    emit(std::move(op));
  }
  return r;
}

Result<NodeId> ReplicatedYancFs::create(NodeId parent, const std::string& name,
                                        std::uint32_t mode,
                                        const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::create(parent, name, mode, creds);
  if (r && parent_path) {
    Op op;
    op.kind = Op::Kind::create;
    op.path = child_path(*parent_path, name);
    op.mode = mode;
    note_namespace_change(op.path);
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
      op.path = *path;
      op.data = data;
      // A write that leaves the file holding exactly `data` yields those
      // bytes on any copy, so it travels as a replace; any other lands
      // only on the copy it was made to (its base).
      bool whole = false;
      if (offset == 0)
        if (auto st = getattr(node)) whole = st->size == data.size();
      if (whole) {
        op.kind = Op::Kind::replace;
      } else {
        op.kind = Op::Kind::write;
        op.base = version_of(op.path);
        op.offset = offset;
      }
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
      op.path = *path;
      // Truncating to nothing empties any copy: a replace, as for write.
      if (size == 0) {
        op.kind = Op::Kind::replace;
      } else {
        op.kind = Op::Kind::truncate;
        op.base = version_of(op.path);
        op.offset = size;
      }
      emit(std::move(op));
    }
  }
  return ec;
}

Result<std::uint64_t> ReplicatedYancFs::replace(NodeId node,
                                                std::string_view data,
                                                const Credentials& creds) {
  // Locally atomic (MemFs swaps content under one shard lock), and one op
  // on the wire, which the peer applies with replace(): no peer ever
  // reads the file empty between a truncate and a write.
  auto r = YancFs::replace(node, data, creds);
  if (r && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::replace;
      op.path = *path;
      op.data = data;
      emit(std::move(op));
    }
  }
  return r;
}

Status ReplicatedYancFs::unlink(NodeId parent, const std::string& name,
                                const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto ec = YancFs::unlink(parent, name, creds);
  if (!ec && parent_path) {
    Op op;
    op.kind = Op::Kind::unlink;
    op.path = child_path(*parent_path, name);
    note_namespace_change(op.path);
    emit(std::move(op));
  }
  return ec;
}

Status ReplicatedYancFs::rmdir(NodeId parent, const std::string& name,
                               const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto ec = YancFs::rmdir(parent, name, creds);
  if (!ec && parent_path) {
    Op op;
    op.kind = Op::Kind::rmdir;
    op.path = child_path(*parent_path, name);
    note_namespace_change(op.path);
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
  if (!ec && from_path && to_path) {
    Op op;
    op.kind = Op::Kind::rename;
    op.path = child_path(*from_path, old_name);
    op.base = version_of(op.path);
    op.aux = child_path(*to_path, new_name);
    // The moved subtree's digests hash the paths of what it covers.
    note_namespace_change(op.path);
    note_namespace_change(op.aux);
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
  if (r && parent_path) {
    Op op;
    op.kind = Op::Kind::symlink;
    op.path = child_path(*parent_path, name);
    op.aux = target;
    note_namespace_change(op.path);
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
