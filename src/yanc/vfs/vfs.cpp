#include "yanc/vfs/vfs.hpp"

#include <chrono>
#include <limits>

#include "yanc/obs/tracer.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/memfs.hpp"

namespace yanc::vfs {

namespace {
constexpr int kMaxSymlinkDepth = 40;

/// Records the wall time of one public Vfs operation into its latency
/// histogram on scope exit.  Sampled 1-in-64 on each thread: two
/// steady_clock reads per op would cost more than the op itself on the
/// lookup fast path, and the percentile estimate doesn't need every op.
/// The tick is per thread so that deciding writes no shared cache line.
class OpTimer {
 public:
  explicit OpTimer(obs::Histogram* histogram) noexcept {
    thread_local std::uint32_t tick = 0;
    if ((tick++ & 63u) == 0) {
      histogram_ = histogram;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~OpTimer() {
    if (!histogram_) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  obs::Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Appends `path` in normal form (normalize_path) to `out`.
void append_normal(std::string_view path, std::string& out) {
  const std::size_t start = out.size();
  std::size_t pos = 0;
  while (pos < path.size()) {
    std::size_t end = path.find('/', pos);
    if (end == std::string_view::npos) end = path.size();
    std::string_view comp = path.substr(pos, end - pos);
    if (!comp.empty() && comp != ".") {
      out += '/';
      out += comp;
    }
    pos = end + 1;
  }
  if (out.size() == start) out += '/';
}

/// The mount filter bit, of `bits`, for a path `len` bytes long whose last
/// component is `last`: FNV-1a over both, folded.
std::size_t mount_filter_bit(std::string_view last, std::size_t len,
                             std::size_t bits) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ len;
  for (unsigned char c : last) h = (h ^ c) * 0x100000001b3ull;
  return static_cast<std::size_t>(h ^ (h >> 32)) % bits;
}
}  // namespace

std::string normalize_path(std::string_view path) {
  std::string out;
  out.reserve(path.size() + 1);
  append_normal(path, out);
  return out;
}

Vfs::Vfs()
    : root_fs_(std::make_shared<MemFs>()),
      metrics_(std::make_shared<obs::Registry>()) {
  mounts_.emplace("/", Mount{root_fs_, MountOptions{}});
  auto total = [&](OpKind kind, const char* name) {
    obs_.op_total[static_cast<std::size_t>(kind)] = metrics_->counter(name);
  };
  total(OpKind::lookup, "vfs/lookup_total");
  total(OpKind::read, "vfs/read_total");
  total(OpKind::write, "vfs/write_total");
  total(OpKind::metadata, "vfs/metadata_total");
  obs_.op_ns = metrics_->histogram("vfs/op_ns");
}

void Vfs::count_op(OpKind kind, std::uint64_t n) {
  obs_.op_total[static_cast<std::size_t>(kind)]->add(n);
}

OpCounters Vfs::counters() const {
  std::array<std::uint64_t, 4> n{};
  for (std::size_t i = 0; i < n.size(); ++i) {
    const std::uint64_t now = obs_.op_total[i]->value();
    const std::uint64_t base = counter_base_[i].load(std::memory_order_relaxed);
    n[i] = now > base ? now - base : 0;  // a racing reset reads as zero
  }
  auto at = [&](OpKind kind) { return n[static_cast<std::size_t>(kind)]; };
  return OpCounters{{n[0] + n[1] + n[2] + n[3]},
                    {at(OpKind::read)},
                    {at(OpKind::write)},
                    {at(OpKind::metadata)},
                    {at(OpKind::lookup)}};
}

void Vfs::reset_counters() {
  for (std::size_t i = 0; i < counter_base_.size(); ++i)
    counter_base_[i].store(obs_.op_total[i]->value(),
                           std::memory_order_relaxed);
}

Status Vfs::mount(const std::string& path, FilesystemPtr fs,
                  MountOptions options) {
  if (!fs) return make_error_code(Errc::invalid_argument);
  std::string key = normalize_path(path);
  if (key != "/") {
    // The mount point must exist and be a directory; key the table on the
    // *resolved* logical path so "/a/../mnt" and "/mnt" are one mount, not
    // two, and later mount-point checks agree with the resolver.
    auto target = resolve(key, Credentials::root());
    if (!target) return target.error();
    if (target->type != FileType::directory)
      return make_error_code(Errc::not_dir);
    key = target->logical.empty() ? "/" : target->logical;
  }
  dbg::UniqueLock lock(mounts_mu_);
  auto [it, inserted] = mounts_.emplace(key, Mount{std::move(fs), options});
  if (!inserted) return make_error_code(Errc::busy);
  refilter_mounts();
  return ok_status();
}

Status Vfs::umount(const std::string& path) {
  std::string key = normalize_path(path);
  if (key != "/") {
    // Canonicalize the same way mount() keyed it (resolving the mount
    // point crosses into the mounted fs, so `logical` IS the mount key).
    if (auto target = resolve(key, Credentials::root()))
      key = target->logical.empty() ? "/" : target->logical;
  }
  if (key == "/") return make_error_code(Errc::busy);
  dbg::UniqueLock lock(mounts_mu_);
  auto it = mounts_.find(key);
  if (it == mounts_.end()) return make_error_code(Errc::not_found);
  // Refuse when another mount lives underneath this one.
  std::string prefix = key + "/";
  for (const auto& [mount_path, mount] : mounts_)
    if (starts_with(mount_path, prefix))
      return make_error_code(Errc::busy);
  mounts_.erase(it);
  refilter_mounts();
  return ok_status();
}

FilesystemPtr Vfs::mounted_at(const std::string& path) const {
  dbg::SharedLock lock(mounts_mu_);
  auto it = mounts_.find(normalize_path(path));
  return it == mounts_.end() ? nullptr : it->second.fs;
}

bool Vfs::is_mount_point(std::string_view parent, std::string_view leaf) const {
  const std::size_t len = parent.size() + 1 + leaf.size();
  if (!may_be_mount(leaf, len)) return false;
  std::string key;
  key.reserve(len);
  key += parent;
  key += '/';
  key += leaf;
  dbg::SharedLock lock(mounts_mu_);
  return mounts_.count(key) != 0;
}

bool Vfs::may_be_mount(std::string_view last, std::size_t len) const noexcept {
  const std::size_t bit = mount_filter_bit(last, len, kMountFilterWords * 64);
  // Relaxed: a set bit only sends the step to the table, and taking
  // mounts_mu_ orders it after the mount that set the bit.
  return (mount_filter_[bit / 64].load(std::memory_order_relaxed) >>
          (bit % 64)) & 1u;
}

void Vfs::refilter_mounts() {
  std::array<std::uint64_t, kMountFilterWords> bits{};
  for (const auto& [key, mount] : mounts_) {
    if (key == "/") continue;
    const std::size_t bit =
        mount_filter_bit(std::string_view(key).substr(key.rfind('/') + 1),
                         key.size(), kMountFilterWords * 64);
    bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  // Word by word: the bit of a key still in the table is set before and
  // after each store, so no walk misses a mount that stays.
  for (std::size_t i = 0; i < bits.size(); ++i)
    mount_filter_[i].store(bits[i], std::memory_order_relaxed);
}

struct Vfs::Frame {
  std::uint32_t pin;          // 0: Walk::base's fs; i > 0: Walk::pins[i - 1]
  std::uint32_t logical_len;  // its logical path is Walk::logical[0, len)
  NodeId node;
  FileType type;
  bool read_only;
};

struct Vfs::Walk {
  Walk() { stack.reserve(16); }

  std::vector<Frame> stack;
  // Logical (mount-table) path of the top frame ("" = /); each frame
  // keeps its length, so ".." truncates instead of rebuilding.
  std::string logical;
  // The filesystem of stack[0], borrowed: root_fs_, which the Vfs keeps,
  // or a directory handle's, which the caller's Resolved keeps.
  const FilesystemPtr* base = nullptr;
  // Every other filesystem entered, through a mount, pinned once, so that
  // a concurrent umount cannot free one mid-walk.
  std::vector<FilesystemPtr> pins;
  // Components looked up so far; finish() counts them with one add.
  std::uint64_t lookups = 0;
  // Set when stack[0] is a directory handle's frame below its namespace
  // root, whose ancestors the walk does not know.  A step that would leave
  // that frame (".." there, or an absolute symlink target) stops the walk
  // with what is still to walk in `escaped`: "..[/rest]", relative to
  // stack[0], or "/target[/rest]", from the namespace root.
  bool detached = false;
  std::string escaped;
  // Where find() puts a path, and a namespace root, that is not normal.
  std::string path_buf;
  std::string root_buf;

  const FilesystemPtr& owner(const Frame& frame) const {
    return frame.pin == 0 ? *base : pins[frame.pin - 1];
  }
  std::uint32_t pin(const FilesystemPtr& fs) {
    if (fs == *base) return 0;
    for (std::size_t i = 0; i < pins.size(); ++i)
      if (pins[i] == fs) return static_cast<std::uint32_t>(i + 1);
    pins.push_back(fs);
    return static_cast<std::uint32_t>(pins.size());
  }
  void truncate_to(std::size_t depth) {
    stack.resize(depth);
    logical.resize(stack.back().logical_len);
  }
  /// Empties the walk for its next use: drops its pins, keeps the
  /// capacity of its buffers.
  void reset() {
    stack.clear();
    logical.clear();
    base = nullptr;
    pins.clear();
    lookups = 0;
    detached = false;
    escaped.clear();
  }
};

struct Vfs::Walks {
  Walk walk;
  // A directory-relative walk whose symlink leaves the directory is
  // finished here; a call on two paths (rename, link) walks one in each.
  Walk rewalk;
};

/// Lends Walks from the calling thread's idle list for one call and takes
/// them back with their pins dropped and their buffers kept, so that on a
/// warmed thread a resolution allocates nothing.  A call made from inside
/// a filesystem while the thread holds a lease gets Walks of its own.
class Vfs::WalkLease {
 public:
  WalkLease() {
    auto& idle = idle_walks();
    if (idle.empty()) {
      walks_ = std::make_unique<Walks>();
    } else {
      walks_ = std::move(idle.back());
      idle.pop_back();
    }
  }
  ~WalkLease() {
    walks_->walk.reset();
    walks_->rewalk.reset();
    idle_walks().push_back(std::move(walks_));
  }
  WalkLease(const WalkLease&) = delete;
  WalkLease& operator=(const WalkLease&) = delete;

  Walks& operator*() const noexcept { return *walks_; }
  Walks* operator->() const noexcept { return walks_.get(); }

 private:
  static std::vector<std::unique_ptr<Walks>>& idle_walks() {
    thread_local std::vector<std::unique_ptr<Walks>> idle;
    return idle;
  }
  std::unique_ptr<Walks> walks_;
};

// Walks the components of `rest` (a normal path without its leading '/')
// on top of `w.stack`.  `base_depth` is the ".." floor: the walk can never
// pop below it, and absolute symlink targets re-anchor there (this is what
// confines a Namespace to its subtree).  Components are views into `rest`,
// or into `spliced` once a symlink's target has been put in front of the
// rest.  A detached walk stops where it would leave stack[0] (Walk::escaped).
Status Vfs::walk(Walk& w, std::string_view rest, const Credentials& creds,
                 bool follow_final, std::size_t base_depth,
                 int& symlinks_left) {
  std::string spliced;
  while (!rest.empty()) {
    std::size_t slash = rest.find('/');
    std::string_view comp = rest.substr(0, slash);
    rest = slash == std::string_view::npos ? std::string_view()
                                           : rest.substr(slash + 1);

    if (comp == "..") {
      if (w.stack.size() > base_depth) {
        w.truncate_to(w.stack.size() - 1);
      } else if (w.detached) {
        w.escaped = "..";
        if (!rest.empty()) {
          w.escaped += '/';
          w.escaped += rest;
        }
        return ok_status();
      }
      continue;
    }

    const Frame cur = w.stack.back();
    Filesystem& fs = *w.owner(cur);
    auto step = fs.walk_step(cur.node, comp, creds);
    // A step refused for the directory itself looked nothing up.
    if (step || (step.error() != make_error_code(Errc::not_dir) &&
                 step.error() != make_error_code(Errc::access_denied)))
      ++w.lookups;
    if (!step) return step.error();

    if (step->type == FileType::symlink && (!rest.empty() || follow_final)) {
      if (--symlinks_left < 0) return make_error_code(Errc::symlink_loop);
      auto target = fs.readlink(step->node);
      if (!target) return target.error();
      const bool absolute = starts_with(*target, "/");
      std::string next = normalize_path(*target);
      if (!rest.empty()) {
        if (next.size() > 1) next += '/';
        next += rest;  // `rest` may view the old `spliced`: append first
      }
      if (absolute && w.detached) {
        w.escaped = std::move(next);
        return ok_status();
      }
      if (absolute) w.truncate_to(base_depth);
      spliced = std::move(next);
      rest = std::string_view(spliced).substr(1);
      continue;
    }

    w.logical += '/';
    w.logical += comp;
    Frame next{cur.pin, static_cast<std::uint32_t>(w.logical.size()),
               step->node, step->type, cur.read_only};
    // Only a step the filter cannot rule out pays for the table's lock.
    if (may_be_mount(comp, w.logical.size())) {
      dbg::SharedLock lock(mounts_mu_);
      auto mount_it = mounts_.find(w.logical);
      if (mount_it != mounts_.end()) {
        const Mount& m = mount_it->second;
        next.pin = w.pin(m.fs);
        next.node = m.fs->root();
        next.type = FileType::directory;
        next.read_only = m.options.read_only;
      }
    }
    w.stack.push_back(next);
  }
  return ok_status();
}

namespace {

/// True when normalize_path(path) == path.
bool is_normal(std::string_view path) {
  if (path.empty() || path[0] != '/') return false;
  if (path.size() == 1) return true;
  if (path.back() == '/') return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] != '/') continue;
    if (path[i + 1] == '/') return false;
    if (path[i + 1] == '.' && (i + 2 == path.size() || path[i + 2] == '/'))
      return false;
  }
  return true;
}

/// `path` in normal form: itself when already normal, else normalized
/// into `storage`.
std::string_view normal_view(std::string_view path, std::string& storage) {
  if (is_normal(path)) return path;
  storage.clear();
  append_normal(path, storage);
  return storage;
}

/// True when `name` is one component a directory-relative call accepts.
bool is_component(std::string_view name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string_view::npos;
}

/// The path a path call on `name` in `dir` would be given: dir's logical
/// path inside its namespace root, then "/" + name.
std::string path_in(const Vfs::Resolved& dir, std::string_view name) {
  std::string path(std::string_view(dir.logical).substr(dir.root_len));
  path += '/';
  path += name;
  return path;
}

/// The trace a call with no active context mints as pipeline ingress: a
/// user (or an app outside any traced scope) pushing new intent into the
/// FS.  Minting makes the whole downstream chain (watch emit, driver
/// commit, OpenFlow egress) children of the call.  `path()` builds the
/// span's path only when there is one to mint.
template <class PathFn>
obs::TraceRef mint_ingress(std::string_view name, PathFn&& path) {
  if (obs::current_trace() || !obs::tracer().enabled()) return {};
  return obs::tracer().mint("vfs", name, path());
}

}  // namespace

Result<Vfs::Resolved> Vfs::resolve(std::string_view path,
                                   const Credentials& creds, bool follow_final,
                                   std::string_view root) {
  WalkLease lease;
  auto found = find(lease->walk, path, creds, follow_final, root);
  if (!found) return found.error();
  return found->keep();
}

Result<Vfs::Target> Vfs::find(Walk& w, std::string_view path,
                              const Credentials& creds, bool follow_final,
                              std::string_view root) {
  return find_normal(w, normal_view(path, w.path_buf), creds, follow_final,
                     root);
}

Result<Vfs::Target> Vfs::find_normal(Walk& w, std::string_view norm,
                                     const Credentials& creds,
                                     bool follow_final,
                                     std::string_view root) {
  w.reset();
  std::string_view norm_root = normal_view(root, w.root_buf);
  int symlinks_left = kMaxSymlinkDepth;
  // Stage 1: anchor at the namespace root.
  Status ec = anchor(w, norm_root, creds, symlinks_left);
  const auto root_len = static_cast<std::uint32_t>(w.logical.size());
  // Stage 2: walk the user-supplied path, confined above the root.
  if (!ec)
    ec = walk(w, norm.substr(1), creds, follow_final, w.stack.size(),
              symlinks_left);
  return finish(w, ec, root_len);
}

Status Vfs::anchor(Walk& w, std::string_view norm_root,
                   const Credentials& creds, int& symlinks_left) {
  // "/" holds the Vfs's own MemFs, mounted writable for good.
  w.base = &root_fs_;
  w.stack.push_back(
      Frame{0, 0, root_fs_->root(), FileType::directory, false});
  if (norm_root.size() <= 1) return ok_status();
  if (auto ec = walk(w, norm_root.substr(1), creds, true, 1, symlinks_left);
      ec)
    return ec;
  if (w.stack.back().type != FileType::directory)
    return make_error_code(Errc::not_dir);
  return ok_status();
}

Result<Vfs::Target> Vfs::finish(Walk& w, Status ec, std::uint32_t root_len) {
  // One add per resolution, whether it failed or not.
  if (w.lookups != 0) count_op(OpKind::lookup, w.lookups);
  if (ec) return ec;
  const Frame& top = w.stack.back();
  const FilesystemPtr& owner = w.owner(top);
  return Target{owner.get(), &owner, top.node, top.type, top.read_only,
                w.logical, root_len};
}

Result<Vfs::Resolved> Vfs::resolve(const Resolved& dir, std::string_view name,
                                   const Credentials& creds,
                                   bool follow_final) {
  WalkLease lease;
  auto found = find(*lease, dir, name, creds, follow_final);
  if (!found) return found.error();
  return found->keep();
}

Result<Vfs::Target> Vfs::find(Walks& ws, const Resolved& dir,
                              std::string_view name, const Credentials& creds,
                              bool follow_final) {
  if (!is_component(name)) return Errc::invalid_argument;
  // The walk resumes from dir's frame, as if it had just been pushed.
  Walk& w = ws.walk;
  w.reset();
  w.base = &dir.fs;
  w.logical = dir.logical;
  w.stack.push_back(Frame{0, static_cast<std::uint32_t>(dir.logical.size()),
                          dir.node, dir.type, dir.read_only});
  // At the namespace root, ".." and absolute targets stop at dir's frame,
  // as they do in the path walk; below it they leave the frame.
  w.detached = dir.logical.size() > dir.root_len;
  int symlinks_left = kMaxSymlinkDepth;
  Status ec = walk(w, name, creds, follow_final, 1, symlinks_left);
  if (ec || w.escaped.empty()) return finish(w, ec, dir.root_len);

  // A symlink's target left `dir`: the path walk from the namespace root
  // finishes it.  A ".." target gets there through dir's path, which must
  // still reach dir's node: a directory that moved gives not_found, and
  // one made later under its old name is never entered.
  Walk& p = ws.rewalk;
  p.reset();
  p.lookups = w.lookups;
  std::string_view root(dir.logical.data(), dir.root_len);
  ec = anchor(p, root.empty() ? std::string_view("/") : root, creds,
              symlinks_left);
  const std::size_t base_depth = p.stack.size();
  std::string_view rest = w.escaped;
  if (!ec && rest.front() == '/') {
    rest.remove_prefix(1);
  } else if (!ec) {
    ec = walk(p, std::string_view(dir.logical).substr(dir.root_len + 1),
              creds, true, base_depth, symlinks_left);
    const Frame& top = p.stack.back();
    if (!ec && (top.node != dir.node || p.owner(top) != dir.fs))
      ec = make_error_code(Errc::not_found);
  }
  if (!ec) ec = walk(p, rest, creds, follow_final, base_depth, symlinks_left);
  return finish(p, ec, dir.root_len);
}

Result<Vfs::Target> Vfs::find_parent(Walk& w, std::string_view path,
                                     const Credentials& creds,
                                     std::string_view* leaf,
                                     std::string_view root) {
  std::string_view norm = normal_view(path, w.path_buf);
  if (norm == "/") return Errc::busy;  // the root has no parent entry
  auto slash = norm.rfind('/');
  *leaf = norm.substr(slash + 1);
  if (*leaf == "..") return Errc::invalid_argument;
  return find_normal(w, slash == 0 ? std::string_view("/")
                                   : norm.substr(0, slash),
                     creds, true, root);
}

Result<std::shared_ptr<FileHandle>> Vfs::open(std::string_view path, int flags,
                                              std::uint32_t mode,
                                              const Credentials& creds,
                                              const std::string& root) {
  WalkLease lease;
  auto target = open_target(*lease, path, flags, mode, creds, root);
  if (!target) return target.error();
  return std::make_shared<FileHandle>(*target->owner, target->node, flags,
                                      creds);
}

Result<Vfs::OpenTarget> Vfs::open_target(Walks& ws, std::string_view path,
                                         int flags, std::uint32_t mode,
                                         const Credentials& creds,
                                         std::string_view root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  auto found = find(ws.walk, path, creds, true, root);
  if (found) return open_found(*found, flags, creds);
  if (found.error() != make_error_code(Errc::not_found) ||
      !(flags & open_flags::create))
    return found.error();
  // That walk is done with; the parent's reuses its buffers.
  std::string_view leaf;
  auto parent = find_parent(ws.walk, path, creds, &leaf, root);
  if (!parent) return parent.error();
  return create_in(*parent, leaf, mode, creds);
}

Result<Vfs::OpenTarget> Vfs::open_target(Walks& ws, const Resolved& dir,
                                         std::string_view name, int flags,
                                         std::uint32_t mode,
                                         const Credentials& creds) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  auto found = find(ws, dir, name, creds, true);
  if (found) return open_found(*found, flags, creds);
  if (found.error() != make_error_code(Errc::not_found) ||
      !(flags & open_flags::create))
    return found.error();
  // `dir` is the parent: no second walk.  A removed `dir` has no node, so
  // the create fails with not_found and makes nothing.
  return create_in(Target::of(dir), name, mode, creds);
}

Result<Vfs::OpenTarget> Vfs::open_found(const Target& found, int flags,
                                        const Credentials& creds) {
  namespace of = open_flags;
  int acc = flags & of::accmode;
  bool want_read = acc == of::read_only || acc == of::read_write;
  bool want_write = acc == of::write_only || acc == of::read_write ||
                    (flags & (of::truncate | of::append));

  if ((flags & of::create) && (flags & of::excl)) return Errc::exists;

  if (found.type == FileType::directory) return Errc::is_dir;
  if (want_write && found.read_only) return Errc::read_only;

  std::uint8_t want = 0;
  if (want_read) want |= 4;
  if (want_write) want |= 2;
  if (want)
    if (auto ec = found.fs->access(found.node, want, creds); ec) return ec;

  if (flags & of::truncate)
    if (auto ec = found.fs->truncate(found.node, 0, creds); ec) return ec;

  return OpenTarget{found.fs, found.owner, found.node};
}

Result<Vfs::OpenTarget> Vfs::create_in(const Target& parent,
                                       std::string_view leaf,
                                       std::uint32_t mode,
                                       const Credentials& creds) {
  if (parent.read_only) return Errc::read_only;
  auto node = parent.fs->create(parent.node, std::string(leaf), mode, creds);
  if (!node) return node.error();
  return OpenTarget{parent.fs, parent.owner, *node};
}

Result<std::string> Vfs::read_file(std::string_view path,
                                   const Credentials& creds,
                                   const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::read);
  WalkLease lease;
  auto target = find(lease->walk, path, creds, true, root);
  if (!target) return target.error();
  return read_target(*target, creds);
}

Result<std::string> Vfs::read_file(const Resolved& dir, std::string_view name,
                                   const Credentials& creds) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::read);
  WalkLease lease;
  auto target = find(*lease, dir, name, creds, true);
  if (!target) return target.error();
  return read_target(*target, creds);
}

Result<std::string> Vfs::read_target(const Target& target,
                                     const Credentials& creds) {
  return target.fs->read(target.node, 0,
                           std::numeric_limits<std::uint64_t>::max(), creds);
}

Status Vfs::write_file(std::string_view path, std::string_view data,
                       const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  obs::TraceScope trace_scope(
      mint_ingress("write", [&] { return std::string(path); }));
  WalkLease lease;
  auto target =
      open_target(*lease, path, open_flags::write_only | open_flags::create,
                  0644, creds, root);
  if (!target) return target.error();
  return write_target(*target, data, creds);
}

Status Vfs::write_file(const Resolved& dir, std::string_view name,
                       std::string_view data, const Credentials& creds) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  obs::TraceScope trace_scope(
      mint_ingress("write", [&] { return path_in(dir, name); }));
  WalkLease lease;
  auto target = open_target(*lease, dir, name,
                            open_flags::write_only | open_flags::create, 0644,
                            creds);
  if (!target) return target.error();
  return write_target(*target, data, creds);
}

Status Vfs::write_target(const OpenTarget& target, std::string_view data,
                         const Credentials& creds) {
  // Deliberately NOT open(O_TRUNC): that truncates in one FS op and writes
  // in a second, leaving a window where concurrent readers see an empty
  // file.  replace() commits the new content in a single step.
  auto written = target.fs->replace(target.node, data, creds);
  return written ? ok_status() : written.error();
}

Status Vfs::append_file(std::string_view path, std::string_view data,
                        const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  WalkLease lease;
  auto target = open_target(*lease, path,
                            open_flags::write_only | open_flags::create |
                                open_flags::append,
                            0644, creds, root);
  if (!target) return target.error();
  // What an O_APPEND handle's write does: write at the current size.
  auto st = target->fs->getattr(target->node);
  if (!st) return st.error();
  auto written = target->fs->write(target->node, st->size, data, creds);
  return written ? ok_status() : written.error();
}

Result<Stat> Vfs::stat(std::string_view path, const Credentials& creds,
                       const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  return found->fs->getattr(found->node);
}

Result<Stat> Vfs::lstat(std::string_view path, const Credentials& creds,
                        const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, false, root);
  if (!found) return found.error();
  return found->fs->getattr(found->node);
}

Result<std::vector<DirEntry>> Vfs::readdir(std::string_view path,
                                           const Credentials& creds,
                                           const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  WalkLease lease;
  auto target = find(lease->walk, path, creds, true, root);
  if (!target) return target.error();
  return list_dir(*target, creds);
}

Result<std::vector<DirEntry>> Vfs::readdir(const Resolved& dir,
                                           std::string_view name,
                                           const Credentials& creds) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  WalkLease lease;
  auto target = find(*lease, dir, name, creds, true);
  if (!target) return target.error();
  return list_dir(*target, creds);
}

Result<std::vector<DirEntry>> Vfs::readdir(const Resolved& dir,
                                           const Credentials& creds) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  return list_dir(Target::of(dir), creds);
}

Result<std::vector<DirEntry>> Vfs::list_dir(const Target& target,
                                            const Credentials& creds) {
  if (auto ec = target.fs->access(target.node, 4, creds); ec) return ec;
  return target.fs->readdir(target.node);
}

Status Vfs::mkdir(std::string_view path, std::uint32_t mode,
                  const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  // Ingress like write_file: `mkdir /net/.../flows/f` is how a flow is
  // born, and in a create-then-commit burst the driver dedups the whole
  // burst onto the `created` event — the ref minted here is the one that
  // survives onto the FLOW_MOD train.
  obs::TraceScope trace_scope(
      mint_ingress("mkdir", [&] { return std::string(path); }));
  WalkLease lease;
  std::string_view leaf;
  auto parent = find_parent(lease->walk, path, creds, &leaf, root);
  if (!parent) return parent.error();
  return mkdir_in(*parent, leaf, mode, creds);
}

Status Vfs::mkdir(const Resolved& dir, std::string_view name,
                  std::uint32_t mode, const Credentials& creds) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  obs::TraceScope trace_scope(
      mint_ingress("mkdir", [&] { return path_in(dir, name); }));
  if (!is_component(name)) return make_error_code(Errc::invalid_argument);
  return mkdir_in(Target::of(dir), name, mode, creds);
}

Status Vfs::mkdir_in(const Target& parent, std::string_view leaf,
                     std::uint32_t mode, const Credentials& creds) {
  if (parent.read_only) return make_error_code(Errc::read_only);
  auto node = parent.fs->mkdir(parent.node, std::string(leaf), mode, creds);
  return node ? ok_status() : node.error();
}

Status Vfs::mkdir_p(std::string_view path, std::uint32_t mode,
                    const Credentials& creds, const std::string& root) {
  std::string norm = normalize_path(path);
  auto comps = split_nonempty(norm, '/');
  std::string current;
  for (const auto& comp : comps) {
    current += '/';
    current += comp;
    auto st = stat(current, creds, root);
    if (st) {
      if (!st->is_dir()) return make_error_code(Errc::not_dir);
      continue;
    }
    if (auto ec = mkdir(current, mode, creds, root);
        ec && ec != make_error_code(Errc::exists))
      return ec;
  }
  return ok_status();
}

Status Vfs::unlink(std::string_view path, const Credentials& creds,
                   const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  WalkLease lease;
  std::string_view leaf;
  auto parent = find_parent(lease->walk, path, creds, &leaf, root);
  if (!parent) return parent.error();
  return unlink_in(*parent, leaf, creds);
}

Status Vfs::unlink(const Resolved& dir, std::string_view name,
                   const Credentials& creds) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  // Like the path unlink, which walks only to the parent: no lookup.
  if (!is_component(name)) return make_error_code(Errc::invalid_argument);
  return unlink_in(Target::of(dir), name, creds);
}

Status Vfs::unlink_in(const Target& parent, std::string_view leaf,
                      const Credentials& creds) {
  if (parent.read_only) return make_error_code(Errc::read_only);
  // Mount-point check on the *resolved* logical path: a lexical check
  // misses "/a/../mnt" and symlinked parents, which name the same entry.
  if (is_mount_point(parent.logical, leaf))
    return make_error_code(Errc::busy);
  return parent.fs->unlink(parent.node, std::string(leaf), creds);
}

Status Vfs::rmdir(std::string_view path, const Credentials& creds,
                  const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  WalkLease lease;
  std::string_view leaf;
  auto parent = find_parent(lease->walk, path, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->read_only) return make_error_code(Errc::read_only);
  if (is_mount_point(parent->logical, leaf))
    return make_error_code(Errc::busy);
  return parent->fs->rmdir(parent->node, std::string(leaf), creds);
}

Status Vfs::remove_all(std::string_view path, const Credentials& creds,
                       const std::string& root) {
  // Ingress for deletions: `rm` of a flow dir drives a delete FLOW_MOD
  // through the same pipeline a commit does.
  obs::TraceScope trace_scope(
      mint_ingress("remove", [&] { return std::string(path); }));
  auto st = lstat(path, creds, root);
  if (!st) return st.error();
  if (st->is_dir()) {
    auto entries = readdir(path, creds, root);
    if (!entries) return entries.error();
    for (const auto& entry : *entries) {
      std::string child = std::string(path);
      if (child.empty() || child.back() != '/') child += '/';
      child += entry.name;
      if (auto ec = remove_all(child, creds, root); ec) return ec;
    }
    return rmdir(path, creds, root);
  }
  return unlink(path, creds, root);
}

Status Vfs::rename(std::string_view from, std::string_view to,
                   const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  WalkLease lease;
  std::string_view from_leaf, to_leaf;
  auto from_parent = find_parent(lease->walk, from, creds, &from_leaf, root);
  if (!from_parent) return from_parent.error();
  auto to_parent = find_parent(lease->rewalk, to, creds, &to_leaf, root);
  if (!to_parent) return to_parent.error();
  if (is_mount_point(from_parent->logical, from_leaf) ||
      is_mount_point(to_parent->logical, to_leaf))
    return make_error_code(Errc::busy);
  if (from_parent->fs != to_parent->fs)
    return make_error_code(Errc::cross_device);
  if (from_parent->read_only || to_parent->read_only)
    return make_error_code(Errc::read_only);
  return from_parent->fs->rename(from_parent->node, std::string(from_leaf),
                                   to_parent->node, std::string(to_leaf),
                                   creds);
}

Status Vfs::symlink(std::string_view target, std::string_view linkpath,
                    const Credentials& creds, const std::string& root) {
  count_op(OpKind::write);
  WalkLease lease;
  std::string_view leaf;
  auto parent = find_parent(lease->walk, linkpath, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->read_only) return make_error_code(Errc::read_only);
  auto node = parent->fs->symlink(parent->node, std::string(leaf),
                                    std::string(target), creds);
  return node ? ok_status() : node.error();
}

Result<std::string> Vfs::readlink(std::string_view path,
                                  const Credentials& creds,
                                  const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, false, root);
  if (!found) return found.error();
  return found->fs->readlink(found->node);
}

Status Vfs::link(std::string_view existing, std::string_view linkpath,
                 const Credentials& creds, const std::string& root) {
  count_op(OpKind::write);
  WalkLease lease;
  auto target = find(lease->walk, existing, creds, true, root);
  if (!target) return target.error();
  std::string_view leaf;
  auto parent = find_parent(lease->rewalk, linkpath, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->fs != target->fs)
    return make_error_code(Errc::cross_device);
  if (parent->read_only) return make_error_code(Errc::read_only);
  return parent->fs->link(target->node, parent->node, std::string(leaf),
                            creds);
}

Status Vfs::chmod(std::string_view path, std::uint32_t mode,
                  const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  if (found->read_only) return make_error_code(Errc::read_only);
  return found->fs->chmod(found->node, mode, creds);
}

Status Vfs::chown(std::string_view path, Uid uid, Gid gid,
                  const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  if (found->read_only) return make_error_code(Errc::read_only);
  return found->fs->chown(found->node, uid, gid, creds);
}

Status Vfs::truncate(std::string_view path, std::uint64_t size,
                     const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  if (found->read_only) return make_error_code(Errc::read_only);
  return found->fs->truncate(found->node, size, creds);
}

Status Vfs::setxattr(std::string_view path, const std::string& name,
                     std::vector<std::uint8_t> value, const Credentials& creds,
                     const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  if (found->read_only) return make_error_code(Errc::read_only);
  return found->fs->setxattr(found->node, name, std::move(value), creds);
}

Result<std::vector<std::uint8_t>> Vfs::getxattr(std::string_view path,
                                                const std::string& name,
                                                const Credentials& creds,
                                                const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  return found->fs->getxattr(found->node, name);
}

Result<std::vector<std::string>> Vfs::listxattr(std::string_view path,
                                                const Credentials& creds,
                                                const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  return found->fs->listxattr(found->node);
}

Status Vfs::removexattr(std::string_view path, const std::string& name,
                        const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  if (found->read_only) return make_error_code(Errc::read_only);
  return found->fs->removexattr(found->node, name, creds);
}

Status Vfs::set_acl(std::string_view path, const Acl& acl,
                    const Credentials& creds, const std::string& root) {
  if (auto ec = acl.validate(); ec) return ec;
  return setxattr(path, kAclXattr, acl.encode(), creds, root);
}

Result<Acl> Vfs::get_acl(std::string_view path, const Credentials& creds,
                         const std::string& root) {
  auto raw = getxattr(path, kAclXattr, creds, root);
  if (!raw) return raw.error();
  return Acl::decode(*raw);
}

Status Vfs::access(std::string_view path, std::uint8_t want,
                   const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  return found->fs->access(found->node, want, creds);
}

Result<std::shared_ptr<WatchHandle>> Vfs::watch(std::string_view path,
                                                std::uint32_t mask,
                                                WatchQueuePtr queue,
                                                const Credentials& creds,
                                                const std::string& root) {
  count_op(OpKind::metadata);
  WalkLease lease;
  auto found = find(lease->walk, path, creds, true, root);
  if (!found) return found.error();
  auto id = found->fs->watch(found->node, mask, std::move(queue));
  if (!id) return id.error();
  return std::make_shared<WatchHandle>(*found->owner, *id);
}

// --- FileHandle -------------------------------------------------------------

FileHandle::FileHandle(FilesystemPtr fs, NodeId node, int flags,
                       Credentials creds)
    : fs_(std::move(fs)), node_(node), flags_(flags), creds_(std::move(creds)) {}

bool FileHandle::readable() const noexcept {
  int acc = flags_ & open_flags::accmode;
  return acc == open_flags::read_only || acc == open_flags::read_write;
}

bool FileHandle::writable() const noexcept {
  int acc = flags_ & open_flags::accmode;
  return acc == open_flags::write_only || acc == open_flags::read_write;
}

Result<std::string> FileHandle::read(std::uint64_t size) {
  if (!readable()) return Errc::bad_handle;
  auto data = fs_->read(node_, offset_, size, creds_);
  if (data) offset_ += data->size();
  return data;
}

Result<std::uint64_t> FileHandle::write(std::string_view data) {
  if (!writable()) return Errc::bad_handle;
  if (flags_ & open_flags::append) {
    auto st = fs_->getattr(node_);
    if (!st) return st.error();
    offset_ = st->size;
  }
  auto n = fs_->write(node_, offset_, data, creds_);
  if (n) offset_ += *n;
  return n;
}

Result<std::uint64_t> FileHandle::replace(std::string_view data) {
  if (!writable()) return Errc::bad_handle;
  auto n = fs_->replace(node_, data, creds_);
  if (n) offset_ = *n;
  return n;
}

Result<std::string> FileHandle::pread(std::uint64_t offset,
                                      std::uint64_t size) {
  if (!readable()) return Errc::bad_handle;
  return fs_->read(node_, offset, size, creds_);
}

Result<std::uint64_t> FileHandle::pwrite(std::uint64_t offset,
                                         std::string_view data) {
  if (!writable()) return Errc::bad_handle;
  return fs_->write(node_, offset, data, creds_);
}

Result<Stat> FileHandle::stat() { return fs_->getattr(node_); }

// --- Namespace ---------------------------------------------------------------

Namespace::Namespace(std::shared_ptr<Vfs> vfs, std::string root,
                     Credentials creds)
    : vfs_(std::move(vfs)), root_(normalize_path(root)),
      creds_(std::move(creds)) {}

Result<std::string> Namespace::read_file(std::string_view path) {
  return vfs_->read_file(path, creds_, root_);
}
Status Namespace::write_file(std::string_view path, std::string_view data) {
  return vfs_->write_file(path, data, creds_, root_);
}
Status Namespace::append_file(std::string_view path, std::string_view data) {
  return vfs_->append_file(path, data, creds_, root_);
}
Result<Stat> Namespace::stat(std::string_view path) {
  return vfs_->stat(path, creds_, root_);
}
Result<std::vector<DirEntry>> Namespace::readdir(std::string_view path) {
  return vfs_->readdir(path, creds_, root_);
}
Status Namespace::mkdir(std::string_view path, std::uint32_t mode) {
  return vfs_->mkdir(path, mode, creds_, root_);
}
Status Namespace::unlink(std::string_view path) {
  return vfs_->unlink(path, creds_, root_);
}
Status Namespace::rmdir(std::string_view path) {
  return vfs_->rmdir(path, creds_, root_);
}
Status Namespace::rename(std::string_view from, std::string_view to) {
  return vfs_->rename(from, to, creds_, root_);
}
Status Namespace::symlink(std::string_view target, std::string_view linkpath) {
  return vfs_->symlink(target, linkpath, creds_, root_);
}
Result<std::string> Namespace::readlink(std::string_view path) {
  return vfs_->readlink(path, creds_, root_);
}
Result<std::shared_ptr<WatchHandle>> Namespace::watch(std::string_view path,
                                                      std::uint32_t mask,
                                                      WatchQueuePtr queue) {
  return vfs_->watch(path, mask, std::move(queue), creds_, root_);
}

}  // namespace yanc::vfs
