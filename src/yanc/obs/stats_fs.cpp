#include "yanc/obs/stats_fs.hpp"

#include <atomic>

#include "yanc/dbg/lockdep.hpp"

namespace yanc::obs {

Result<std::shared_ptr<vfs::SynthFs>> mount_stats_fs(
    vfs::Vfs& vfs, const std::string& mount_path,
    std::shared_ptr<TraceRing> trace) {
  if (auto ec = vfs.mkdir_p(mount_path, 0555, vfs::Credentials::root()))
    return ec;
  auto registry = vfs.metrics();
  // Registry generation the tree has caught up with.  It is published
  // only after every file of that generation exists: a lookup that sees
  // it skips the catch-up and must find its metric already declared.
  // (Racing catch-ups declare the same files; a stale store only costs
  // the next lookup another catch-up.)
  auto synced = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto fs = std::make_shared<vfs::SynthFs>(
      [registry, synced](vfs::SynthFs& tree) {
        std::uint64_t generation = registry->generation();
        if (generation == synced->load(std::memory_order_acquire)) return;
        for (const auto& path : registry->export_paths())
          tree.add_file(path, [registry, path] {
            auto value = registry->value_of(path);
            return value ? *value + "\n" : std::string();
          });
        synced->store(generation, std::memory_order_release);
      });
  if (trace) fs->add_file("trace", [trace] { return trace->dump(); });
  // The runtime lock-order graph, as a file: `cat .../dbg/lock_edges`
  // shows every acquired-while-held edge the process has observed, and
  // yanc-analyze diffs it against the statically derived edge set.
  // Empty (not absent) in release builds.
  fs->add_file("dbg/lock_edges", [] { return dbg::dump_lock_edges(); });
  if (auto ec =
          vfs.mount(mount_path, fs, vfs::MountOptions{.read_only = true}))
    return ec;
  return fs;
}

}  // namespace yanc::obs
