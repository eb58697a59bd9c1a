// /yanc/.stats: the obs registry materialized as a procfs-style tree.
//
// The paper's prescription is that *every* piece of controller state is a
// file; this subtree applies that to the controller's own telemetry.  Each
// metric path ("driver/of/packet_in_total") becomes a read-only file in a
// directory tree, values are formatted at read time (so `cat` always sees
// the live number), histograms fan out into `_count`/`_p50`/`_p90`/`_p99`
// files, an attached TraceRing is exposed as a top-level `trace` file, and
// the dbg lock-order edge graph is exposed at `dbg/lock_edges` (empty in
// release builds, where no graph is recorded).
//
// The tree is a vfs::SynthFs mounted read-only, so every mutation answers
// EROFS.  It is readable and watchable with the ordinary shell coreutils
// and vfs::WatchQueue machinery — `cat /yanc/.stats/vfs/lookup_total`,
// `tree /yanc/.stats`, watch + refresh() for change notification.
//
// The tree only ever grows: a metric registered after the mount appears
// at the next lookup or readdir, and metrics never unregister, so NodeIds
// handed out (and watch registrations against them) stay valid for the
// life of the file system.
#pragma once

#include <memory>

#include "yanc/obs/trace.hpp"
#include "yanc/vfs/synth_fs.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::obs {

/// Declares the registry tree over `vfs`'s own metrics registry and
/// mounts it read-only at `mount_path` (default "/yanc/.stats"), creating
/// the mount point.  `trace` optionally exposes a trace ring as
/// `<mount_path>/trace`.
Result<std::shared_ptr<vfs::SynthFs>> mount_stats_fs(
    vfs::Vfs& vfs, const std::string& mount_path = "/yanc/.stats",
    std::shared_ptr<TraceRing> trace = nullptr);

}  // namespace yanc::obs
