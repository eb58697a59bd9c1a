// /yanc/.trace: causal-trace capture and export as a file system.
//
// The yanc way to control anything is a file write, so tracing is driven
// from the shell like everything else:
//
//   $ echo start > /yanc/.trace/ctl               # arm capture
//   $ echo 'sample_every=8' > /yanc/.trace/ctl    # 1-in-8 ingress sampling
//   $ echo 'trigger=dur_ns>1ms' > /yanc/.trace/ctl  # keep only slow spans
//   $ cat /yanc/.trace/status                     # what is in force
//   $ ls /yanc/.trace/by-id                       # captured trace ids
//   $ cat /yanc/.trace/by-id/42                   # one trace, span tree
//   $ cat /yanc/.trace/export.json                # Chrome trace_event JSON
//
// Writes parse-then-apply: an invalid ctl line fails with EINVAL and
// changes nothing.  `by-id` lists the ids in the ring in numeric order.
// Mounted at /yanc/.trace, a sibling of /yanc/.stats (where the
// per-stage pipeline/<stage>/{queue_ns,service_ns} histograms this
// subtree's tracer feeds are visible) and /yanc/.faults.
#pragma once

#include <memory>

#include "yanc/obs/tracer.hpp"
#include "yanc/vfs/synth_fs.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::obs {

/// The /yanc/.trace tree over `tracer` (tests pass their own so runs stay
/// isolated), ready to mount.
std::shared_ptr<vfs::SynthFs> make_trace_fs(Tracer& tracer);

/// Declares the tree over the process tracer, binds the tracer's
/// per-stage histograms into `vfs`'s metrics registry, and mounts it at
/// `mount_path` (creating the mount point).  Sibling of mount_stats_fs.
Result<std::shared_ptr<vfs::SynthFs>> mount_trace_fs(
    vfs::Vfs& vfs, const std::string& mount_path = "/yanc/.trace");

}  // namespace yanc::obs
