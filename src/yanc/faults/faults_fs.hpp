// /yanc/.faults: the fault injector's control knobs as writable files.
//
// The yanc way to configure anything is a file write, so fault injection
// is driven from the shell like everything else:
//
//   $ cat /yanc/.faults/seed
//   1
//   $ echo 'drop=0.05' > /yanc/.faults/channel/policy      # switch links
//   $ echo 'drop=0.3'  > /yanc/.faults/transport/policy    # replica links
//   $ echo 7 > /yanc/.faults/seed                          # replay seed 7
//   $ echo off > /yanc/.faults/channel/policy              # heal
//
// Reads format the live plan (cat always shows what is in force); writes
// parse-then-apply, so an invalid policy fails with EINVAL and never
// becomes visible.  Mounted at /yanc/.faults, a sibling of /yanc/.stats —
// one subtree injects the failures, the other watches the recovery.
#pragma once

#include <memory>

#include "yanc/faults/injector.hpp"
#include "yanc/vfs/synth_fs.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::faults {

/// Declares the knob tree over `injector`, binds its counters into
/// `vfs`'s metrics registry, and mounts it at `mount_path` (creating the
/// mount point).  Sibling of obs::mount_stats_fs.
Result<std::shared_ptr<vfs::SynthFs>> mount_faults_fs(
    vfs::Vfs& vfs, std::shared_ptr<Injector> injector,
    const std::string& mount_path = "/yanc/.faults");

}  // namespace yanc::faults
