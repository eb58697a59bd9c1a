// flowio: conversion between flow directories (§3.4, Fig. 3) and FlowSpec.
//
// This is the contract shared by applications (which write match.* /
// action.* files and bump `version`) and drivers (which read the directory
// back into a FlowSpec once the version changes and push it to hardware).
// Absent match files are wildcards; absent action files mean the action is
// not part of the entry; an action.drop=1 overrides everything else.
//
// Actions have a canonical execution order (header rewrites before
// outputs), matching how OpenFlow 1.0 switches apply action lists:
//   set_vlan, strip_vlan, set_dl_*, set_nw_*, set_tp_*, enqueue, out.
#pragma once

#include <string>

#include "yanc/flow/flowspec.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::netfs {

/// Reads a committed flow directory into a FlowSpec (including `version`).
/// Lists the directory once and reads only the files the listing
/// contains, so the ~20 absent-field probes of a typically sparse flow
/// are set lookups, not path resolutions.
Result<flow::FlowSpec> read_flow(vfs::Vfs& vfs, const std::string& flow_dir,
                                 const vfs::Credentials& creds = {});

/// Writes `spec` into `flow_dir`, creating the directory if needed,
/// removing match/action files the spec no longer carries, and — when
/// `commit` is true — incrementing the version file so drivers pick the
/// entry up atomically.
[[nodiscard]] Status write_flow(vfs::Vfs& vfs, const std::string& flow_dir,
                  const flow::FlowSpec& spec,
                  const vfs::Credentials& creds = {}, bool commit = true);

/// Increments the version file (the §3.4 commit protocol) and returns the
/// new version.
Result<std::uint64_t> commit_flow(vfs::Vfs& vfs, const std::string& flow_dir,
                                  const vfs::Credentials& creds = {});

/// Reads the flow's counters/ directory.
Result<flow::FlowStats> read_flow_stats(vfs::Vfs& vfs,
                                        const std::string& flow_dir,
                                        const vfs::Credentials& creds = {});

/// Writes the flow's counters/ directory (driver-side stats sync).
[[nodiscard]] Status write_flow_stats(vfs::Vfs& vfs, const std::string& flow_dir,
                        const flow::FlowStats& stats,
                        const vfs::Credentials& creds = {});

}  // namespace yanc::netfs
