#include "yanc/netfs/flowio.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "yanc/netfs/schema.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::netfs {

using flow::Action;
using flow::ActionKind;
using flow::FlowSpec;
using flow::FlowStats;
using flow::Match;
using vfs::Credentials;
using vfs::Vfs;

namespace {

// The two write-side counters of `vfs`'s registry, registered once: a
// thread keeps the handles of the registry it used last.  The weak_ptr
// keeps that registry's control block allocated, so a registry that died
// cannot pass for a new one.
struct FlowCounters {
  obs::Counter* write_total = nullptr;
  obs::Counter* commit_total = nullptr;
};

const FlowCounters& flow_counters(Vfs& vfs) {
  thread_local std::weak_ptr<obs::Registry> owner;
  thread_local FlowCounters handles;
  const auto& registry = vfs.metrics();
  if (owner.owner_before(registry) || registry.owner_before(owner)) {
    owner = registry;
    handles = {registry->counter("netfs/flow_write_total"),
               registry->counter("netfs/flow_commit_total")};
  }
  return handles;
}

// Reads <dir>/<name>; nullopt when the file does not exist or is empty
// (absent and empty both mean "unset": wildcard / schema default).
std::optional<std::string> read_field(Vfs& vfs, const Vfs::Resolved& dir,
                                      std::string_view name,
                                      const Credentials& creds) {
  auto data = vfs.read_file(dir, name, creds);
  if (!data) return std::nullopt;
  auto trimmed = trim(*data);
  if (trimmed.empty()) return std::nullopt;
  return std::string(trimmed);
}

// Field access for read_flow: a readdir() snapshot is consulted first,
// so each of the ~20 fields a typically sparse flow leaves absent costs a
// set lookup instead of a negative path resolution.
struct FieldReader {
  Vfs& vfs;
  const Vfs::Resolved& dir;
  const Credentials& creds;
  const std::set<std::string, std::less<>>& present;

  std::optional<std::string> operator()(const char* name) const {
    if (!present.count(name)) return std::nullopt;
    return read_field(vfs, dir, name, creds);
  }
};

template <typename T, typename Parser>
Status load(const FieldReader& field, const char* name, std::optional<T>& out,
            Parser parse) {
  auto text = field(name);
  if (!text) return ok_status();
  auto v = parse(*text);
  if (!v) return v.error();
  out = *v;
  return ok_status();
}

Result<std::uint16_t> parse_u16_field(const std::string& s) {
  auto v = parse_u64(s);
  if (!v || *v > 0xffff) return Errc::invalid_argument;
  return static_cast<std::uint16_t>(*v);
}

Result<std::uint8_t> parse_u8_field(const std::string& s) {
  auto v = parse_u64(s);
  if (!v || *v > 0xff) return Errc::invalid_argument;
  return static_cast<std::uint8_t>(*v);
}

Result<std::uint16_t> parse_hex16_field(const std::string& s) {
  auto v = parse_hex_u64(s);
  if (!v || *v > 0xffff) return Errc::invalid_argument;
  return static_cast<std::uint16_t>(*v);
}

// Appends an action parsed from action.<name> if that file exists.
Status load_action(const FieldReader& field, const char* name,
                   std::vector<Action>& out) {
  auto text = field((std::string("action.") + name).c_str());
  if (!text) return ok_status();
  if ((std::string_view(name) == "strip_vlan") && trim(*text) == "0")
    return ok_status();  // flag explicitly off
  auto action = flow::parse_action(name, *text);
  if (!action) return action.error();
  out.push_back(*action);
  return ok_status();
}

// Writes <dir>/<name>, or removes it when `value` is unset and `listing`
// (the directory's entries) has it: an absent field costs no operation.
Status write_or_remove(Vfs& vfs, const Vfs::Resolved& dir, const char* name,
                       const std::optional<std::string>& value,
                       const std::vector<vfs::DirEntry>& listing,
                       const Credentials& creds) {
  if (value) return vfs.write_file(dir, name, *value, creds);
  bool listed =
      std::any_of(listing.begin(), listing.end(),
                  [&](const vfs::DirEntry& e) { return e.name == name; });
  if (!listed) return ok_status();
  auto ec = vfs.unlink(dir, name, creds);
  if (ec == make_error_code(Errc::not_found)) return ok_status();
  return ec;
}

// The version file's §3.4 bump, in a flow directory already resolved.
Result<std::uint64_t> bump_version(Vfs& vfs, const Vfs::Resolved& dir,
                                   const Credentials& creds) {
  std::uint64_t current = 0;
  if (auto t = read_field(vfs, dir, kCommitFile, creds)) {
    auto v = parse_u64(*t);
    if (v) current = *v;
  }
  std::uint64_t next = current + 1;
  if (auto ec = vfs.write_file(dir, kCommitFile, std::to_string(next), creds);
      ec)
    return ec;
  return next;
}

Result<FlowSpec> read_flow_impl(const FieldReader& field) {
  FlowSpec spec;

  // Entry metadata (fall back to schema defaults when the file is absent).
  if (auto t = field("priority")) {
    auto v = parse_u16_field(*t);
    if (!v) return v.error();
    spec.priority = *v;
  }
  if (auto t = field("idle_timeout")) {
    auto v = parse_u16_field(*t);
    if (!v) return v.error();
    spec.idle_timeout = *v;
  }
  if (auto t = field("hard_timeout")) {
    auto v = parse_u16_field(*t);
    if (!v) return v.error();
    spec.hard_timeout = *v;
  }
  if (auto t = field("cookie")) {
    auto v = parse_hex_u64(*t);
    if (!v) return v.error();
    spec.cookie = *v;
  }
  if (auto t = field("table_id")) {
    auto v = parse_u8_field(*t);
    if (!v) return v.error();
    spec.table_id = *v;
  }
  if (auto t = field("goto_table")) {
    auto v = parse_u8_field(*t);
    if (!v) return v.error();
    spec.goto_table = *v;
  }
  if (auto t = field(kCommitFile)) {
    auto v = parse_u64(*t);
    if (!v) return v.error();
    spec.version = *v;
  }

  // Match fields: absence = wildcard (§3.4).
  Match& m = spec.match;
  if (auto ec = load(field, "match.in_port", m.in_port, parse_u16_field); ec)
    return ec;
  if (auto ec = load(field, "match.dl_src", m.dl_src,
                     [](const std::string& s) { return MacAddress::parse(s); });
      ec)
    return ec;
  if (auto ec = load(field, "match.dl_dst", m.dl_dst,
                     [](const std::string& s) { return MacAddress::parse(s); });
      ec)
    return ec;
  if (auto ec = load(field, "match.dl_type", m.dl_type, parse_hex16_field); ec)
    return ec;
  if (auto ec = load(field, "match.dl_vlan", m.dl_vlan, parse_u16_field); ec)
    return ec;
  if (auto ec = load(field, "match.dl_vlan_pcp", m.dl_vlan_pcp,
                     parse_u8_field); ec)
    return ec;
  if (auto ec = load(field, "match.nw_src", m.nw_src,
                     [](const std::string& s) { return Cidr::parse(s); });
      ec)
    return ec;
  if (auto ec = load(field, "match.nw_dst", m.nw_dst,
                     [](const std::string& s) { return Cidr::parse(s); });
      ec)
    return ec;
  if (auto ec = load(field, "match.nw_proto", m.nw_proto, parse_u8_field); ec)
    return ec;
  if (auto ec = load(field, "match.nw_tos", m.nw_tos, parse_u8_field); ec)
    return ec;
  if (auto ec = load(field, "match.tp_src", m.tp_src, parse_u16_field); ec)
    return ec;
  if (auto ec = load(field, "match.tp_dst", m.tp_dst, parse_u16_field); ec)
    return ec;

  // action.drop wins outright: the entry drops.
  if (auto t = field("action.drop"); t && *t == "1") {
    spec.actions.clear();
    return spec;
  }

  // Canonical order: header rewrites, then enqueue/outputs.
  for (const char* name :
       {"set_vlan", "strip_vlan", "set_dl_src", "set_dl_dst", "set_nw_src",
        "set_nw_dst", "set_nw_tos", "set_tp_src", "set_tp_dst", "enqueue"}) {
    if (auto ec = load_action(field, name, spec.actions); ec)
      return ec;
  }
  // action.out may list several ports ("1 2 controller").
  if (auto t = field("action.out")) {
    for (const auto& tok : split_nonempty(*t, ' ')) {
      auto a = flow::parse_action("out", tok);
      if (!a) return a.error();
      spec.actions.push_back(*a);
    }
  }
  return spec;
}

}  // namespace

Result<FlowSpec> read_flow(Vfs& vfs, const std::string& dir,
                           const Credentials& creds) {
  // The directory is walked once; each field is one walk step from there.
  auto flow = vfs.resolve(dir, creds);
  if (!flow) return flow.error();
  return read_flow(vfs, *flow, creds);
}

Result<FlowSpec> read_flow(Vfs& vfs, const Vfs::Resolved& flow,
                           const Credentials& creds) {
  // The listing doubles as the existence check: a deleted flow reports
  // not_found.
  auto entries = vfs.readdir(flow, creds);
  if (!entries) return entries.error();
  std::set<std::string, std::less<>> present;
  for (auto& e : *entries) present.insert(std::move(e.name));
  return read_flow_impl(FieldReader{vfs, flow, creds, present});
}

Status write_flow(Vfs& vfs, const std::string& path, const FlowSpec& spec,
                  const Credentials& creds, bool commit) {
  flow_counters(vfs).write_total->add();
  // A user write into the FS *is* the API (§3.1), which makes it a trace
  // ingress: if the thread carries no context, start one here so the
  // chain runs write -> watch event -> driver commit -> wire.  A caller
  // already inside a span (an app handling a packet-in) keeps its own.
  obs::TraceRef root;
  if (!obs::current_trace() && obs::tracer().enabled())
    root = obs::tracer().mint("netfs", "write_flow", path);
  obs::TraceScope trace_scope(root);
  // The directory is walked once (made first if absent); every field
  // below is one walk step from it.
  auto flow = vfs.resolve(path, creds);
  if (!flow && flow.error() == make_error_code(Errc::not_found)) {
    if (auto ec = vfs.mkdir(path, 0755, creds); ec) return ec;
    flow = vfs.resolve(path, creds);
  }
  if (!flow) return flow.error();
  const Vfs::Resolved& dir = *flow;
  // One listing tells which fields exist, so only a field that is there
  // and must go costs an unlink.
  auto listing = vfs.readdir(dir, creds);
  if (!listing) return listing.error();

  if (auto ec = vfs.write_file(dir, "priority",
                               std::to_string(spec.priority), creds); ec)
    return ec;
  if (auto ec = vfs.write_file(dir, "idle_timeout",
                               std::to_string(spec.idle_timeout), creds); ec)
    return ec;
  if (auto ec = vfs.write_file(dir, "hard_timeout",
                               std::to_string(spec.hard_timeout), creds); ec)
    return ec;
  if (auto ec = vfs.write_file(dir, "cookie", "0x" + to_hex(spec.cookie, 8),
                               creds); ec)
    return ec;
  if (auto ec = vfs.write_file(dir, "table_id",
                               std::to_string(spec.table_id), creds); ec)
    return ec;
  if (auto ec = write_or_remove(
          vfs, dir, "goto_table",
          spec.goto_table >= 0
              ? std::optional<std::string>(std::to_string(spec.goto_table))
              : std::nullopt,
          *listing, creds);
      ec)
    return ec;

  const Match& m = spec.match;
  auto opt = [](auto field, auto format) -> std::optional<std::string> {
    if (!field) return std::nullopt;
    return format(*field);
  };
  auto dec = [](auto v) { return std::to_string(v); };
  struct Field {
    const char* name;
    std::optional<std::string> value;
  };
  const Field match_fields[] = {
      {"match.in_port", opt(m.in_port, dec)},
      {"match.dl_src", opt(m.dl_src, [](auto v) { return v.to_string(); })},
      {"match.dl_dst", opt(m.dl_dst, [](auto v) { return v.to_string(); })},
      {"match.dl_type",
       opt(m.dl_type, [](auto v) { return "0x" + to_hex(v, 2); })},
      {"match.dl_vlan", opt(m.dl_vlan, dec)},
      {"match.dl_vlan_pcp", opt(m.dl_vlan_pcp, dec)},
      {"match.nw_src", opt(m.nw_src, [](auto v) { return v.to_string(); })},
      {"match.nw_dst", opt(m.nw_dst, [](auto v) { return v.to_string(); })},
      {"match.nw_proto", opt(m.nw_proto, dec)},
      {"match.nw_tos", opt(m.nw_tos, dec)},
      {"match.tp_src", opt(m.tp_src, dec)},
      {"match.tp_dst", opt(m.tp_dst, dec)},
  };
  for (const auto& f : match_fields)
    if (auto ec = write_or_remove(vfs, dir, f.name, f.value, *listing, creds);
        ec)
      return ec;

  // Group actions by their file: action.out accumulates all outputs.
  std::map<std::string, std::string> action_files;
  bool drop = spec.actions.empty();
  for (const auto& a : spec.actions) {
    if (a.kind == ActionKind::drop) {
      drop = true;
      continue;
    }
    std::string file = "action." + flow::action_file_name(a.kind);
    std::string value = a.value_text();
    if (a.kind == ActionKind::output && !action_files[file].empty())
      action_files[file] += " " + value;
    else
      action_files[file] = value;
  }
  if (drop) action_files = {{"action.drop", "1"}};

  // Remove stale action files, then write current ones.
  static const char* kAllActionFiles[] = {
      "action.out",        "action.drop",       "action.set_vlan",
      "action.strip_vlan", "action.set_dl_src", "action.set_dl_dst",
      "action.set_nw_src", "action.set_nw_dst", "action.set_nw_tos",
      "action.set_tp_src", "action.set_tp_dst", "action.enqueue"};
  for (const char* name : kAllActionFiles) {
    auto it = action_files.find(name);
    if (it == action_files.end()) {
      if (auto ec = write_or_remove(vfs, dir, name, std::nullopt, *listing,
                                    creds);
          ec)
        return ec;
    } else {
      if (auto ec = vfs.write_file(dir, it->first, it->second, creds); ec)
        return ec;
    }
  }

  if (commit) {
    flow_counters(vfs).commit_total->add();
    auto v = bump_version(vfs, dir, creds);
    if (!v) return v.error();
  }
  return ok_status();
}

Result<std::uint64_t> commit_flow(Vfs& vfs, const std::string& dir,
                                  const Credentials& creds) {
  flow_counters(vfs).commit_total->add();
  // Same ingress rule as write_flow: a bare commit (bumping version on an
  // already-written flow) starts its own trace when none is active.
  obs::TraceRef root;
  if (!obs::current_trace() && obs::tracer().enabled())
    root = obs::tracer().mint("netfs", "commit_flow", dir);
  obs::TraceScope trace_scope(root);
  auto flow = vfs.resolve(dir, creds);
  if (!flow) return flow.error();
  return bump_version(vfs, *flow, creds);
}

Result<FlowStats> read_flow_stats(Vfs& vfs, const std::string& dir,
                                  const Credentials& creds) {
  FlowStats stats;
  auto counters = vfs.resolve(dir + "/counters", creds);
  if (!counters) return stats;
  auto p = read_field(vfs, *counters, "packets", creds);
  auto b = read_field(vfs, *counters, "bytes", creds);
  if (p)
    if (auto v = parse_u64(*p)) stats.packets = *v;
  if (b)
    if (auto v = parse_u64(*b)) stats.bytes = *v;
  return stats;
}

Status write_flow_stats(Vfs& vfs, const Vfs::Resolved& flow,
                        const FlowStats& stats, const Credentials& creds) {
  auto counters = vfs.resolve(flow, "counters", creds);
  if (!counters) return counters.error();
  // Most replies repeat the counters the mirror already holds (every
  // audit asks for them): a file that holds its value is left alone, so
  // the repeat bumps no version, fires no watch and replicates nothing.
  auto mirror = [&](std::string_view name, std::uint64_t value) {
    std::string text = std::to_string(value);
    auto held = vfs.read_file(*counters, name, creds);
    if (held && *held == text) return ok_status();
    return vfs.write_file(*counters, name, text, creds);
  };
  if (auto ec = mirror("packets", stats.packets); ec) return ec;
  return mirror("bytes", stats.bytes);
}

}  // namespace yanc::netfs
