#include "yanc/obs/trace_fs.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "yanc/util/strings.hpp"

namespace yanc::obs {

namespace {

/// Minimal JSON string escaper for component/name/note fields.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Parses a duration token: digits with an optional ns/us/ms/s suffix.
std::optional<std::uint64_t> parse_duration_ns(std::string_view text) {
  std::uint64_t scale = 1;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "ns") {
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    text.remove_suffix(2);
    scale = 1000;
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    text.remove_suffix(2);
    scale = 1000000;
  } else if (text.size() >= 1 && text.back() == 's') {
    text.remove_suffix(1);
    scale = 1000000000;
  }
  auto value = parse_u64(text);
  if (!value) return std::nullopt;
  return *value * scale;
}

/// One trace's events rendered as an indented span tree, oldest first.
/// Children may be *recorded* before their parent (a RAII parent span
/// closes after the stages nested in it), so the tree is rebuilt from the
/// linkage fields rather than ring order.
std::string render_trace(const std::vector<TraceEvent>& events,
                         std::uint64_t trace_id) {
  std::vector<const TraceEvent*> mine;
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& e : events) {
    if (e.trace_id != trace_id) continue;
    mine.push_back(&e);
    std::uint64_t start = e.ts_ns - std::min(e.queue_ns, e.ts_ns);
    t0 = std::min(t0, start);
  }
  if (mine.empty()) return {};

  std::set<std::uint64_t> span_ids;
  for (const auto* e : mine) span_ids.insert(e->span_id);
  std::map<std::uint64_t, std::vector<const TraceEvent*>> children;
  std::vector<const TraceEvent*> roots;
  for (const auto* e : mine) {
    if (e->parent_span_id != 0 && span_ids.count(e->parent_span_id))
      children[e->parent_span_id].push_back(e);
    else
      roots.push_back(e);
  }
  auto by_start = [](const TraceEvent* a, const TraceEvent* b) {
    return a->ts_ns - std::min(a->queue_ns, a->ts_ns) <
           b->ts_ns - std::min(b->queue_ns, b->ts_ns);
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children)
    std::sort(kids.begin(), kids.end(), by_start);

  std::string out = "trace " + std::to_string(trace_id) + ": " +
                    std::to_string(mine.size()) + " spans\n";
  // Iterative DFS; depth capped so a pathological parent cycle (ids
  // reused after a clear()) cannot recurse away the stack.
  struct Frame {
    const TraceEvent* e;
    std::size_t depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it)
    stack.push_back({*it, 0});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    out += std::string(2 * f.depth, ' ');
    out += f.e->component + "/" + f.e->name;
    out += " span=" + std::to_string(f.e->span_id);
    std::uint64_t start = f.e->ts_ns - std::min(f.e->queue_ns, f.e->ts_ns);
    out += " start=+" + std::to_string(start - t0) + "ns";
    out += " queue=" + std::to_string(f.e->queue_ns) + "ns";
    out += " dur=" + std::to_string(f.e->dur_ns) + "ns";
    if (!f.e->note.empty()) out += " note=" + f.e->note;
    out += '\n';
    if (f.depth >= 64) continue;
    auto kids = children.find(f.e->span_id);
    if (kids == children.end()) continue;
    for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it)
      stack.push_back({*it, f.depth + 1});
  }
  return out;
}

/// The whole ring as Chrome trace_event JSON (load in chrome://tracing or
/// Perfetto).  Each span is one complete ("X") event; ts/dur are in
/// microseconds per the format, args keep full-precision nanoseconds.
/// Traces map to tid rows so concurrent traces render as parallel tracks.
std::string render_chrome_json(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, std::uint64_t> tids;
  for (const auto& e : events)
    tids.emplace(e.trace_id, tids.size() + 1);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) out += ',';
    first = false;
    std::uint64_t start = e.ts_ns - std::min(e.queue_ns, e.ts_ns);
    out += "{\"ph\":\"X\",\"name\":\"" + json_escape(e.component) + "/" +
           json_escape(e.name) + "\"";
    out += ",\"cat\":\"" + json_escape(e.component) + "\"";
    out += ",\"pid\":1,\"tid\":" + std::to_string(tids[e.trace_id]);
    out += ",\"ts\":" + std::to_string(start / 1000) + "." +
           std::to_string(start % 1000);
    std::uint64_t total = e.queue_ns + e.dur_ns;
    out += ",\"dur\":" + std::to_string(total / 1000) + "." +
           std::to_string(total % 1000);
    out += ",\"args\":{\"trace_id\":" + std::to_string(e.trace_id) +
           ",\"span_id\":" + std::to_string(e.span_id) +
           ",\"parent_span_id\":" + std::to_string(e.parent_span_id) +
           ",\"queue_ns\":" + std::to_string(e.queue_ns) +
           ",\"service_ns\":" + std::to_string(e.dur_ns) +
           ",\"note\":\"" + json_escape(e.note) + "\"}}";
  }
  out += "]}\n";
  return out;
}

/// Applies one ctl line.  Every token is parsed before any is applied
/// (an invalid line is EINVAL and changes nothing).
Status apply_ctl(Tracer& tracer, std::string_view text) {
  struct Pending {
    bool start = false, stop = false, clear = false;
    std::optional<std::uint32_t> sample_every;
    std::optional<std::size_t> capacity;
    std::optional<std::uint64_t> trigger_ns;
  } pending;
  std::string normalized(text);
  for (char& c : normalized)
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  for (const auto& raw : split_nonempty(normalized, ' ')) {
    std::string_view token = trim(raw);
    if (token.empty()) continue;
    if (token == "start") {
      pending.start = true;
    } else if (token == "stop") {
      pending.stop = true;
    } else if (token == "clear") {
      pending.clear = true;
    } else if (token.rfind("sample_every=", 0) == 0) {
      auto n = parse_u64(token.substr(13));
      if (!n || *n == 0 || *n > UINT32_MAX)
        return make_error_code(Errc::invalid_argument);
      pending.sample_every = static_cast<std::uint32_t>(*n);
    } else if (token.rfind("capacity=", 0) == 0) {
      auto n = parse_u64(token.substr(9));
      if (!n || *n == 0 || *n > (1u << 24))
        return make_error_code(Errc::invalid_argument);
      pending.capacity = static_cast<std::size_t>(*n);
    } else if (token == "trigger=off") {
      pending.trigger_ns = 0;
    } else if (token.rfind("trigger=dur_ns>", 0) == 0) {
      auto ns = parse_duration_ns(token.substr(15));
      if (!ns) return make_error_code(Errc::invalid_argument);
      pending.trigger_ns = *ns;
    } else {
      return make_error_code(Errc::invalid_argument);
    }
  }
  if (pending.start && pending.stop)
    return make_error_code(Errc::invalid_argument);

  if (pending.clear) tracer.clear();
  if (pending.capacity) tracer.set_capacity(*pending.capacity);
  if (pending.sample_every) tracer.set_sample_every(*pending.sample_every);
  if (pending.trigger_ns) tracer.set_trigger_ns(*pending.trigger_ns);
  if (pending.stop) tracer.stop();
  if (pending.start) tracer.start();
  return ok_status();
}

}  // namespace

std::shared_ptr<vfs::SynthFs> make_trace_fs(Tracer& tracer) {
  Tracer* t = &tracer;
  auto fs = std::make_shared<vfs::SynthFs>();
  fs->add_file(
      "ctl",
      [] {
        // Reading ctl shows the accepted grammar (self-documenting knob).
        return std::string(
            "# start | stop | clear | sample_every=N | capacity=N |"
            " trigger=dur_ns>DUR | trigger=off\n");
      },
      [t](std::string_view text) { return apply_ctl(*t, text); });
  fs->add_file("status", [t] {
    std::string out;
    out += "enabled " + std::to_string(t->enabled() ? 1 : 0) + "\n";
    out += "sample_every " + std::to_string(t->sample_every()) + "\n";
    out += "trigger_ns " + std::to_string(t->trigger_ns()) + "\n";
    out += "capacity " + std::to_string(t->ring().capacity()) + "\n";
    out += "events " + std::to_string(t->ring().snapshot().size()) + "\n";
    out += "inflight " + std::to_string(t->inflight()) + "\n";
    return out;
  });
  fs->add_file("export.json",
               [t] { return render_chrome_json(t->ring().snapshot()); });
  fs->add_list(
      "by-id",
      [t] {
        std::set<std::uint64_t> ids;
        for (const auto& e : t->ring().snapshot())
          if (e.trace_id != 0) ids.insert(e.trace_id);
        std::vector<std::string> names;
        names.reserve(ids.size());
        for (std::uint64_t id : ids) names.push_back(std::to_string(id));
        return names;
      },
      [t](const std::string& name) {
        auto id = parse_u64(name);
        return id ? render_trace(t->ring().snapshot(), *id) : std::string();
      });
  return fs;
}

Result<std::shared_ptr<vfs::SynthFs>> mount_trace_fs(
    vfs::Vfs& vfs, const std::string& mount_path) {
  tracer().bind_metrics(vfs.metrics());
  if (auto ec = vfs.mkdir_p(mount_path, 0755, vfs::Credentials::root()))
    return ec;
  auto fs = make_trace_fs(tracer());
  if (auto ec = vfs.mount(mount_path, fs)) return ec;
  return fs;
}

}  // namespace yanc::obs
