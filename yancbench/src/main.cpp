// yancbench: end-to-end benchmark of the yanc stack's canonical ops.
//
//   yancbench --workload <reactive_l2|cluster_push|read_monitor>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <spans file>]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics untraced, per-layer metrics traced).
// Diagnostics go to stderr.  See yancbench/README.md for the workloads,
// estimators and the layer ledger.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: yancbench --workload <reactive_l2|cluster_push|"
               "read_monitor> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--trace-out <file>]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno || end == s || *end) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  yb::Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload") {
      const char* v = value();
      if (!v) return usage();
      args.workload = v;
    } else if (a == "--seed") {
      const char* v = value();
      if (!v || !parse_u64(v, args.seed)) return usage();
      have_seed = true;
    } else if (a == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      if (!v) return usage();
      args.seconds = std::strtod(v, &end);
      if (end == v || *end || !(args.seconds > 0) || args.seconds > 600)
        return usage();
      have_seconds = true;
    } else if (a == "--trace") {
      const char* v = value();
      if (!v || (std::strcmp(v, "0") && std::strcmp(v, "1"))) return usage();
      args.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--trace-out") {
      const char* v = value();
      if (!v) return usage();
      args.trace_out = v;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage();

  yb::Outcome result;
  try {
    if (args.workload == "reactive_l2")
      result = yb::run_reactive_l2(args);
    else if (args.workload == "cluster_push")
      result = yb::run_cluster_push(args);
    else if (args.workload == "read_monitor")
      result = yb::run_read_monitor(args);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yancbench: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr, "yancbench notes: {");
  bool first = true;
  for (const auto& [k, v] : result.notes) {
    std::fprintf(stderr, "%s\"%s\": %.6g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::fprintf(stderr, "}\n");

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  first = true;
  for (const auto& [name, vu] : result.metrics) {
    if (!std::isfinite(vu.first)) {
      std::fprintf(stderr, "yancbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
