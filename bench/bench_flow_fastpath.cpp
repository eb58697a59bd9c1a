// EXP-2 (§8.1): file-system path vs the libyanc fastpath for creating
// flow entries.
//
// "To mitigate the performance overhead of working with the file system,
// we are implementing libyanc ... a fastpath for e.g. creating flow
// entries atomically and without any context switchings."
//
// Three ways to create one committed flow entry:
//   fs_path      — mkdir + per-field writes + version commit (§3.4): what
//                  a shell script or naive app does.  ~12-16 ops.
//   fs_handles   — the typed-handle API (write_flow): same file ops,
//                  library-managed.
//   libyanc      — FlowChannel submit + driver-side drain to FLOW_MOD
//                  bytes: zero file ops on the application's path.
//   libyanc_mirrored — same, plus the consumer mirroring the flow into
//                  the FS off the critical path (what production runs).
//
// Expected shape: libyanc beats the FS paths by a large factor, and the
// `syscalls` counter shows why (EXP-2's modelled column).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "yanc/fast/consumer.hpp"
#include "yanc/fast/syscall_model.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/util/strings.hpp"

using namespace yanc;

namespace {

flow::FlowSpec sample_flow(int i) {
  flow::FlowSpec spec;
  spec.match.dl_type = 0x0800;
  spec.match.nw_proto = 6;
  spec.match.nw_src = Cidr(Ipv4Address(0x0a000000u + (std::uint32_t)i), 32);
  spec.match.tp_dst = 22;
  spec.actions = {flow::Action::output(2)};
  spec.priority = 100;
  return spec;
}

std::shared_ptr<vfs::Vfs> fresh_fs() {
  auto v = std::make_shared<vfs::Vfs>();
  (void)netfs::mount_yanc_fs(*v);
  (void)v->mkdir("/net/switches/sw1");
  return v;
}

void report(benchmark::State& state, std::uint64_t syscalls) {
  fast::SyscallCostModel model;
  state.counters["syscalls_per_flow"] = benchmark::Counter(
      static_cast<double>(syscalls) /
      static_cast<double>(state.iterations()));
  state.counters["modeled_ns_flow"] = benchmark::Counter(
      static_cast<double>(model.overhead_ns(syscalls)) /
      static_cast<double>(state.iterations()));
}

// The "shell script" path: one file op per field (what §3.4 describes).
void BM_FsPath_PerFieldWrites(benchmark::State& state) {
  auto v = fresh_fs();
  v->reset_counters();
  int i = 0;
  for (auto _ : state) {
    std::string dir = "/net/switches/sw1/flows/f" + std::to_string(i++);
    (void)v->mkdir(dir);
    (void)v->write_file(dir + "/match.dl_type", "0x0800");
    (void)v->write_file(dir + "/match.nw_proto", "6");
    (void)v->write_file(dir + "/match.nw_src", "10.0.0.1");
    (void)v->write_file(dir + "/match.tp_dst", "22");
    (void)v->write_file(dir + "/action.out", "2");
    (void)v->write_file(dir + "/priority", "100");
    (void)v->write_file(dir + "/version", "1");
  }
  report(state, v->counters().total.load());
}
BENCHMARK(BM_FsPath_PerFieldWrites);

// The typed-handle API over the same file operations.
void BM_FsPath_WriteFlowHelper(benchmark::State& state) {
  auto v = fresh_fs();
  v->reset_counters();
  int i = 0;
  for (auto _ : state) {
    (void)netfs::write_flow(
        *v, "/net/switches/sw1/flows/f" + std::to_string(i), sample_flow(i));
    ++i;
  }
  report(state, v->counters().total.load());
}
BENCHMARK(BM_FsPath_WriteFlowHelper);

// libyanc: submit + drain to wire bytes, no file system on the path.
void BM_Libyanc_Fastpath(benchmark::State& state) {
  fast::FlowChannel channel(1 << 14);
  std::uint64_t wire_bytes = 0;
  int i = 0;
  for (auto _ : state) {
    (void)channel.submit(
        fast::FlowBatch{"sw1", {{numbered("f", i), sample_flow(i)}}});
    auto stats = fast::drain_flow_channel(
        channel, ofp::Version::of10,
        [&](const std::string&, std::vector<std::uint8_t> bytes) {
          wire_bytes += bytes.size();
        });
    benchmark::DoNotOptimize(stats);
    ++i;
  }
  report(state, 0);  // zero boundary crossings on the app path
  state.counters["wire_bytes_flow"] = benchmark::Counter(
      static_cast<double>(wire_bytes) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_Libyanc_Fastpath);

// libyanc batching: N flows published with ONE atomic ring push.
void BM_Libyanc_Batched(benchmark::State& state) {
  fast::FlowChannel channel(1 << 14);
  const int batch_size = static_cast<int>(state.range(0));
  int i = 0;
  for (auto _ : state) {
    fast::FlowBatch batch;
    batch.switch_name = "sw1";
    for (int f = 0; f < batch_size; ++f) {
      batch.entries.emplace_back(numbered("f", i), sample_flow(i));
      ++i;
    }
    (void)channel.submit(std::move(batch));
    auto stats = fast::drain_flow_channel(
        channel, ofp::Version::of10,
        [](const std::string&, std::vector<std::uint8_t>) {});
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_Libyanc_Batched)->Arg(1)->Arg(16)->Arg(256);

// Fastpath with the FS mirror enabled: the mirror pays the file ops, but
// off the application's critical path (here it is on the same thread, so
// this is the upper bound of total work).
void BM_Libyanc_WithMirror(benchmark::State& state) {
  auto v = fresh_fs();
  fast::FlowChannel channel(1 << 14);
  v->reset_counters();
  int i = 0;
  for (auto _ : state) {
    (void)channel.submit(
        fast::FlowBatch{"sw1", {{numbered("f", i), sample_flow(i)}}});
    auto stats = fast::drain_flow_channel(
        channel, ofp::Version::of10,
        [](const std::string&, std::vector<std::uint8_t>) {}, v.get());
    benchmark::DoNotOptimize(stats);
    ++i;
  }
  report(state, v->counters().total.load());
}
BENCHMARK(BM_Libyanc_WithMirror);

}  // namespace

YANC_BENCH_MAIN();
