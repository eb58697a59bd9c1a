// EXP-1 (§8.1): the per-access cost of the file-system interface.
//
// "Each fine-grained access to the file system is done through a system
// call — for example read(), write(), and stat() — which switches context
// from the application to the kernel."
//
// Our VFS is in-process, so each benchmark reports two things:
//   * the raw in-process cost of the operation (real_time), and
//   * `syscalls` — how many application/kernel boundary crossings the same
//     sequence would take on the paper's FUSE prototype (the Vfs op
//     counter), from which modelled overhead at ~500ns/crossing follows.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "yanc/fast/syscall_model.hpp"
#include "yanc/netfs/yancfs.hpp"

using namespace yanc;

namespace {

std::shared_ptr<vfs::Vfs> fresh_fs() {
  auto v = std::make_shared<vfs::Vfs>();
  (void)netfs::mount_yanc_fs(*v);
  (void)v->mkdir("/net/switches/sw1");
  return v;
}

void report_syscalls(benchmark::State& state, const vfs::Vfs& v) {
  fast::SyscallCostModel model;
  double ops = static_cast<double>(v.counters().total.load());
  state.counters["syscalls"] =
      benchmark::Counter(ops, benchmark::Counter::kIsRate);
  state.counters["modeled_ns_op"] = benchmark::Counter(
      static_cast<double>(model.overhead_ns(v.counters().total.load())) /
      static_cast<double>(state.iterations()));
}

void BM_WriteFile(benchmark::State& state) {
  auto v = fresh_fs();
  v->reset_counters();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        v->write_file("/net/switches/sw1/id", "0xabcdef"));
  report_syscalls(state, *v);
}
BENCHMARK(BM_WriteFile);

void BM_ReadFile(benchmark::State& state) {
  auto v = fresh_fs();
  (void)v->write_file("/net/switches/sw1/id", "0xabcdef");
  v->reset_counters();
  for (auto _ : state)
    benchmark::DoNotOptimize(v->read_file("/net/switches/sw1/id"));
  report_syscalls(state, *v);
}
BENCHMARK(BM_ReadFile);

// The same write and read from the file's directory, resolved once outside
// the loop as a dirfd is opened once: each op walks one component.
void BM_WriteFileAt(benchmark::State& state) {
  auto v = fresh_fs();
  auto dir = v->resolve("/net/switches/sw1", {});
  if (!dir) {
    state.SkipWithError("resolve failed");
    return;
  }
  v->reset_counters();
  for (auto _ : state)
    benchmark::DoNotOptimize(v->write_file(*dir, "id", "0xabcdef"));
  report_syscalls(state, *v);
}
BENCHMARK(BM_WriteFileAt);

void BM_ReadFileAt(benchmark::State& state) {
  auto v = fresh_fs();
  (void)v->write_file("/net/switches/sw1/id", "0xabcdef");
  auto dir = v->resolve("/net/switches/sw1", {});
  if (!dir) {
    state.SkipWithError("resolve failed");
    return;
  }
  v->reset_counters();
  for (auto _ : state) benchmark::DoNotOptimize(v->read_file(*dir, "id"));
  report_syscalls(state, *v);
}
BENCHMARK(BM_ReadFileAt);

void BM_Stat(benchmark::State& state) {
  auto v = fresh_fs();
  v->reset_counters();
  for (auto _ : state)
    benchmark::DoNotOptimize(v->stat("/net/switches/sw1/id"));
  report_syscalls(state, *v);
}
BENCHMARK(BM_Stat);

// Path depth sets the cost of a resolution: every stat walks one step
// per component.
void BM_StatAtDepth(benchmark::State& state) {
  auto v = std::make_shared<vfs::Vfs>();
  std::string path;
  for (int d = 0; d < state.range(0); ++d) {
    path += "/d" + std::to_string(d);
    (void)v->mkdir(path);
  }
  (void)v->write_file(path + "/leaf", "x");
  path += "/leaf";
  v->reset_counters();
  for (auto _ : state) benchmark::DoNotOptimize(v->stat(path));
  report_syscalls(state, *v);
}
BENCHMARK(BM_StatAtDepth)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_Readdir64(benchmark::State& state) {
  auto v = fresh_fs();
  for (int i = 0; i < 64; ++i)
    (void)v->mkdir("/net/switches/sw1/flows/f" + std::to_string(i));
  v->reset_counters();
  for (auto _ : state)
    benchmark::DoNotOptimize(v->readdir("/net/switches/sw1/flows"));
  report_syscalls(state, *v);
}
BENCHMARK(BM_Readdir64);

void BM_MkdirRmdirFlow(benchmark::State& state) {
  auto v = fresh_fs();
  v->reset_counters();
  for (auto _ : state) {
    (void)v->mkdir("/net/switches/sw1/flows/bench");
    (void)v->rmdir("/net/switches/sw1/flows/bench");
  }
  report_syscalls(state, *v);
}
BENCHMARK(BM_MkdirRmdirFlow);

// Typed-file validation is on the write path; how much does it cost?
void BM_ValidatedWriteCidr(benchmark::State& state) {
  auto v = fresh_fs();
  (void)v->mkdir("/net/switches/sw1/flows/f");
  v->reset_counters();
  for (auto _ : state)
    benchmark::DoNotOptimize(v->write_file(
        "/net/switches/sw1/flows/f/match.nw_src", "10.20.0.0/16"));
  report_syscalls(state, *v);
}
BENCHMARK(BM_ValidatedWriteCidr);

// --- concurrent read-path scaling (EXP-1, threaded) -------------------------
//
// The acceptance bar for the sharded-locking work: aggregate read/stat
// throughput with 8 reader threads must be ≥ 3× the single-thread figure
// (items_per_second at /threads:8 vs /threads:1).  Under the old global
// mutex this ratio was ~1×.  Shared state is set up by thread 0; the
// state-loop barrier publishes it to the other threads.

void BM_ReadFileThreaded(benchmark::State& state) {
  static std::shared_ptr<vfs::Vfs> v;
  if (state.thread_index() == 0) {
    v = fresh_fs();
    (void)v->write_file("/net/switches/sw1/id", "0xabcdef");
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(v->read_file("/net/switches/sw1/id"));
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) v.reset();
}
BENCHMARK(BM_ReadFileThreaded)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_StatThreaded(benchmark::State& state) {
  static std::shared_ptr<vfs::Vfs> v;
  if (state.thread_index() == 0) v = fresh_fs();
  for (auto _ : state)
    benchmark::DoNotOptimize(v->stat("/net/switches/sw1/id"));
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) v.reset();
}
BENCHMARK(BM_StatThreaded)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// Each thread reads its own file: content access serializes only on the
// file's own lock shard, so this is the pure-parallelism ceiling.
void BM_ReadDistinctFilesThreaded(benchmark::State& state) {
  static std::shared_ptr<vfs::Vfs> v;
  if (state.thread_index() == 0) {
    v = std::make_shared<vfs::Vfs>();
    (void)v->mkdir("/data");
    for (int t = 0; t < 64; ++t)
      (void)v->write_file("/data/f" + std::to_string(t),
                          std::string(256, 'x'));
  }
  std::string mine = "/data/f" + std::to_string(state.thread_index());
  for (auto _ : state) benchmark::DoNotOptimize(v->read_file(mine));
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) v.reset();
}
BENCHMARK(BM_ReadDistinctFilesThreaded)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// Readers make progress while thread 0 keeps rewriting its own file: the
// writer holds mu_ shared + one shard, so only readers of that same file
// wait on it.
void BM_MixedReadersOneWriterThreaded(benchmark::State& state) {
  static std::shared_ptr<vfs::Vfs> v;
  if (state.thread_index() == 0) {
    v = std::make_shared<vfs::Vfs>();
    (void)v->mkdir("/data");
    for (int t = 0; t < 64; ++t)
      (void)v->write_file("/data/f" + std::to_string(t),
                          std::string(256, 'x'));
  }
  if (state.thread_index() == 0) {
    std::string payload(256, 'y');
    for (auto _ : state)
      benchmark::DoNotOptimize(v->write_file("/data/f0", payload));
  } else {
    std::string mine = "/data/f" + std::to_string(state.thread_index());
    for (auto _ : state) benchmark::DoNotOptimize(v->read_file(mine));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) v.reset();
}
BENCHMARK(BM_MixedReadersOneWriterThreaded)
    ->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

}  // namespace

YANC_BENCH_MAIN();
