// EXP-3 (§8.1): "Complex operations such as writing flow entries to
// thousands of nodes will result in tens of thousands of context switches
// and thus a small performance impact."
//
// Sweep: push 10 flows to each of N switches (N = 10..2000) through the
// file system, and the same workload through libyanc.  The `syscalls`
// counter reproduces the paper's arithmetic directly: at ~14 file ops per
// flow, 1000 switches x 10 flows ≈ 140k boundary crossings — "tens of
// thousands" begins around a hundred switches.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "yanc/driver/of_driver.hpp"
#include "yanc/fast/consumer.hpp"
#include "yanc/fast/syscall_model.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/util/strings.hpp"

using namespace yanc;

namespace {

flow::FlowSpec sample_flow(int i) {
  flow::FlowSpec spec;
  spec.match.dl_type = 0x0800;
  spec.match.tp_dst = static_cast<std::uint16_t>(1000 + i);
  spec.actions = {flow::Action::output(2)};
  return spec;
}

constexpr int kFlowsPerSwitch = 10;

void BM_BulkPush_FsPath(benchmark::State& state) {
  const int switches = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto v = std::make_shared<vfs::Vfs>();
    (void)netfs::mount_yanc_fs(*v);
    for (int s = 0; s < switches; ++s)
      (void)v->mkdir("/net/switches/sw" + std::to_string(s));
    v->reset_counters();
    state.ResumeTiming();

    for (int s = 0; s < switches; ++s) {
      std::string base = "/net/switches/sw" + std::to_string(s) + "/flows/";
      for (int f = 0; f < kFlowsPerSwitch; ++f)
        (void)netfs::write_flow(*v, base + "f" + std::to_string(f),
                                sample_flow(f));
    }

    state.PauseTiming();
    fast::SyscallCostModel model;
    std::uint64_t syscalls = v->counters().total.load();
    state.counters["syscalls"] = benchmark::Counter(
        static_cast<double>(syscalls));
    state.counters["modeled_ms"] = benchmark::Counter(
        static_cast<double>(model.overhead_ns(syscalls)) / 1e6);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * switches * kFlowsPerSwitch);
}
BENCHMARK(BM_BulkPush_FsPath)
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_BulkPush_Libyanc(benchmark::State& state) {
  const int switches = static_cast<int>(state.range(0));
  for (auto _ : state) {
    fast::FlowChannel channel(1 << 16);
    std::uint64_t delivered = 0;
    for (int s = 0; s < switches; ++s) {
      fast::FlowBatch batch;
      batch.switch_name = "sw" + std::to_string(s);
      for (int f = 0; f < kFlowsPerSwitch; ++f)
        batch.entries.emplace_back(numbered("f", f), sample_flow(f));
      (void)channel.submit(std::move(batch));
    }
    auto stats = fast::drain_flow_channel(
        channel, ofp::Version::of10,
        [&](const std::string&, std::vector<std::uint8_t>) { ++delivered; });
    benchmark::DoNotOptimize(stats);
    state.counters["syscalls"] = benchmark::Counter(0);
    state.counters["flow_mods"] =
        benchmark::Counter(static_cast<double>(delivered));
  }
  state.SetItemsProcessed(state.iterations() * switches * kFlowsPerSwitch);
}
BENCHMARK(BM_BulkPush_Libyanc)
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// End to end through the real pipeline: YancFs writes -> watch shard ->
// FLOW_MOD egress -> software switch, with every FLOW_MOD sealed in a
// wire buffer of its own (Arg 0: max_batch = 1) vs packed trains (Arg 1:
// the default max_batch).  Each iteration commits a burst of flows,
// settles to hardware, then removes them and settles again, so the table
// stays bounded and the timing covers both directions of the commit
// protocol.  Producing the burst (write_flow / remove_all) costs the same
// in both arms, so it runs outside the timer; what is measured is the
// driver pipeline the burst then flows through.  `mean_batch` (the
// driver/of/batch_size mean) shows the FLOW_MODs per train achieved.
void BM_BulkPush_DriverPipeline(benchmark::State& state) {
  const bool packed = state.range(0) != 0;
  constexpr int kBurst = 64;
  auto v = std::make_shared<vfs::Vfs>();
  (void)netfs::mount_yanc_fs(*v);
  net::Scheduler scheduler;
  net::Network network(scheduler);
  driver::DriverOptions opts;
  if (!packed) opts.max_batch = 1;
  // The periodic flow-table audit fires on tick counts, not on work, so
  // at benchmark iteration rates it lands mid-commit and re-pushes whole
  // bursts — seed-dependent noise, not pipeline cost.  Off for the
  // measurement; driver_test covers audits.
  opts.audit_interval = 0;
  driver::OfDriver drv(v, opts);
  sw::SwitchOptions sopts;
  sopts.datapath_id = 0x1;
  sw::Switch s("dp1", sopts, network);
  s.add_port(1, MacAddress::from_u64(0x020000000001ull), "eth1");
  s.connect(drv.listener().connect());
  auto settle = [&] {
    for (int round = 0; round < 1000; ++round) {
      std::size_t work = drv.poll();
      work += s.pump();
      work += scheduler.run_until_idle();
      if (work == 0) break;
    }
  };
  settle();

  // Names are reused across iterations so steady state stays steady: no
  // unbounded watch-registry growth skewing late iterations.
  const std::string base = "/net/switches/sw1/flows/f";
  for (auto _ : state) {
    state.PauseTiming();
    for (int f = 0; f < kBurst; ++f)
      (void)netfs::write_flow(*v, base + std::to_string(f), sample_flow(f));
    state.ResumeTiming();
    settle();  // commit: watch shard -> flow read -> wire -> barrier
    state.PauseTiming();
    for (int f = 0; f < kBurst; ++f)
      (void)v->remove_all(base + std::to_string(f));
    state.ResumeTiming();
    settle();  // delete: watch shard -> remove_strict train
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBurst);
  state.counters["mean_batch"] = benchmark::Counter(static_cast<double>(
      v->metrics()->histogram("driver/of/batch_size")->mean()));
  state.counters["coalesced_total"] = benchmark::Counter(
      static_cast<double>(
          v->metrics()->counter("watch/coalesced_total")->value()));
}
BENCHMARK(BM_BulkPush_DriverPipeline)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

YANC_BENCH_MAIN();
