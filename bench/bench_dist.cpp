// EXP-7 (§6): the cost of layering a distributed file system under the
// yanc FS.  "Each distributed file system has a different implementation
// ... with varying trade-offs."
//
// Measures one committed flow write (the controller's hot operation) on:
//   local          — plain YancFs, no replication (the floor)
//   strict@primary — primary-ordered replication, writer IS the primary
//   strict@replica — writer must round-trip the primary: the counter
//                    `sync_delay_us` reports the modelled synchronous
//                    latency the caller would block for
//   eventual       — apply locally, broadcast async (WheelFS-style)
// across cluster sizes, plus replication fan-out volume.
//
// Expected shape: CPU cost grows mildly with node count (op encoding and
// fan-out); the *latency* story is in sync_delay_us — zero everywhere
// except strict@replica, where it is 2 x link latency per op.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "yanc/cluster/harness.hpp"
#include "yanc/dist/replicated.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/util/strings.hpp"

using namespace yanc;

namespace {

flow::FlowSpec sample_flow(std::uint64_t i) {
  flow::FlowSpec spec;
  spec.match.tp_dst = static_cast<std::uint16_t>(i % 60000);
  spec.actions = {flow::Action::output(2)};
  return spec;
}

void write_one_flow(vfs::Vfs& v, std::uint64_t i) {
  (void)netfs::write_flow(v, "/net/switches/sw1/flows/f" + std::to_string(i),
                          sample_flow(i));
}

void BM_Local_NoReplication(benchmark::State& state) {
  auto v = std::make_shared<vfs::Vfs>();
  (void)netfs::mount_yanc_fs(*v);
  (void)v->mkdir("/net/switches/sw1");
  std::uint64_t i = 0;
  for (auto _ : state) write_one_flow(*v, i++);
  state.counters["sync_delay_us"] = benchmark::Counter(0);
}
BENCHMARK(BM_Local_NoReplication);

struct ClusterHarness {
  net::Scheduler scheduler;
  std::unique_ptr<dist::Cluster> cluster;
  std::shared_ptr<vfs::Vfs> writer_vfs;
  std::size_t writer_node;

  ClusterHarness(std::size_t nodes, dist::Mode mode, std::size_t writer) {
    cluster = std::make_unique<dist::Cluster>(
        scheduler,
        dist::ClusterOptions{.nodes = nodes,
                             .link_latency = std::chrono::microseconds(250),
                             .default_mode = mode});
    writer_node = writer;
    writer_vfs = std::make_shared<vfs::Vfs>();
    (void)writer_vfs->mkdir("/net");
    (void)writer_vfs->mount("/net", cluster->fs(writer));
    netfs::NetDir net(writer_vfs);
    (void)net.add_switch("sw1");
    scheduler.run_until_idle();
  }
};

void run_replicated(benchmark::State& state, dist::Mode mode,
                    std::size_t writer) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  ClusterHarness h(nodes, mode, writer);
  std::uint64_t i = 0;
  for (auto _ : state) {
    write_one_flow(*h.writer_vfs, i++);
    h.scheduler.run_until_idle();  // deliver replication traffic
  }
  auto fs = h.cluster->fs(h.writer_node);
  state.counters["sync_delay_us"] = benchmark::Counter(
      static_cast<double>(fs->sync_delay_ns()) / 1e3 /
      static_cast<double>(state.iterations()));
  state.counters["msgs_per_op"] = benchmark::Counter(
      static_cast<double>(h.cluster->transport().messages_sent()) /
      static_cast<double>(state.iterations()));
  state.counters["wire_bytes_op"] = benchmark::Counter(
      static_cast<double>(h.cluster->transport().bytes_sent()) /
      static_cast<double>(state.iterations()));
}

void BM_StrictAtPrimary(benchmark::State& state) {
  run_replicated(state, dist::Mode::strict, 0);
}
BENCHMARK(BM_StrictAtPrimary)->Arg(2)->Arg(3)->Arg(5);

void BM_StrictAtReplica(benchmark::State& state) {
  run_replicated(state, dist::Mode::strict, 1);
}
BENCHMARK(BM_StrictAtReplica)->Arg(2)->Arg(3)->Arg(5);

void BM_Eventual(benchmark::State& state) {
  run_replicated(state, dist::Mode::eventual, 1);
}
BENCHMARK(BM_Eventual)->Arg(2)->Arg(3)->Arg(5);

// Convergence latency after a partition heals: how long (virtual time)
// until a backlog of B ops reaches the other side.
void BM_PartitionHealBacklog(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    net::Scheduler scheduler;
    dist::Cluster cluster(
        scheduler,
        dist::ClusterOptions{.nodes = 2,
                             .link_latency = std::chrono::microseconds(250),
                             .default_mode = dist::Mode::eventual});
    auto v = std::make_shared<vfs::Vfs>();
    (void)v->mkdir("/net");
    (void)v->mount("/net", cluster.fs(0));
    netfs::NetDir net(v);
    (void)net.add_switch("sw1");
    scheduler.run_until_idle();
    cluster.partition(0, 1);
    for (int i = 0; i < backlog; ++i) write_one_flow(*v, i);
    state.ResumeTiming();

    cluster.heal(0, 1);
    scheduler.run_until_idle();
    benchmark::DoNotOptimize(cluster.fs(1)->remote_ops_applied());
  }
  state.SetItemsProcessed(state.iterations() * backlog);
}
BENCHMARK(BM_PartitionHealBacklog)->Arg(10)->Arg(100)->Arg(1000);

// Active-cluster failover (docs/ROBUSTNESS.md "Cluster failover"): kill
// the primary for a shard, then drive the cluster until a successor
// owns the shard and the committed flows are back on the hardware.
// Wall time is the CPU cost of the whole elect -> re-home -> resync
// machinery; the counters report convergence in cluster rounds and in
// modelled (virtual-clock) time, which is what an operator would see.
void BM_ClusterFailover(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  double total_rounds = 0, total_virtual_us = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cluster::HarnessOptions options;
    options.nodes = nodes;
    options.switches = 1;
    cluster::Harness h(options);
    h.settle();
    auto owner = h.owner_of(1);
    for (int i = 0; i < 8; ++i)
      (void)h.commit_flow(*owner, 1, numbered("f", i),
                          sample_flow(i));
    h.settle(4);
    const auto t0 = h.scheduler().clock().now_ns();
    state.ResumeTiming();

    h.kill(*owner);
    std::size_t rounds = 0;
    while (rounds < 200) {
      h.tick();
      ++rounds;
      auto successor = h.owner_of(1);
      if (successor && successor != owner &&
          h.hw_flows(1) == h.fs_flows(*successor, 1))
        break;
    }
    total_rounds += static_cast<double>(rounds);
    total_virtual_us +=
        static_cast<double>(h.scheduler().clock().now_ns() - t0) / 1e3;
  }
  state.counters["failover_rounds"] = benchmark::Counter(
      total_rounds / static_cast<double>(state.iterations()));
  state.counters["failover_virtual_us"] = benchmark::Counter(
      total_virtual_us / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ClusterFailover)->Arg(2)->Arg(3)->Arg(5)
    ->Unit(benchmark::kMillisecond);

}  // namespace

YANC_BENCH_MAIN();
