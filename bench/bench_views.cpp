// EXP-6 (§4.2): "views can be stacked arbitrarily on top of one another"
// — at what cost?  Measures the end-to-end latency of committing a flow
// in the innermost view of a D-deep slicer stack until it materializes,
// fully translated, in the master view.
//
// Expected shape: ~linear in depth with a small per-layer constant (each
// layer re-reads the flow, intersects the match, and rewrites it one
// level up).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "yanc/net/packet.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/view/slicer.hpp"

using namespace yanc;

namespace {

struct Stack {
  std::shared_ptr<vfs::Vfs> vfs;
  std::vector<std::unique_ptr<view::Slicer>> slicers;  // outermost first
  std::string innermost_root;
};

Stack build_stack(int depth) {
  Stack stack;
  stack.vfs = std::make_shared<vfs::Vfs>();
  (void)netfs::mount_yanc_fs(*stack.vfs);
  netfs::NetDir net(stack.vfs);
  (void)net.add_switch("sw1");
  for (std::uint16_t p = 1; p <= 4; ++p)
    (void)net.switch_at("sw1").add_port(p, MacAddress::from_u64(p), "eth");

  std::string root = "/net";
  for (int d = 0; d < depth; ++d) {
    view::SliceConfig cfg;
    cfg.name = "layer" + std::to_string(d);
    // Each layer narrows one more field so the translation does real work.
    switch (d % 4) {
      case 0: cfg.predicate.dl_type = 0x0800; break;
      case 1: cfg.predicate.nw_proto = 6; break;
      case 2: cfg.predicate.tp_dst = 22; break;
      case 3: cfg.predicate.nw_dst = *Cidr::parse("10.0.0.0/8"); break;
    }
    auto slicer = std::make_unique<view::Slicer>(stack.vfs, root, cfg);
    (void)slicer->init();
    root = slicer->view_root();
    stack.slicers.push_back(std::move(slicer));
  }
  stack.innermost_root = root;
  return stack;
}

// Steady-state cycle: commit one flow in the innermost view, propagate it
// through every layer, then retract it (and propagate the retraction), so
// the view size stays constant and the measurement is the per-flow
// translation cost — not an ever-growing rescan.
void BM_FlowThroughStack(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  auto stack = build_stack(depth);
  std::uint64_t i = 0;
  for (auto _ : state) {
    flow::FlowSpec spec;
    spec.match.tp_src = static_cast<std::uint16_t>(1 + (i++ % 60000));
    spec.actions = {flow::Action::output(2)};
    std::string flow_dir = stack.innermost_root + "/switches/sw1/flows/f";
    (void)netfs::write_flow(*stack.vfs, flow_dir, spec);
    // Propagate inner -> outer.
    for (auto it = stack.slicers.rbegin(); it != stack.slicers.rend(); ++it)
      (void)(*it)->poll();
    // Retract and propagate the retraction.
    (void)stack.vfs->rmdir(flow_dir);
    for (auto it = stack.slicers.rbegin(); it != stack.slicers.rend(); ++it)
      (void)(*it)->poll();
  }
  state.counters["depth"] = benchmark::Counter(static_cast<double>(depth));
}
BENCHMARK(BM_FlowThroughStack)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

// The pure translation cost (match intersection + action confinement),
// isolated from file I/O.
void BM_MatchIntersection(benchmark::State& state) {
  flow::Match slice;
  slice.dl_type = 0x0800;
  slice.nw_proto = 6;
  slice.tp_dst = 22;
  flow::Match app;
  app.nw_src = *Cidr::parse("10.1.0.0/16");
  app.in_port = 3;
  for (auto _ : state) benchmark::DoNotOptimize(slice.intersect(app));
}
BENCHMARK(BM_MatchIntersection);

// Packet-in filtering through one slicer (the view events path).
void BM_EventFilterThroughSlice(benchmark::State& state) {
  auto stack = build_stack(1);
  auto& slicer = *stack.slicers[0];
  netfs::NetDir view(stack.vfs, slicer.view_root());
  auto buf = view.open_events("app");
  auto frame = net::build_tcp(MacAddress::from_u64(2),
                              MacAddress::from_u64(1),
                              *Ipv4Address::parse("10.0.0.1"),
                              *Ipv4Address::parse("10.0.0.2"), 1, 22, {});
  netfs::PacketInInfo pkt;
  pkt.datapath = "sw1";
  pkt.in_port = 1;
  pkt.reason = "no_match";
  pkt.total_len = static_cast<std::uint16_t>(frame.size());
  pkt.data.assign(frame.begin(), frame.end());
  std::uint64_t i = 0;
  for (auto _ : state) {
    // The driver's delivery into the slicer's parent buffer.
    pkt.name = "pkt_" + std::to_string(i++);
    (void)netfs::deliver_packet_in(*stack.vfs, "/net/events", pkt);
    (void)slicer.poll();
    (void)buf->drain();
  }
}
BENCHMARK(BM_EventFilterThroughSlice);

}  // namespace

YANC_BENCH_MAIN();
