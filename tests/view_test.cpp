// Tests for network views (§4.2): the slicer's header-space confinement
// and the big-switch virtualizer's path compilation — including stacking.
#include <gtest/gtest.h>

#include "yanc/net/packet.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/view/bigswitch.hpp"
#include "yanc/view/slicer.hpp"

namespace yanc::view {
namespace {

using flow::Action;
using flow::FlowSpec;

class SlicerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    // Two physical switches with a few ports each.
    netfs::NetDir net(vfs);
    for (const char* sw : {"sw1", "sw2"}) {
      ASSERT_FALSE(net.add_switch(sw));
      for (std::uint16_t p = 1; p <= 4; ++p)
        ASSERT_FALSE(net.switch_at(sw).add_port(
            p, MacAddress::from_u64(p), "eth"));
    }
  }

  SliceConfig ssh_slice() {
    SliceConfig cfg;
    cfg.name = "ssh";
    cfg.predicate.dl_type = 0x0800;
    cfg.predicate.nw_proto = 6;
    cfg.predicate.tp_dst = 22;
    cfg.switches = {"sw1"};
    cfg.ports = {{"sw1", {1, 2}}};
    return cfg;
  }

  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
};

TEST_F(SlicerTest, InitMirrorsSlicedTopology) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  netfs::NetDir view(vfs, "/net/views/ssh");
  auto switches = view.switch_names();
  ASSERT_TRUE(switches.ok());
  EXPECT_EQ(*switches, std::vector<std::string>{"sw1"});  // sw2 excluded
  auto ports = view.switch_at("sw1").port_names();
  ASSERT_TRUE(ports.ok());
  EXPECT_EQ(*ports, (std::vector<std::string>{"1", "2"}));  // 3,4 excluded
}

TEST_F(SlicerTest, FlowConfinedToPredicate) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  // Tenant writes a broad flow in its view.
  FlowSpec broad;
  broad.match.nw_src = *Cidr::parse("10.0.0.0/8");
  broad.actions = {Action::output(2)};
  netfs::NetDir view(vfs, "/net/views/ssh");
  ASSERT_FALSE(view.switch_at("sw1").add_flow("f", broad));
  ASSERT_TRUE(slicer.poll().ok());

  // The parent flow exists and carries the intersected match.
  auto parent = netfs::read_flow(*vfs, "/net/switches/sw1/flows/view_ssh__f");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(parent->match.tp_dst, 22);           // predicate applied
  EXPECT_EQ(parent->match.nw_src->to_string(), "10.0.0.0/8");
  EXPECT_EQ(parent->match.dl_type, 0x0800);
  EXPECT_GE(parent->version, 1u);                // committed for the driver
}

TEST_F(SlicerTest, DisjointFlowRejected) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  FlowSpec http;  // tp_dst=80 cannot intersect tp_dst=22
  http.match.tp_dst = 80;
  http.actions = {Action::output(1)};
  netfs::NetDir view(vfs, "/net/views/ssh");
  ASSERT_FALSE(view.switch_at("sw1").add_flow("http", http));
  ASSERT_TRUE(slicer.poll().ok());
  EXPECT_EQ(slicer.rejected_flows(), 1u);
  EXPECT_FALSE(
      vfs->stat("/net/switches/sw1/flows/view_ssh__http").ok());
}

TEST_F(SlicerTest, OutputsConfinedToSlicePorts) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  FlowSpec f;
  f.actions = {Action::output(2), Action::output(4)};  // 4 not in slice
  netfs::NetDir view(vfs, "/net/views/ssh");
  ASSERT_FALSE(view.switch_at("sw1").add_flow("f", f));
  ASSERT_TRUE(slicer.poll().ok());
  auto parent = netfs::read_flow(*vfs, "/net/switches/sw1/flows/view_ssh__f");
  ASSERT_TRUE(parent.ok());
  ASSERT_EQ(parent->actions.size(), 1u);
  EXPECT_EQ(parent->actions[0].port(), 2);
}

TEST_F(SlicerTest, FloodBecomesSlicePortList) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  FlowSpec f;
  f.actions = {Action::flood()};
  netfs::NetDir view(vfs, "/net/views/ssh");
  ASSERT_FALSE(view.switch_at("sw1").add_flow("f", f));
  ASSERT_TRUE(slicer.poll().ok());
  auto parent = netfs::read_flow(*vfs, "/net/switches/sw1/flows/view_ssh__f");
  ASSERT_TRUE(parent.ok());
  ASSERT_EQ(parent->actions.size(), 2u);  // explicit ports 1 and 2
  EXPECT_EQ(parent->actions[0].port(), 1);
  EXPECT_EQ(parent->actions[1].port(), 2);
}

TEST_F(SlicerTest, ViewFlowDeletionRetractsParent) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  FlowSpec f;
  f.actions = {Action::output(1)};
  netfs::NetDir view(vfs, "/net/views/ssh");
  ASSERT_FALSE(view.switch_at("sw1").add_flow("f", f));
  ASSERT_TRUE(slicer.poll().ok());
  ASSERT_TRUE(vfs->stat("/net/switches/sw1/flows/view_ssh__f").ok());
  ASSERT_FALSE(view.switch_at("sw1").remove_flow("f"));
  ASSERT_TRUE(slicer.poll().ok());
  EXPECT_FALSE(vfs->stat("/net/switches/sw1/flows/view_ssh__f").ok());
}

TEST_F(SlicerTest, EventsFilteredIntoView) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  netfs::NetDir view(vfs, "/net/views/ssh");
  auto app_buf = view.open_events("tenant-app");
  ASSERT_TRUE(app_buf.ok());

  // Simulate driver delivery of two packet-ins into the slicer's parent
  // buffer: one ssh (matches the slice), one http (does not).
  auto deliver = [&](const char* name, std::uint16_t tp_dst) {
    auto frame = net::build_tcp(MacAddress::from_u64(2),
                                MacAddress::from_u64(1),
                                *Ipv4Address::parse("10.0.0.1"),
                                *Ipv4Address::parse("10.0.0.2"), 1234,
                                tp_dst, {});
    std::string dir =
        std::string("/net/events/slicer-ssh/") + name;
    ASSERT_FALSE(vfs->mkdir(dir));
    ASSERT_FALSE(vfs->write_file(dir + "/datapath", "sw1"));
    ASSERT_FALSE(vfs->write_file(dir + "/in_port", "1"));
    ASSERT_FALSE(vfs->write_file(
        dir + "/data",
        std::string_view(reinterpret_cast<const char*>(frame.data()),
                         frame.size())));
  };
  deliver("pkt_1", 22);
  deliver("pkt_2", 80);
  ASSERT_TRUE(slicer.poll().ok());

  auto events = app_buf->drain();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);  // only the ssh packet crossed
  EXPECT_EQ((*events)[0].datapath, "sw1");
}

// A forwarded packet-in keeps its trace: the view's application claims
// the context the driver handed to the slicer's parent buffer.
TEST_F(SlicerTest, ForwardedPacketInKeepsItsTrace) {
  Slicer slicer(vfs, "/net", ssh_slice());
  ASSERT_FALSE(slicer.init());
  netfs::NetDir view(vfs, "/net/views/ssh");
  auto app_buf = view.open_events("tenant-app");
  ASSERT_TRUE(app_buf.ok());

  obs::tracer().clear();
  obs::tracer().start();
  auto frame = net::build_tcp(MacAddress::from_u64(2),
                              MacAddress::from_u64(1),
                              *Ipv4Address::parse("10.0.0.1"),
                              *Ipv4Address::parse("10.0.0.2"), 1234, 22, {});
  netfs::PacketInInfo pkt;
  pkt.name = "pkt_1";
  pkt.datapath = "sw1";
  pkt.in_port = 1;
  pkt.data.assign(frame.begin(), frame.end());
  pkt.trace = obs::tracer().mint("test", "packet_in");
  ASSERT_TRUE(pkt.trace);
  EXPECT_EQ(netfs::deliver_packet_in(*vfs, "/net/events", pkt), 1u);
  ASSERT_TRUE(slicer.poll().ok());
  auto events = app_buf->drain();
  obs::tracer().stop();
  obs::tracer().clear();

  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].trace.trace_id, pkt.trace.trace_id);
}

TEST_F(SlicerTest, SlicesStack) {
  // Slice A: sw1 only.  Slice B (inside A): ssh only.
  SliceConfig outer;
  outer.name = "tenant";
  outer.switches = {"sw1"};
  Slicer outer_slicer(vfs, "/net", outer);
  ASSERT_FALSE(outer_slicer.init());

  SliceConfig inner;
  inner.name = "ssh";
  inner.predicate.tp_dst = 22;
  Slicer inner_slicer(vfs, "/net/views/tenant", inner);
  ASSERT_FALSE(inner_slicer.init());

  FlowSpec f;
  f.match.nw_proto = 6;
  f.actions = {Action::output(1)};
  netfs::NetDir innermost(vfs, "/net/views/tenant/views/ssh");
  ASSERT_FALSE(innermost.switch_at("sw1").add_flow("f", f));
  ASSERT_TRUE(inner_slicer.poll().ok());   // ssh -> tenant
  ASSERT_TRUE(outer_slicer.poll().ok());   // tenant -> master

  auto parent = netfs::read_flow(
      *vfs, "/net/switches/sw1/flows/view_tenant__view_ssh__f");
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(parent->match.tp_dst, 22);
  EXPECT_EQ(parent->match.nw_proto, 6);
}

// --- big switch ------------------------------------------------------------------

class BigSwitchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    netfs::NetDir net(vfs);
    // Linear fabric: sw1:2 -- 1:sw2:2 -- 1:sw3; hosts on sw1:1 and sw3:2.
    for (const char* sw : {"sw1", "sw2", "sw3"}) {
      ASSERT_FALSE(net.add_switch(sw));
      for (std::uint16_t p = 1; p <= 2; ++p)
        ASSERT_FALSE(net.switch_at(sw).add_port(
            p, MacAddress::from_u64(p), "eth"));
    }
    link({"sw1", 2}, {"sw2", 1});
    link({"sw2", 2}, {"sw3", 1});
  }

  void link(topo::PortRef a, topo::PortRef b) {
    ASSERT_FALSE(vfs->symlink(b.path("/net"), a.path("/net") + "/peer"));
    ASSERT_FALSE(vfs->symlink(a.path("/net"), b.path("/net") + "/peer"));
  }

  BigSwitchConfig config() {
    BigSwitchConfig cfg;
    cfg.view_name = "fabric";
    cfg.edge_ports = {{"sw1", 1}, {"sw3", 2}};  // vports 1 and 2
    return cfg;
  }

  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
};

TEST_F(BigSwitchTest, InitCreatesVirtualSwitch) {
  BigSwitch big(vfs, "/net", config());
  ASSERT_FALSE(big.init());
  netfs::NetDir view(vfs, "/net/views/fabric");
  EXPECT_TRUE(view.switch_at("big0").exists());
  auto ports = view.switch_at("big0").port_names();
  ASSERT_TRUE(ports.ok());
  EXPECT_EQ(*ports, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(big.virtual_port({"sw1", 1}), 1);
  EXPECT_EQ(big.virtual_port({"sw3", 2}), 2);
  EXPECT_EQ(big.virtual_port({"sw2", 1}), 0);  // fabric-internal
}

TEST_F(BigSwitchTest, VirtualFlowCompilesToPath) {
  BigSwitch big(vfs, "/net", config());
  ASSERT_FALSE(big.init());
  // vport1 -> vport2 for ssh traffic.
  FlowSpec f;
  f.match.in_port = 1;
  f.match.tp_dst = 22;
  f.actions = {Action::output(2)};
  ASSERT_FALSE(netfs::write_flow(*vfs, big.virtual_switch_path() +
                                           "/flows/ssh", f));
  ASSERT_TRUE(big.poll().ok());
  EXPECT_EQ(big.compiled_flows(), 1u);

  // One hop flow per switch along sw1 -> sw2 -> sw3.
  for (const char* sw : {"sw1", "sw2", "sw3"}) {
    auto flows = vfs->readdir(std::string("/net/switches/") + sw + "/flows");
    ASSERT_TRUE(flows.ok());
    ASSERT_EQ(flows->size(), 1u) << sw;
    auto spec = netfs::read_flow(
        *vfs,
        std::string("/net/switches/") + sw + "/flows/" + (*flows)[0].name);
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->match.tp_dst, 22);
    ASSERT_TRUE(spec->match.in_port.has_value());
  }
  // sw1 hop enters on the edge port and leaves toward sw2.
  auto sw1_flows = vfs->readdir("/net/switches/sw1/flows");
  auto sw1_spec = netfs::read_flow(
      *vfs, "/net/switches/sw1/flows/" + (*sw1_flows)[0].name);
  EXPECT_EQ(*sw1_spec->match.in_port, 1);
  EXPECT_EQ(sw1_spec->actions[0].port(), 2);
  // sw3 (egress) outputs to the edge port 2.
  auto sw3_flows = vfs->readdir("/net/switches/sw3/flows");
  auto sw3_spec = netfs::read_flow(
      *vfs, "/net/switches/sw3/flows/" + (*sw3_flows)[0].name);
  EXPECT_EQ(sw3_spec->actions[0].port(), 2);
}

TEST_F(BigSwitchTest, RewritesApplyAtEgressOnly) {
  BigSwitch big(vfs, "/net", config());
  ASSERT_FALSE(big.init());
  FlowSpec f;
  f.match.in_port = 1;
  f.actions = {Action{flow::ActionKind::set_nw_dst,
                      *Ipv4Address::parse("10.9.9.9")},
               Action::output(2)};
  ASSERT_FALSE(
      netfs::write_flow(*vfs, big.virtual_switch_path() + "/flows/nat", f));
  ASSERT_TRUE(big.poll().ok());
  auto sw1_flows = vfs->readdir("/net/switches/sw1/flows");
  auto sw1_spec = netfs::read_flow(
      *vfs, "/net/switches/sw1/flows/" + (*sw1_flows)[0].name);
  EXPECT_EQ(sw1_spec->actions.size(), 1u);  // pure forward
  auto sw3_flows = vfs->readdir("/net/switches/sw3/flows");
  auto sw3_spec = netfs::read_flow(
      *vfs, "/net/switches/sw3/flows/" + (*sw3_flows)[0].name);
  ASSERT_EQ(sw3_spec->actions.size(), 2u);  // rewrite + output
  EXPECT_EQ(sw3_spec->actions[0].kind, flow::ActionKind::set_nw_dst);
}

TEST_F(BigSwitchTest, RemovalRetractsCompiledFlows) {
  BigSwitch big(vfs, "/net", config());
  ASSERT_FALSE(big.init());
  FlowSpec f;
  f.match.in_port = 1;
  f.actions = {Action::output(2)};
  ASSERT_FALSE(
      netfs::write_flow(*vfs, big.virtual_switch_path() + "/flows/f", f));
  ASSERT_TRUE(big.poll().ok());
  ASSERT_FALSE(vfs->rmdir(big.virtual_switch_path() + "/flows/f"));
  ASSERT_TRUE(big.poll().ok());
  for (const char* sw : {"sw1", "sw2", "sw3"}) {
    auto flows = vfs->readdir(std::string("/net/switches/") + sw + "/flows");
    ASSERT_TRUE(flows.ok());
    EXPECT_TRUE(flows->empty()) << sw;
  }
}

TEST_F(BigSwitchTest, EventsLiftWithVirtualPort) {
  BigSwitch big(vfs, "/net", config());
  ASSERT_FALSE(big.init());
  netfs::NetDir view(vfs, "/net/views/fabric");
  auto buf = view.open_events("app");
  ASSERT_TRUE(buf.ok());

  // Driver deposits a packet-in from the sw3 edge port into the
  // bigswitch's parent buffer.
  std::string dir = "/net/events/bigswitch-fabric/pkt_1";
  ASSERT_FALSE(vfs->mkdir(dir));
  ASSERT_FALSE(vfs->write_file(dir + "/datapath", "sw3"));
  ASSERT_FALSE(vfs->write_file(dir + "/in_port", "2"));
  ASSERT_FALSE(vfs->write_file(dir + "/data", "frame"));
  ASSERT_TRUE(big.poll().ok());

  auto events = buf->drain();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].datapath, "big0");  // virtual identity
  EXPECT_EQ((*events)[0].in_port, 2);        // virtual port number
}

TEST_F(BigSwitchTest, UnreachableEdgeRejected) {
  BigSwitchConfig cfg = config();
  cfg.edge_ports.push_back({"island", 1});  // not in the topology
  netfs::NetDir net(vfs);
  ASSERT_FALSE(net.add_switch("island"));
  ASSERT_FALSE(net.switch_at("island").add_port(1, MacAddress{}, "eth"));
  BigSwitch big(vfs, "/net", cfg);
  ASSERT_FALSE(big.init());
  FlowSpec f;  // match-all to vport3 (the island): no path exists
  f.match.in_port = 1;
  f.actions = {Action::output(3)};
  ASSERT_FALSE(
      netfs::write_flow(*vfs, big.virtual_switch_path() + "/flows/f", f));
  ASSERT_TRUE(big.poll().ok());
  EXPECT_EQ(big.rejected_flows(), 1u);
  // Rollback: nothing half-installed.
  auto flows = vfs->readdir("/net/switches/sw1/flows");
  EXPECT_TRUE(flows->empty());
}

}  // namespace
}  // namespace yanc::view
