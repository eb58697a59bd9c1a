// Integration tests for the OpenFlow driver: the §4.1 translation layer
// between the yanc file system and switches.  Each test wires a real
// YancFs, a real software switch, and the driver over an in-memory
// channel, then drives both sides to quiescence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "yanc/driver/of_driver.hpp"
#include "yanc/driver/text_driver.hpp"
#include "yanc/faults/injector.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::driver {
namespace {

using flow::Action;
using flow::FlowSpec;

class DriverTest : public ::testing::TestWithParam<ofp::Version> {
 protected:
  DriverTest() : network(scheduler) {}

  void SetUp() override {
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    DriverOptions opts;
    opts.version = GetParam();
    driver = std::make_unique<OfDriver>(vfs, opts);
  }

  std::unique_ptr<sw::Switch> make_switch(std::uint64_t dpid,
                                          int ports = 3,
                                          std::uint8_t tables = 1) {
    sw::SwitchOptions opts;
    opts.datapath_id = dpid;
    opts.version = GetParam();
    opts.n_tables = tables;
    auto s = std::make_unique<sw::Switch>("dp" + std::to_string(dpid), opts,
                                          network);
    for (int p = 1; p <= ports; ++p)
      s->add_port(static_cast<std::uint16_t>(p),
                  MacAddress::from_u64(0x020000000000ull | (dpid << 8) |
                                       static_cast<std::uint64_t>(p)),
                  "eth" + std::to_string(p));
    s->connect(driver->listener().connect());
    return s;
  }

  /// Runs driver, switches, and the simulated network to quiescence.
  void settle(std::initializer_list<sw::Switch*> switches) {
    for (int round = 0; round < 30; ++round) {
      std::size_t work = driver->poll();
      for (auto* s : switches) work += s->pump();
      work += scheduler.run_until_idle();
      if (work == 0) break;
    }
  }

  netfs::NetDir net() { return netfs::NetDir(vfs); }

  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
  net::Scheduler scheduler;
  net::Network network;
  std::unique_ptr<OfDriver> driver;
};

INSTANTIATE_TEST_SUITE_P(Versions, DriverTest,
                         ::testing::Values(ofp::Version::of10,
                                           ofp::Version::of13),
                         [](const auto& info) {
                           return info.param == ofp::Version::of10 ? "of10"
                                                                   : "of13";
                         });

TEST_P(DriverTest, HandshakePopulatesSwitchDirectory) {
  auto s = make_switch(0x42);
  settle({s.get()});
  EXPECT_EQ(driver->connected_switches(), 1u);

  auto name = driver->switch_name(0x42);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "sw1");
  auto sw_handle = net().switch_at("sw1");
  ASSERT_TRUE(sw_handle.exists());
  EXPECT_EQ(*sw_handle.datapath_id(), 0x42u);
  EXPECT_TRUE(*sw_handle.connected());
  EXPECT_EQ(*sw_handle.protocol_version(),
            ofp::version_name(GetParam()));
  // Ports appear under ports/ for both versions (1.0 via features,
  // 1.3 via the port-desc multipart).
  auto ports = sw_handle.port_names();
  ASSERT_TRUE(ports.ok());
  EXPECT_EQ(*ports, (std::vector<std::string>{"1", "2", "3"}));
  // Identity strings came from desc stats.
  EXPECT_EQ(*sw_handle.read_field("manufacturer"), "yanc project");
}

TEST_P(DriverTest, CommittedFlowReachesHardware) {
  auto s = make_switch(0x42);
  settle({s.get()});

  FlowSpec spec;
  spec.match.dl_type = 0x0806;
  spec.actions = {Action::flood()};
  spec.priority = 200;
  ASSERT_FALSE(net().switch_at("sw1").add_flow("arp", spec));
  settle({s.get()});

  ASSERT_EQ(s->table().size(), 1u);
  EXPECT_EQ(s->table().entries()[0].spec.match.dl_type, 0x0806);
  EXPECT_EQ(s->table().entries()[0].spec.priority, 200);
  // The driver tracked the flow_mod in the switch counters.
  EXPECT_EQ(*net().switch_at("sw1").read_field("counters/flow_mods"), "1");
}

TEST_P(DriverTest, CommitBurstShipsAsOneTrain) {
  auto s = make_switch(0x42);
  settle({s.get()});
  auto* trains = vfs->metrics()->histogram("driver/of/batch_size");
  const auto trains_before = trains->count();
  const auto mods_before = trains->sum();

  // Twenty commits land on the shard queue before the driver polls
  // again: the batched drain must dedup each flow to one push and ship
  // the whole burst as a single train (20 FLOW_MODs, one barrier).
  for (int i = 0; i < 20; ++i) {
    FlowSpec spec;
    spec.match.tp_dst = static_cast<std::uint16_t>(1000 + i);
    spec.actions = {Action::output(1)};
    ASSERT_FALSE(
        net().switch_at("sw1").add_flow(numbered("b", i), spec));
  }
  settle({s.get()});

  EXPECT_EQ(s->table().size(), 20u);
  EXPECT_EQ(*net().switch_at("sw1").read_field("counters/flow_mods"), "20");
  EXPECT_EQ(trains->count() - trains_before, 1u);
  EXPECT_EQ(trains->sum() - mods_before, 20u);
}

TEST_P(DriverTest, UncommittedFieldsStayOffHardware) {
  auto s = make_switch(0x42);
  settle({s.get()});
  // Stage fields without bumping the version (§3.4).
  const std::string flow = "/net/switches/sw1/flows/staged";
  ASSERT_FALSE(vfs->mkdir(flow));
  ASSERT_FALSE(vfs->write_file(flow + "/match.tp_dst", "22"));
  ASSERT_FALSE(vfs->write_file(flow + "/action.out", "2"));
  settle({s.get()});
  EXPECT_EQ(s->table().size(), 0u);
  // Commit: now it lands.
  ASSERT_TRUE(netfs::commit_flow(*vfs, flow).ok());
  settle({s.get()});
  ASSERT_EQ(s->table().size(), 1u);
  EXPECT_EQ(s->table().entries()[0].spec.match.tp_dst, 22);
}

TEST_P(DriverTest, RecommitWithNewMatchReplacesHardwareEntry) {
  auto s = make_switch(0x42);
  settle({s.get()});
  auto sw_handle = net().switch_at("sw1");
  FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(2)};
  ASSERT_FALSE(sw_handle.add_flow("f", spec));
  settle({s.get()});
  ASSERT_EQ(s->table().size(), 1u);

  // Change the match and recommit: the old entry must not linger.
  spec.match.tp_dst = 80;
  ASSERT_FALSE(sw_handle.flow_at("f").write(spec));
  settle({s.get()});
  ASSERT_EQ(s->table().size(), 1u);
  EXPECT_EQ(s->table().entries()[0].spec.match.tp_dst, 80);
}

TEST_P(DriverTest, RmdirDeletesHardwareFlow) {
  auto s = make_switch(0x42);
  settle({s.get()});
  FlowSpec spec;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("f", spec));
  settle({s.get()});
  ASSERT_EQ(s->table().size(), 1u);
  ASSERT_FALSE(net().switch_at("sw1").remove_flow("f"));
  settle({s.get()});
  EXPECT_EQ(s->table().size(), 0u);
}

TEST_P(DriverTest, PacketInLandsInEveryEventBuffer) {
  auto s = make_switch(0x42);
  settle({s.get()});
  auto buf_a = net().open_events("router");
  auto buf_b = net().open_events("monitor");
  ASSERT_TRUE(buf_a.ok() && buf_b.ok());

  auto frame = net::build_ethernet(MacAddress{}, MacAddress{}, 0x1234, {7});
  s->handle_frame(2, frame);
  settle({s.get()});

  for (auto* buf : {&*buf_a, &*buf_b}) {
    auto events = buf->drain();
    ASSERT_TRUE(events.ok());
    ASSERT_EQ(events->size(), 1u) << buf->path();
    EXPECT_EQ((*events)[0].datapath, "sw1");
    EXPECT_EQ((*events)[0].in_port, 2);
    EXPECT_EQ((*events)[0].reason, "no_match");
    EXPECT_EQ((*events)[0].data,
              std::string(frame.begin(), frame.end()));
  }
  EXPECT_EQ(*net().switch_at("sw1").read_field("counters/packet_ins"), "1");
}

TEST_P(DriverTest, PacketOutThroughFilesystem) {
  auto s = make_switch(0x42);
  settle({s.get()});
  net::Host h("h", *MacAddress::parse("0a:00:00:00:00:01"),
              *Ipv4Address::parse("10.0.0.1"), network);
  ASSERT_TRUE(network.add_link(*s, 2, h, 0).ok());

  auto frame = net::build_ethernet(h.mac(), MacAddress{}, 0x1234, {1, 2});
  const std::string dir = "/net/switches/sw1/packet_out/req1";
  ASSERT_FALSE(vfs->mkdir(dir));
  ASSERT_FALSE(vfs->write_file(dir + "/out", "2"));
  ASSERT_FALSE(vfs->write_file(
      dir + "/data",
      std::string_view(reinterpret_cast<const char*>(frame.data()),
                       frame.size())));
  ASSERT_FALSE(vfs->write_file(dir + "/send", "1"));
  settle({s.get()});

  EXPECT_EQ(h.frames_received(), 1u);
  EXPECT_EQ(h.received_log()[0], frame);
  // The request directory was consumed.
  EXPECT_FALSE(vfs->stat(dir).ok());
  EXPECT_EQ(*net().switch_at("sw1").read_field("counters/packet_outs"), "1");
}

// in_port is the one field only a flood request writes: the switch's
// flood leaves that port out.
TEST_P(DriverTest, FloodPacketOutSkipsIngressPort) {
  auto s = make_switch(0x42);  // ports 1..3
  settle({s.get()});
  std::vector<std::unique_ptr<net::Host>> hosts;
  for (std::uint16_t p = 1; p <= 3; ++p) {
    hosts.push_back(std::make_unique<net::Host>(
        "h", MacAddress::from_u64(0x0a0000000000ull + p),
        Ipv4Address(0x0a000000u + p), network));
    ASSERT_TRUE(network.add_link(*s, p, *hosts.back(), 0).ok());
  }

  auto frame = net::build_ethernet(hosts[1]->mac(), MacAddress{}, 0x1234,
                                   {1, 2});
  ASSERT_FALSE(netfs::write_packet_out(
      *vfs, "/net/switches/sw1", "req1", 2, "flood",
      std::string_view(reinterpret_cast<const char*>(frame.data()),
                       frame.size())));
  settle({s.get()});

  EXPECT_EQ(hosts[0]->frames_received(), 1u);
  EXPECT_EQ(hosts[1]->frames_received(), 0u);
  EXPECT_EQ(hosts[2]->frames_received(), 1u);
  EXPECT_FALSE(vfs->stat("/net/switches/sw1/packet_out/req1").ok());
}

TEST_P(DriverTest, PortDownWriteBecomesPortMod) {
  auto s = make_switch(0x42);
  settle({s.get()});
  // "# echo 1 > port_2/config.port_down" (§3.1)
  ASSERT_FALSE(
      vfs->write_file("/net/switches/sw1/ports/2/config.port_down", "1"));
  settle({s.get()});
  EXPECT_TRUE(s->ports().at(2).desc.port_down);
  // And back up.
  ASSERT_FALSE(
      vfs->write_file("/net/switches/sw1/ports/2/config.port_down", "0"));
  settle({s.get()});
  EXPECT_FALSE(s->ports().at(2).desc.port_down);
}

TEST_P(DriverTest, LinkDownReflectedInPortState) {
  auto s = make_switch(0x42);
  settle({s.get()});
  net::Host h("h", MacAddress{}, Ipv4Address{}, network);
  auto link = network.add_link(*s, 1, h, 0);
  ASSERT_TRUE(link.ok());
  ASSERT_FALSE(network.set_link_up(*link, false));
  settle({s.get()});
  EXPECT_TRUE(*net().switch_at("sw1").port_at(1).link_down());
}

TEST_P(DriverTest, HardwareExpiryRemovesFlowDirectory) {
  auto s = make_switch(0x42);
  settle({s.get()});
  FlowSpec spec;
  spec.hard_timeout = 1;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("transient", spec));
  settle({s.get()});
  ASSERT_EQ(s->table().size(), 1u);

  scheduler.schedule_after(std::chrono::seconds(2), [] {});
  scheduler.run_until_idle();
  const auto mods_before = s->flow_mods_received();
  s->expire_flows();
  settle({s.get()});
  EXPECT_EQ(s->table().size(), 0u);
  EXPECT_FALSE(net().switch_at("sw1").flow_at("transient").exists());
  EXPECT_EQ(*net().switch_at("sw1").read_field("counters/flow_expirations"),
            "1");
  // The switch already dropped the entry: mirroring the expiry into the
  // FS must not send it a delete.
  EXPECT_EQ(s->flow_mods_received(), mods_before);
}

// A flow the driver never pushed has nothing on hardware: an expiry whose
// match and priority equal its default spec (match-all, priority 32768)
// must leave its directory, and the uncommitted edit in it, alone.
TEST_P(DriverTest, ExpiryLeavesUnpushedFlowAlone) {
  auto s = make_switch(0x42);
  settle({s.get()});
  auto sw = net().switch_at("sw1");
  FlowSpec draft;
  draft.actions = {Action::output(2)};
  ASSERT_FALSE(sw.add_flow("a_draft", draft, false));
  FlowSpec live;
  live.hard_timeout = 1;
  live.actions = {Action::output(1)};
  ASSERT_FALSE(sw.add_flow("z_live", live));
  settle({s.get()});
  ASSERT_EQ(s->table().size(), 1u);

  scheduler.schedule_after(std::chrono::seconds(2), [] {});
  scheduler.run_until_idle();
  s->expire_flows();
  settle({s.get()});
  EXPECT_EQ(s->table().size(), 0u);
  EXPECT_FALSE(sw.flow_at("z_live").exists());
  EXPECT_TRUE(sw.flow_at("a_draft").exists());
}

TEST_P(DriverTest, StatsSyncFillsCounters) {
  auto s = make_switch(0x42);
  settle({s.get()});
  net::Host h("h", MacAddress{}, Ipv4Address{}, network);
  ASSERT_TRUE(network.add_link(*s, 2, h, 0).ok());

  FlowSpec spec;
  spec.actions = {Action::output(2)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("all", spec));
  settle({s.get()});

  auto frame = net::build_ethernet(MacAddress{}, MacAddress{}, 0x1234,
                                   std::vector<std::uint8_t>(86, 0));
  s->handle_frame(1, frame);
  s->handle_frame(1, frame);
  scheduler.run_until_idle();

  driver->request_stats();
  settle({s.get()});
  auto stats = net().switch_at("sw1").flow_at("all").stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->packets, 2u);
  EXPECT_EQ(stats->bytes, 2u * frame.size());
  EXPECT_EQ(*net().switch_at("sw1").port_at(2).counter("tx_packets"), 2u);
}

TEST_P(DriverTest, QueueStatsSurfaceAsQueueDirectories) {
  auto s = make_switch(0x42);
  settle({s.get()});
  net::Host h("h", MacAddress{}, Ipv4Address{}, network);
  ASSERT_TRUE(network.add_link(*s, 2, h, 0).ok());

  // A flow enqueues onto port 2, queue 1 (§8's missing piece, done).
  FlowSpec spec;
  spec.actions = {Action{flow::ActionKind::enqueue,
                         std::uint32_t{(2u << 16) | 1u}}};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("q", spec));
  settle({s.get()});

  auto frame = net::build_ethernet(MacAddress{}, MacAddress{}, 0x1234,
                                   std::vector<std::uint8_t>(50, 0));
  s->handle_frame(1, frame);
  s->handle_frame(1, frame);
  scheduler.run_until_idle();
  EXPECT_EQ(h.frames_received(), 2u);

  driver->request_stats();
  settle({s.get()});
  const std::string q = "/net/switches/sw1/ports/2/queues/q1";
  ASSERT_TRUE(vfs->stat(q).ok());
  EXPECT_EQ(*vfs->read_file(q + "/counters/tx_packets"), "2");
  auto bytes = vfs->read_file(q + "/counters/tx_bytes");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, std::to_string(2 * frame.size()));
}

TEST_P(DriverTest, MultipleSwitchesGetDistinctDirectories) {
  auto s1 = make_switch(0x1);
  auto s2 = make_switch(0x2);
  settle({s1.get(), s2.get()});
  EXPECT_EQ(driver->connected_switches(), 2u);
  auto names = net().switch_names();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
  EXPECT_EQ(*driver->switch_name(0x1), "sw1");
  EXPECT_EQ(*driver->switch_name(0x2), "sw2");
}

TEST_P(DriverTest, ReconnectReusesDirectoryAndReinstallsFlows) {
  auto s = make_switch(0x42);
  settle({s.get()});
  FlowSpec spec;
  spec.match.tp_dst = 443;
  spec.actions = {Action::output(3)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("https", spec));
  FlowSpec draft;
  draft.match.tp_dst = 8080;
  draft.actions = {Action::output(2)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("draft", draft,
                                               /*commit=*/false));
  settle({s.get()});
  ASSERT_EQ(s->table().size(), 1u);
  auto* resyncs = vfs->metrics()->counter("driver/of/resync_total");
  const auto resyncs_before = resyncs->value();

  // The switch reboots: connection drops, tables are empty.
  s = make_switch(0x42);
  settle({s.get()});
  EXPECT_EQ(*driver->switch_name(0x42), "sw1");  // same directory
  EXPECT_TRUE(*net().switch_at("sw1").connected());
  // The committed flow was re-pushed from the FS, and counted once; the
  // uncommitted one stays off the hardware and out of the count.
  ASSERT_EQ(s->table().size(), 1u);
  EXPECT_EQ(s->table().entries()[0].spec.match.tp_dst, 443);
  EXPECT_EQ(resyncs->value() - resyncs_before, 1u);
}

// A switch that reconnects while its old channel is still open leaves a
// superseded connection whose queue may still hold events.  A flow created
// between the handshake's two polls queues its `created` event there; the
// superseded connection must not act on it, or it takes the flow's commit
// watch from its successor and drops it when it is reaped.
TEST_P(DriverTest, SupersededConnectionLeavesItsSuccessorsWatchesAlone) {
  auto old_sw = make_switch(0x42);
  settle({old_sw.get()});
  auto new_sw = make_switch(0x42);
  driver->poll();  // accepts: HELLO + FEATURES_REQUEST
  new_sw->pump();
  scheduler.run_until_idle();  // FEATURES_REPLY is waiting
  FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("ssh", spec));
  settle({old_sw.get(), new_sw.get()});
  ASSERT_EQ(new_sw->table().size(), 1u);

  // The second commit reaches the new switch too.
  spec.actions = {Action::output(2)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("ssh", spec));
  settle({old_sw.get(), new_sw.get()});
  ASSERT_EQ(new_sw->table().size(), 1u);
  EXPECT_EQ(new_sw->table().entries()[0].spec.actions, spec.actions);
}

TEST_P(DriverTest, EndToEndForwardingAfterFsFlow) {
  auto s = make_switch(0x42);
  settle({s.get()});
  net::Host h1("h1", *MacAddress::parse("0a:00:00:00:00:01"),
               *Ipv4Address::parse("10.0.0.1"), network);
  net::Host h2("h2", *MacAddress::parse("0a:00:00:00:00:02"),
               *Ipv4Address::parse("10.0.0.2"), network);
  ASSERT_TRUE(network.add_link(*s, 1, h1, 0).ok());
  ASSERT_TRUE(network.add_link(*s, 2, h2, 0).ok());

  // Bidirectional port-based forwarding written purely through the FS.
  FlowSpec to2;
  to2.match.in_port = 1;
  to2.actions = {Action::output(2)};
  FlowSpec to1;
  to1.match.in_port = 2;
  to1.actions = {Action::output(1)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("p1to2", to2));
  ASSERT_FALSE(net().switch_at("sw1").add_flow("p2to1", to1));
  settle({s.get()});

  h1.ping(h2.ip());
  settle({s.get()});
  EXPECT_EQ(h1.echo_replies_received(), 1u);
  EXPECT_EQ(h2.echo_requests_received(), 1u);
}

// A tiny event queue forces inotify-style overflow; the driver must
// recover by rescanning and still converge every committed flow onto the
// switch.
TEST(DriverOverflowRecovery, RescanAfterQueueOverflow) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);
  DriverOptions opts;
  opts.fs_queue_capacity = 4;  // absurdly small on purpose
  OfDriver driver(vfs, opts);

  sw::SwitchOptions sopts;
  sopts.datapath_id = 0x42;
  sw::Switch s("dp42", sopts, network);
  s.add_port(1, MacAddress::from_u64(1), "eth1");
  s.connect(driver.listener().connect());
  auto settle = [&] {
    for (int round = 0; round < 60; ++round) {
      std::size_t work =
          driver.poll() + s.pump() + scheduler.run_until_idle();
      if (!work) break;
    }
  };
  settle();

  // Burst of 20 flows — far beyond the 4-slot event queue — written
  // between driver polls.
  netfs::NetDir net(vfs);
  for (int i = 0; i < 20; ++i) {
    FlowSpec spec;
    spec.match.tp_dst = static_cast<std::uint16_t>(1000 + i);
    spec.actions = {Action::output(1)};
    ASSERT_FALSE(net.switch_at("sw1").add_flow(numbered("f", i),
                                               spec));
  }
  settle();
  EXPECT_EQ(s.table().size(), 20u);  // all converged despite the overflow
}

// OpenFlow 1.3 multi-table pipelines work end-to-end through the FS: a
// table-0 flow with goto_table and a table-1 flow, both committed as
// files, land in their respective hardware tables.
TEST(Driver13, MultiTablePipelineThroughFs) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);
  DriverOptions opts;
  opts.version = ofp::Version::of13;
  OfDriver driver(vfs, opts);

  sw::SwitchOptions sopts;
  sopts.datapath_id = 0x7;
  sopts.version = ofp::Version::of13;
  sopts.n_tables = 2;
  sw::Switch s("dp7", sopts, network);
  s.add_port(1, MacAddress::from_u64(1), "eth1");
  s.add_port(2, MacAddress::from_u64(2), "eth2");
  s.connect(driver.listener().connect());
  auto settle = [&] {
    for (int round = 0; round < 60; ++round) {
      std::size_t work =
          driver.poll() + s.pump() + scheduler.run_until_idle();
      if (!work) break;
    }
  };
  settle();

  // table 0: rewrite + goto table 1; table 1: match rewritten dst, output.
  const std::string t0 = "/net/switches/sw1/flows/classify";
  ASSERT_FALSE(vfs->mkdir(t0));
  ASSERT_FALSE(vfs->write_file(t0 + "/table_id", "0"));
  ASSERT_FALSE(vfs->write_file(t0 + "/goto_table", "1"));
  ASSERT_FALSE(
      vfs->write_file(t0 + "/action.set_dl_dst", "02:00:00:00:00:aa"));
  ASSERT_FALSE(vfs->write_file(t0 + "/version", "1"));
  const std::string t1 = "/net/switches/sw1/flows/forward";
  ASSERT_FALSE(vfs->mkdir(t1));
  ASSERT_FALSE(vfs->write_file(t1 + "/table_id", "1"));
  ASSERT_FALSE(vfs->write_file(t1 + "/match.dl_dst", "02:00:00:00:00:aa"));
  ASSERT_FALSE(vfs->write_file(t1 + "/action.out", "2"));
  ASSERT_FALSE(vfs->write_file(t1 + "/version", "1"));
  settle();

  ASSERT_EQ(s.table(0).size(), 1u);
  ASSERT_EQ(s.table(1).size(), 1u);
  EXPECT_EQ(s.table(0).entries()[0].spec.goto_table, 1);

  // And the pipeline actually forwards: a frame in port 1 leaves port 2
  // with the rewritten MAC.
  net::Host h("h", *MacAddress::parse("02:00:00:00:00:aa"),
              *Ipv4Address::parse("10.0.0.9"), network);
  ASSERT_TRUE(network.add_link(s, 2, h, 0).ok());
  auto frame = net::build_ethernet(*MacAddress::parse("02:00:00:00:00:bb"),
                                   MacAddress::from_u64(1), 0x1234, {});
  s.handle_frame(1, frame);
  settle();
  ASSERT_EQ(h.frames_received(), 1u);
  EXPECT_EQ(net::parse_frame(h.received_log()[0])->dl_dst.to_string(),
            "02:00:00:00:00:aa");
}

// Failure injection: hostile or confused switches must not wedge the
// driver or corrupt the file system.
TEST_P(DriverTest, GarbageBytesCloseConnectionOthersSurvive) {
  auto good = make_switch(0x1);
  settle({good.get()});
  ASSERT_EQ(driver->connected_switches(), 1u);

  // A rogue peer connects and sends garbage instead of OpenFlow.
  auto rogue = driver->listener().connect();
  ASSERT_TRUE(rogue.send({0xde, 0xad, 0xbe, 0xef}));
  settle({good.get()});
  EXPECT_FALSE(rogue.connected());  // hung up on
  EXPECT_EQ(driver->connected_switches(), 1u);  // the good switch is fine

  // And the good switch still works end to end.
  FlowSpec spec;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("still-works", spec));
  settle({good.get()});
  EXPECT_EQ(good->table().size(), 1u);
}

TEST_P(DriverTest, SwitchErrorMessagesAreTolerated) {
  auto s = make_switch(0x1);
  settle({s.get()});
  // Inject an OpenFlow ERROR from the switch side.
  auto bytes = ofp::encode(GetParam(), 9, ofp::Error{3, 2, {}});
  ASSERT_TRUE(bytes.ok());
  // (reach the driver through a fresh channel pair is not possible here;
  // use the switch's own channel by making the switch emit it)
  // Simplest: drive a flow_mod to a missing table on a 1.3 switch.
  if (GetParam() == ofp::Version::of13) {
    FlowSpec spec;
    spec.table_id = 99;  // the switch only has 1 table
    spec.actions = {Action::output(1)};
    ASSERT_FALSE(net().switch_at("sw1").add_flow("bad-table", spec));
    settle({s.get()});
    // The switch rejected it; the driver logged and carried on.
    EXPECT_EQ(s->table().size(), 0u);
    EXPECT_EQ(driver->connected_switches(), 1u);
  }
}

TEST_P(DriverTest, DisconnectMarksFsAndKeepsState) {
  auto s = make_switch(0x42);
  settle({s.get()});
  FlowSpec spec;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(net().switch_at("sw1").add_flow("f", spec));
  settle({s.get()});
  ASSERT_TRUE(*net().switch_at("sw1").connected());

  s.reset();  // destroys the switch; channel closes on next send attempt
  // Closing happens via the channel shared state: force it.
  settle({});
  // The driver notices on its next poll that the channel is gone only
  // when the switch closed it; Switch's destructor does not close, so
  // simulate an explicit close via reconnecting a new switch with the
  // same dpid (reboot), which reuses the directory.
  auto reborn = make_switch(0x42);
  settle({reborn.get()});
  EXPECT_TRUE(*net().switch_at("sw1").connected());
  // Committed flow re-pushed from the FS after the reboot.
  EXPECT_EQ(reborn->table().size(), 1u);
}

// §4.1's punchline: a driver for an experimental protocol coexists with
// the OpenFlow drivers on the same file system, and the applications
// cannot tell the difference.
TEST(TextDriver, ExperimentalProtocolCoexists) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);

  // An OpenFlow switch on the OpenFlow driver...
  OfDriver of_driver(vfs);
  sw::SwitchOptions sopts;
  sopts.datapath_id = 0x1;
  sw::Switch of_switch("dp1", sopts, network);
  of_switch.add_port(1, MacAddress::from_u64(1), "eth1");
  of_switch.connect(of_driver.listener().connect());

  // ...and a TEXT/1 device on the experimental driver.
  TextDriver text_driver(vfs);
  net::Channel device = text_driver.listener().connect();
  ASSERT_TRUE(
      device.send({'H', 'E', 'L', 'L', 'O', ' ', 'i', 'd', '=', '9', '9', ' ',
                   'p', 'o', 'r', 't', 's', '=', '1', ',', '2'}));

  auto settle = [&] {
    for (int round = 0; round < 60; ++round) {
      std::size_t work = of_driver.poll() + text_driver.poll() +
                         of_switch.pump() + scheduler.run_until_idle();
      if (!work) break;
    }
  };
  settle();
  EXPECT_EQ(of_driver.connected_switches(), 1u);
  EXPECT_EQ(text_driver.connected_devices(), 1u);

  // Both appear side by side under switches/ with their protocol marked.
  netfs::NetDir net(vfs);
  auto names = net.switch_names();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"sw1", "xsw1"}));
  EXPECT_EQ(*net.switch_at("sw1").protocol_version(), "1.0");
  EXPECT_EQ(*net.switch_at("xsw1").protocol_version(), "text/1");

  // The same application code programs both (it has no idea which driver
  // serves which directory).
  FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("ssh", spec));
  ASSERT_FALSE(net.switch_at("xsw1").add_flow("ssh", spec));
  settle();

  // OpenFlow switch got a FLOW_MOD; the TEXT device got a FLOW line.
  EXPECT_EQ(of_switch.table().size(), 1u);
  auto msg = device.try_recv();
  ASSERT_TRUE(msg.has_value());
  std::string line(msg->begin(), msg->end());
  EXPECT_EQ(line.rfind("FLOW ssh ", 0), 0u) << line;
  EXPECT_NE(line.find("tp_dst=22"), std::string::npos);

  // Flow deletion reaches the device as UNFLOW.
  ASSERT_FALSE(net.switch_at("xsw1").remove_flow("ssh"));
  settle();
  msg = device.try_recv();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::string(msg->begin(), msg->end()), "UNFLOW ssh");

  // And device packet-ins land in the same events/ buffers.
  auto buf = net.open_events("app");
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(
      device.send({'P', 'A', 'C', 'K', 'E', 'T', 'I', 'N', ' ', 'p', 'o', 'r',
                   't', '=', '2', ' ', 'd', 'a', 't', 'a', '=', '0', '1', 'f',
                   'f'}));
  settle();
  auto events = buf->drain();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].datapath, "xsw1");
  EXPECT_EQ((*events)[0].in_port, 2);
  EXPECT_EQ((*events)[0].data, std::string("\x01\xff"));
}

// An audit that falls due in the poll that drains a commit burst must
// reach the switch after that poll's FLOW_MOD train: otherwise the
// flow-stats reply misses the burst and the audit re-pushes every flow
// of it.
TEST(DriverAudit, AuditFollowsThePollsFlowModTrain) {
  for (std::uint64_t audit_interval : {1, 3}) {
    SCOPED_TRACE("audit_interval=" + std::to_string(audit_interval));
    auto vfs = std::make_shared<vfs::Vfs>();
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    net::Scheduler scheduler;
    net::Network network(scheduler);
    DriverOptions opts;
    opts.audit_interval = audit_interval;
    OfDriver driver(vfs, opts);
    sw::SwitchOptions sopts;
    sopts.datapath_id = 0x42;
    sw::Switch s("dp42", sopts, network);
    s.add_port(1, MacAddress::from_u64(1), "eth1");
    s.connect(driver.listener().connect());
    auto run = [&](int polls) {
      for (int i = 0; i < polls; ++i) {
        driver.poll();
        s.pump();
        scheduler.run_until_idle();
      }
    };
    run(30);
    netfs::NetDir net(vfs);
    ASSERT_EQ(*net.switch_at("sw1").read_field("status"), "up");
    auto* repairs = vfs->metrics()->counter("driver/of/audit_repair_total");
    const auto repairs_before = repairs->value();
    const auto mods_before = s.flow_mods_received();

    for (int i = 0; i < 8; ++i) {
      FlowSpec spec;
      spec.match.tp_dst = static_cast<std::uint16_t>(1000 + i);
      spec.actions = {Action::output(1)};
      ASSERT_FALSE(net.switch_at("sw1").add_flow(numbered("f", i),
                                                 spec));
    }
    run(24);

    EXPECT_EQ(s.table().size(), 8u);
    EXPECT_EQ(s.flow_mods_received() - mods_before, 8u);
    EXPECT_EQ(repairs->value() - repairs_before, 0u);
  }
}

// One switch under a driver that audits it every `audit_interval` polls,
// stepped one poll at a time.  Members are declared in the order the
// tests above build them locally, so the switch goes first on teardown.
struct AuditRig {
  explicit AuditRig(std::uint64_t audit_interval,
                    ofp::Version version = ofp::Version::of10,
                    std::uint8_t tables = 1) {
    EXPECT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    DriverOptions opts;
    opts.version = version;
    opts.audit_interval = audit_interval;
    driver = std::make_unique<OfDriver>(vfs, opts);
    sw::SwitchOptions sopts;
    sopts.datapath_id = 0x42;
    sopts.version = version;
    sopts.n_tables = tables;
    sw = std::make_unique<sw::Switch>("dp42", sopts, network);
    sw->add_port(1, MacAddress::from_u64(1), "eth1");
    sw->connect(driver->listener().connect());
    run(8);
  }

  void run(int polls) {
    for (int i = 0; i < polls; ++i) {
      driver->poll();
      sw->pump();
      scheduler.run_until_idle();
    }
  }

  /// Polls until the next audit is sent, then until its reply has been
  /// mirrored and reconciled and the repairs it queued are applied.
  void run_audit() {
    const auto audits = audit_total->value();
    while (audit_total->value() == audits) run(1);
    run(3);
  }

  /// Commits `name` as a flow matching tp_dst `port`, output to port 1.
  void commit(const std::string& name, std::uint16_t port,
              std::uint8_t table_id = 0) {
    FlowSpec spec;
    spec.match.tp_dst = port;
    spec.actions = {Action::output(1)};
    spec.table_id = table_id;
    EXPECT_FALSE(netfs::NetDir(vfs).switch_at("sw1").add_flow(name, spec));
  }

  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
  obs::Counter* audit_total = vfs->metrics()->counter("driver/of/audit_total");
  obs::Counter* repairs =
      vfs->metrics()->counter("driver/of/audit_repair_total");
  net::Scheduler scheduler;
  net::Network network{scheduler};
  std::unique_ptr<OfDriver> driver;
  std::unique_ptr<sw::Switch> sw;
};

// An audit holds hardware to the committed snapshot: a match file
// rewritten without a version bump is an edit in progress, so the audit
// neither pushes it nor counts the committed entry as missing.  When the
// entry vanishes while the edit is pending, the repair restores the
// committed match, not the edit.  The commit then pushes the edit.
TEST(DriverAudit, HalfWrittenEditStaysOffHardware) {
  AuditRig rig(32);
  rig.commit("f", 22);
  rig.run(4);
  ASSERT_EQ(rig.sw->table().size(), 1u);
  const auto repairs_before = rig.repairs->value();

  const std::string flow = "/net/switches/sw1/flows/f";
  ASSERT_FALSE(rig.vfs->write_file(flow + "/match.tp_dst", "80"));
  rig.run_audit();
  ASSERT_EQ(rig.sw->table().size(), 1u);
  EXPECT_EQ(rig.sw->table().entries()[0].spec.match.tp_dst, 22);
  EXPECT_EQ(rig.repairs->value() - repairs_before, 0u);

  flow::Match committed;
  committed.tp_dst = 22;
  ASSERT_EQ(rig.sw->mutable_table()
                .remove(committed, flow::kDefaultPriority, /*strict=*/true)
                .size(),
            1u);
  rig.run_audit();
  ASSERT_EQ(rig.sw->table().size(), 1u);
  EXPECT_EQ(rig.sw->table().entries()[0].spec.match.tp_dst, 22);
  EXPECT_EQ(rig.repairs->value() - repairs_before, 1u);

  ASSERT_TRUE(netfs::commit_flow(*rig.vfs, flow).ok());
  rig.run(4);
  ASSERT_EQ(rig.sw->table().size(), 1u);
  EXPECT_EQ(rig.sw->table().entries()[0].spec.match.tp_dst, 80);
}

// A retried commit train re-sends what it vouched for: while the flow's
// version file still reads the version pushed, that is the committed spec
// the driver holds, not a field edited since without a commit.
TEST(DriverAudit, RetryResendsTheCommittedSpec) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);
  DriverOptions opts;
  opts.request_timeout = 4;
  opts.audit_interval = 0;  // the retry alone restores the entry
  OfDriver driver(vfs, opts);
  auto injector = std::make_shared<faults::Injector>(1);
  driver.listener().set_fault_hook_factory(
      faults::channel_hook_factory(injector));
  sw::SwitchOptions sopts;
  sopts.datapath_id = 0x42;
  sw::Switch s("dp42", sopts, network);
  s.add_port(1, MacAddress::from_u64(1), "eth1");
  s.connect(driver.listener().connect());
  auto run = [&](int polls) {
    for (int i = 0; i < polls; ++i) {
      driver.poll();
      s.pump();
      scheduler.run_until_idle();
    }
  };
  run(8);

  // The commit's train dies on the wire; an edit follows without a commit.
  faults::FaultPlan blackout;
  blackout.drop = 1.0;
  injector->set_plan(faults::Scope::channel, blackout);
  FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(netfs::NetDir(vfs).switch_at("sw1").add_flow("f", spec));
  run(1);
  ASSERT_FALSE(vfs->write_file("/net/switches/sw1/flows/f/match.tp_dst", "80"));
  injector->set_plan(faults::Scope::channel, faults::FaultPlan{});
  run(12);

  EXPECT_GT(vfs->metrics()->counter("driver/of/retry_total")->value(), 0u);
  ASSERT_EQ(s.table().size(), 1u);
  EXPECT_EQ(s.table().entries()[0].spec.match.tp_dst, 22);
}

// An audit of flows the driver pushed reads each one's version file and
// nothing else of it; with the reply's counter mirror that stays within
// a dozen VFS operations per flow.
TEST(DriverAudit, PushedFlowsCostTheirVersionRead) {
  constexpr int kFlows = 40;
  AuditRig rig(64);
  for (int i = 0; i < kFlows; ++i)
    rig.commit(std::to_string(i), static_cast<std::uint16_t>(1000 + i));
  rig.run(4);
  ASSERT_EQ(rig.sw->table().size(), static_cast<std::size_t>(kFlows));
  const auto repairs_before = rig.repairs->value();

  const auto ops_before = rig.vfs->counters().total.load();
  rig.run_audit();
  const auto ops = rig.vfs->counters().total.load() - ops_before;
  EXPECT_LE(ops, 12u * kFlows) << ops << " VFS ops for " << kFlows
                               << " flows";
  EXPECT_EQ(rig.repairs->value() - repairs_before, 0u);
}

// The version-only comparison still repairs: an entry that vanished from
// hardware is pushed again, and one no flow owns is deleted.
TEST(DriverAudit, RepairsVanishedEntryAndRemovesAlien) {
  AuditRig rig(32);
  rig.commit("a", 22);
  rig.commit("b", 80);
  rig.run(4);
  ASSERT_EQ(rig.sw->table().size(), 2u);
  const auto repairs_before = rig.repairs->value();

  flow::Match vanished;
  vanished.tp_dst = 22;
  ASSERT_EQ(rig.sw->mutable_table()
                .remove(vanished, flow::kDefaultPriority, /*strict=*/true)
                .size(),
            1u);
  FlowSpec alien;
  alien.match.tp_dst = 443;
  alien.actions = {Action::output(1)};
  rig.sw->mutable_table().add(alien, 0, 0);

  rig.run_audit();
  std::vector<int> ports;
  for (const auto& entry : rig.sw->table().entries())
    ports.push_back(*entry.spec.match.tp_dst);
  std::sort(ports.begin(), ports.end());
  EXPECT_EQ(ports, (std::vector<int>{22, 80}));
  EXPECT_EQ(rig.repairs->value() - repairs_before, 2u);
}

// A reply entry is identified by the table the switch reports it in, so
// a committed flow in table 1 is found there: no re-push, no delete.
TEST(DriverAudit, FlowOutsideTableZeroNeedsNoRepair) {
  AuditRig rig(32, ofp::Version::of13, 2);
  rig.commit("t1", 22, 1);
  rig.run(4);
  ASSERT_EQ(rig.sw->table(1).size(), 1u);
  const auto repairs_before = rig.repairs->value();
  rig.run_audit();
  EXPECT_EQ(rig.sw->table(1).size(), 1u);
  EXPECT_EQ(rig.repairs->value() - repairs_before, 0u);
}

// --- failure domains (docs/ROBUSTNESS.md) --------------------------------------

// A switch that stops answering keepalives is declared dead: status=down,
// connected=0, connection reaped.
TEST(DriverLiveness, KeepaliveTimeoutMarksSwitchDown) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);
  DriverOptions opts;
  opts.keepalive_interval = 4;
  opts.keepalive_timeout = 16;
  OfDriver driver(vfs, opts);

  sw::SwitchOptions sopts;
  sopts.datapath_id = 0x42;
  sw::Switch s("dp42", sopts, network);
  s.add_port(1, MacAddress::from_u64(1), "eth1");
  s.connect(driver.listener().connect());
  for (int round = 0; round < 30; ++round) {
    std::size_t work = driver.poll() + s.pump() + scheduler.run_until_idle();
    if (!work) break;
  }
  netfs::NetDir net(vfs);
  ASSERT_TRUE(*net.switch_at("sw1").connected());
  ASSERT_EQ(*net.switch_at("sw1").read_field("status"), "up");

  // The switch wedges: it never pumps its control channel again.  The
  // driver pings after 4 quiet ticks and gives up after 16.
  for (int round = 0; round < 40; ++round) {
    driver.poll();
    scheduler.run_until_idle();
  }
  EXPECT_EQ(driver.connected_switches(), 0u);
  EXPECT_EQ(*net.switch_at("sw1").read_field("status"), "down");
  EXPECT_FALSE(*net.switch_at("sw1").connected());
  EXPECT_GE(
      vfs->metrics()->counter("driver/of/keepalive_timeout_total")->value(),
      1u);
}

// Switch death in the middle of a flow commit: the FS keeps the committed
// record, the directory is marked down, and a reborn switch with the same
// dpid is restored to the full table from the FS alone (§3.4).
TEST(DriverLiveness, SwitchDeathMidCommitThenResync) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);
  DriverOptions opts;
  opts.keepalive_interval = 4;
  opts.keepalive_timeout = 16;
  opts.request_timeout = 4;
  opts.max_retries = 3;
  OfDriver driver(vfs, opts);

  auto spawn = [&](const char* name) {
    sw::SwitchOptions sopts;
    sopts.datapath_id = 0x42;
    auto s = std::make_unique<sw::Switch>(name, sopts, network);
    s->add_port(1, MacAddress::from_u64(1), "eth1");
    s->connect(driver.listener().connect());
    return s;
  };
  auto settle = [&](sw::Switch* s) {
    for (int round = 0; round < 60; ++round) {
      std::size_t work = driver.poll() + (s ? s->pump() : 0) +
                         scheduler.run_until_idle();
      if (!work) break;
    }
  };

  auto s = spawn("dp42a");
  settle(s.get());
  netfs::NetDir net(vfs);
  FlowSpec https;
  https.match.tp_dst = 443;
  https.actions = {Action::output(1)};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("https", https));
  settle(s.get());
  ASSERT_EQ(s->table().size(), 1u);

  // Commit a second flow and kill the switch before it can process the
  // FLOW_MOD.
  FlowSpec ssh;
  ssh.match.tp_dst = 22;
  ssh.actions = {Action::output(1)};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("ssh", ssh));
  s->disconnect();
  settle(nullptr);

  EXPECT_EQ(driver.connected_switches(), 0u);
  EXPECT_EQ(*net.switch_at("sw1").read_field("status"), "down");
  auto names = net.switch_at("sw1").flow_names();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);  // the FS record survived the death

  // Reborn with the same dpid: the full table comes back from the FS.
  auto reborn = spawn("dp42b");
  settle(reborn.get());
  EXPECT_EQ(*net.switch_at("sw1").read_field("status"), "up");
  ASSERT_EQ(reborn->table().size(), 2u);
  EXPECT_GT(vfs->metrics()->counter("driver/of/resync_total")->value(), 0u);
}

// Regression for the overflow rescan: a flow deleted and recreated during
// the lost-event window leaves the driver holding a watch on a dead
// version node.  The rescan must re-arm the watch (so a later commit still
// lands) and must reconcile deletions it never saw, before its pushes: a
// new flow may reuse a deleted flow's match, and a delete sent after its
// add would take it off the hardware.
TEST(DriverOverflowRecovery, RescanRearmsWatchesAndReconcilesDeletions) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);
  DriverOptions opts;
  opts.fs_queue_capacity = 4;
  OfDriver driver(vfs, opts);

  sw::SwitchOptions sopts;
  sopts.datapath_id = 0x42;
  sw::Switch s("dp42", sopts, network);
  s.add_port(1, MacAddress::from_u64(1), "eth1");
  s.connect(driver.listener().connect());
  auto settle = [&] {
    for (int round = 0; round < 60; ++round) {
      std::size_t work =
          driver.poll() + s.pump() + scheduler.run_until_idle();
      if (!work) break;
    }
  };
  settle();

  netfs::NetDir net(vfs);
  FlowSpec del;
  del.match.tp_dst = 1;
  del.actions = {Action::output(1)};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("f_del", del));
  FlowSpec rearm;
  rearm.match.tp_dst = 2;
  rearm.actions = {Action::output(1)};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("f_rearm", rearm));
  FlowSpec gone;
  gone.match.tp_dst = 4;
  gone.actions = {Action::output(1)};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("f_gone", gone));
  settle();
  ASSERT_EQ(s.table().size(), 3u);

  // Burst between polls, far beyond the 4-slot queue: f_del disappears,
  // f_rearm is deleted and recreated (same name, new nodes, uncommitted),
  // plus enough noise to guarantee the overflow.
  ASSERT_FALSE(net.switch_at("sw1").remove_flow("f_del"));
  ASSERT_FALSE(net.switch_at("sw1").remove_flow("f_rearm"));
  FlowSpec rearm2;
  rearm2.match.tp_dst = 3;
  rearm2.actions = {Action::output(1)};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("f_rearm", rearm2,
                                             /*commit=*/false));
  for (int i = 0; i < 10; ++i) {
    FlowSpec noise;
    noise.match.tp_dst = static_cast<std::uint16_t>(1000 + i);
    noise.actions = {Action::output(1)};
    ASSERT_FALSE(
        net.switch_at("sw1").add_flow(numbered("n", i), noise));
  }
  // Past the overflow, f_heir takes over f_gone's match under a new name.
  ASSERT_FALSE(net.switch_at("sw1").remove_flow("f_gone"));
  FlowSpec heir = gone;
  heir.actions = {Action::flood()};
  ASSERT_FALSE(net.switch_at("sw1").add_flow("f_heir", heir));
  settle();

  // The missed deletions were reconciled off the hardware, f_heir and
  // the noise flows landed, and the uncommitted f_rearm is not on the
  // wire yet.
  EXPECT_EQ(s.table().size(), 11u);
  bool heir_found = false;
  for (const auto& e : s.table().entries()) {
    EXPECT_NE(e.spec.match.tp_dst, 1) << "f_del survived on hardware";
    EXPECT_NE(e.spec.match.tp_dst, 2) << "old f_rearm survived on hardware";
    EXPECT_NE(e.spec.match.tp_dst, 3) << "uncommitted f_rearm was pushed";
    if (e.spec.match.tp_dst == 4) {
      heir_found = true;
      EXPECT_EQ(e.spec.actions, heir.actions) << "f_gone survived";
    }
  }
  EXPECT_TRUE(heir_found) << "f_heir lost to f_gone's delete";

  // The commit AFTER the rescan proves the watch was re-armed onto the
  // recreated version node.
  ASSERT_TRUE(
      netfs::commit_flow(*vfs, "/net/switches/sw1/flows/f_rearm").ok());
  settle();
  EXPECT_EQ(s.table().size(), 12u);
  bool found = false;
  for (const auto& e : s.table().entries())
    found = found || e.spec.match.tp_dst == 3;
  EXPECT_TRUE(found) << "commit after rescan never reached hardware";
}

// The acceptance scenario: kill a switch mid-commit, reconnect the same
// dpid behind a 5% lossy link, and require the wire flow table to end up
// byte-identical to the committed flows/ directory — for ten consecutive
// RNG seeds (override the base with YANC_FAULT_SEED).  Runs once per
// train shape: packed trains and one-FLOW_MOD-per-buffer trains
// (max_batch = 1) must converge to the same hardware table under the
// same faults.
void run_reconnect_resync_matrix(std::size_t max_batch) {
  const char* env = std::getenv("YANC_FAULT_SEED");
  const std::uint64_t base = env ? std::strtoull(env, nullptr, 10) : 1;
  for (std::uint64_t seed = base; seed < base + 10; ++seed) {
    SCOPED_TRACE("YANC_FAULT_SEED=" + std::to_string(seed));
    auto vfs = std::make_shared<vfs::Vfs>();
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    net::Scheduler scheduler;
    net::Network network(scheduler);
    DriverOptions opts;
    opts.keepalive_interval = 8;
    opts.keepalive_timeout = 64;
    opts.request_timeout = 4;
    opts.max_retries = 8;
    opts.audit_interval = 16;
    opts.max_batch = max_batch;
    OfDriver driver(vfs, opts);
    auto injector = std::make_shared<faults::Injector>(seed);
    driver.listener().set_fault_hook_factory(
        faults::channel_hook_factory(injector));
    // Causal tracing rides along the whole matrix: every handoff a fault
    // strands must be reclaimed (no leaks), and the faults themselves
    // must surface as span annotations.
    obs::tracer().clear();
    obs::tracer().start();

    auto spawn = [&](const char* name) {
      sw::SwitchOptions sopts;
      sopts.datapath_id = 0x42;
      auto s = std::make_unique<sw::Switch>(name, sopts, network);
      s->add_port(1, MacAddress::from_u64(1), "eth1");
      s->connect(driver.listener().connect());
      return s;
    };
    auto run_rounds = [&](sw::Switch* s, int rounds) {
      for (int round = 0; round < rounds; ++round) {
        driver.poll();
        if (s) s->pump();
        scheduler.run_until_idle();
      }
    };
    netfs::NetDir net(vfs);
    auto fs_flows = [&] {
      std::vector<std::string> out;
      auto names = net.switch_at("sw1").flow_names();
      if (!names.ok()) return out;
      for (const auto& name : *names) {
        auto spec = net.switch_at("sw1").flow_at(name).read();
        if (spec.ok() && spec->version > 0) out.push_back(spec->to_string());
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    auto hw_flows = [&](sw::Switch& s) {
      std::vector<std::string> out;
      for (const auto& e : s.table().entries())
        out.push_back(e.spec.to_string());
      std::sort(out.begin(), out.end());
      return out;
    };

    // Clean phase: connect and commit five flows fault-free.
    auto s = spawn("a");
    run_rounds(s.get(), 30);
    ASSERT_EQ(driver.connected_switches(), 1u);
    for (int i = 0; i < 5; ++i) {
      FlowSpec spec;
      spec.match.tp_dst = static_cast<std::uint16_t>(100 + i);
      spec.actions = {Action::output(1)};
      ASSERT_FALSE(
          net.switch_at("sw1").add_flow(numbered("f", i), spec));
    }
    run_rounds(s.get(), 30);
    ASSERT_EQ(s->table().size(), 5u);

    // Total loss: a sixth commit goes into the void; the driver's tracked
    // barrier must start retrying.
    faults::FaultPlan blackout;
    blackout.drop = 1.0;
    injector->set_plan(faults::Scope::channel, blackout);
    FlowSpec mid;
    mid.match.tp_dst = 999;
    mid.actions = {Action::output(1)};
    ASSERT_FALSE(net.switch_at("sw1").add_flow("f_mid", mid));
    run_rounds(s.get(), 20);

    // Kill the switch mid-commit, then reconnect the same dpid behind a
    // 5% lossy link.
    s->disconnect();
    faults::FaultPlan lossy;
    lossy.drop = 0.05;
    injector->set_plan(faults::Scope::channel, lossy);
    auto reborn = spawn("b");
    for (int round = 0; round < 600; ++round) {
      driver.poll();
      reborn->pump();
      scheduler.run_until_idle();
      if (reborn->table().size() == 6 && hw_flows(*reborn) == fs_flows())
        break;
    }

    EXPECT_EQ(*net.switch_at("sw1").read_field("status"), "up");
    EXPECT_EQ(hw_flows(*reborn), fs_flows());  // byte-identical recovery
    EXPECT_GT(vfs->metrics()->counter("driver/of/retry_total")->value(), 0u);
    EXPECT_GT(vfs->metrics()->counter("driver/of/resync_total")->value(),
              0u);
    // Spans closed, not leaked: the blackout train was reclaimed by the
    // retry path, the in-flight train by mark_down on disconnect, and the
    // lossy reconnect's drops by their retries — so nothing is stranded
    // in the correlation maps, and the fault annotations are in the ring.
    EXPECT_EQ(obs::tracer().inflight(), 0u);
    EXPECT_NE(obs::tracer().ring().dump().find("train_fault"),
              std::string::npos);
    obs::tracer().stop();
    obs::tracer().clear();
  }
}

TEST(DriverFaultMatrix, ReconnectResyncUnderLossTenSeeds) {
  run_reconnect_resync_matrix(DriverOptions{}.max_batch);
}

TEST(DriverFaultMatrix, ReconnectResyncUnderLossTenSeedsMaxBatchOne) {
  run_reconnect_resync_matrix(/*max_batch=*/1);
}

TEST(DriverVersionMismatch, WrongDialectClosed) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  net::Scheduler scheduler;
  net::Network network(scheduler);
  DriverOptions opts;
  opts.version = ofp::Version::of10;
  OfDriver driver(vfs, opts);

  sw::SwitchOptions sopts;
  sopts.datapath_id = 9;
  sopts.version = ofp::Version::of13;  // wrong dialect for this driver
  sw::Switch s("dp9", sopts, network);
  s.connect(driver.listener().connect());
  for (int i = 0; i < 10; ++i) {
    driver.poll();
    s.pump();
  }
  EXPECT_EQ(driver.connected_switches(), 0u);
  EXPECT_FALSE(s.connected());
}

}  // namespace
}  // namespace yanc::driver
