// Tests for the distributed file system (§6): transport behaviour,
// strict/eventual replication, per-subtree consistency via xattr,
// conflicts, partitions, and the flagship scenario — a flow written on one
// controller node appearing on another.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>

#include "yanc/dist/replicated.hpp"
#include "yanc/faults/injector.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/util/rng.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::dist {
namespace {

using flow::Action;
using flow::FlowSpec;

TEST(TransportTest, DeliversWithLatency) {
  net::Scheduler scheduler;
  Transport transport(scheduler, std::chrono::milliseconds(5));
  std::vector<std::string> received;
  auto a = transport.join([&](auto, const auto& m) {
    received.push_back(std::string(m.begin(), m.end()));
  });
  auto b = transport.join([&](auto, const auto&) {});
  ASSERT_TRUE(transport.send(b, a, {'h', 'i'}));
  EXPECT_TRUE(received.empty());  // not yet: latency
  scheduler.run_for(std::chrono::milliseconds(4));
  EXPECT_TRUE(received.empty());
  scheduler.run_for(std::chrono::milliseconds(1));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hi");
  EXPECT_EQ(transport.messages_sent(), 1u);
  EXPECT_EQ(transport.bytes_sent(), 2u);
}

TEST(TransportTest, PartitionQueuesAndHealsInOrder) {
  net::Scheduler scheduler;
  Transport transport(scheduler, {});
  std::vector<std::string> received;
  auto a = transport.join([&](auto, const auto& m) {
    received.push_back(std::string(m.begin(), m.end()));
  });
  auto b = transport.join([&](auto, const auto&) {});
  transport.set_partitioned(a, b, true);
  ASSERT_TRUE(transport.send(b, a, {'1'}));
  ASSERT_TRUE(transport.send(b, a, {'2'}));
  scheduler.run_until_idle();
  EXPECT_TRUE(received.empty());
  transport.set_partitioned(a, b, false);
  scheduler.run_until_idle();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "1");
  EXPECT_EQ(received[1], "2");
}

TEST(TransportTest, AsymmetricPartitionBlocksOneDirection) {
  net::Scheduler scheduler;
  Transport transport(scheduler, {});
  std::vector<std::string> at_a, at_b;
  auto a = transport.join([&](auto, const auto& m) {
    at_a.push_back(std::string(m.begin(), m.end()));
  });
  auto b = transport.join([&](auto, const auto& m) {
    at_b.push_back(std::string(m.begin(), m.end()));
  });
  transport.set_partitioned_oneway(a, b, true);
  EXPECT_TRUE(transport.partitioned(a, b));
  EXPECT_FALSE(transport.partitioned(b, a));
  ASSERT_TRUE(transport.send(a, b, {'x'}));  // queued behind the cut
  ASSERT_TRUE(transport.send(b, a, {'y'}));  // reverse path stays alive
  scheduler.run_until_idle();
  EXPECT_TRUE(at_b.empty());
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0], "y");
  transport.set_partitioned_oneway(a, b, false);
  scheduler.run_until_idle();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0], "x");
}

// Regression (ISSUE 7): a message held back by a delay fault must not be
// delivered after its link is partitioned — the delayed copy would
// resurrect on a link the test already declared dead.
TEST(TransportTest, DelayedMessageDroppedWhenPartitionOvertakesIt) {
  net::Scheduler scheduler;
  Transport transport(scheduler, std::chrono::milliseconds(1));
  std::vector<std::string> received;
  auto a = transport.join([&](auto, const auto&) {});
  auto b = transport.join([&](auto, const auto& m) {
    received.push_back(std::string(m.begin(), m.end()));
  });
  obs::Registry registry;
  transport.bind_metrics(registry);
  transport.set_fault_filter([](auto, auto, std::vector<std::uint8_t>&) {
    Transport::LinkFate fate;
    fate.extra_delay = std::chrono::milliseconds(50);
    return fate;
  });
  ASSERT_TRUE(transport.send(a, b, {'z'}));
  transport.set_fault_filter(nullptr);
  // The partition lands while the delayed message is still in flight.
  transport.set_partitioned(a, b, true);
  scheduler.run_until_idle();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(transport.send_failures(), 1u);
  EXPECT_EQ(*registry.value_of("dist/send_fail_total"), "1");
  // Healing afterwards must not replay it either: it died on the wire.
  transport.set_partitioned(a, b, false);
  scheduler.run_until_idle();
  EXPECT_TRUE(received.empty());
}

// Regression (ISSUE 7): in-flight traffic addressed to a node that left
// (or re-registered) is dropped, not delivered to the next incarnation.
TEST(TransportTest, InFlightMessageDroppedAcrossLeaveAndRejoin) {
  net::Scheduler scheduler;
  Transport transport(scheduler, std::chrono::milliseconds(5));
  std::vector<std::string> first_life, second_life;
  auto a = transport.join([&](auto, const auto&) {});
  auto b = transport.join([&](auto, const auto& m) {
    first_life.push_back(std::string(m.begin(), m.end()));
  });
  ASSERT_TRUE(transport.send(a, b, {'1'}));
  transport.leave(b);
  EXPECT_FALSE(transport.alive(b));
  scheduler.run_until_idle();
  EXPECT_TRUE(first_life.empty());
  EXPECT_EQ(transport.send_failures(), 1u);

  // Sends addressed to a departed node fail at the call site.
  EXPECT_FALSE(transport.send(a, b, {'2'}));
  EXPECT_EQ(transport.send_failures(), 2u);

  transport.rejoin(b, [&](auto, const auto& m) {
    second_life.push_back(std::string(m.begin(), m.end()));
  });
  EXPECT_TRUE(transport.alive(b));
  ASSERT_TRUE(transport.send(a, b, {'3'}));
  // A message put on the wire before a re-register belongs to the old
  // incarnation: rejoin again mid-flight and it must die too.
  transport.rejoin(b, [&](auto, const auto& m) {
    second_life.push_back(std::string(m.begin(), m.end()));
  });
  scheduler.run_until_idle();
  EXPECT_TRUE(second_life.empty());
  EXPECT_EQ(transport.send_failures(), 3u);
  ASSERT_TRUE(transport.send(a, b, {'4'}));
  scheduler.run_until_idle();
  ASSERT_EQ(second_life.size(), 1u);
  EXPECT_EQ(second_life[0], "4");
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest()
      : cluster(scheduler, ClusterOptions{.nodes = 3,
                                          .link_latency =
                                              std::chrono::microseconds(100),
                                          .default_mode = Mode::strict}) {}

  void settle() { scheduler.run_until_idle(); }

  /// Convenience: file content on a node's replica, "" when missing.
  std::string content(std::size_t node, const std::string& path) {
    auto fs = cluster.fs(node);
    vfs::NodeId id = fs->root();
    for (const auto& comp : split_nonempty(path, '/')) {
      auto next = fs->lookup(id, comp);
      if (!next) return "<missing>";
      id = *next;
    }
    auto data = fs->read(id, 0, 1 << 20, {});
    return data ? *data : "<unreadable>";
  }

  net::Scheduler scheduler;
  Cluster cluster;
};

TEST_F(ClusterTest, MkdirReplicatesWithSchema) {
  auto fs0 = cluster.fs(0);
  // Creating a switch on the primary...
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(switches.ok());
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  settle();
  // ...materializes on every node, with its schema children auto-created
  // locally (the op log carries one mkdir, not the whole subtree).
  for (std::size_t node : {1u, 2u}) {
    auto fs = cluster.fs(node);
    auto sw = fs->lookup(*fs->lookup(fs->root(), "switches"), "sw1");
    ASSERT_TRUE(sw.ok()) << "node " << node;
    EXPECT_TRUE(fs->lookup(*sw, "flows").ok());
    EXPECT_TRUE(fs->lookup(*sw, "id").ok());
  }
  EXPECT_EQ(cluster.fs(1)->remote_ops_applied(), 1u);
}

TEST_F(ClusterTest, WritesReplicateContent) {
  auto fs0 = cluster.fs(0);
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  settle();
  auto sw = fs0->lookup(*switches, "sw1");
  auto id_file = fs0->lookup(*sw, "id");
  ASSERT_TRUE(fs0->write(*id_file, 0, "0xabc", {}).ok());
  settle();
  EXPECT_EQ(content(1, "/switches/sw1/id"), "0xabc");
  EXPECT_EQ(content(2, "/switches/sw1/id"), "0xabc");
}

// A whole-file write is one op per peer, which the peer applies in one
// step: no read there ever finds the file emptied by a truncate.
TEST_F(ClusterTest, WholeFileWriteReplicatesAsOneOp) {
  auto fs0 = cluster.fs(0);
  auto vfs0 = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(vfs0->mkdir("/net"));
  ASSERT_FALSE(vfs0->mount("/net", fs0));
  ASSERT_TRUE(fs0->mkdir(*fs0->lookup(fs0->root(), "switches"), "sw1", 0755,
                         {}).ok());
  ASSERT_FALSE(vfs0->write_file("/net/switches/sw1/id", "0xa"));
  settle();
  ASSERT_EQ(content(1, "/switches/sw1/id"), "0xa");

  const auto sent = cluster.transport().messages_sent();
  ASSERT_FALSE(vfs0->write_file("/net/switches/sw1/id", "0xbc"));
  EXPECT_EQ(cluster.transport().messages_sent() - sent,
            cluster.size() - 1);
  // Deliver one event at a time; every read in between sees old or new.
  while (scheduler.pending() > 0) {
    scheduler.run_for(std::chrono::microseconds(1));
    for (std::size_t node : {1u, 2u}) {
      auto now = content(node, "/switches/sw1/id");
      EXPECT_TRUE(now == "0xa" || now == "0xbc") << node << ": " << now;
    }
  }
  EXPECT_EQ(content(1, "/switches/sw1/id"), "0xbc");
  EXPECT_EQ(content(2, "/switches/sw1/id"), "0xbc");
}

TEST_F(ClusterTest, StrictModeChargesRoundTripOnSecondary) {
  auto fs1 = cluster.fs(1);  // not the primary
  auto switches = fs1->lookup(fs1->root(), "switches");
  ASSERT_TRUE(fs1->mkdir(*switches, "sw9", 0755, {}).ok());
  // 2 x 100us round trip charged to the writer.
  EXPECT_EQ(fs1->sync_delay_ns(), 200'000u);
  // The primary never pays it.
  auto fs0 = cluster.fs(0);
  ASSERT_TRUE(fs0->mkdir(*fs0->lookup(fs0->root(), "switches"), "sw8", 0755,
                         {}).ok());
  EXPECT_EQ(fs0->sync_delay_ns(), 0u);
  settle();
  // Both objects visible everywhere (secondary's op routed via primary).
  for (std::size_t node = 0; node < 3; ++node) {
    EXPECT_NE(content(node, "/switches/sw9/id"), "<missing>") << node;
    EXPECT_NE(content(node, "/switches/sw8/id"), "<missing>") << node;
  }
}

TEST_F(ClusterTest, EventualSubtreeSkipsPrimaryRoundTrip) {
  auto fs1 = cluster.fs(1);
  // Mark the events subtree eventual on every replica (xattrs replicate,
  // but set it locally first so the mode applies to the next op).
  auto events = fs1->lookup(fs1->root(), "events");
  ASSERT_TRUE(events.ok());
  std::string value = "eventual";
  ASSERT_FALSE(fs1->setxattr(*events, kConsistencyXattr,
                             {value.begin(), value.end()}, {}));
  auto before = fs1->sync_delay_ns();
  ASSERT_TRUE(fs1->mkdir(*events, "app1", 0755, {}).ok());
  EXPECT_EQ(fs1->sync_delay_ns(), before);  // no round trip charged
  settle();
  // Still replicated.
  auto fs2 = cluster.fs(2);
  EXPECT_TRUE(
      fs2->lookup(*fs2->lookup(fs2->root(), "events"), "app1").ok());
}

TEST_F(ClusterTest, LastWriterWinsOnConflict) {
  net::Scheduler s2;
  Cluster eventual(s2, ClusterOptions{.nodes = 2,
                                      .link_latency =
                                          std::chrono::microseconds(100),
                                      .default_mode = Mode::eventual});
  auto fs0 = eventual.fs(0);
  auto fs1 = eventual.fs(1);
  auto sw0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*sw0, "sw1", 0755, {}).ok());
  s2.run_until_idle();

  // Concurrent writes to the same file on both nodes (before either
  // replica saw the other's op).
  auto id0 = fs0->lookup(*fs0->lookup(*sw0, "sw1"), "id");
  auto sw1 = fs1->lookup(fs1->root(), "switches");
  auto id1 = fs1->lookup(*fs1->lookup(*sw1, "sw1"), "id");
  ASSERT_TRUE(fs0->write(*id0, 0, "0xa", {}).ok());
  ASSERT_TRUE(fs1->write(*id1, 0, "0xb", {}).ok());
  s2.run_until_idle();

  // Both converge on the same value (the later Lamport ts wins; ties break
  // toward the higher node id).
  auto read = [&](std::size_t n) {
    auto fs = eventual.fs(n);
    auto id = fs->lookup(*fs->lookup(*fs->lookup(fs->root(), "switches"),
                                     "sw1"),
                         "id");
    return *fs->read(*id, 0, 100, {});
  };
  EXPECT_EQ(read(0), read(1));
  EXPECT_EQ(eventual.fs(0)->conflicts_ignored() +
                eventual.fs(1)->conflicts_ignored(),
            1u);
}

TEST_F(ClusterTest, PartitionDivergesThenConverges) {
  net::Scheduler s2;
  Cluster eventual(s2, ClusterOptions{.nodes = 2,
                                      .link_latency = {},
                                      .default_mode = Mode::eventual});
  auto fs0 = eventual.fs(0);
  auto fs1 = eventual.fs(1);
  eventual.partition(0, 1);

  auto sw0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*sw0, "only-on-0", 0755, {}).ok());
  s2.run_until_idle();
  auto sw1 = fs1->lookup(fs1->root(), "switches");
  EXPECT_FALSE(fs1->lookup(*sw1, "only-on-0").ok());  // diverged

  eventual.heal(0, 1);
  s2.run_until_idle();
  EXPECT_TRUE(fs1->lookup(*sw1, "only-on-0").ok());  // converged
}

TEST_F(ClusterTest, RmdirReplicatesRecursiveRemoval) {
  auto fs0 = cluster.fs(0);
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  settle();
  ASSERT_FALSE(fs0->rmdir(*switches, "sw1", {}));
  settle();
  auto fs1 = cluster.fs(1);
  EXPECT_FALSE(
      fs1->lookup(*fs1->lookup(fs1->root(), "switches"), "sw1").ok());
}

TEST_F(ClusterTest, SymlinkAndRenameReplicate) {
  auto fs0 = cluster.fs(0);
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  ASSERT_TRUE(fs0->mkdir(*switches, "sw2", 0755, {}).ok());
  settle();
  // Topology symlink on node 0...
  auto sw1 = fs0->lookup(*switches, "sw1");
  auto ports = fs0->lookup(*sw1, "ports");
  ASSERT_TRUE(fs0->mkdir(*ports, "1", 0755, {}).ok());
  settle();
  auto port1 = fs0->lookup(*ports, "1");
  ASSERT_TRUE(
      fs0->symlink(*port1, "peer", "/switches/sw2/ports/9", {}).ok());
  settle();
  auto fs2 = cluster.fs(2);
  auto r_ports = fs2->lookup(
      *fs2->lookup(*fs2->lookup(fs2->root(), "switches"), "sw1"), "ports");
  auto r_port1 = fs2->lookup(*r_ports, "1");
  auto r_peer = fs2->lookup(*r_port1, "peer");
  ASSERT_TRUE(r_peer.ok());
  EXPECT_EQ(*fs2->readlink(*r_peer), "/switches/sw2/ports/9");

  // Rename replicates too (switch renamed, §3.2).
  ASSERT_FALSE(fs0->rename(*switches, "sw2", *switches, "edge-2", {}));
  settle();
  auto r_switches = fs2->lookup(fs2->root(), "switches");
  EXPECT_TRUE(fs2->lookup(*r_switches, "edge-2").ok());
  EXPECT_FALSE(fs2->lookup(*r_switches, "sw2").ok());
}

// --- the §6 flagship: distributed controller ----------------------------------

TEST(DistributedController, FlowWrittenOnNodeAVisibleOnNodeB) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler,
                  ClusterOptions{.nodes = 2,
                                 .link_latency = std::chrono::milliseconds(1),
                                 .default_mode = Mode::strict});
  // Each controller node mounts ITS replica at /net in its own Vfs —
  // applications on each node are oblivious to the replication.
  auto vfs_a = std::make_shared<vfs::Vfs>();
  auto vfs_b = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(vfs_a->mkdir("/net"));
  ASSERT_FALSE(vfs_b->mkdir("/net"));
  ASSERT_FALSE(vfs_a->mount("/net", cluster.fs(0)));
  ASSERT_FALSE(vfs_b->mount("/net", cluster.fs(1)));

  // Node A's administrator writes a flow with plain file I/O.
  netfs::NetDir net_a(vfs_a);
  ASSERT_FALSE(net_a.add_switch("sw1"));
  FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(2)};
  ASSERT_FALSE(net_a.switch_at("sw1").add_flow("ssh", spec));
  scheduler.run_until_idle();

  // Node B's driver (or shell user) sees the committed flow.
  netfs::NetDir net_b(vfs_b);
  auto names = net_b.switch_at("sw1").flow_names();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(*names, std::vector<std::string>{"ssh"});
  auto got = net_b.switch_at("sw1").flow_at("ssh").read();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->match.tp_dst, 22);
  EXPECT_GE(got->version, 1u);
}

// --- anti-entropy: convergence despite genuinely lost messages -----------------

// Drops every replication message until heal_links().
void drop_all(Cluster& cluster) {
  auto inj = std::make_shared<faults::Injector>(1);
  faults::FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(faults::Scope::transport, plan);
  attach_faults(cluster.transport(), inj);
}

void heal_links(Cluster& cluster) {
  attach_faults(cluster.transport(), nullptr);
}

Result<vfs::NodeId> resolve(ReplicatedYancFs& fs, const std::string& path) {
  vfs::NodeId node = fs.root();
  for (const auto& comp : split_nonempty(path, '/')) {
    auto next = fs.lookup(node, comp);
    if (!next) return next.error();
    node = *next;
  }
  return node;
}

/// File content on one replica, "<missing>" when the path does not exist.
std::string read_at(ReplicatedYancFs& fs, const std::string& path) {
  auto node = resolve(fs, path);
  if (!node) return "<missing>";
  auto data = fs.read(*node, 0, 1 << 20, {});
  return data ? *data : "<unreadable>";
}

/// Every node at or below `path` on one replica: "dir", "file:<bytes>" or
/// "link:<target>", keyed by path.
std::map<std::string, std::string> tree(ReplicatedYancFs& fs,
                                        const std::string& path) {
  std::map<std::string, std::string> out;
  auto walk = [&](auto& self, vfs::NodeId node, const std::string& at) {
    auto st = fs.getattr(node);
    if (!st) return;
    if (st->is_symlink()) {
      out[at] = "link:" + fs.readlink(node).value_or("");
    } else if (!st->is_dir()) {
      out[at] = "file:" + fs.read(node, 0, st->size, {}).value_or("");
    } else {
      out[at] = "dir";
      if (auto children = fs.readdir(node))
        for (const auto& child : *children)
          self(self, child.node, at + "/" + child.name);
    }
  };
  if (auto node = resolve(fs, path)) walk(walk, *node, path);
  return out;
}

// The partition model retransmits (TCP-style); the fault filter actually
// loses messages.  Op-log replication cannot recover from that — the
// anti-entropy pass must.
TEST(AntiEntropy, LossyLinkDivergenceHealed) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);

  // 100% loss on the replica links.
  auto inj = std::make_shared<faults::Injector>(1);
  faults::FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(faults::Scope::transport, plan);
  attach_faults(cluster.transport(), inj);

  auto switches0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "sw1", 0755, {}).ok());
  auto sw0 = fs0->lookup(*switches0, "sw1");
  auto id0 = fs0->lookup(*sw0, "id");
  ASSERT_TRUE(fs0->write(*id0, 0, "0x42", {}).ok());
  scheduler.run_until_idle();

  auto switches1 = fs1->lookup(fs1->root(), "switches");
  EXPECT_FALSE(fs1->lookup(*switches1, "sw1").ok());  // diverged
  EXPECT_GT(cluster.transport().messages_dropped(), 0u);

  // Heal the link.  The lost ops stay lost; only anti-entropy repairs.
  attach_faults(cluster.transport(), nullptr);
  scheduler.run_until_idle();
  EXPECT_FALSE(fs1->lookup(*switches1, "sw1").ok());

  cluster.anti_entropy_round();
  scheduler.run_until_idle();
  cluster.anti_entropy_round();
  scheduler.run_until_idle();

  auto sw1 = fs1->lookup(*switches1, "sw1");
  ASSERT_TRUE(sw1.ok());
  auto id1 = fs1->lookup(*sw1, "id");
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*fs1->read(*id1, 0, 100, {}), "0x42");
  EXPECT_GT(fs1->repairs_applied(), 0u);
}

// Two eventual replicas: /.t/f holds "old" on both, then a rewrite to
// "new" on node 0 never reaches node 1.  `change` then acts on node 0's
// copy with an op that changes a copy rather than replacing it; node 1
// applies that op to its stale copy.  Two anti-entropy rounds must leave
// `path` reading `want` on both replicas.
void stale_copy_converges(
    const std::function<void(ReplicatedYancFs&, vfs::NodeId dir)>& change,
    const std::string& path, const std::string& want) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  bool lose = false;
  cluster.transport().set_fault_filter(
      [&lose](Transport::NodeId, Transport::NodeId,
              std::vector<std::uint8_t>&) {
        Transport::LinkFate fate;
        fate.drop = lose;
        return fate;
      });
  auto dir = fs0->mkdir(fs0->root(), ".t", 0755, {});
  ASSERT_TRUE(dir.ok());
  auto f = fs0->create(*dir, "f", 0644, {});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs0->replace(*f, "old", {}).ok());
  scheduler.run_until_idle();
  ASSERT_EQ(read_at(*cluster.fs(1), "/.t/f"), "old");

  lose = true;
  ASSERT_TRUE(fs0->replace(*f, "new", {}).ok());
  scheduler.run_until_idle();
  lose = false;
  ASSERT_EQ(read_at(*cluster.fs(1), "/.t/f"), "old");

  change(*fs0, *dir);
  scheduler.run_until_idle();
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  for (std::size_t node = 0; node < cluster.size(); ++node)
    EXPECT_EQ(read_at(*cluster.fs(node), path), want) << "node " << node;
  EXPECT_EQ(fs0->root_digest(), cluster.fs(1)->root_digest());
}

// A rename carries no content: applied to a stale copy, it must not give
// that copy the rename's version, or the digests agree while the bytes
// differ and no round ever repairs them.
TEST(AntiEntropy, StaleRenameConverges) {
  stale_copy_converges(
      [](ReplicatedYancFs& fs, vfs::NodeId dir) {
        ASSERT_FALSE(fs.rename(dir, "f", dir, "g", {}));
      },
      "/.t/g", "new");
}

// Its twin: a write at an offset changes a copy, and on a stale copy
// yields bytes the writer never held.
TEST(AntiEntropy, StalePartialWriteConverges) {
  stale_copy_converges(
      [](ReplicatedYancFs& fs, vfs::NodeId dir) {
        auto f = fs.lookup(dir, "f");
        ASSERT_TRUE(f.ok());
        ASSERT_TRUE(fs.write(*f, 1, "EW", {}).ok());
      },
      "/.t/f", "nEW");

  // Three replicas: the rewrite to "new" reaches neither peer and the
  // write at an offset reaches node 1 only, then the origin goes down.
  // Nodes 1 and 2 hold the same version, so they must hold the same
  // bytes: node 1 refused a write its copy was not the base of.  Once the
  // origin is back, two rounds bring both to its bytes.
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 3,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  std::set<Transport::NodeId> lose_to;
  cluster.transport().set_fault_filter(
      [&lose_to](Transport::NodeId, Transport::NodeId to,
                 std::vector<std::uint8_t>&) {
        Transport::LinkFate fate;
        fate.drop = lose_to.count(to) > 0;
        return fate;
      });
  auto dir = fs0->mkdir(fs0->root(), ".t", 0755, {});
  ASSERT_TRUE(dir.ok());
  auto f = fs0->create(*dir, "f", 0644, {});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs0->replace(*f, "old", {}).ok());
  scheduler.run_until_idle();
  lose_to = {1, 2};
  ASSERT_TRUE(fs0->replace(*f, "new", {}).ok());
  scheduler.run_until_idle();
  lose_to = {2};
  ASSERT_TRUE(fs0->write(*f, 1, "EW", {}).ok());
  scheduler.run_until_idle();
  lose_to.clear();

  cluster.transport().leave(0);
  for (int round = 0; round < 2; ++round) {
    cluster.fs(1)->send_anti_entropy();
    cluster.fs(2)->send_anti_entropy();
    scheduler.run_until_idle();
  }
  EXPECT_EQ(read_at(*cluster.fs(1), "/.t/f"), "old");
  EXPECT_EQ(read_at(*cluster.fs(2), "/.t/f"), "old");
  EXPECT_EQ(cluster.fs(1)->root_digest(), cluster.fs(2)->root_digest());

  fs0->rejoin_cluster();
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  for (std::size_t node = 0; node < cluster.size(); ++node)
    EXPECT_EQ(read_at(*cluster.fs(node), "/.t/f"), "nEW") << "node " << node;
}

// A rename moves the deletions below the old name with the subtree: a
// replica that missed one must not get the deleted entry back through
// the new name, nor give it back to the replica that deleted it.
TEST(AntiEntropy, RenameCarriesMissedDeletion) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  bool lose = false;
  cluster.transport().set_fault_filter(
      [&lose](Transport::NodeId, Transport::NodeId,
              std::vector<std::uint8_t>&) {
        Transport::LinkFate fate;
        fate.drop = lose;
        return fate;
      });
  auto top = fs0->mkdir(fs0->root(), ".t", 0755, {});
  ASSERT_TRUE(top.ok());
  auto d = fs0->mkdir(*top, "d", 0755, {});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs0->create(*d, "x", 0644, {}).ok());
  scheduler.run_until_idle();
  ASSERT_TRUE(resolve(*cluster.fs(1), "/.t/d/x").ok());

  lose = true;
  ASSERT_FALSE(fs0->unlink(*d, "x", {}));
  scheduler.run_until_idle();
  lose = false;
  ASSERT_FALSE(fs0->rename(*top, "d", *top, "e", {}));
  scheduler.run_until_idle();
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    EXPECT_TRUE(resolve(*cluster.fs(node), "/.t/e").ok()) << "node " << node;
    EXPECT_FALSE(resolve(*cluster.fs(node), "/.t/e/x").ok())
        << "node " << node;
  }
  EXPECT_EQ(fs0->root_digest(), cluster.fs(1)->root_digest());
}

// A flow's version file is its commit point.  A field whose op was lost
// reaches a replica through anti-entropy after the commit it belongs to:
// that replica showed the commit torn, so it announces the commit again,
// a modified event on `version` with the file unchanged.  A field written
// after the commit is an edit in progress and announces nothing.
TEST(AntiEntropy, LateFieldReannouncesItsCommit) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  ASSERT_TRUE(fs0->mkdir(*resolve(*fs0, "/switches"), "sw1", 0755, {}).ok());
  ASSERT_TRUE(
      fs0->mkdir(*resolve(*fs0, "/switches/sw1/flows"), "f1", 0755, {}).ok());
  const std::string flow = "/switches/sw1/flows/f1";
  auto flow0 = resolve(*fs0, flow);
  ASSERT_TRUE(flow0.ok());
  auto field = fs0->create(*flow0, "match.tp_dst", 0644, {});
  ASSERT_TRUE(field.ok());
  ASSERT_TRUE(fs0->replace(*field, "22", {}).ok());
  auto version = resolve(*fs0, flow + "/version");
  ASSERT_TRUE(version.ok());
  ASSERT_TRUE(fs0->replace(*version, "1", {}).ok());
  scheduler.run_until_idle();

  auto queue = std::make_shared<vfs::WatchQueue>();
  auto version1 = resolve(*fs1, flow + "/version");
  ASSERT_TRUE(version1.ok());
  ASSERT_TRUE(fs1->watch(*version1, vfs::event::modified, queue).ok());

  // Commit 2 rewrites the match; its field op is lost, its version op
  // is not.
  drop_all(cluster);
  ASSERT_TRUE(fs0->replace(*field, "80", {}).ok());
  scheduler.run_until_idle();
  heal_links(cluster);
  ASSERT_TRUE(fs0->replace(*version, "2", {}).ok());
  scheduler.run_until_idle();
  ASSERT_EQ(read_at(*fs1, flow + "/version"), "2");
  ASSERT_EQ(read_at(*fs1, flow + "/match.tp_dst"), "22");  // torn
  ASSERT_EQ(queue->drain().size(), 1u);  // the commit itself

  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  EXPECT_EQ(read_at(*fs1, flow + "/match.tp_dst"), "80");
  EXPECT_EQ(read_at(*fs1, flow + "/version"), "2");
  EXPECT_EQ(queue->drain().size(), 1u);  // announced again

  // An edit after commit 2, lost and then repaired, is newer than the
  // commit point: nothing is announced.
  drop_all(cluster);
  ASSERT_TRUE(fs0->replace(*field, "443", {}).ok());
  scheduler.run_until_idle();
  heal_links(cluster);
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  EXPECT_EQ(read_at(*fs1, flow + "/match.tp_dst"), "443");
  EXPECT_TRUE(queue->drain().empty());
}

// A lost rmdir must not let the other replica's snapshot resurrect the
// directory: the tombstone wins on both sides.
TEST(AntiEntropy, TombstonePreventsResurrection) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);

  // Replicate a directory cleanly first.
  auto switches0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "doomed", 0755, {}).ok());
  scheduler.run_until_idle();
  auto switches1 = fs1->lookup(fs1->root(), "switches");
  ASSERT_TRUE(fs1->lookup(*switches1, "doomed").ok());

  // The rmdir is lost on the wire: node 1 keeps the directory.
  auto inj = std::make_shared<faults::Injector>(1);
  faults::FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(faults::Scope::transport, plan);
  attach_faults(cluster.transport(), inj);
  ASSERT_FALSE(fs0->rmdir(*switches0, "doomed", {}));
  scheduler.run_until_idle();
  ASSERT_TRUE(fs1->lookup(*switches1, "doomed").ok());  // diverged

  attach_faults(cluster.transport(), nullptr);
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  // Deleted everywhere, resurrected nowhere.
  EXPECT_FALSE(fs0->lookup(*switches0, "doomed").ok());
  EXPECT_FALSE(fs1->lookup(*switches1, "doomed").ok());
}

// A tombstone covers its path and what lies below it, not every path that
// merely starts with the same characters.
TEST(AntiEntropy, TombstoneStopsAtPathBoundary) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  drop_all(cluster);
  auto switches0 = resolve(*fs0, "/switches");
  for (const char* name : {"sw1", "sw10", "sw1x"})
    ASSERT_TRUE(fs0->mkdir(*switches0, name, 0755, {}).ok());
  // The tombstone is newer than both neighbours' creations.
  ASSERT_FALSE(fs0->rmdir(*switches0, "sw1", {}));
  scheduler.run_until_idle();
  heal_links(cluster);

  fs0->send_anti_entropy();
  scheduler.run_until_idle();
  EXPECT_FALSE(resolve(*fs1, "/switches/sw1").ok());
  EXPECT_TRUE(resolve(*fs1, "/switches/sw10").ok());
  EXPECT_TRUE(resolve(*fs1, "/switches/sw1x").ok());
}

// A directory's tombstone also out-ranks a peer's older copy of a file
// inside it: merging that copy must not bring the directory back.
TEST(AntiEntropy, DirectoryTombstoneSuppressesStaleFileBelow) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  auto switches0 = resolve(*fs0, "/switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "sw1", 0755, {}).ok());
  scheduler.run_until_idle();
  ASSERT_TRUE(
      fs1->write(*resolve(*fs1, "/switches/sw1/id"), 0, "0x42", {}).ok());
  scheduler.run_until_idle();
  ASSERT_EQ(read_at(*fs0, "/switches/sw1/id"), "0x42");

  // Node 0 deletes the switch after it saw node 1's write; node 1 never
  // hears of the deletion and keeps its copy.
  drop_all(cluster);
  ASSERT_FALSE(fs0->rmdir(*switches0, "sw1", {}));
  scheduler.run_until_idle();
  heal_links(cluster);

  fs1->send_anti_entropy();
  scheduler.run_until_idle();
  EXPECT_FALSE(resolve(*fs0, "/switches/sw1").ok());
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  EXPECT_FALSE(resolve(*fs0, "/switches/sw1").ok());
  EXPECT_FALSE(resolve(*fs1, "/switches/sw1").ok());
}

// Recreating a file strictly after deleting it out-ranks its own
// tombstone: the new file survives on both replicas.
TEST(AntiEntropy, FileRecreatedAfterItsTombstoneSurvives) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  ASSERT_TRUE(fs0->mkdir(*resolve(*fs0, "/switches"), "sw1", 0755, {}).ok());
  ASSERT_TRUE(
      fs0->mkdir(*resolve(*fs0, "/switches/sw1/flows"), "f1", 0755, {}).ok());
  auto flow0 = resolve(*fs0, "/switches/sw1/flows/f1");
  auto field = fs0->create(*flow0, "match.tp_dst", 0644, {});
  ASSERT_TRUE(field.ok());
  ASSERT_TRUE(fs0->write(*field, 0, "22", {}).ok());
  scheduler.run_until_idle();
  const std::string path = "/switches/sw1/flows/f1/match.tp_dst";
  ASSERT_EQ(read_at(*fs1, path), "22");

  drop_all(cluster);
  ASSERT_FALSE(fs0->unlink(*flow0, "match.tp_dst", {}));
  field = fs0->create(*flow0, "match.tp_dst", 0644, {});
  ASSERT_TRUE(field.ok());
  ASSERT_TRUE(fs0->write(*field, 0, "80", {}).ok());
  scheduler.run_until_idle();
  heal_links(cluster);
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  EXPECT_EQ(read_at(*fs0, path), "80");
  EXPECT_EQ(read_at(*fs1, path), "80");
}

// One round rebuilds a whole missing switch subtree: the switch
// directory, flows/, a flow and every field file, byte for byte.
TEST(AntiEntropy, MissingSwitchSubtreeRestoredInOneRound) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  auto vfs0 = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(vfs0->mkdir("/net"));
  ASSERT_FALSE(vfs0->mount("/net", fs0));

  drop_all(cluster);
  netfs::NetDir net0(vfs0);
  ASSERT_FALSE(net0.add_switch("sw1"));
  ASSERT_FALSE(vfs0->write_file("/net/switches/sw1/id", "0x1f"));
  FlowSpec spec;
  spec.priority = 7;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(2)};
  ASSERT_FALSE(net0.switch_at("sw1").add_flow("ssh", spec));
  scheduler.run_until_idle();
  ASSERT_FALSE(resolve(*fs1, "/switches/sw1").ok());
  heal_links(cluster);

  cluster.anti_entropy_round();
  scheduler.run_until_idle();
  auto want = tree(*fs0, "/switches/sw1");
  ASSERT_EQ(want["/switches/sw1/flows/ssh/match.tp_dst"], "file:22");
  ASSERT_EQ(want["/switches/sw1/id"], "file:0x1f");
  EXPECT_EQ(tree(*fs1, "/switches/sw1"), want);
}

// A write strictly newer than an ancestor's tombstone wins over the
// deletion: the replica that removed the directory gets it back with the
// write, and the writer keeps it.
TEST(AntiEntropy, WriteNewerThanAncestorTombstoneConverges) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  auto switches0 = resolve(*fs0, "/switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "x", 0755, {}).ok());
  scheduler.run_until_idle();
  ASSERT_TRUE(resolve(*fs1, "/switches/x").ok());

  drop_all(cluster);
  ASSERT_FALSE(fs0->rmdir(*switches0, "x", {}));
  auto id1 = resolve(*fs1, "/switches/x/id");
  ASSERT_TRUE(id1.ok());
  for (int i = 1; i <= 5; ++i)
    ASSERT_TRUE(fs1->write(*id1, 0, "0x" + std::to_string(i), {}).ok());
  scheduler.run_until_idle();
  heal_links(cluster);

  for (int round = 0; round < 3; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  EXPECT_EQ(read_at(*fs1, "/switches/x/id"), "0x5");
  EXPECT_EQ(read_at(*fs0, "/switches/x/id"), "0x5");
  EXPECT_EQ(tree(*fs0, "/switches/x"), tree(*fs1, "/switches/x"));
}

// Replicas that agree have equal root digests, so a round costs one digest
// message per peer and pulls nothing: no whole tree on the wire.
TEST(AntiEntropy, ConvergedReplicasExchangeOnlyDigests) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  ASSERT_TRUE(fs0->mkdir(*resolve(*fs0, "/switches"), "sw1", 0755, {}).ok());
  scheduler.run_until_idle();
  ASSERT_TRUE(
      fs1->write(*resolve(*fs1, "/switches/sw1/id"), 0, "0x1", {}).ok());
  ASSERT_TRUE(fs0->mkdir(*resolve(*fs0, "/switches"), "sw2", 0755, {}).ok());
  scheduler.run_until_idle();
  ASSERT_FALSE(fs1->rmdir(*resolve(*fs1, "/switches"), "sw2", {}));
  scheduler.run_until_idle();
  ASSERT_EQ(fs0->root_digest(), fs1->root_digest());

  const auto messages = cluster.transport().messages_sent();
  const auto bytes = cluster.transport().bytes_sent();
  cluster.anti_entropy_round();
  scheduler.run_until_idle();
  EXPECT_EQ(cluster.transport().messages_sent() - messages, 2u);
  // Kind byte, Lamport clock and digest: 17 bytes per message.
  EXPECT_EQ(cluster.transport().bytes_sent() - bytes, 2u * 17u);
  EXPECT_EQ(fs0->listings_pulled() + fs1->listings_pulled(), 0u);
  EXPECT_EQ(fs0->repairs_applied() + fs1->repairs_applied(), 0u);
}

// A tombstone below a path that is no longer a directory is covered by the
// nearest directory above it: the replica that never saw it learns it, and
// the digests agree only once it has.
TEST(AntiEntropy, TombstoneBelowRemovedDirectoryIsCovered) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  ASSERT_TRUE(fs0->mkdir(fs0->root(), ".p", 0755, {}).ok());
  ASSERT_TRUE(fs0->mkdir(*resolve(*fs0, "/.p"), "d", 0755, {}).ok());
  ASSERT_TRUE(fs0->create(*resolve(*fs0, "/.p/d"), "f", 0644, {}).ok());
  scheduler.run_until_idle();
  ASSERT_EQ(fs0->root_digest(), fs1->root_digest());

  // Node 1 hears of the file's removal but not of its directory's.
  ASSERT_FALSE(fs0->unlink(*resolve(*fs0, "/.p/d"), "f", {}));
  scheduler.run_until_idle();
  drop_all(cluster);
  ASSERT_FALSE(fs0->rmdir(*resolve(*fs0, "/.p"), "d", {}));
  scheduler.run_until_idle();
  heal_links(cluster);
  ASSERT_TRUE(resolve(*fs1, "/.p/d").ok());
  EXPECT_NE(fs0->root_digest(), fs1->root_digest());

  fs0->send_anti_entropy();
  scheduler.run_until_idle();
  EXPECT_FALSE(resolve(*fs1, "/.p/d").ok());
  EXPECT_EQ(fs0->root_digest(), fs1->root_digest());
  const auto pulled = fs0->listings_pulled() + fs1->listings_pulled();
  cluster.anti_entropy_round();
  scheduler.run_until_idle();
  EXPECT_EQ(fs0->listings_pulled() + fs1->listings_pulled(), pulled);
}

// --- anti-entropy properties: seeded random histories ----------------------
//
// Tier 1 runs seeds [1, 6); scripts/stress.sh sweeps 50 more via
// YANC_PROP_SEED (each run covers [base, base+5)).  The histories live in
// the plain subtree /.p, plus switch objects for schema-populated trees.

std::uint64_t prop_seed_base() {
  const char* env = std::getenv("YANC_PROP_SEED");
  return env ? std::strtoull(env, nullptr, 10) : 1;
}

/// Loses each replica message with probability `p`, drawn from `rng`.
void drop_some(Cluster& cluster, util::Rng& rng, double p) {
  cluster.transport().set_fault_filter(
      [&rng, p](Transport::NodeId, Transport::NodeId,
                std::vector<std::uint8_t>&) {
        Transport::LinkFate fate;
        fate.drop = rng.chance(p);
        return fate;
      });
}

/// The parent directory and leaf of `path` on one replica.
std::pair<Result<vfs::NodeId>, std::string> parent_of(
    ReplicatedYancFs& fs, const std::string& path) {
  auto slash = path.rfind('/');
  return {resolve(fs, path.substr(0, slash)), path.substr(slash + 1)};
}

/// One random local op on a random replica of `cluster`, or a round.
void random_step(Cluster& cluster, util::Rng& rng, std::uint64_t& serial) {
  auto& fs = *cluster.fs(rng.below(cluster.size()));
  std::vector<std::string> dirs, files;
  for (const auto& [path, what] : tree(fs, "/.p"))
    (what == "dir" ? dirs : files).push_back(path);
  if (dirs.empty()) return;
  const std::string& dir = dirs[rng.below(dirs.size())];
  const std::string name = "n" + std::to_string(serial++);
  const std::string file = files.empty() ? "" : files[rng.below(files.size())];
  const std::string victim = dirs.size() > 1 && rng.chance(0.5)
                                 ? dirs[1 + rng.below(dirs.size() - 1)]
                                 : file;
  switch (rng.below(10)) {
    case 0:
      (void)fs.mkdir(*resolve(fs, dir), name, 0755, {});
      break;
    case 1:
      (void)fs.create(*resolve(fs, dir), name, 0644, {});
      break;
    case 2:
      if (!file.empty())
        (void)fs.replace(*resolve(fs, file), name, {});
      break;
    case 3:
      if (!file.empty())
        (void)fs.write(*resolve(fs, file), rng.below(4), name, {});
      break;
    case 4:
      if (!file.empty()) {
        auto [parent, leaf] = parent_of(fs, file);
        (void)fs.unlink(*parent, leaf, {});
      }
      break;
    case 5:
      if (dirs.size() > 1) {  // fails unless empty
        const std::string& doomed = dirs[1 + rng.below(dirs.size() - 1)];
        auto [parent, leaf] = parent_of(fs, doomed);
        (void)fs.rmdir(*parent, leaf, {});
      }
      break;
    case 6:
      if (!victim.empty()) {  // fails when moving a directory into itself
        auto [parent, leaf] = parent_of(fs, victim);
        (void)fs.rename(*parent, leaf, *resolve(fs, dir), name, {});
      }
      break;
    case 7: {  // a schema-populated object, created or removed whole
      auto switches = resolve(fs, "/switches");
      auto existing = fs.readdir(*switches);
      if (existing && !existing->empty() && rng.chance(0.5))
        (void)fs.rmdir(*switches,
                       (*existing)[rng.below(existing->size())].name, {});
      else
        (void)fs.mkdir(*switches, name, 0755, {});
      break;
    }
    default:
      cluster.anti_entropy_round();
      break;
  }
}

void run_digest_case(std::uint64_t seed) {
  SCOPED_TRACE("YANC_PROP_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 3,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  ASSERT_TRUE(cluster.fs(0)->mkdir(cluster.fs(0)->root(), ".p", 0755, {}).ok());
  scheduler.run_until_idle();
  drop_some(cluster, rng, 0.3);
  std::uint64_t serial = 0;
  for (int step = 0; step < 150; ++step) {
    random_step(cluster, rng, serial);
    scheduler.run_until_idle();
    for (std::size_t node = 0; node < cluster.size(); ++node)
      ASSERT_EQ(cluster.fs(node)->root_digest(),
                cluster.fs(node)->root_digest_uncached())
          << "node " << node << " after step " << step;
  }
  cluster.transport().set_fault_filter(nullptr);
}

// Every local and remote op, lost or not, and every merge keeps each
// replica's maintained digest equal to one hashed from scratch.
TEST(AntiEntropyProperty, MaintainedDigestMatchesRecomputed) {
  const std::uint64_t base = prop_seed_base();
  for (std::uint64_t seed = base; seed < base + 5; ++seed)
    run_digest_case(seed);
}

/// The expected tree below /.p, in tree()'s format, and what was deleted.
struct Model {
  std::map<std::string, std::string> live;
  std::set<std::string> dead;

  std::map<std::string, std::string> below(const std::string& path) const {
    std::map<std::string, std::string> out;
    for (auto it = live.lower_bound(path);
         it != live.end() && (it->first == path ||
                              it->first.starts_with(path + "/"));
         ++it)
      out.insert(*it);
    return out;
  }
};

/// The replicas whose subtree at `path` is exactly the model's: they have
/// seen every write there, so their next op there out-ranks all of them.
std::vector<std::size_t> current_at(Cluster& cluster, const Model& model,
                                    const std::string& path) {
  std::vector<std::size_t> out;
  const auto want = model.below(path);
  for (std::size_t node = 0; node < cluster.size(); ++node)
    if (tree(*cluster.fs(node), path) == want) out.push_back(node);
  return out;
}

/// The replicas on which `dir` is a directory.
std::vector<std::size_t> having_dir(Cluster& cluster, const std::string& dir) {
  std::vector<std::size_t> out;
  for (std::size_t node = 0; node < cluster.size(); ++node)
    if (auto found = resolve(*cluster.fs(node), dir))
      if (auto st = cluster.fs(node)->getattr(*found); st && st->is_dir())
        out.push_back(node);
  return out;
}

template <typename T>
const T& pick(util::Rng& rng, const std::vector<T>& from) {
  return from[rng.below(from.size())];
}

/// One random op of a lossy history the model can predict: writes,
/// deletes and renames happen on a replica current on what they touch, so
/// each out-ranks everything before it there, and nothing is ever written
/// below a deleted path.
void lossy_step(Cluster& cluster, Model& model, util::Rng& rng,
                std::uint64_t& serial) {
  std::vector<std::string> dirs, files, movable;
  for (const auto& [path, what] : model.live) {
    (what == "dir" ? dirs : files).push_back(path);
    if (path != "/.p") movable.push_back(path);
  }
  const std::string name = "n" + std::to_string(serial++);
  switch (rng.below(6)) {
    case 0:
    case 1: {  // mkdir or create below a live directory
      const std::string& dir = pick(rng, dirs);
      auto have = having_dir(cluster, dir);
      if (have.empty()) return;
      auto& fs = *cluster.fs(pick(rng, have));
      bool is_dir = rng.chance(0.4);
      auto made = is_dir ? fs.mkdir(*resolve(fs, dir), name, 0755, {})
                         : fs.create(*resolve(fs, dir), name, 0644, {});
      ASSERT_TRUE(made.ok());
      model.live[dir + "/" + name] = is_dir ? "dir" : "file:";
      return;
    }
    case 2:
    case 3: {  // a whole-file write
      if (files.empty()) return;
      const std::string& file = pick(rng, files);
      auto current = current_at(cluster, model, file);
      if (current.empty()) return;
      auto& fs = *cluster.fs(pick(rng, current));
      ASSERT_TRUE(fs.replace(*resolve(fs, file), name, {}).ok());
      model.live[file] = "file:" + name;
      return;
    }
    case 4: {  // delete a subtree, bottom-up
      if (movable.empty()) return;
      const std::string& path = pick(rng, movable);
      auto current = current_at(cluster, model, path);
      if (current.empty()) return;
      auto& fs = *cluster.fs(pick(rng, current));
      auto doomed = model.below(path);
      for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
        auto [parent, leaf] = parent_of(fs, it->first);
        ASSERT_FALSE(it->second == "dir" ? fs.rmdir(*parent, leaf, {})
                                         : fs.unlink(*parent, leaf, {}));
        model.live.erase(it->first);
        model.dead.insert(it->first);
      }
      return;
    }
    default: {  // rename a subtree into a live directory outside it
      if (movable.empty()) return;
      const std::string& from = pick(rng, movable);
      std::vector<std::string> into;
      for (const auto& dir : dirs)
        if (dir != from && !dir.starts_with(from + "/")) into.push_back(dir);
      if (into.empty()) return;
      const std::string& dir = pick(rng, into);
      const std::string to = dir + "/" + name;
      auto have = having_dir(cluster, dir);
      std::vector<std::size_t> able;
      for (std::size_t node : current_at(cluster, model, from))
        if (std::find(have.begin(), have.end(), node) != have.end())
          able.push_back(node);
      if (able.empty()) return;
      auto& fs = *cluster.fs(pick(rng, able));
      auto [parent, leaf] = parent_of(fs, from);
      auto [to_parent, to_leaf] = parent_of(fs, to);
      ASSERT_FALSE(fs.rename(*parent, leaf, *to_parent, to_leaf, {}));
      for (const auto& [path, what] : model.below(from)) {
        model.live.erase(path);
        model.dead.insert(path);
        model.live[to + path.substr(from.size())] = what;
      }
      return;
    }
  }
}

void run_lossy_case(std::uint64_t seed) {
  SCOPED_TRACE("YANC_PROP_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 3,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  ASSERT_TRUE(cluster.fs(0)->mkdir(cluster.fs(0)->root(), ".p", 0755, {}).ok());
  scheduler.run_until_idle();
  Model model;
  model.live["/.p"] = "dir";
  drop_some(cluster, rng, 0.3);
  std::uint64_t serial = 0;
  for (int step = 0; step < 120; ++step) {
    lossy_step(cluster, model, rng, serial);
    if (rng.chance(0.05)) cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  cluster.transport().set_fault_filter(nullptr);
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  EXPECT_FALSE(model.dead.empty());
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    auto& fs = *cluster.fs(node);
    // Identical trees, each file holding its newest write...
    EXPECT_EQ(tree(fs, "/.p"), model.live) << "node " << node;
    // ...and nothing deleted came back.
    for (const auto& path : model.dead)
      EXPECT_FALSE(resolve(fs, path).ok()) << "node " << node << ": " << path;
  }
}

// Lossy 3-replica histories converge within two rounds.
TEST(AntiEntropyProperty, LossyHistoriesConvergeInTwoRounds) {
  const std::uint64_t base = prop_seed_base();
  for (std::uint64_t seed = base; seed < base + 5; ++seed)
    run_lossy_case(seed);
}

}  // namespace
}  // namespace yanc::dist
