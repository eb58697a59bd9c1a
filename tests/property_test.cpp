// Property-based tests: randomized (seeded, reproducible) sweeps over the
// core invariants that unit tests can only spot-check.
//
//   * Match algebra: intersection commutes, is subsumed by both operands,
//     and agrees with packet-level evaluation.
//   * Wire codecs: encode(decode(x)) == x for random FlowSpecs, both
//     OpenFlow versions.
//   * flowio: write_flow/read_flow round-trips random specs through a real
//     yanc FS.
//   * FlowTable: behaves identically to a naive reference model under
//     random add/remove/lookup sequences.
//   * VFS: a random tree built with mkdir_p/write_file is fully reclaimed
//     by remove_all (no inode or byte leaks).
//   * ReplicatedYancFs: two eventually-consistent replicas converge to
//     identical trees after random concurrent ops and partitions.
#include <gtest/gtest.h>

#include <random>

#include "yanc/dist/replicated.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/net/packet.hpp"
#include "yanc/ofp/codec.hpp"
#include "yanc/sw/flow_table.hpp"
#include "yanc/util/strings.hpp"

namespace yanc {
namespace {

using flow::Action;
using flow::ActionKind;
using flow::FieldValues;
using flow::FlowSpec;
using flow::Match;

// --- generators -----------------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint32_t seed) : gen_(seed) {}
  std::uint32_t u32(std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(gen_);
  }
  bool chance(double p) {
    return std::uniform_real_distribution<>(0, 1)(gen_) < p;
  }

  Match match() {
    Match m;
    if (chance(0.3)) m.in_port = static_cast<std::uint16_t>(u32(1, 8));
    if (chance(0.3)) m.dl_src = MacAddress::from_u64(u32(1, 4));
    if (chance(0.3)) m.dl_dst = MacAddress::from_u64(u32(1, 4));
    if (chance(0.4))
      m.dl_type = chance(0.5) ? 0x0800 : 0x0806;
    if (chance(0.2)) m.dl_vlan = static_cast<std::uint16_t>(u32(1, 100));
    if (chance(0.3)) {
      int prefix = static_cast<int>(u32(8, 32));
      m.nw_src = Cidr(Ipv4Address(0x0a000000u | u32(0, 0xffff)), prefix);
    }
    if (chance(0.3)) {
      int prefix = static_cast<int>(u32(8, 32));
      m.nw_dst = Cidr(Ipv4Address(0x0a000000u | u32(0, 0xffff)), prefix);
    }
    if (chance(0.3)) m.nw_proto = chance(0.5) ? 6 : 17;
    if (chance(0.2)) m.nw_tos = static_cast<std::uint8_t>(u32(0, 63) << 2);
    if (chance(0.3)) m.tp_src = static_cast<std::uint16_t>(u32(1, 1024));
    if (chance(0.3)) m.tp_dst = static_cast<std::uint16_t>(u32(1, 1024));
    return m;
  }

  FieldValues packet() {
    FieldValues f;
    f.in_port = static_cast<std::uint16_t>(u32(1, 8));
    f.dl_src = MacAddress::from_u64(u32(1, 4));
    f.dl_dst = MacAddress::from_u64(u32(1, 4));
    f.dl_type = chance(0.5) ? 0x0800 : 0x0806;
    f.dl_vlan = chance(0.8) ? 0xffff : static_cast<std::uint16_t>(u32(1, 100));
    f.nw_src = Ipv4Address(0x0a000000u | u32(0, 0xffff));
    f.nw_dst = Ipv4Address(0x0a000000u | u32(0, 0xffff));
    f.nw_proto = chance(0.5) ? 6 : 17;
    f.nw_tos = static_cast<std::uint8_t>(u32(0, 63) << 2);
    f.tp_src = static_cast<std::uint16_t>(u32(1, 1024));
    f.tp_dst = static_cast<std::uint16_t>(u32(1, 1024));
    return f;
  }

  std::vector<Action> actions() {
    std::vector<Action> out;
    if (chance(0.1)) return out;  // drop
    if (chance(0.3))
      out.push_back(Action{ActionKind::set_dl_dst,
                           MacAddress::from_u64(u32(1, 99))});
    if (chance(0.2))
      out.push_back(Action{ActionKind::set_nw_src,
                           Ipv4Address(0x0a000000u | u32(0, 255))});
    if (chance(0.2))
      out.push_back(Action{ActionKind::set_tp_dst,
                           static_cast<std::uint16_t>(u32(1, 60000))});
    out.push_back(Action::output(static_cast<std::uint16_t>(u32(1, 8))));
    if (chance(0.3))
      out.push_back(Action::output(static_cast<std::uint16_t>(u32(1, 8))));
    return out;
  }

  FlowSpec spec(bool of13_features) {
    FlowSpec s;
    s.match = match();
    s.actions = actions();
    s.priority = static_cast<std::uint16_t>(u32(0, 0xffff));
    s.idle_timeout = static_cast<std::uint16_t>(u32(0, 300));
    s.hard_timeout = static_cast<std::uint16_t>(u32(0, 300));
    s.cookie = u32(0, 0xffffffff);
    if (of13_features) {
      s.table_id = static_cast<std::uint8_t>(u32(0, 3));
      if (chance(0.3))
        s.goto_table = static_cast<int>(u32(s.table_id + 1, 7));
    }
    return s;
  }

 private:
  std::mt19937 gen_;
};

// --- match algebra ------------------------------------------------------------

class MatchProperty : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MatchProperty, ::testing::Range(1u, 21u));

TEST_P(MatchProperty, IntersectionCommutesAndIsSubsumed) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Match a = rng.match();
    Match b = rng.match();
    auto ab = a.intersect(b);
    auto ba = b.intersect(a);
    ASSERT_EQ(ab.has_value(), ba.has_value());
    if (!ab) continue;
    EXPECT_EQ(*ab, *ba);
    // Both operands subsume the intersection.
    EXPECT_TRUE(a.subsumes(*ab)) << a.to_string() << " !>= "
                                 << ab->to_string();
    EXPECT_TRUE(b.subsumes(*ab));
  }
}

TEST_P(MatchProperty, MatchAllIsIdentity) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    Match m = rng.match();
    auto i = m.intersect(Match{});
    ASSERT_TRUE(i.has_value());
    EXPECT_EQ(*i, m);
    EXPECT_TRUE(Match{}.subsumes(m));
  }
}

TEST_P(MatchProperty, IntersectionAgreesWithEvaluation) {
  Rng rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    Match a = rng.match();
    Match b = rng.match();
    FieldValues pkt = rng.packet();
    bool both = a.matches(pkt) && b.matches(pkt);
    auto i = a.intersect(b);
    if (both) {
      // A packet matching both must match the (necessarily nonempty)
      // intersection.
      ASSERT_TRUE(i.has_value());
      EXPECT_TRUE(i->matches(pkt));
    } else if (i) {
      EXPECT_FALSE(i->matches(pkt));
    }
  }
}

TEST_P(MatchProperty, SubsumptionIsEvaluationContainment) {
  Rng rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    Match wide = rng.match();
    Match narrow = rng.match();
    if (!wide.subsumes(narrow)) continue;
    FieldValues pkt = rng.packet();
    if (narrow.matches(pkt)) {
      EXPECT_TRUE(wide.matches(pkt))
          << wide.to_string() << " should contain " << narrow.to_string();
    }
  }
}

// --- codec round trips -----------------------------------------------------------

class CodecProperty : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Range(1u, 11u));

TEST_P(CodecProperty, FlowModRoundTripsBothVersions) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    for (auto version : {ofp::Version::of10, ofp::Version::of13}) {
      bool of13 = version == ofp::Version::of13;
      ofp::FlowMod fm;
      fm.spec = rng.spec(of13);
      auto bytes = ofp::encode(version, 1, fm);
      ASSERT_TRUE(bytes.ok()) << fm.spec.to_string();
      auto decoded = ofp::decode(*bytes);
      ASSERT_TRUE(decoded.ok());
      auto& got = std::get<ofp::FlowMod>(decoded->message);
      EXPECT_EQ(got.spec.match, fm.spec.match);
      EXPECT_EQ(got.spec.actions, fm.spec.actions);
      EXPECT_EQ(got.spec.priority, fm.spec.priority);
      EXPECT_EQ(got.spec.cookie, fm.spec.cookie);
      if (of13) {
        EXPECT_EQ(got.spec.table_id, fm.spec.table_id);
        EXPECT_EQ(got.spec.goto_table, fm.spec.goto_table);
      }
    }
  }
}

TEST_P(CodecProperty, TruncationNeverCrashes) {
  // Every truncation of a valid message must decode to an error, never
  // crash or read out of bounds.
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    ofp::FlowMod fm;
    fm.spec = rng.spec(true);
    auto bytes = ofp::encode(ofp::Version::of13, 1, fm);
    ASSERT_TRUE(bytes.ok());
    for (std::size_t len = 0; len < bytes->size(); ++len) {
      std::vector<std::uint8_t> cut(bytes->begin(),
                                    bytes->begin() + static_cast<long>(len));
      if (len >= 4) {  // keep the claimed length honest
        cut[2] = static_cast<std::uint8_t>(len >> 8);
        cut[3] = static_cast<std::uint8_t>(len);
      }
      auto result = ofp::decode(cut);
      // Any outcome is fine; it must simply not crash or over-read.
      (void)result.ok();
    }
  }
}

TEST_P(CodecProperty, PacketParserSurvivesRandomBytes) {
  // parse_frame / parse_lldp must never crash or over-read, whatever the
  // wire carries.
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 2000; ++round) {
    net::Frame frame(rng.u32(0, 128));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.u32(0, 255));
    auto parsed = net::parse_frame(frame);
    (void)parsed.ok();
    auto lldp = net::parse_lldp(frame);
    (void)lldp.ok();
  }
}

TEST_P(CodecProperty, PacketBuildParseRoundTrip) {
  Rng rng(GetParam() + 2000);
  for (int round = 0; round < 300; ++round) {
    auto src = MacAddress::from_u64(rng.u32(1, 0xffffff));
    auto dst = MacAddress::from_u64(rng.u32(1, 0xffffff));
    Ipv4Address sip(rng.u32(1, 0xffffffff));
    Ipv4Address dip(rng.u32(1, 0xffffffff));
    std::uint16_t sport = static_cast<std::uint16_t>(rng.u32(1, 0xffff));
    std::uint16_t dport = static_cast<std::uint16_t>(rng.u32(1, 0xffff));
    std::vector<std::uint8_t> payload(rng.u32(0, 64));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.u32(0, 255));

    bool udp = rng.chance(0.5);
    auto frame = udp ? net::build_udp(dst, src, sip, dip, sport, dport,
                                      payload)
                     : net::build_tcp(dst, src, sip, dip, sport, dport,
                                      payload);
    auto parsed = net::parse_frame(frame);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->dl_src, src);
    EXPECT_EQ(parsed->dl_dst, dst);
    ASSERT_TRUE(parsed->ipv4.has_value());
    EXPECT_EQ(parsed->ipv4->src, sip);
    EXPECT_EQ(parsed->ipv4->dst, dip);
    ASSERT_TRUE(parsed->l4.has_value());
    EXPECT_EQ(parsed->l4->src_port, sport);
    EXPECT_EQ(parsed->l4->dst_port, dport);
    EXPECT_EQ(parsed->l4_payload, payload);
    // And survives a VLAN tag round trip.
    EXPECT_EQ(net::without_vlan_tag(net::with_vlan_tag(frame, 5, 1)), frame);
  }
}

// --- flowio round trips --------------------------------------------------------

class FlowIoProperty : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FlowIoProperty, ::testing::Range(1u, 6u));

TEST_P(FlowIoProperty, WriteReadRoundTripsRandomSpecs) {
  Rng rng(GetParam());
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  for (int round = 0; round < 100; ++round) {
    FlowSpec spec = rng.spec(true);
    const std::string dir = "/net/switches/sw1/flows/f";
    ASSERT_FALSE(netfs::write_flow(*vfs, dir, spec));
    auto got = netfs::read_flow(*vfs, dir);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->match, spec.match);
    EXPECT_EQ(got->actions, spec.actions);
    EXPECT_EQ(got->priority, spec.priority);
    EXPECT_EQ(got->idle_timeout, spec.idle_timeout);
    EXPECT_EQ(got->hard_timeout, spec.hard_timeout);
    EXPECT_EQ(got->cookie, spec.cookie);
    EXPECT_EQ(got->table_id, spec.table_id);
    EXPECT_EQ(got->goto_table, spec.goto_table);
    ASSERT_FALSE(vfs->rmdir(dir));
  }
}

// --- FlowTable vs reference model -------------------------------------------------

// The reference: a plain list, scanned by (priority desc, insertion order).
struct ReferenceTable {
  struct Entry {
    FlowSpec spec;
    std::uint64_t seq;
  };
  std::vector<Entry> entries;
  std::uint64_t next_seq = 0;

  void add(const FlowSpec& spec) {
    for (auto& e : entries) {
      if (e.spec.priority == spec.priority && e.spec.match == spec.match) {
        std::uint64_t seq = e.seq;
        e = Entry{spec, seq};
        return;
      }
    }
    entries.push_back(Entry{spec, next_seq++});
  }
  void remove(const Match& match, std::uint16_t priority, bool strict) {
    std::erase_if(entries, [&](const Entry& e) {
      return strict ? (e.spec.match == match && e.spec.priority == priority)
                    : match.subsumes(e.spec.match);
    });
  }
  const FlowSpec* lookup(const FieldValues& pkt) const {
    const Entry* best = nullptr;
    for (const auto& e : entries) {
      if (!e.spec.match.matches(pkt)) continue;
      if (!best || e.spec.priority > best->spec.priority ||
          (e.spec.priority == best->spec.priority && e.seq < best->seq))
        best = &e;
    }
    return best ? &best->spec : nullptr;
  }
};

class FlowTableProperty : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableProperty, ::testing::Range(1u, 11u));

TEST_P(FlowTableProperty, AgreesWithReferenceModel) {
  Rng rng(GetParam());
  sw::FlowTable table;
  ReferenceTable reference;
  for (int op = 0; op < 500; ++op) {
    double dice = rng.chance(0.5) ? 0.0 : 1.0;
    if (op % 5 == 4) {
      Match m = rng.match();
      bool strict = dice == 0.0;
      std::uint16_t priority = static_cast<std::uint16_t>(rng.u32(0, 3));
      table.remove(m, priority, strict);
      reference.remove(m, priority, strict);
    } else {
      FlowSpec spec = rng.spec(false);
      spec.priority = static_cast<std::uint16_t>(rng.u32(0, 3));
      spec.idle_timeout = spec.hard_timeout = 0;  // no expiry here
      table.add(spec, 0, 0);
      reference.add(spec);
    }
    ASSERT_EQ(table.size(), reference.entries.size()) << "op " << op;
    // Probe with random packets.
    for (int probe = 0; probe < 5; ++probe) {
      FieldValues pkt = rng.packet();
      const auto* got = table.lookup(pkt, 0, 64, false);
      const auto* want = reference.lookup(pkt);
      ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
      if (got) {
        EXPECT_EQ(got->spec.priority, want->priority);
        EXPECT_EQ(got->spec.match, want->match);
      }
    }
  }
}

// --- VFS tree reclamation ----------------------------------------------------------

class VfsTreeProperty : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, VfsTreeProperty, ::testing::Range(1u, 6u));

TEST_P(VfsTreeProperty, RandomTreeIsFullyReclaimed) {
  Rng rng(GetParam());
  auto fs = std::make_shared<vfs::MemFs>();
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(vfs->mkdir("/root"));
  ASSERT_FALSE(vfs->mount("/root", fs));
  std::size_t baseline_inodes = fs->inode_count();

  std::vector<std::string> dirs{"/root"};
  for (int op = 0; op < 300; ++op) {
    const std::string& parent = dirs[rng.u32(0, static_cast<std::uint32_t>(
                                                    dirs.size() - 1))];
    std::string name = numbered("n", op);
    if (rng.chance(0.4)) {
      ASSERT_FALSE(vfs->mkdir(parent + "/" + name));
      dirs.push_back(parent + "/" + name);
    } else if (rng.chance(0.8)) {
      std::string content(rng.u32(0, 64), 'x');
      ASSERT_FALSE(vfs->write_file(parent + "/" + name, content));
    } else {
      ASSERT_FALSE(vfs->symlink("/root", parent + "/" + name));
    }
  }
  ASSERT_GT(fs->inode_count(), baseline_inodes);
  // Tear down everything under /root (but not /root itself: mount point).
  auto entries = vfs->readdir("/root");
  ASSERT_TRUE(entries.ok());
  for (const auto& e : *entries)
    ASSERT_FALSE(vfs->remove_all("/root/" + e.name));
  EXPECT_EQ(fs->inode_count(), baseline_inodes);
  EXPECT_EQ(fs->bytes_used(), 0u);
}

// --- replicated convergence ----------------------------------------------------------

namespace {

// Canonical serialization of a whole filesystem tree (names, types,
// contents, symlink targets), for replica equality checks.
std::string serialize_tree(vfs::Filesystem& fs, vfs::NodeId node) {
  auto st = fs.getattr(node);
  if (!st) return "?";
  if (st->is_symlink()) return "l:" + *fs.readlink(node);
  if (st->is_file()) {
    auto data = fs.read(node, 0, 1 << 20, {});
    return "f:" + (data ? *data : "?");
  }
  std::string out = "d{";
  auto entries = fs.readdir(node);
  if (entries) {
    for (const auto& e : *entries) {
      out += e.name + "=";
      out += serialize_tree(fs, e.node);
      out += ";";
    }
  }
  return out + "}";
}

}  // namespace

class ConvergenceProperty : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceProperty,
                         ::testing::Range(1u, 6u));

TEST_P(ConvergenceProperty, EventualReplicasConverge) {
  Rng rng(GetParam());
  net::Scheduler scheduler;
  dist::Cluster cluster(
      scheduler,
      dist::ClusterOptions{.nodes = 2,
                           .link_latency = std::chrono::microseconds(50),
                           .default_mode = dist::Mode::eventual});
  std::vector<std::shared_ptr<vfs::Vfs>> nodes;
  for (std::size_t n = 0; n < 2; ++n) {
    auto v = std::make_shared<vfs::Vfs>();
    (void)v->mkdir("/net");
    (void)v->mount("/net", cluster.fs(n));
    nodes.push_back(v);
  }

  bool partitioned = false;
  for (int op = 0; op < 200; ++op) {
    auto& v = *nodes[rng.u32(0, 1)];
    switch (rng.u32(0, 4)) {
      case 0:
        (void)v.mkdir("/net/switches/sw" + std::to_string(rng.u32(0, 9)));
        break;
      case 1: {
        std::string sw = "sw" + std::to_string(rng.u32(0, 9));
        (void)v.mkdir("/net/switches/" + sw + "/flows/f" +
                      std::to_string(rng.u32(0, 4)));
        break;
      }
      case 2: {
        std::string path = "/net/switches/sw" +
                           std::to_string(rng.u32(0, 9)) + "/id";
        (void)v.write_file(path, "0x" + std::to_string(rng.u32(1, 999)));
        break;
      }
      case 3:
        (void)v.rmdir("/net/switches/sw" + std::to_string(rng.u32(0, 9)));
        break;
      case 4:
        if (!partitioned && rng.chance(0.3)) {
          cluster.partition(0, 1);
          partitioned = true;
        } else if (partitioned) {
          cluster.heal(0, 1);
          partitioned = false;
        }
        break;
    }
    if (rng.chance(0.2)) scheduler.run_until_idle();
  }
  if (partitioned) cluster.heal(0, 1);
  scheduler.run_until_idle();

  std::string tree0 = serialize_tree(*cluster.fs(0), cluster.fs(0)->root());
  std::string tree1 = serialize_tree(*cluster.fs(1), cluster.fs(1)->root());
  EXPECT_EQ(tree0, tree1) << "replicas diverged (seed " << GetParam() << ")";
}

}  // namespace
}  // namespace yanc
