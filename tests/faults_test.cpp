// Tests for yanc::faults: the deterministic RNG, the FaultPlan policy
// format, the injector's per-message decisions, the channel fault hook,
// the /yanc/.faults control file system, and the lossy transport glue.
#include <gtest/gtest.h>

#include "yanc/dist/transport.hpp"
#include "yanc/faults/faults_fs.hpp"
#include "yanc/faults/injector.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/util/rng.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::faults {
namespace {

// --- util::Rng -----------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  bool differed = false;
  for (int i = 0; i < 16 && !differed; ++i)
    differed = a.next_u64() != b.next_u64();
  EXPECT_TRUE(differed);
}

TEST(Rng, ReseedRestartsTheStream) {
  util::Rng rng(7);
  std::uint64_t first = rng.next_u64();
  rng.next_u64();
  rng.reseed(7);
  EXPECT_EQ(rng.next_u64(), first);
  EXPECT_EQ(rng.seed(), 7u);
}

TEST(Rng, ChanceAlwaysConsumesADraw) {
  // Two streams that roll different probabilities must stay aligned:
  // chance() burns exactly one draw whether or not it fires.
  util::Rng a(9), b(9);
  for (int i = 0; i < 100; ++i) {
    a.chance(0.0);
    b.chance(1.0);
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DoublesAreInUnitInterval) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
  EXPECT_EQ(rng.below(0), 0u);
  for (int i = 0; i < 100; ++i) ASSERT_LT(rng.below(13), 13u);
}

// --- FaultPlan -----------------------------------------------------------------

TEST(FaultPlanTest, ParseFormatRoundTrips) {
  auto plan = FaultPlan::parse("drop=0.05 duplicate=0.01 delay_msgs=4");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->drop, 0.05);
  EXPECT_DOUBLE_EQ(plan->duplicate, 0.01);
  EXPECT_EQ(plan->delay_msgs, 4u);
  auto again = FaultPlan::parse(plan->format());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *plan);
}

TEST(FaultPlanTest, OffAndEmptyClear) {
  for (const char* text : {"off", "clear", "", "   "}) {
    auto plan = FaultPlan::parse(text);
    ASSERT_TRUE(plan.ok()) << "'" << text << "'";
    EXPECT_FALSE(plan->any()) << "'" << text << "'";
  }
  auto dup = FaultPlan::parse("dup=0.5");  // alias
  ASSERT_TRUE(dup.ok());
  EXPECT_DOUBLE_EQ(dup->duplicate, 0.5);
}

TEST(FaultPlanTest, StrictRejections) {
  EXPECT_FALSE(FaultPlan::parse("bogus=1").ok());
  EXPECT_FALSE(FaultPlan::parse("drop=1.5").ok());
  EXPECT_FALSE(FaultPlan::parse("drop=-0.1").ok());
  EXPECT_FALSE(FaultPlan::parse("drop=nan").ok());
  EXPECT_FALSE(FaultPlan::parse("drop").ok());
  EXPECT_FALSE(FaultPlan::parse("delay_msgs=0").ok());
  EXPECT_FALSE(FaultPlan::parse("delay_msgs=9999").ok());
}

TEST(FaultPlanTest, PartitionGrammar) {
  auto plan = FaultPlan::parse("partition=1->2 partition=0<->2");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->any());
  ASSERT_EQ(plan->partitions.size(), 3u);  // 1->2, 0->2, 2->0
  EXPECT_TRUE(plan->is_partitioned(1, 2));
  EXPECT_FALSE(plan->is_partitioned(2, 1));  // asymmetric cut
  EXPECT_TRUE(plan->is_partitioned(0, 2));
  EXPECT_TRUE(plan->is_partitioned(2, 0));
  EXPECT_FALSE(plan->is_partitioned(0, 1));
  auto again = FaultPlan::parse(plan->format());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *plan);
  // Duplicate edges collapse; "off" clears partitions like everything else.
  auto dup = FaultPlan::parse("partition=1->2 partition=1<->2");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->partitions.size(), 2u);
  EXPECT_FALSE(FaultPlan::parse("off")->any());
}

TEST(FaultPlanTest, PartitionRejections) {
  EXPECT_FALSE(FaultPlan::parse("partition=1->1").ok());  // self-cut
  EXPECT_FALSE(FaultPlan::parse("partition=1").ok());
  EXPECT_FALSE(FaultPlan::parse("partition=a->b").ok());
  EXPECT_FALSE(FaultPlan::parse("partition=1->").ok());
  EXPECT_FALSE(FaultPlan::parse("partition=->2").ok());
}

// --- Injector ------------------------------------------------------------------

TEST(InjectorTest, QuietPlanTouchesNothing) {
  Injector inj(5);
  std::vector<std::uint8_t> msg{1, 2, 3};
  for (int i = 0; i < 100; ++i) {
    auto fate = inj.decide(Scope::channel, msg);
    ASSERT_TRUE(fate.has_value());
    EXPECT_FALSE(fate->drop || fate->duplicate || fate->reorder ||
                 fate->delay);
  }
  EXPECT_EQ(msg, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(InjectorTest, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    Injector inj(seed);
    FaultPlan plan;
    plan.drop = 0.3;
    plan.duplicate = 0.2;
    plan.reorder = 0.1;
    inj.set_plan(Scope::channel, plan);
    std::string trace;
    std::vector<std::uint8_t> msg{0};
    for (int i = 0; i < 200; ++i) {
      auto fate = inj.decide(Scope::channel, msg);
      if (!fate) {
        trace += 'X';
        continue;
      }
      trace += fate->drop ? 'd' : fate->duplicate ? '2'
                                : fate->reorder  ? 'r'
                                                 : '.';
    }
    return trace;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(InjectorTest, ScopesHaveIndependentPlans) {
  Injector inj(1);
  FaultPlan lossy;
  lossy.drop = 1.0;
  inj.set_plan(Scope::transport, lossy);
  std::vector<std::uint8_t> msg{0};
  auto channel_fate = inj.decide(Scope::channel, msg);
  ASSERT_TRUE(channel_fate.has_value());
  EXPECT_FALSE(channel_fate->drop);  // channel plan still quiet
  auto transport_fate = inj.decide(Scope::transport, msg);
  ASSERT_TRUE(transport_fate.has_value());
  EXPECT_TRUE(transport_fate->drop);
}

TEST(InjectorTest, CorruptFlipsExactlyOneBitInPlace) {
  Injector inj(1);
  FaultPlan plan;
  plan.corrupt = 1.0;
  inj.set_plan(Scope::channel, plan);
  std::vector<std::uint8_t> msg{0xaa, 0xbb, 0xcc};
  auto original = msg;
  auto fate = inj.decide(Scope::channel, msg);
  ASSERT_TRUE(fate.has_value());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < msg.size(); ++i)
    flipped_bits += __builtin_popcount(msg[i] ^ original[i]);
  EXPECT_EQ(flipped_bits, 1);
}

TEST(InjectorTest, DisconnectSeversAndCounts) {
  Injector inj(1);
  obs::Registry reg;
  inj.bind_metrics(reg);
  FaultPlan plan;
  plan.disconnect = 1.0;
  inj.set_plan(Scope::channel, plan);
  std::vector<std::uint8_t> msg{0};
  EXPECT_FALSE(inj.decide(Scope::channel, msg).has_value());
  EXPECT_EQ(reg.counter("faults/disconnect_total")->value(), 1u);
}

// --- the channel hook ----------------------------------------------------------

std::pair<net::Channel, net::Channel> hooked_pair(
    std::shared_ptr<Injector> inj) {
  auto [a, b] = net::Channel::make_pair();
  a.set_fault_hook(channel_hook_factory(std::move(inj))());
  return {std::move(a), std::move(b)};
}

TEST(ChannelFaultsTest, DropVanishesSilently) {
  auto inj = std::make_shared<Injector>(1);
  FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(Scope::channel, plan);
  auto [a, b] = hooked_pair(inj);
  EXPECT_TRUE(a.send({1}));  // send "succeeds": losses are silent
  EXPECT_FALSE(b.try_recv().has_value());
  EXPECT_TRUE(a.connected());
}

TEST(ChannelFaultsTest, DuplicateDeliversTwice) {
  auto inj = std::make_shared<Injector>(1);
  FaultPlan plan;
  plan.duplicate = 1.0;
  inj->set_plan(Scope::channel, plan);
  auto [a, b] = hooked_pair(inj);
  ASSERT_TRUE(a.send({7}));
  ASSERT_TRUE(b.try_recv().has_value());
  auto second = b.try_recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 7);
}

TEST(ChannelFaultsTest, ReorderSwapsWithPreviousMessage) {
  auto inj = std::make_shared<Injector>(1);
  FaultPlan plan;
  plan.reorder = 1.0;
  inj->set_plan(Scope::channel, plan);
  auto [a, b] = hooked_pair(inj);
  ASSERT_TRUE(a.send({1}));
  ASSERT_TRUE(a.send({2}));  // rolled reorder: inserted before {1}
  auto first = b.try_recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 2);
}

TEST(ChannelFaultsTest, DisconnectSeversTheChannel) {
  auto inj = std::make_shared<Injector>(1);
  FaultPlan plan;
  plan.disconnect = 1.0;
  inj->set_plan(Scope::channel, plan);
  auto [a, b] = hooked_pair(inj);
  EXPECT_FALSE(a.send({1}));
  EXPECT_FALSE(a.connected());
  EXPECT_FALSE(b.connected());
}

TEST(ChannelFaultsTest, DelayedMessageEventuallyArrives) {
  auto inj = std::make_shared<Injector>(1);
  FaultPlan plan;
  plan.delay = 1.0;
  plan.delay_msgs = 2;
  inj->set_plan(Scope::channel, plan);
  auto [a, b] = hooked_pair(inj);
  ASSERT_TRUE(a.send({1}));  // held back
  // Nothing else in flight: the receiver must still get it eventually
  // (the hook flushes stashed messages rather than starving the reader).
  std::optional<net::Message> got;
  for (int i = 0; i < 10 && !got; ++i) got = b.try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 1);
}

TEST(ChannelFaultsTest, HookDeterminismAcrossPairs) {
  auto run = [](std::uint64_t seed) {
    auto inj = std::make_shared<Injector>(seed);
    FaultPlan plan;
    plan.drop = 0.4;
    plan.duplicate = 0.2;
    inj->set_plan(Scope::channel, plan);
    auto [a, b] = net::Channel::make_pair();
    a.set_fault_hook(channel_hook_factory(inj)());
    std::size_t received = 0;
    for (std::uint8_t i = 0; i < 100; ++i) {
      (void)a.send({i});
      while (b.try_recv()) ++received;
    }
    return received;
  };
  EXPECT_EQ(run(77), run(77));
}

// --- FaultsFs ------------------------------------------------------------------

class FaultsFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    injector = std::make_shared<Injector>(1);
    auto mounted = mount_faults_fs(*vfs, injector);
    ASSERT_TRUE(mounted.ok());
  }

  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
  std::shared_ptr<Injector> injector;
};

TEST_F(FaultsFsTest, TreeLayout) {
  auto names = vfs->readdir("/yanc/.faults");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 3u);
  EXPECT_EQ((*names)[0].name, "channel");
  EXPECT_EQ((*names)[1].name, "seed");
  EXPECT_EQ((*names)[2].name, "transport");
  EXPECT_TRUE(vfs->stat("/yanc/.faults/channel/policy").ok());
  EXPECT_TRUE(vfs->stat("/yanc/.faults/transport/policy").ok());
}

TEST_F(FaultsFsTest, PolicyWriteTakesEffect) {
  ASSERT_FALSE(
      vfs->write_file("/yanc/.faults/channel/policy", "drop=0.25"));
  EXPECT_DOUBLE_EQ(injector->plan(Scope::channel).drop, 0.25);
  EXPECT_DOUBLE_EQ(injector->plan(Scope::transport).drop, 0.0);
  // cat shows the canonical live plan.
  auto text = vfs->read_file("/yanc/.faults/channel/policy");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("drop=0.25"), std::string::npos);
}

TEST_F(FaultsFsTest, InvalidPolicyRejectedOldPlanSurvives) {
  ASSERT_FALSE(
      vfs->write_file("/yanc/.faults/channel/policy", "drop=0.25"));
  auto ec = vfs->write_file("/yanc/.faults/channel/policy", "drop=7");
  EXPECT_EQ(ec, make_error_code(Errc::invalid_argument));
  EXPECT_DOUBLE_EQ(injector->plan(Scope::channel).drop, 0.25);
}

TEST_F(FaultsFsTest, SeedWriteReseeds) {
  ASSERT_FALSE(vfs->write_file("/yanc/.faults/seed", "99"));
  EXPECT_EQ(injector->seed(), 99u);
  auto text = vfs->read_file("/yanc/.faults/seed");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "99\n");
  EXPECT_TRUE(vfs->write_file("/yanc/.faults/seed", "not-a-number"));
}

TEST_F(FaultsFsTest, WatchSeesAcceptedWritesOnly) {
  auto queue = std::make_shared<vfs::WatchQueue>();
  auto watch = vfs->watch("/yanc/.faults/channel/policy",
                          vfs::event::modified, queue);
  ASSERT_TRUE(watch.ok());
  ASSERT_FALSE(
      vfs->write_file("/yanc/.faults/channel/policy", "drop=0.25"));
  auto events = queue->drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].is(vfs::event::modified));
  // A rejected policy changed nothing, so nothing is announced.
  EXPECT_TRUE(vfs->write_file("/yanc/.faults/channel/policy", "drop=7"));
  EXPECT_TRUE(queue->drain().empty());
}

TEST_F(FaultsFsTest, TreeIsImmutable) {
  EXPECT_TRUE(vfs->mkdir("/yanc/.faults/extra"));
  EXPECT_TRUE(vfs->rmdir("/yanc/.faults/channel"));
}

// --- lossy transport -----------------------------------------------------------

TEST(TransportFaults, DropFilterLosesMessages) {
  net::Scheduler scheduler;
  dist::Transport transport(scheduler, {});
  std::size_t received = 0;
  auto a = transport.join([&](auto, const auto&) { ++received; });
  auto b = transport.join([&](auto, const auto&) {});
  auto inj = std::make_shared<Injector>(1);
  FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(Scope::transport, plan);
  dist::attach_faults(transport, inj);
  // All ten are eaten by the drop filter: send reports the loss.
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(transport.send(b, a, {1}));
  scheduler.run_until_idle();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(transport.messages_dropped(), 10u);

  // Healing: remove the filter, traffic flows again.
  dist::attach_faults(transport, nullptr);
  EXPECT_TRUE(transport.send(b, a, {1}));
  scheduler.run_until_idle();
  EXPECT_EQ(received, 1u);
}

TEST(TransportFaults, PlannedPartitionEatsDirectedTraffic) {
  net::Scheduler scheduler;
  dist::Transport transport(scheduler, {});
  std::size_t at_a = 0, at_b = 0;
  auto a = transport.join([&](auto, const auto&) { ++at_a; });
  auto b = transport.join([&](auto, const auto&) { ++at_b; });
  auto inj = std::make_shared<Injector>(1);
  auto plan = FaultPlan::parse("partition=0->1");
  ASSERT_TRUE(plan.ok());
  inj->set_plan(Scope::transport, *plan);
  dist::attach_faults(transport, inj);
  // a->b is cut hard (eaten, not queued); b->a stays alive.
  EXPECT_FALSE(transport.send(a, b, {1}));
  EXPECT_TRUE(transport.send(b, a, {2}));
  scheduler.run_until_idle();
  EXPECT_EQ(at_b, 0u);
  EXPECT_EQ(at_a, 1u);
  EXPECT_EQ(transport.messages_dropped(), 1u);
  // Clearing the plan heals the link.
  inj->set_plan(Scope::transport, {});
  EXPECT_TRUE(transport.send(a, b, {3}));
  scheduler.run_until_idle();
  EXPECT_EQ(at_b, 1u);
}

TEST(TransportFaults, DuplicateDeliversTwice) {
  net::Scheduler scheduler;
  dist::Transport transport(scheduler, {});
  std::size_t received = 0;
  auto a = transport.join([&](auto, const auto&) { ++received; });
  auto b = transport.join([&](auto, const auto&) {});
  auto inj = std::make_shared<Injector>(1);
  FaultPlan plan;
  plan.duplicate = 1.0;
  inj->set_plan(Scope::transport, plan);
  dist::attach_faults(transport, inj);
  EXPECT_TRUE(transport.send(b, a, {1}));
  scheduler.run_until_idle();
  EXPECT_EQ(received, 2u);
}

}  // namespace
}  // namespace yanc::faults
