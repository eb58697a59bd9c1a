// reactive_l2: the cbench latency-mode loop against apps::LearningSwitch.
//
// One op is a table-miss frame injected at an emulated switch, answered
// end to end: packet-in -> driver -> pkt_* dir -> LearningSwitch ->
// flows/ + packet_out/ -> driver -> FLOW_MOD + PACKET_OUT -> switch.  It
// completes when the frame has reached its destination port and the
// FLOW_MOD sits in the switch table.  Each switch has one op outstanding.
// A round asks for every destination once per switch, then advances
// virtual time past the flows' 60 s idle timeout so flow_removed -> rmdir
// deletes every flow inside the round: rounds repeat exactly.
//
// Everything runs single-threaded and pumped on virtual time, as every
// test drives the stack; only wall time is measured.
#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "yanc/apps/learning_switch.hpp"
#include "yanc/driver/of_driver.hpp"
#include "yanc/net/packet.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/sw/switch.hpp"

namespace yb {
namespace {

using namespace yanc;

struct Shape {
  std::size_t switches;
  std::uint16_t ports;
  std::size_t hosts_per_port;
  std::size_t rounds_per_block;
  std::size_t warmup_blocks;
};
constexpr Shape kFull{16, 4, 4, 4, 1};
constexpr Shape kSmoke{2, 2, 2, 1, 1};

constexpr std::size_t kFrameBytes = 64;
/// build_udp puts the UDP payload (our op tag) after 14+20+8 header bytes.
constexpr std::size_t kTagOffset = 42;
/// Tail percentile: ops advance 16 in lockstep, so a block's p99 is set
/// by its single slowest iteration; p90 still has ~100 samples beyond it.
constexpr double kTailPct = 90;
/// Pump iterations an op may take before it counts as failed (late).
constexpr std::uint64_t kLateIterations = 32;
/// Iterations after which a round is abandoned.
constexpr std::uint64_t kRoundIterationCap = 20000;
constexpr std::uint64_t kSettleCap = 5000;

struct HostAddr {
  MacAddress mac;
  Ipv4Address ip;
  std::uint16_t port;
};

/// One planned op: the frame and where it must come out.
struct Op {
  std::uint16_t in_port;
  std::uint16_t dst_port;
  MacAddress dst_mac;
  net::Frame frame;
  std::uint64_t tag;
};

struct Outstanding {
  bool active = false;
  bool delivered = false;
  bool late = false;
  std::uint64_t tag = 0;
  std::uint16_t dst_port = 0;
  MacAddress dst_mac;
  std::uint64_t start_ns = 0;
  std::uint64_t iterations = 0;
};

class Fabric;

/// The far side of a switch port: a LAN segment of hosts that only
/// records what the switch delivers to it.
class PortSink : public net::Device {
 public:
  PortSink(Fabric& fabric, std::size_t sw, std::uint16_t port)
      : net::Device("sink"), fabric_(fabric), sw_(sw), port_(port) {}
  void handle_frame(std::uint16_t, const net::Frame& frame) override;

 private:
  Fabric& fabric_;
  std::size_t sw_;
  std::uint16_t port_;
};

/// Per-round counts for the steady-state self-check.  Path lookups are
/// left out: how many a round walks depends on where the dentry cache,
/// shared by all rounds, last cleared itself.
struct RoundCounts {
  std::uint64_t audits, vfs_calls, flow_mods, packet_ins, iterations;
};

class Fabric {
 public:
  Fabric(const Shape& shape, Ledger& ledger, Outcome& result)
      : shape_(shape), ledger_(ledger), result_(result) {}

  /// Construction, handshakes and host learning, until the stack idles.
  void setup() {
    vfs_ = std::make_shared<vfs::Vfs>();
    if (!netfs::mount_yanc_fs(*vfs_)) throw std::runtime_error("mount /net");
    driver_ = std::make_unique<driver::OfDriver>(vfs_);
    app_ = std::make_unique<apps::LearningSwitch>(vfs_);
    hosts_.resize(shape_.switches);
    outstanding_.resize(shape_.switches);
    for (std::size_t s = 0; s < shape_.switches; ++s) {
      sw::SwitchOptions opts;
      opts.datapath_id = s + 1;
      // The app answers with the frame bytes, never a buffer id, so
      // switch-side buffering would only fill with frames no one
      // releases; the emulated switches run unbuffered, like cbench's.
      opts.n_buffers = 0;
      auto sw = std::make_unique<sw::Switch>("s" + std::to_string(s + 1),
                                             opts, network_);
      for (std::uint16_t p = 1; p <= shape_.ports; ++p) {
        sw->add_port(p, MacAddress::from_u64(0x020000000000ull |
                                             ((s + 1) << 8) | p),
                     "eth" + std::to_string(p));
        sinks_.push_back(std::make_unique<PortSink>(*this, s, p));
        if (!network_.add_link(*sw, p, *sinks_.back(), 0))
          throw std::runtime_error("add_link");
        for (std::size_t h = 0; h < shape_.hosts_per_port; ++h) {
          std::uint64_t id = ((s + 1) << 16) | (std::uint64_t{p} << 8) | h;
          hosts_[s].push_back(HostAddr{
              MacAddress::from_u64(0x0a0000000000ull | id),
              Ipv4Address(0x0a000000u | static_cast<std::uint32_t>(id)), p});
        }
      }
      sw->connect(driver_->listener().connect());
      switches_.push_back(std::move(sw));
    }
    poll_app();  // opens events/l2switch before any packet-in arrives
    settle();
    if (driver_->connected_switches() != shape_.switches)
      throw std::runtime_error("handshakes did not complete");
    // Host learning: every host announces itself with one broadcast.
    for (std::size_t s = 0; s < shape_.switches; ++s)
      for (const auto& h : hosts_[s])
        switches_[s]->handle_frame(
            h.port, net::build_udp(MacAddress::from_u64(0xffffffffffffull),
                                   h.mac, h.ip, Ipv4Address(0xffffffffu), 68,
                                   67, std::vector<std::uint8_t>(22, 0)));
    settle();
    if (app_->table_size() != hosts_per_switch() * shape_.switches)
      throw std::runtime_error("host learning incomplete");
    learning_ = false;
  }

  std::size_t hosts_per_switch() const {
    return shape_.ports * shape_.hosts_per_port;
  }
  std::uint64_t ops_per_round() const {
    return shape_.switches * hosts_per_switch();
  }

  /// Plans one round from `rng`: every destination once per switch in
  /// seeded order, each from a seeded source on another port.
  std::vector<std::vector<Op>> plan_round(Rng& rng) {
    std::vector<std::vector<Op>> plan(shape_.switches);
    for (std::size_t s = 0; s < shape_.switches; ++s) {
      std::vector<std::size_t> order(hosts_[s].size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      for (std::size_t d : order) {
        const HostAddr& dst = hosts_[s][d];
        const HostAddr* src;
        do {
          src = &hosts_[s][rng.below(hosts_[s].size())];
        } while (src->port == dst.port);
        std::uint64_t tag = ++next_tag_;
        std::vector<std::uint8_t> payload(kFrameBytes - kTagOffset, 0);
        std::memcpy(payload.data(), &tag, sizeof tag);
        plan[s].push_back(Op{src->port, dst.port, dst.mac,
                             net::build_udp(dst.mac, src->mac, src->ip, dst.ip,
                                            1024, 2048, payload),
                             tag});
      }
    }
    return plan;
  }

  /// Runs one planned round; latencies go to `block`.  With `verify_fs`
  /// the FS flows are compared with the tables before expiry and checked
  /// empty after it (reads the FS under test, so never in timed rounds).
  void run_round(std::vector<std::vector<Op>>& plan, std::uint32_t round_id,
                 Block* block, bool verify_fs) {
    ledger_.parent = round_id;
    std::vector<std::size_t> next(shape_.switches, 0);
    std::size_t remaining = ops_per_round();
    const std::uint64_t t0 = now_ns();
    std::uint64_t iterations = 0;
    while (remaining > 0) {
      for (std::size_t s = 0; s < shape_.switches; ++s)
        if (!outstanding_[s].active && next[s] < plan[s].size())
          inject(s, plan[s][next[s]++]);
      step();
      for (std::size_t s = 0; s < shape_.switches; ++s) {
        Outstanding& o = outstanding_[s];
        if (!o.active) continue;
        ++o.iterations;
        if (o.delivered && flow_installed(s, o)) {
          std::uint64_t done = now_ns();
          if (block)
            block->latency_us.push_back(
                static_cast<double>(done - o.start_ns) / 1e3);
          o.active = false;
          --remaining;
        } else if (o.iterations > kLateIterations && !o.late) {
          o.late = true;
          ++late_ops_;
        }
      }
      if (++iterations > kRoundIterationCap) {
        result_.wrong("round " + std::to_string(round_id) + " stalled with " +
                      std::to_string(remaining) + " ops outstanding");
        throw std::runtime_error("round stalled");
      }
    }
    // Let the stack drain before the 61 s jump, as it would within any
    // real minute: a flow-stats reply still in flight would otherwise be
    // audited against a table expired under it (see README "Findings").
    settle();
    if (verify_fs) compare_fs_with_tables(false);
    {
      Timed t(ledger_, Kind::net_run);
      scheduler_.run_for(std::chrono::seconds(61));
    }
    for (auto& sw : switches_) {
      Timed t(ledger_, Kind::sw_expire_flows);
      sw->expire_flows();
    }
    settle();
    const std::uint64_t t1 = now_ns();
    for (std::size_t s = 0; s < shape_.switches; ++s)
      if (switches_[s]->table().size() != 0)
        result_.wrong("switch " + std::to_string(s + 1) +
                      " table not empty after expiry");
    if (verify_fs) compare_fs_with_tables(true);
    if (block) {
      block->wall_s += static_cast<double>(t1 - t0) / 1e9;
      block->ops += ops_per_round();
    }
  }

  void on_delivery(std::size_t s, std::uint16_t port,
                   const net::Frame& frame) {
    if (learning_) return;  // host-learning floods reach every port
    Outstanding& o = outstanding_[s];
    std::uint64_t tag = 0;
    if (frame.size() == kFrameBytes)
      std::memcpy(&tag, frame.data() + kTagOffset, sizeof tag);
    if (!o.active || tag != o.tag || o.delivered) {
      result_.wrong("unexpected frame at switch " + std::to_string(s + 1) +
                    " port " + std::to_string(port));
      return;
    }
    if (port != o.dst_port) {
      result_.wrong("frame " + std::to_string(tag) + " left port " +
                    std::to_string(port) + ", expected " +
                    std::to_string(o.dst_port));
      return;
    }
    o.delivered = true;
  }

  StackCounters counters() const {
    StackCounters c;
    c.add(*vfs_);
    for (const auto& sw : switches_) {
      c.flow_mods += sw->flow_mods_received();
      c.packet_ins += sw->packet_ins_sent();
    }
    c.polls = iterations_;
    return c;
  }

  std::uint64_t late_ops() const { return late_ops_; }

 private:
  void poll_app() {
    Timed t(ledger_, Kind::apps_poll);
    auto n = app_->poll();
    if (!n) throw std::runtime_error("LearningSwitch::poll failed");
    work_ += *n;
  }

  /// One pump iteration, in the order the tests use.
  std::size_t step() {
    work_ = 0;
    {
      Timed t(ledger_, Kind::driver_poll);
      work_ += driver_->poll();
    }
    for (auto& sw : switches_) {
      Timed t(ledger_, Kind::sw_pump);
      work_ += sw->pump();
    }
    {
      Timed t(ledger_, Kind::net_run);
      work_ += scheduler_.run_until_idle();
    }
    poll_app();
    ++iterations_;
    return work_;
  }

  void settle() {
    for (std::uint64_t i = 0; step() != 0; ++i)
      if (i > kSettleCap) throw std::runtime_error("stack never idled");
  }

  void inject(std::size_t s, const Op& op) {
    Outstanding& o = outstanding_[s];
    o = Outstanding{true, false, false, op.tag, op.dst_port, op.dst_mac,
                    now_ns(), 0};
    std::uint32_t round = ledger_.parent;
    ledger_.parent = Ledger::kOpBit | static_cast<std::uint32_t>(op.tag);
    {
      Timed t(ledger_, Kind::sw_handle_frame);
      switches_[s]->handle_frame(op.in_port, op.frame);
    }
    ledger_.parent = round;
  }

  bool flow_installed(std::size_t s, const Outstanding& o) {
    for (const auto& e : switches_[s]->table().entries()) {
      if (e.spec.match.dl_dst != o.dst_mac) continue;
      if (e.spec.actions.size() != 1 ||
          !(e.spec.actions[0] == flow::Action::output(o.dst_port)))
        result_.wrong("flow for op " + std::to_string(o.tag) +
                      " has actions " + e.spec.to_string());
      return true;
    }
    return false;
  }

  void compare_fs_with_tables(bool expect_empty) {
    for (std::size_t s = 0; s < shape_.switches; ++s) {
      auto name = driver_->switch_name(s + 1);
      if (!name) {
        result_.wrong("switch " + std::to_string(s + 1) + " has no directory");
        continue;
      }
      std::string flows = "/net/switches/" + *name + "/flows";
      std::multiset<std::string> fs, hw;
      auto entries = vfs_->readdir(flows);
      if (!entries) {
        result_.wrong("readdir " + flows);
        continue;
      }
      for (const auto& e : *entries) {
        auto spec = netfs::read_flow(*vfs_, flows + "/" + e.name);
        if (!spec) {
          result_.wrong("read_flow " + flows + "/" + e.name);
          continue;
        }
        fs.insert(spec->to_string());
      }
      for (const auto& e : switches_[s]->table().entries())
        hw.insert(e.spec.to_string());
      if (fs != hw)
        result_.wrong("switch " + std::to_string(s + 1) +
                      ": FS flows differ from the table");
      if (expect_empty && !fs.empty())
        result_.wrong("switch " + std::to_string(s + 1) +
                      ": flows left in the FS after expiry");
      if (!expect_empty && hw.size() != hosts_per_switch())
        result_.wrong("switch " + std::to_string(s + 1) + ": " +
                      std::to_string(hw.size()) + " flows before expiry");
    }
  }

  Shape shape_;
  Ledger& ledger_;
  Outcome& result_;
  net::Scheduler scheduler_;
  net::Network network_{scheduler_};
  std::shared_ptr<vfs::Vfs> vfs_;
  std::unique_ptr<driver::OfDriver> driver_;
  std::unique_ptr<apps::LearningSwitch> app_;
  std::vector<std::unique_ptr<PortSink>> sinks_;
  std::vector<std::unique_ptr<sw::Switch>> switches_;
  std::vector<std::vector<HostAddr>> hosts_;
  std::vector<Outstanding> outstanding_;
  std::uint64_t next_tag_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t late_ops_ = 0;
  std::size_t work_ = 0;
  bool learning_ = true;
};

void PortSink::handle_frame(std::uint16_t, const net::Frame& frame) {
  fabric_.on_delivery(sw_, port_, frame);
}

/// Runs `blocks` blocks (or blocks until `seconds` elapse when blocks==0,
/// at least `min_blocks`).
std::vector<Block> measure(Fabric& fabric, const Shape& shape, Rng& rng,
                           std::uint32_t& round_id, std::size_t blocks,
                           double seconds, std::size_t min_blocks,
                           std::vector<RoundCounts>* per_round) {
  std::vector<Block> out;
  const std::uint64_t t0 = wall_ns();
  for (;;) {
    if (blocks ? out.size() >= blocks
               : (out.size() >= min_blocks &&
                  static_cast<double>(wall_ns() - t0) / 1e9 >= seconds))
      break;
    Block block;
    for (std::size_t r = 0; r < shape.rounds_per_block; ++r) {
      auto plan = fabric.plan_round(rng);
      block.probe();
      StackCounters before;
      if (per_round) before = fabric.counters();
      fabric.run_round(plan, ++round_id, &block, false);
      if (per_round) {
        StackCounters after = fabric.counters();
        per_round->push_back(RoundCounts{
            after.audits - before.audits,
            (after.vfs_total - after.vfs_lookups) -
                (before.vfs_total - before.vfs_lookups),
            after.flow_mods - before.flow_mods,
            after.packet_ins - before.packet_ins,
            after.polls - before.polls});
      }
    }
    block.probe();
    block.finish(kTailPct);
    out.push_back(std::move(block));
  }
  return out;
}

}  // namespace

Outcome run_reactive_l2(const Args& args) {
  const Shape& shape = args.smoke ? kSmoke : kFull;
  Outcome result;
  Ledger ledger;
  LayerReport report;
  const double sentinel_before = host_sentinel_ms();

  // Set up several times and keep the median: set-up is short, and one
  // sample would carry all of the host's noise.
  const int setups = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Fabric> fabric;
  for (int i = 0; i < setups; ++i) {
    fabric.reset();
    setup_s.push_back(timed_setup_s([&] {
      fabric = std::make_unique<Fabric>(shape, ledger, result);
      fabric->setup();
    }));
  }

  Rng rng(args.seed);
  std::uint32_t round_id = 0;
  // Warm-up, with one FS-checked round; discarded.
  {
    auto plan = fabric->plan_round(rng);
    fabric->run_round(plan, ++round_id, nullptr, true);
    measure(*fabric, shape, rng, round_id, shape.warmup_blocks, 0, 0,
            nullptr);
  }
  const double rss_warm = rss_mb();
  const std::uint64_t late_before = fabric->late_ops();

  Summary summary;
  std::uint64_t attempted = 0;
  if (!args.trace) {
    auto blocks = measure(*fabric, shape, rng, round_id, 0, args.seconds,
                          args.smoke ? 2 : 5, nullptr);
    summary = summarize(blocks);
    attempted = summary.ops;
  } else {
    // Fixed block counts, so every count metric repeats exactly.
    const std::size_t n = args.smoke ? 2 : 12;
    auto plain = measure(*fabric, shape, rng, round_id, n, 0, 0, nullptr);
    summary = summarize(plain);
    std::vector<RoundCounts> per_round;
    const StackCounters before = fabric->counters();
    ledger.on = true;
    alloc::enable(true);
    const alloc::Count a0 = alloc::thread_count();
    auto traced = measure(*fabric, shape, rng, round_id, n, 0, 0, &per_round);
    const alloc::Count a1 = alloc::thread_count();
    alloc::enable(false);
    ledger.on = false;
    const StackCounters after = fabric->counters();
    Summary ts = summarize(traced);
    attempted = summary.ops + ts.ops;
    double wall_ns = 0;
    for (const auto& b : traced) wall_ns += b.wall_s * 1e9;
    const double ops = static_cast<double>(ts.ops);
    auto per_op = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / ops;
    };
    ledger_metrics(report, ledger, ts.ops,
                   static_cast<std::uint64_t>(wall_ns));
    count_metrics(report, before, after, ts.ops);
    report.set("alloc.count_per_op", per_op(a0.count, a1.count));
    report.set("alloc.bytes_per_op", per_op(a0.bytes, a1.bytes));
    report.set("trace.overhead_pct",
               100.0 * (1.0 - ts.throughput_per_s / summary.throughput_per_s));
    // Steady state: every round without a driver audit has identical
    // counts; an audit adds its flow-stats reconcile to its round.
    std::set<std::vector<std::uint64_t>> plain_rounds;
    std::size_t audited = 0;
    for (const auto& c : per_round) {
      if (c.audits) {
        ++audited;
        continue;
      }
      plain_rounds.insert(
          {c.vfs_calls, c.flow_mods, c.packet_ins, c.iterations});
    }
    result.notes["rounds_with_audit"] = static_cast<double>(audited);
    result.notes["distinct_unaudited_rounds"] =
        static_cast<double>(plain_rounds.size());
    if (plain_rounds.size() > 1)
      result.wrong("unaudited measured rounds differ in their counts");
    write_spans(args.trace_out, ledger,
                ledger.spans().empty() ? 0 : ledger.spans().front().start_ns);
  }

  // Late ops of the measured rounds only: the final round is not counted
  // in `attempted` either.
  result.attempted = attempted;
  result.failed = fabric->late_ops() - late_before;
  // Final FS-checked round (untimed).
  {
    auto plan = fabric->plan_round(rng);
    fabric->run_round(plan, ++round_id, nullptr, true);
  }
  result.notes["rss_after_warmup_mb"] = rss_warm;
  finish_outcome(result, args, summary, setup_s, sentinel_before, report);
  return result;
}

}  // namespace yb
