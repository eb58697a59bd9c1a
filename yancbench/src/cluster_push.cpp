// cluster_push: burst flow commits into a 3-node cluster::Harness, with a
// failover under load every fourth round.
//
// One op is a flow create, in-place modify (version bump) or delete,
// written through a replica, until the owner's switch table reflects it.
// Each round writes one burst per switch through a live node picked
// round-robin, so most commits cross dist before the owner's driver sees
// them.  Every fourth round, right after its writes are acknowledged, the
// node owning the most shards is killed; the stack is pumped until every
// shard has one owner and every table matches, then the node is revived.
//
// The loop mirrors Harness::tick() with each public call timed on its
// own; failover phases call Harness::tick() itself (its owner re-dial is
// reachable no other way) and time it as one cluster.round span.
#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common.hpp"
#include "yanc/cluster/harness.hpp"
#include "yanc/netfs/flowio.hpp"

namespace yb {
namespace {

using namespace yanc;

struct Shape {
  std::size_t nodes;
  std::size_t switches;
  std::size_t preload;  // flows per switch
  std::size_t creates, modifies, deletes;  // one burst per switch
  std::size_t rounds_per_cycle;  // the last round of a cycle fails over
  std::size_t warmup_rounds;     // per epoch, without failover
};
constexpr Shape kFull{3, 6, 128, 5, 6, 5, 4, 2};
constexpr Shape kSmoke{3, 2, 8, 1, 2, 1, 4, 2};

/// Tail percentile: the ops a failover delays are 8-12% of a cycle, so
/// p95 sits inside them with ~19 samples beyond it.
constexpr double kTailPct = 95;
/// Pump steps an op may take before it counts as failed (late).
constexpr std::uint64_t kLateSteps = 64;
constexpr std::uint64_t kStepCap = 4000;

enum class OpKind : std::uint8_t { create, modify, remove };

struct Op {
  OpKind kind;
  std::uint64_t dpid;
  std::uint32_t id;  // flow id: name f<id>, nw_dst derived from it
  std::uint16_t out_port;
  std::uint64_t start_ns = 0;
  std::uint64_t steps = 0;
  bool done = false;
  bool late = false;
};

std::uint32_t flow_ip(std::uint64_t dpid, std::uint32_t id) {
  return 0x0b000000u + static_cast<std::uint32_t>(dpid) * 0x100000u + id;
}

flow::FlowSpec make_spec(std::uint64_t dpid, std::uint32_t id,
                         std::uint16_t out_port) {
  flow::FlowSpec spec;
  spec.match.dl_type = 0x0800;
  spec.match.nw_dst = Cidr(Ipv4Address(flow_ip(dpid, id)), 32);
  spec.priority = 100;
  spec.actions = {flow::Action::output(out_port)};
  return spec;
}

class Cluster {
 public:
  Cluster(const Shape& shape, Ledger& ledger, Outcome& result)
      : shape_(shape), ledger_(ledger), result_(result) {}

  /// Construction, elections and the preload, until hardware matches.
  void setup() {
    cluster::HarnessOptions opts;
    opts.nodes = shape_.nodes;
    opts.switches = shape_.switches;
    h_ = std::make_unique<cluster::Harness>(opts);
    h_->settle();
    expected_.assign(shape_.switches, {});
    next_id_.assign(shape_.switches, 0);
    ports_.assign(shape_.switches, {});
    resolve_dirs();
    std::size_t rr = 0;
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
      const std::size_t node = rr++ % shape_.nodes;
      for (std::size_t f = 0; f < shape_.preload; ++f) {
        std::uint32_t id = next_id_[dpid - 1]++;
        std::uint16_t port = static_cast<std::uint16_t>(1 + (id % 8));
        if (netfs::write_flow(*h_->vfs(node), flow_dir(node, dpid, id),
                              make_spec(dpid, id, port)))
          throw std::runtime_error("preload write failed");
        expected_[dpid - 1][id] = port;
      }
    }
    for (std::uint64_t s = 0; !(owners_unique() && tables_match()); ++s) {
      if (s > kStepCap) throw std::runtime_error("preload never landed");
      step();
    }
  }

  /// Plans one round: per switch, a seeded mix of creates, modifies and
  /// deletes over distinct flows, in seeded order.
  std::vector<std::vector<Op>> plan_round(Rng& rng) {
    std::vector<std::vector<Op>> plan(shape_.switches);
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
      auto& exp = expected_[dpid - 1];
      std::vector<std::uint32_t> existing;
      existing.reserve(exp.size());
      for (const auto& [id, port] : exp) existing.push_back(id);
      rng.shuffle(existing);
      std::size_t pick = 0;
      auto& ops = plan[dpid - 1];
      for (std::size_t i = 0; i < shape_.creates; ++i)
        ops.push_back(Op{OpKind::create, dpid, next_id_[dpid - 1]++,
                         static_cast<std::uint16_t>(1 + rng.below(8))});
      for (std::size_t i = 0; i < shape_.modifies; ++i) {
        std::uint32_t id = existing.at(pick++);
        // A different port, so the table visibly changes.
        auto port = static_cast<std::uint16_t>(
            1 + (exp[id] - 1 + 1 + rng.below(7)) % 8);
        ops.push_back(Op{OpKind::modify, dpid, id, port});
      }
      for (std::size_t i = 0; i < shape_.deletes; ++i)
        ops.push_back(Op{OpKind::remove, dpid, existing.at(pick++), 0});
      rng.shuffle(ops);
    }
    return plan;
  }

  struct RoundOutcome {
    double failover_ms = -1;   // when the round had a failover
    std::uint64_t failover_ticks = 0;
  };

  /// Issues the planned bursts, optionally fails a node over right after
  /// the writes are acknowledged, and pumps until every op is in
  /// hardware.  Latencies go to `block`.
  RoundOutcome run_round(std::vector<std::vector<Op>>& plan,
                         std::uint32_t round_id, bool failover,
                         Block* block) {
    RoundOutcome outcome;
    ledger_.parent = round_id;
    const std::uint64_t t0 = now_ns();
    std::vector<Op*> pending;
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
      const std::size_t node = next_live_node();
      for (auto& op : plan[dpid - 1]) {
        issue(node, op);
        if (!op.done) pending.push_back(&op);
      }
    }
    std::vector<std::uint64_t> seen_mods(shape_.switches, UINT64_MAX);
    auto check = [&] {
      // Re-index a table only after FLOW_MODs reached it.
      std::vector<bool> changed(shape_.switches, false);
      for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
        auto mods = h_->switch_at(dpid).flow_mods_received();
        if (mods != seen_mods[dpid - 1]) {
          seen_mods[dpid - 1] = mods;
          changed[dpid - 1] = true;
          index_table(dpid);
        }
      }
      const std::uint64_t now = now_ns();
      for (Op* op : pending) {
        if (op->done) continue;
        ++op->steps;
        if (changed[op->dpid - 1] && in_hardware(*op)) {
          op->done = true;
          if (block)
            block->latency_us.push_back(
                static_cast<double>(now - op->start_ns) / 1e3);
        } else if (op->steps > kLateSteps && !op->late) {
          op->late = true;
          ++late_ops_;
        }
      }
      return std::all_of(pending.begin(), pending.end(),
                         [](const Op* op) { return op->done; });
    };

    if (failover) {
      const std::size_t victim = busiest_node();
      const std::uint64_t kill_ns = now_ns();
      {
        Timed t(ledger_, Kind::cluster_round);
        h_->kill(victim);
      }
      std::uint64_t ticks = 0;
      for (bool ops_done = false;;) {
        {
          Timed t(ledger_, Kind::cluster_round);
          h_->tick();
        }
        ++ticks;
        ops_done = check();
        if (ops_done && owners_unique() && tables_match()) break;
        if (ticks > kStepCap) {
          result_.wrong("failover never converged");
          throw std::runtime_error("failover stalled");
        }
      }
      outcome.failover_ms = static_cast<double>(now_ns() - kill_ns) / 1e6;
      outcome.failover_ticks = ticks;
      {
        Timed t(ledger_, Kind::dist_revive);
        h_->revive(victim);
      }
      // The revived node releases what it held before it died.
      for (std::uint64_t s = 0; !(owners_unique() && tables_match()); ++s) {
        if (s > kStepCap) {
          result_.wrong("revival never settled");
          throw std::runtime_error("revival stalled");
        }
        Timed t(ledger_, Kind::cluster_round);
        h_->tick();
      }
      resolve_dirs();
    } else {
      for (std::uint64_t s = 0; !check(); ++s) {
        if (s > kStepCap) {
          result_.wrong("round " + std::to_string(round_id) + " stalled");
          throw std::runtime_error("round stalled");
        }
        step();
      }
    }
    const std::uint64_t t1 = now_ns();
    if (block) {
      block->wall_s += static_cast<double>(t1 - t0) / 1e9;
      block->ops += pending.size();
    }
    // Untimed: full hardware-vs-expectation and single-owner checks.
    if (!owners_unique()) result_.wrong("a shard has no single owner");
    if (!tables_match_exactly())
      result_.wrong("hardware differs from the acknowledged writes");
    return outcome;
  }

  StackCounters counters() {
    StackCounters c;
    for (std::size_t i = 0; i < shape_.nodes; ++i) c.add(*h_->vfs(i));
    c.dist_msgs = h_->transport().messages_sent();
    c.dist_bytes = h_->transport().bytes_sent();
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
      c.flow_mods += h_->switch_at(dpid).flow_mods_received();
      c.packet_ins += h_->switch_at(dpid).packet_ins_sent();
    }
    c.polls = steps_;
    return c;
  }

  std::uint64_t late_ops() const { return late_ops_; }
  std::uint64_t failed_writes() const { return failed_writes_; }

 private:
  /// One Harness::tick() with every public call timed separately; only
  /// the owner re-dial, which nothing here ever needs, is left out.
  void step() {
    ++steps_;
    for (std::size_t i = 0; i < shape_.nodes; ++i) {
      if (!h_->alive(i)) continue;
      Timed t(ledger_, Kind::cluster_tick);
      h_->manager(i).tick();
    }
    {
      Timed t(ledger_, Kind::dist_run);
      h_->scheduler().run_until_idle();
    }
    for (int r = 0; r < 4; ++r) {
      for (std::size_t i = 0; i < shape_.nodes; ++i) {
        if (!h_->alive(i)) continue;
        Timed t(ledger_, Kind::driver_poll);
        h_->driver(i).poll();
      }
      for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
        Timed t(ledger_, Kind::sw_pump);
        h_->switch_at(dpid).pump();
      }
      Timed t(ledger_, Kind::dist_run);
      h_->scheduler().run_until_idle();
    }
  }

  std::string flow_dir(std::size_t node, std::uint64_t dpid,
                       std::uint32_t id) const {
    return dirs_[node][dpid - 1] + "/flows/f" + std::to_string(id);
  }

  /// Switch directories, looked up once per failover rather than per
  /// write (Harness::commit_flow scans /net/switches on every call).
  void resolve_dirs() {
    dirs_.assign(shape_.nodes, std::vector<std::string>(shape_.switches));
    for (std::size_t i = 0; i < shape_.nodes; ++i)
      for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
        auto dir = h_->switch_dir(i, dpid);
        if (!dir) throw std::runtime_error("switch dir not replicated");
        dirs_[i][dpid - 1] = *dir;
      }
  }

  std::size_t next_live_node() {
    for (;;) {
      std::size_t node = rr_++ % shape_.nodes;
      if (h_->alive(node)) return node;
    }
  }

  std::size_t busiest_node() const {
    std::vector<std::size_t> owned(shape_.nodes, 0);
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid)
      if (auto o = h_->owner_of(dpid)) ++owned[*o];
    return static_cast<std::size_t>(
        std::max_element(owned.begin(), owned.end()) - owned.begin());
  }

  void issue(std::size_t node, Op& op) {
    auto& vfs = *h_->vfs(node);
    auto& exp = expected_[op.dpid - 1];
    const std::string dir = flow_dir(node, op.dpid, op.id);
    op.start_ns = now_ns();
    Status st;
    {
      std::uint32_t round = ledger_.parent;
      ledger_.parent = Ledger::kOpBit | (next_op_++ & ~Ledger::kOpBit);
      Timed t(ledger_, Kind::netfs_commit);
      if (op.kind == OpKind::remove)
        st = vfs.rmdir(dir);
      else
        st = netfs::write_flow(vfs, dir, make_spec(op.dpid, op.id,
                                                   op.out_port));
      ledger_.parent = round;
    }
    if (st) {
      // Not acknowledged: a failed op, and hardware must not change.
      ++failed_writes_;
      op.done = true;
      return;
    }
    if (op.kind == OpKind::remove)
      exp.erase(op.id);
    else
      exp[op.id] = op.out_port;
  }

  void index_table(std::uint64_t dpid) {
    auto& idx = ports_[dpid - 1];
    idx.clear();
    for (const auto& e : h_->switch_at(dpid).table().entries()) {
      if (!e.spec.match.nw_dst || e.spec.actions.size() != 1 ||
          e.spec.actions[0].kind != flow::ActionKind::output)
        continue;
      idx[e.spec.match.nw_dst->address().value()] =
          e.spec.actions[0].port();
    }
  }

  bool in_hardware(const Op& op) const {
    const auto& idx = ports_[op.dpid - 1];
    auto it = idx.find(flow_ip(op.dpid, op.id));
    if (op.kind == OpKind::remove) return it == idx.end();
    return it != idx.end() && it->second == op.out_port;
  }

  bool owners_unique() const {
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid)
      if (h_->owners_of(dpid).size() != 1) return false;
    return true;
  }

  /// Cheap convergence probe: every table holds exactly the expected
  /// (nw_dst -> port) pairs.
  bool tables_match() {
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
      index_table(dpid);
      const auto& idx = ports_[dpid - 1];
      const auto& exp = expected_[dpid - 1];
      if (idx.size() != exp.size() ||
          h_->switch_at(dpid).table().size() != exp.size())
        return false;
      for (const auto& [id, port] : exp) {
        auto it = idx.find(flow_ip(dpid, id));
        if (it == idx.end() || it->second != port) return false;
      }
    }
    return true;
  }

  /// Full check: the table's flow specs equal the expected specs.
  bool tables_match_exactly() {
    for (std::uint64_t dpid = 1; dpid <= shape_.switches; ++dpid) {
      std::vector<std::string> want;
      for (const auto& [id, port] : expected_[dpid - 1])
        want.push_back(make_spec(dpid, id, port).to_string());
      std::sort(want.begin(), want.end());
      if (want != h_->hw_flows(dpid)) return false;
    }
    return true;
  }

  Shape shape_;
  Ledger& ledger_;
  Outcome& result_;
  std::unique_ptr<cluster::Harness> h_;
  std::vector<std::vector<std::string>> dirs_;
  /// Acknowledged state per switch: flow id -> output port.
  std::vector<std::map<std::uint32_t, std::uint16_t>> expected_;
  /// Hardware index per switch: nw_dst -> output port.
  std::vector<std::unordered_map<std::uint32_t, std::uint16_t>> ports_;
  std::vector<std::uint32_t> next_id_;
  std::size_t rr_ = 0;
  std::uint32_t next_op_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t late_ops_ = 0;
  std::uint64_t failed_writes_ = 0;
};

struct Measured {
  Block block;
  std::vector<double> failover_ms;
  std::uint64_t failover_ticks = 0;
};

/// Runs `rounds` rounds; the last fails over when `failover` is set.
Measured measure(Cluster& cluster, Rng& rng, std::uint32_t& round_id,
                 std::size_t rounds, bool failover) {
  Measured out;
  for (std::size_t r = 0; r < rounds; ++r) {
    auto plan = cluster.plan_round(rng);
    out.block.probe();
    auto outcome = cluster.run_round(plan, ++round_id,
                                     failover && r + 1 == rounds, &out.block);
    if (outcome.failover_ms >= 0) {
      out.failover_ms.push_back(outcome.failover_ms);
      out.failover_ticks += outcome.failover_ticks;
    }
  }
  out.block.probe();
  out.block.finish(kTailPct);
  return out;
}

/// One fresh cluster: set-up, discarded warm-up rounds, then one
/// measured failover cycle (the block).  Every epoch starts from the same
/// state because the replicated FS keeps every tombstone and scans them
/// all per applied entry, so one long-lived cluster gets slower with each
/// cycle (README "Findings") and would tie the numbers to run length.
struct Epoch {
  double setup_s = 0;
  Measured measured;
  std::uint64_t failed = 0;
  double rss_warm_mb = 0;
  // Traced epochs only.
  StackCounters before, after;
  alloc::Count a0, a1;
};

Epoch run_epoch(const Shape& shape, Ledger& ledger, Outcome& result, Rng& rng,
                bool traced) {
  Epoch e;
  Cluster cluster(shape, ledger, result);
  e.setup_s = timed_setup_s([&] { cluster.setup(); });
  std::uint32_t round_id = 0;
  measure(cluster, rng, round_id, shape.warmup_rounds, false);
  e.rss_warm_mb = rss_mb();
  const std::uint64_t late0 = cluster.late_ops();
  const std::uint64_t failed0 = cluster.failed_writes();
  if (traced) {
    e.before = cluster.counters();
    ledger.on = true;
    alloc::enable(true);
    e.a0 = alloc::thread_count();
  }
  e.measured = measure(cluster, rng, round_id, shape.rounds_per_cycle, true);
  if (traced) {
    e.a1 = alloc::thread_count();
    alloc::enable(false);
    ledger.on = false;
    e.after = cluster.counters();
  }
  e.failed = (cluster.late_ops() - late0) + (cluster.failed_writes() - failed0);
  return e;
}

}  // namespace

Outcome run_cluster_push(const Args& args) {
  const Shape& shape = args.smoke ? kSmoke : kFull;
  Outcome result;
  Ledger ledger;
  LayerReport report;
  const double sentinel_before = host_sentinel_ms();
  Rng rng(args.seed);

  std::vector<Epoch> epochs;
  Summary summary;
  if (!args.trace) {
    // Whole epochs until the run's time is up; each contributes one
    // set-up sample and its measured cycles.
    const std::size_t min_epochs = args.smoke ? 1 : 5;
    const std::uint64_t t0 = wall_ns();
    while (epochs.size() < min_epochs ||
           static_cast<double>(wall_ns() - t0) / 1e9 < args.seconds)
      epochs.push_back(run_epoch(shape, ledger, result, rng, false));
  } else {
    // One untraced and one traced epoch: fixed work, so every count
    // metric repeats exactly for a seed.
    epochs.push_back(run_epoch(shape, ledger, result, rng, false));
    epochs.push_back(run_epoch(shape, ledger, result, rng, true));
  }
  std::vector<Block> blocks;
  std::vector<double> setup_s, failover_ms;
  for (auto& e : epochs) {
    if (args.trace && &e == &epochs.back()) break;  // the traced epoch
    blocks.push_back(e.measured.block);
    failover_ms.insert(failover_ms.end(), e.measured.failover_ms.begin(),
                       e.measured.failover_ms.end());
    setup_s.push_back(e.setup_s);
  }
  summary = summarize(blocks);
  std::uint64_t attempted = summary.ops, failed = 0;
  for (const auto& e : epochs) failed += e.failed;

  if (args.trace) {
    Epoch& e = epochs.back();
    const StackCounters& before = e.before;
    const StackCounters& after = e.after;
    Summary ts = summarize({e.measured.block});
    attempted += ts.ops;
    const double wall_ns = e.measured.block.wall_s * 1e9;
    const double ops = static_cast<double>(ts.ops);
    auto per_op = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / ops;
    };
    const double failovers =
        static_cast<double>(e.measured.failover_ms.size());
    auto per_failover = [&](std::uint64_t a, std::uint64_t b) {
      return failovers ? static_cast<double>(b - a) / failovers : 0.0;
    };
    ledger_metrics(report, ledger, ts.ops,
                   static_cast<std::uint64_t>(wall_ns));
    count_metrics(report, before, after, ts.ops);
    report.set("cluster.failover_ms", median(e.measured.failover_ms));
    report.set("cluster.rounds_per_failover",
               failovers ? static_cast<double>(e.measured.failover_ticks) /
                               failovers
                         : 0);
    const std::uint64_t fo_count = after.failovers - before.failovers;
    report.set("cluster.failover_virtual_us",
               fo_count ? static_cast<double>(after.failover_ns_sum -
                                              before.failover_ns_sum) /
                              static_cast<double>(fo_count) / 1e3
                        : 0);
    report.set("driver.resyncs_per_failover",
               per_failover(before.resyncs, after.resyncs));
    report.set("dist.repairs_per_failover",
               per_failover(before.repairs, after.repairs));
    report.set("alloc.count_per_op", per_op(e.a0.count, e.a1.count));
    report.set("alloc.bytes_per_op", per_op(e.a0.bytes, e.a1.bytes));
    report.set("trace.overhead_pct",
               100.0 * (1.0 - ts.throughput_per_s / summary.throughput_per_s));
    write_spans(args.trace_out, ledger,
                ledger.spans().empty() ? 0 : ledger.spans().front().start_ns);
  }

  result.attempted = attempted;
  result.failed = failed;
  result.notes["epochs"] = static_cast<double>(epochs.size());
  result.notes["rss_after_warmup_mb"] = epochs.front().rss_warm_mb;
  result.notes["failover_ms_median"] = median(failover_ms);
  finish_outcome(result, args, summary, setup_s, sentinel_before, report);
  return result;
}

}  // namespace yb
