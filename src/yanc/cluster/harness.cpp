#include "yanc/cluster/harness.hpp"

#include <algorithm>

#include "yanc/netfs/flowio.hpp"
#include "yanc/obs/stats_fs.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::cluster {

struct Harness::Node {
  std::shared_ptr<vfs::Vfs> vfs;
  std::shared_ptr<dist::ReplicatedYancFs> fs;
  std::unique_ptr<Manager> manager;
  std::unique_ptr<driver::OfDriver> driver;
  dist::Transport::NodeId id = 0;
  bool alive = true;
};

Harness::Harness(HarnessOptions options)
    : options_(options),
      network_(scheduler_),
      transport_(scheduler_, options.link_latency) {
  for (std::size_t i = 0; i < options_.nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->vfs = std::make_shared<vfs::Vfs>();
    std::ignore = node->vfs->mkdir("/net");
    node->fs = std::make_shared<dist::ReplicatedYancFs>(
        dist::ReplicaOptions{dist::Mode::eventual});
    std::ignore = node->vfs->mount("/net", node->fs);
    node->fs->bind_metrics(*node->vfs->metrics());
    node->id = node->fs->join_cluster(transport_);

    // /yanc/.cluster is the canonical mount of the coordination tree;
    // the files themselves live in the replicated /net/.cluster.
    std::ignore = node->vfs->mkdir_p("/yanc");
    std::ignore = node->vfs->symlink("/net/.cluster", "/yanc/.cluster");
    std::ignore = obs::mount_stats_fs(*node->vfs);

    ManagerOptions mopts;
    mopts.node_id = i;
    mopts.cluster_size = options_.nodes;
    mopts.lease_ttl = options_.lease_ttl;
    mopts.heartbeat_ttl = options_.heartbeat_ttl;
    mopts.now_ns = [this] { return scheduler_.clock().now_ns(); };
    node->manager = std::make_unique<Manager>(node->vfs, mopts);
    node->manager->bind_metrics(*node->vfs->metrics());
    node->manager->on_takeover([this, i](std::uint64_t dpid,
                                         std::uint64_t epoch) {
      connect_switch(i, dpid, epoch);
    });
    // Losing the lease must silence the whole node, not just its
    // FLOW_MODs: a deposed connection left open keeps writing keepalive
    // counters and stats mirrors into the replicated switch record,
    // fighting the successor's tree.  The egress gate covers mutation;
    // abandon covers presence.
    node->manager->on_release([this, i](std::uint64_t dpid) {
      nodes_[i]->driver->abandon_switch(dpid);
    });

    driver::DriverOptions dopts = options_.driver;
    // Per-node switch-name prefix: the drivers share one replicated
    // /net/switches namespace, and two nodes handshaking different
    // switches concurrently would otherwise both pick "sw1" and LWW-merge
    // the trees.  Failover adoption is unaffected — the reconnect path
    // matches directories by the id file, not the name.
    dopts.switch_name_prefix = numbered("n", i) + "-sw";
    // Recovery timers sized so resync completes within a settle().
    dopts.keepalive_interval = 8;
    dopts.keepalive_timeout = 64;
    dopts.request_timeout = 4;
    dopts.max_retries = 8;
    dopts.audit_interval = 16;
    dopts.egress_gate = [mgr = node->manager.get()](std::uint64_t dpid) {
      return mgr->owns(dpid);
    };
    node->driver = std::make_unique<driver::OfDriver>(node->vfs, dopts);

    nodes_.push_back(std::move(node));
  }
  transport_.bind_metrics(*nodes_[0]->vfs->metrics());

  for (std::size_t j = 0; j < options_.switches; ++j) {
    const std::uint64_t dpid = j + 1;
    sw::SwitchOptions sopts;
    sopts.datapath_id = dpid;
    auto s = std::make_unique<sw::Switch>("hw" + std::to_string(dpid),
                                          sopts, network_);
    s->add_port(1, MacAddress::from_u64(dpid), "eth1");
    s->bind_metrics(*nodes_[0]->vfs->metrics());
    switches_.push_back(std::move(s));
    // One node declares the shard; the directory replicates and the rest
    // discover it through their watch on shards/.
    std::ignore = nodes_[0]->manager->add_shard(dpid);
  }
  scheduler_.run_until_idle();
}

Harness::~Harness() = default;

Manager& Harness::manager(std::size_t node) { return *nodes_[node]->manager; }

std::shared_ptr<vfs::Vfs> Harness::vfs(std::size_t node) {
  return nodes_[node]->vfs;
}

driver::OfDriver& Harness::driver(std::size_t node) {
  return *nodes_[node]->driver;
}

bool Harness::alive(std::size_t node) const { return nodes_[node]->alive; }

void Harness::connect_switch(std::size_t node, std::uint64_t dpid,
                             std::uint64_t epoch) {
  if (dpid == 0 || dpid > switches_.size()) return;
  switches_[dpid - 1]->connect(
      nodes_[node]->driver->listener().connect(), epoch);
}

void Harness::tick() {
  ++round_;
  for (auto& node : nodes_)
    if (node->alive) node->manager->tick();
  scheduler_.run_until_idle();
  // Level-triggered re-homing: on_takeover fires once, at claim
  // confirmation, but the owner's channel can die later (keepalive
  // timeout while it was partitioned, a request abandoned) with the
  // lease intact — and then nothing else would ever reconnect the
  // switch.  An owner without a live connection re-dials, throttled so
  // an in-progress handshake (dpid still unknown) isn't stampeded.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->alive) continue;
    for (std::uint64_t dpid : nodes_[i]->manager->owned_shards()) {
      if (nodes_[i]->driver->switch_name(dpid)) continue;
      auto& last = last_dial_[{i, dpid}];
      if (last && round_ - last < 3) continue;
      last = round_;
      connect_switch(i, dpid, nodes_[i]->manager->epoch_of(dpid));
    }
  }
  for (int round = 0; round < 4; ++round) {
    for (auto& node : nodes_)
      if (node->alive) node->driver->poll();
    for (auto& s : switches_) s->pump();
    scheduler_.run_until_idle();
  }
}

void Harness::settle(std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) tick();
}

void Harness::kill(std::size_t node) {
  if (!nodes_[node]->alive) return;
  nodes_[node]->alive = false;
  transport_.leave(nodes_[node]->id);
}

void Harness::revive(std::size_t node) {
  if (nodes_[node]->alive) return;
  nodes_[node]->alive = true;
  nodes_[node]->fs->rejoin_cluster();
  anti_entropy();
}

void Harness::anti_entropy() {
  for (auto& node : nodes_)
    if (node->alive) node->fs->send_anti_entropy();
  scheduler_.run_until_idle();
  for (auto& node : nodes_)
    if (node->alive) node->fs->send_anti_entropy();
  scheduler_.run_until_idle();
}

std::optional<std::size_t> Harness::owner_of(std::uint64_t dpid) const {
  auto owners = owners_of(dpid);
  if (owners.size() != 1) return std::nullopt;
  return owners.front();
}

std::vector<std::size_t> Harness::owners_of(std::uint64_t dpid) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i]->alive && nodes_[i]->manager->owns(dpid)) out.push_back(i);
  return out;
}

Result<std::string> Harness::switch_dir(std::size_t node,
                                        std::uint64_t dpid) const {
  auto& vfs = *nodes_[node]->vfs;
  auto entries = vfs.readdir("/net/switches");
  if (!entries) return entries.error();
  for (const auto& e : *entries) {
    std::string dir = "/net/switches/" + e.name;
    auto id = vfs.read_file(dir + "/id");
    if (!id) continue;
    auto parsed = parse_hex_u64(trim(*id));
    if (parsed && *parsed == dpid) return dir;
  }
  return make_error_code(Errc::not_found);
}

Status Harness::commit_flow(std::size_t node, std::uint64_t dpid,
                            const std::string& name,
                            const flow::FlowSpec& spec) {
  auto dir = switch_dir(node, dpid);
  if (!dir) return dir.error();
  return netfs::write_flow(*nodes_[node]->vfs, *dir + "/flows/" + name,
                           spec);
}

std::vector<std::string> Harness::fs_flows(std::size_t node,
                                           std::uint64_t dpid) const {
  std::vector<std::string> out;
  auto dir = switch_dir(node, dpid);
  if (!dir) return out;
  auto& vfs = *nodes_[node]->vfs;
  auto entries = vfs.readdir(*dir + "/flows");
  if (!entries) return out;
  for (const auto& e : *entries) {
    auto spec = netfs::read_flow(vfs, *dir + "/flows/" + e.name);
    if (spec && spec->version > 0) out.push_back(spec->to_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Harness::hw_flows(std::uint64_t dpid) const {
  std::vector<std::string> out;
  for (const auto& e : switches_[dpid - 1]->table().entries())
    out.push_back(e.spec.to_string());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace yanc::cluster
