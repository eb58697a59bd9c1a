#include "yanc/cluster/manager.hpp"

#include <algorithm>

#include "yanc/obs/tracer.hpp"
#include "yanc/util/log.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/watch.hpp"

namespace yanc::cluster {

namespace {

/// Callbacks collected under the manager lock, fired after release — a
/// callback is free to call back into the manager (owns(), epoch_of())
/// without tripping lockdep's same-rank check.
struct Pending {
  enum class Kind { takeover, release } kind;
  std::uint64_t dpid;
  std::uint64_t epoch;
};

}  // namespace

Manager::Manager(std::shared_ptr<vfs::Vfs> vfs, ManagerOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {
  if (options_.cluster_size == 0) options_.cluster_size = 1;
  // The tree may already exist (a peer created it and replication landed
  // first); mkdir_p tolerates that.
  std::ignore = vfs_->mkdir_p(options_.cluster_dir + "/nodes");
  std::ignore = vfs_->mkdir_p(shards_dir());
  watch_queue_ = std::make_shared<vfs::WatchQueue>(256);
  auto handle = vfs_->watch(shards_dir(),
                            vfs::event::created | vfs::event::deleted,
                            watch_queue_);
  if (handle)
    watch_handle_ = *handle;
  else
    log_error("cluster", "cannot watch " + shards_dir() + ": " +
                             handle.error().message());
}

void Manager::on_takeover(
    std::function<void(std::uint64_t, std::uint64_t)> fn) {
  dbg::LockGuard lock(mu_);
  takeover_cb_ = std::move(fn);
}

void Manager::on_release(std::function<void(std::uint64_t)> fn) {
  dbg::LockGuard lock(mu_);
  release_cb_ = std::move(fn);
}

Status Manager::add_shard(std::uint64_t dpid) {
  return vfs_->mkdir_p(shards_dir() + "/" + std::to_string(dpid));
}

std::string Manager::lease_path(std::uint64_t dpid) const {
  return shards_dir() + "/" + std::to_string(dpid) + "/lease";
}

std::string Manager::heartbeat_path(std::uint64_t node) const {
  return options_.cluster_dir + "/nodes/" + std::to_string(node);
}

std::uint64_t Manager::rank_for(std::uint64_t node,
                                std::uint64_t dpid) const {
  const std::uint64_t n = options_.cluster_size;
  return (node + n - (dpid % n)) % n;
}

bool Manager::node_live(
    std::uint64_t node,
    const std::map<std::uint64_t, std::uint64_t>& beats) const {
  if (node == options_.node_id) return true;
  auto it = beats.find(node);
  if (it == beats.end()) return false;
  return it->second + options_.heartbeat_ttl >= tick_;
}

std::map<std::uint64_t, std::uint64_t> Manager::read_heartbeats() const {
  std::map<std::uint64_t, std::uint64_t> beats;
  auto entries = vfs_->readdir(options_.cluster_dir + "/nodes");
  if (!entries) return beats;
  for (const auto& entry : *entries) {
    auto node = parse_u64(entry.name);
    if (!node) continue;
    auto content = vfs_->read_file(heartbeat_path(*node));
    if (!content) continue;
    auto beat = parse_u64(trim(*content));
    if (beat) beats[*node] = *beat;
  }
  return beats;
}

void Manager::discover_shards() {
  bool rescan = !scanned_once_;
  for (const auto& event : watch_queue_->drain()) {
    if (lease_event_metric_) lease_event_metric_->add();
    if (event.is(vfs::event::overflow)) {
      rescan = true;
      continue;
    }
    auto dpid = parse_u64(event.name);
    if (!dpid) continue;
    if (event.is(vfs::event::created)) {
      // A recreated (tombstoned-then-readded) shard starts from a fresh
      // view; the lease file inside it reseeds max_epoch on first read.
      shards_.try_emplace(*dpid);
    } else if (event.is(vfs::event::deleted)) {
      shards_.erase(*dpid);
    }
  }
  if (!rescan) return;
  auto entries = vfs_->readdir(shards_dir());
  if (!entries) return;
  scanned_once_ = true;
  std::map<std::uint64_t, Shard> fresh;
  for (const auto& entry : *entries) {
    auto dpid = parse_u64(entry.name);
    if (!dpid) continue;
    auto it = shards_.find(*dpid);
    if (it != shards_.end())
      fresh.emplace(*dpid, std::move(it->second));
    else
      fresh.try_emplace(*dpid);
  }
  shards_ = std::move(fresh);
}

std::uint64_t Manager::wall_ns() const {
  if (options_.now_ns) return options_.now_ns();
  return obs::Tracer::now_ns();
}

void Manager::tick() {
  std::vector<Pending> fired;
  // Writes are planned under the lock and made after it is released: a
  // write to the replicated tree sends replication traffic, and a send may
  // block.  The tick reads each file it writes before writing it, so no
  // read sees a difference, and the writes keep their order.
  struct LeaseWrite {
    std::uint64_t dpid;
    Lease lease;
    bool claim;  // an election claim, else a renewal
  };
  std::vector<LeaseWrite> writes;
  std::uint64_t heartbeat = 0;
  {
    dbg::LockGuard lock(mu_);
    ++tick_;
    auto beats = read_heartbeats();
    // Lamport fast-forward: a node revived after a long kill jumps past
    // every heartbeat it can see, so its TTL math is in the present.
    for (const auto& [node, beat] : beats) tick_ = std::max(tick_, beat);
    heartbeat = tick_;
    discover_shards();

    for (auto& [dpid, shard] : shards_) {
      auto content = vfs_->read_file(lease_path(dpid));
      std::optional<Lease> lease;
      if (content) {
        auto parsed = Lease::parse(*content);
        if (parsed) lease = *parsed;
      }
      shard.lease = lease;
      if (lease) shard.max_epoch = std::max(shard.max_epoch, lease->epoch);

      const bool valid = lease && lease->epoch >= shard.max_epoch &&
                         lease->expiry > tick_ &&
                         node_live(lease->holder, beats);

      if (shard.claiming) {
        shard.claiming = false;
        if (lease && *lease == shard.claim && valid) {
          // LWW settled in our favor: the claim survived a full
          // replication round against any racing claimant.
          shard.owned = true;
          if (takeover_metric_) takeover_metric_->add();
          if (shard.down_since_ns != 0) {
            if (failover_latency_metric_)
              failover_latency_metric_->record(wall_ns() -
                                               shard.down_since_ns);
            shard.down_since_ns = 0;
          }
          fired.push_back(
              {Pending::Kind::takeover, dpid, shard.claim.epoch});
          continue;
        }
        // Lost the race (or the claim already aged out): fall through to
        // the normal led/leaderless logic below.
      }

      if (shard.owned) {
        const bool still_ours =
            valid && lease->holder == options_.node_id &&
            lease->epoch == shard.max_epoch;
        if (!still_ours) {
          shard.owned = false;
          if (lost_metric_) lost_metric_->add();
          if (lease && tick_ >= lease->expiry && expired_metric_)
            expired_metric_->add();
          fired.push_back({Pending::Kind::release, dpid, 0});
          // Leaderless from our chair unless someone else validly holds
          // it; the next iteration of the loop body (next tick) elects.
          if (!valid) shard.down_since_ns = wall_ns();
          continue;
        }
        // Renew at half-life so one delayed round never drops the lease.
        if (lease->expiry - tick_ <= options_.lease_ttl / 2) {
          Lease renewed = *lease;
          renewed.expiry = tick_ + options_.lease_ttl;
          writes.push_back({dpid, renewed, false});
        }
        continue;
      }

      if (valid) {
        // Someone else holds it; nothing for us to do.
        shard.down_since_ns = 0;
        continue;
      }

      // Leaderless: elect.  Deterministic winner so at most one node
      // writes a claim per settled view (races during the unsettled
      // window are resolved by LWW + the confirm re-read).  Startup
      // grace: until one heartbeat TTL has passed, peers whose first
      // heartbeat has not replicated yet would all look dead and every
      // node would claim everything — hold elections until the
      // membership view has had time to fill in.
      if (tick_ <= options_.heartbeat_ttl) continue;
      if (shard.down_since_ns == 0) shard.down_since_ns = wall_ns();
      if (lease && tick_ >= lease->expiry && expired_metric_)
        expired_metric_->add();
      std::uint64_t winner = options_.node_id;
      std::uint64_t best = rank_for(options_.node_id, dpid);
      for (std::uint64_t node = 0; node < options_.cluster_size; ++node) {
        if (!node_live(node, beats)) continue;
        const std::uint64_t rank = rank_for(node, dpid);
        if (rank < best || (rank == best && node < winner)) {
          best = rank;
          winner = node;
        }
      }
      if (winner != options_.node_id) continue;
      Lease claim;
      claim.holder = options_.node_id;
      claim.epoch = shard.max_epoch + 1;
      claim.expiry = tick_ + options_.lease_ttl;
      writes.push_back({dpid, claim, true});
    }

    if (shards_owned_metric_) {
      std::int64_t owned = 0;
      for (const auto& [dpid, shard] : shards_)
        owned += shard.owned ? 1 : 0;
      shards_owned_metric_->set(owned);
    }
  }

  if (vfs_->write_file(heartbeat_path(options_.node_id),
                       std::to_string(heartbeat) + "\n"))
    log_error("cluster", "heartbeat write failed");
  std::vector<bool> written;
  written.reserve(writes.size());
  for (const auto& w : writes)
    written.push_back(!vfs_->write_file(lease_path(w.dpid), w.lease.format()));
  if (!writes.empty()) {
    dbg::LockGuard lock(mu_);
    for (std::size_t i = 0; i < writes.size(); ++i) {
      if (!written[i]) continue;
      const LeaseWrite& w = writes[i];
      if (!w.claim) {
        if (renew_metric_) renew_metric_->add();
        continue;
      }
      auto it = shards_.find(w.dpid);
      if (it == shards_.end()) continue;
      it->second.claiming = true;
      it->second.claim = w.lease;
      if (election_metric_) election_metric_->add();
    }
  }

  for (const auto& p : fired) {
    if (p.kind == Pending::Kind::takeover) {
      auto ref = obs::tracer().mint(
          "cluster", "takeover",
          "dpid=" + std::to_string(p.dpid) +
              " epoch=" + std::to_string(p.epoch) +
              " node=" + std::to_string(options_.node_id));
      obs::TraceScope scope(ref);
      obs::Span span(ref, "cluster", "takeover_resync");
      if (takeover_cb_) takeover_cb_(p.dpid, p.epoch);
    } else {
      if (release_cb_) release_cb_(p.dpid);
    }
  }
}

bool Manager::owns(std::uint64_t dpid) const {
  dbg::LockGuard lock(mu_);
  auto it = shards_.find(dpid);
  return it != shards_.end() && it->second.owned;
}

std::uint64_t Manager::epoch_of(std::uint64_t dpid) const {
  dbg::LockGuard lock(mu_);
  auto it = shards_.find(dpid);
  if (it == shards_.end() || !it->second.owned) return 0;
  return it->second.max_epoch;
}

std::vector<std::uint64_t> Manager::owned_shards() const {
  dbg::LockGuard lock(mu_);
  std::vector<std::uint64_t> out;
  for (const auto& [dpid, shard] : shards_)
    if (shard.owned) out.push_back(dpid);
  return out;
}

std::uint64_t Manager::now_tick() const {
  dbg::LockGuard lock(mu_);
  return tick_;
}

void Manager::bind_metrics(obs::Registry& registry) {
  dbg::LockGuard lock(mu_);
  election_metric_ = registry.counter("cluster/election_total");
  takeover_metric_ = registry.counter("cluster/takeover_total");
  lost_metric_ = registry.counter("cluster/ownership_lost_total");
  renew_metric_ = registry.counter("cluster/lease_renew_total");
  expired_metric_ = registry.counter("cluster/lease_expired_total");
  lease_event_metric_ = registry.counter("cluster/lease_event_total");
  failover_latency_metric_ = registry.histogram("cluster/failover_latency_ns");
  shards_owned_metric_ = registry.gauge("cluster/shards_owned");
}

}  // namespace yanc::cluster
