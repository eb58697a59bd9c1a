#include "yanc/vfs/watch.hpp"

#include <algorithm>

namespace yanc::vfs {

void WatchQueue::push(Event e) {
  bool enqueued = false;
  {
    dbg::LockGuard lock(mu_);
    if (coalesce_ && e.mask == event::modified && !events_.empty()) {
      // Merge only into the tail, and only modified-into-modified for the
      // same path: any interleaved event (a delete, a create, a different
      // path) sits at the tail instead and blocks the merge, so ordering
      // and terminal events survive coalescing by construction.
      Event& tail = events_.back();
      if (tail.mask == event::modified && tail.node == e.node &&
          tail.name == e.name) {
        if (coalesce_metric_) coalesce_metric_->add();
        // The merged tail must keep the causal refs it absorbs, or the
        // coalesced traces lose their chain here.  The tail's (earlier)
        // trace_ts_ns stays: queue-wait is measured from the oldest
        // absorbed work.  Bounded so a pathological burst of distinct
        // traces onto one path cannot grow the event without limit.
        if (!e.trace.empty() && tail.trace.size() < kMaxTraceRefs) {
          std::size_t room = kMaxTraceRefs - tail.trace.size();
          tail.trace.insert(
              tail.trace.end(), e.trace.begin(),
              e.trace.begin() +
                  static_cast<std::ptrdiff_t>(std::min(room, e.trace.size())));
          if (tail.trace_ts_ns == 0) tail.trace_ts_ns = e.trace_ts_ns;
        }
        return;  // the queued tail already announces this state change
      }
    }
    if (events_.size() >= capacity_) {
      if (drop_metric_) drop_metric_->add();
      if (!overflow_pending_) {
        overflow_pending_ = true;
        // Replace the tail with a single overflow marker, like inotify's
        // IN_Q_OVERFLOW: the consumer learns it must rescan.  The marker
        // is an event like any other: it must update the depth gauge and
        // wake a blocked consumer, or a slow reader parked in pop_wait
        // sleeps through the very notification telling it to catch up.
        events_.push_back(Event{event::overflow, e.node, {}, 0});
        enqueued = true;
      }
    } else {
      events_.push_back(std::move(e));
      enqueued = true;
    }
    if (enqueued && depth_metric_)
      depth_metric_->set(static_cast<std::int64_t>(events_.size()));
  }
  if (enqueued) cv_.notify_one();
}

std::optional<Event> WatchQueue::try_pop() {
  dbg::LockGuard lock(mu_);
  if (events_.empty()) return std::nullopt;
  Event e = std::move(events_.front());
  events_.pop_front();
  if (events_.empty()) overflow_pending_ = false;
  if (depth_metric_)
    depth_metric_->set(static_cast<std::int64_t>(events_.size()));
  return e;
}

std::optional<Event> WatchQueue::pop_wait(std::chrono::milliseconds timeout) {
  // Absolute deadline computed once: however many times the wait wakes
  // (notified for events another consumer won, or spuriously), the caller
  // never waits longer than `timeout` from the moment of the call.
  auto deadline = std::chrono::steady_clock::now() + timeout;
  dbg::UniqueLock lock(mu_);
  if (!cv_.wait_until(lock, deadline, [&] { return !events_.empty(); }))
    return std::nullopt;
  Event e = std::move(events_.front());
  events_.pop_front();
  if (events_.empty()) overflow_pending_ = false;
  if (depth_metric_)
    depth_metric_->set(static_cast<std::int64_t>(events_.size()));
  return e;
}

std::size_t WatchQueue::drain_locked(std::vector<Event>& out,
                                     std::size_t max) {
  std::size_t n = std::min(max, events_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(events_.front()));
    events_.pop_front();
  }
  if (events_.empty()) overflow_pending_ = false;
  if (n && depth_metric_)
    depth_metric_->set(static_cast<std::int64_t>(events_.size()));
  return n;
}

std::size_t WatchQueue::try_pop_batch(std::vector<Event>& out,
                                      std::size_t max) {
  dbg::LockGuard lock(mu_);
  return drain_locked(out, max);
}

std::vector<Event> WatchQueue::pop_wait_batch(
    std::size_t max, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  std::vector<Event> out;
  dbg::UniqueLock lock(mu_);
  if (!cv_.wait_until(lock, deadline, [&] { return !events_.empty(); }))
    return out;  // timeout: empty
  drain_locked(out, max);
  return out;
}

void WatchQueue::set_coalescing(bool enabled) {
  dbg::LockGuard lock(mu_);
  coalesce_ = enabled;
}

std::vector<Event> WatchQueue::drain() {
  dbg::LockGuard lock(mu_);
  std::vector<Event> out(events_.begin(), events_.end());
  events_.clear();
  overflow_pending_ = false;
  if (depth_metric_) depth_metric_->set(0);
  return out;
}

void WatchQueue::bind_metrics(obs::Gauge* depth, obs::Counter* drops,
                              obs::Counter* coalesced) {
  dbg::LockGuard lock(mu_);
  depth_metric_ = depth;
  drop_metric_ = drops;
  coalesce_metric_ = coalesced;
  if (depth_metric_)
    depth_metric_->set(static_cast<std::int64_t>(events_.size()));
}

std::size_t WatchQueue::size() const {
  dbg::LockGuard lock(mu_);
  return events_.size();
}

bool WatchQueue::overflowed() const {
  dbg::LockGuard lock(mu_);
  return overflow_pending_;
}

WatchRegistry::WatchId WatchRegistry::add(NodeId node, std::uint32_t mask,
                                          WatchQueuePtr queue) {
  dbg::LockGuard lock(mu_);
  WatchId id = next_id_++;
  subs_.emplace(id, Subscription{node, mask, std::move(queue)});
  by_node_[node].push_back(id);
  return id;
}

NodeId WatchRegistry::remove(WatchId id) {
  dbg::LockGuard lock(mu_);
  auto it = subs_.find(id);
  if (it == subs_.end()) return kInvalidNode;
  const NodeId node = it->second.node;
  auto node_it = by_node_.find(node);
  if (node_it != by_node_.end()) {
    auto& ids = node_it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) by_node_.erase(node_it);
  }
  subs_.erase(it);
  return node;
}

void WatchRegistry::drop_node(NodeId node) {
  dbg::LockGuard lock(mu_);
  auto node_it = by_node_.find(node);
  if (node_it == by_node_.end()) return;
  for (WatchId id : node_it->second) subs_.erase(id);
  by_node_.erase(node_it);
}

void WatchRegistry::emit(NodeId node, std::uint32_t mask,
                         const std::string& name, std::uint32_t cookie) {
  // Snapshot matching queues under the lock, push outside it so a slow
  // consumer cannot stall registry mutation.
  std::vector<WatchQueuePtr> targets;
  {
    dbg::LockGuard lock(mu_);
    auto node_it = by_node_.find(node);
    if (node_it == by_node_.end()) return;
    for (WatchId id : node_it->second) {
      const auto& sub = subs_.at(id);
      if (sub.mask & mask) targets.push_back(sub.queue);
    }
  }
  Event base{mask, node, name, cookie};
  // Stamp the emitting thread's causal context.  MemFs's MutationScope
  // defers emission, but the deferral still runs on the mutating thread
  // before the VFS call returns, so the ingress TraceScope is still
  // active here — one stamp point covers every filesystem.
  if (auto ref = obs::current_trace()) {
    base.trace.push_back(ref);
    base.trace_ts_ns = obs::Tracer::now_ns();
  }
  for (auto& q : targets) q->push(base);
}

std::size_t WatchRegistry::watch_count() const {
  dbg::LockGuard lock(mu_);
  return subs_.size();
}

}  // namespace yanc::vfs
