#include "yanc/faults/injector.hpp"

#include <vector>

namespace yanc::faults {

void Injector::reseed(std::uint64_t seed) {
  dbg::LockGuard lock(mu_);
  rng_.reseed(seed);
}

std::uint64_t Injector::seed() const {
  dbg::LockGuard lock(mu_);
  return rng_.seed();
}

FaultPlan Injector::plan(Scope scope) const {
  dbg::LockGuard lock(mu_);
  return plans_[static_cast<int>(scope)];
}

void Injector::set_plan(Scope scope, FaultPlan plan) {
  dbg::LockGuard lock(mu_);
  plans_[static_cast<int>(scope)] = plan;
}

void Injector::bind_metrics(obs::Registry& registry) {
  dbg::LockGuard lock(mu_);
  counters_.drop = registry.counter("faults/drop_total");
  counters_.duplicate = registry.counter("faults/duplicate_total");
  counters_.reorder = registry.counter("faults/reorder_total");
  counters_.corrupt = registry.counter("faults/corrupt_total");
  counters_.delay = registry.counter("faults/delay_total");
  counters_.disconnect = registry.counter("faults/disconnect_total");
}

std::optional<WireFate> Injector::decide(Scope scope,
                                         std::vector<std::uint8_t>& message) {
  dbg::LockGuard lock(mu_);
  const FaultPlan& plan = plans_[static_cast<int>(scope)];
  if (!plan.any()) return WireFate{};
  // Fixed roll order keeps the schedule a pure function of (seed, plan,
  // message sequence) — the whole point of deterministic injection.
  WireFate fate;
  if (rng_.chance(plan.disconnect)) {
    if (counters_.disconnect) counters_.disconnect->add();
    return std::nullopt;
  }
  fate.drop = rng_.chance(plan.drop);
  fate.duplicate = rng_.chance(plan.duplicate);
  fate.reorder = rng_.chance(plan.reorder);
  bool corrupt = rng_.chance(plan.corrupt);
  fate.delay = rng_.chance(plan.delay);
  if (fate.drop) {
    if (counters_.drop) counters_.drop->add();
    return fate;  // nothing else matters for a dropped message
  }
  if (corrupt && !message.empty()) {
    message[rng_.below(message.size())] ^=
        static_cast<std::uint8_t>(1u << rng_.below(8));
    if (counters_.corrupt) counters_.corrupt->add();
  }
  if (fate.duplicate && counters_.duplicate) counters_.duplicate->add();
  if (fate.reorder && counters_.reorder) counters_.reorder->add();
  if (fate.delay && counters_.delay) counters_.delay->add();
  return fate;
}

namespace {

/// FaultHook over one channel pair.  Runs under the channel's lock; only
/// ever calls Injector::decide (which takes the injector's own lock), so
/// the lock order channel -> injector is fixed and cycle-free.
class ChannelFaults : public net::FaultHook {
 public:
  explicit ChannelFaults(std::shared_ptr<Injector> injector)
      : injector_(std::move(injector)) {}

  bool on_send(std::deque<net::Message>& queue,
               net::Message message) override {
    release_due(queue, /*sends=*/1);
    auto fate = injector_->decide(Scope::channel, message);
    if (!fate) return false;  // disconnect: sever the connection
    if (fate->drop) return true;
    if (fate->delay) {
      stash_.push_back(
          {&queue, message, injector_->plan(Scope::channel).delay_msgs});
      if (fate->duplicate) enqueue(queue, std::move(message), false);
      return true;
    }
    net::Message copy;
    if (fate->duplicate) copy = message;
    enqueue(queue, std::move(message), fate->reorder);
    if (fate->duplicate) enqueue(queue, std::move(copy), false);
    return true;
  }

  void on_recv(std::deque<net::Message>& queue) override {
    release_due(queue, /*sends=*/0, /*flush_if_empty=*/queue.empty());
  }

 private:
  struct Delayed {
    std::deque<net::Message>* queue;
    net::Message message;
    std::uint32_t remaining;  // later sends to let pass first
  };

  static void enqueue(std::deque<net::Message>& queue, net::Message message,
                      bool reorder) {
    // Reorder = the previous message overtakes this one: slot the new
    // message in front of the most recently queued one.
    if (reorder && !queue.empty())
      queue.insert(std::prev(queue.end()), std::move(message));
    else
      queue.push_back(std::move(message));
  }

  /// Ages the stash by `sends` and flushes entries for `queue` that have
  /// waited long enough.  When the receiver finds its queue empty
  /// (flush_if_empty), everything stashed for it is released — a delayed
  /// message must never be the one the receiver starves waiting for.
  void release_due(std::deque<net::Message>& queue, std::uint32_t sends,
                   bool flush_if_empty = false) {
    for (auto it = stash_.begin(); it != stash_.end();) {
      if (it->queue != &queue) {
        ++it;
        continue;
      }
      if (it->remaining > sends)
        it->remaining -= sends;
      else
        it->remaining = 0;
      if (it->remaining == 0 || flush_if_empty) {
        queue.push_back(std::move(it->message));
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::shared_ptr<Injector> injector_;
  std::vector<Delayed> stash_;
};

}  // namespace

std::function<std::shared_ptr<net::FaultHook>()> channel_hook_factory(
    std::shared_ptr<Injector> injector) {
  return [injector]() -> std::shared_ptr<net::FaultHook> {
    return std::make_shared<ChannelFaults>(injector);
  };
}

}  // namespace yanc::faults
