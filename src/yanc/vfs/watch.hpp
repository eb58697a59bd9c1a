// File-system monitoring, modelled on Linux inotify (paper §5.2).
//
// Applications create a WatchQueue, register it on nodes they care about
// (a flow's `version` file, the `switches/` directory, a packet-in event
// buffer), and consume Events.  Like inotify, queues are bounded: when a
// slow consumer falls behind, a single `overflow` event replaces the
// dropped tail, and applications are expected to rescan.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "yanc/dbg/lockdep.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/vfs/types.hpp"

namespace yanc::vfs {

/// Event bit mask values (combinable).
namespace event {
inline constexpr std::uint32_t created = 1u << 0;   // child created in dir
inline constexpr std::uint32_t deleted = 1u << 1;   // child removed from dir
inline constexpr std::uint32_t modified = 1u << 2;  // file content changed
inline constexpr std::uint32_t attrib = 1u << 3;    // metadata/xattr changed
inline constexpr std::uint32_t moved_from = 1u << 4;
inline constexpr std::uint32_t moved_to = 1u << 5;
inline constexpr std::uint32_t delete_self = 1u << 6;
inline constexpr std::uint32_t move_self = 1u << 7;
inline constexpr std::uint32_t overflow = 1u << 8;  // queue overflowed
inline constexpr std::uint32_t all =
    created | deleted | modified | attrib | moved_from | moved_to |
    delete_self | move_self;
}  // namespace event

/// Cap on causal refs a single (possibly coalesced) event carries.
inline constexpr std::size_t kMaxTraceRefs = 16;

/// One notification.  For directory watches, `name` is the child entry the
/// event refers to; for watches on the node itself it is empty.  Rename
/// emits a moved_from/moved_to pair sharing a `cookie`.
struct Event {
  Event() = default;
  Event(std::uint32_t mask_bits, NodeId target, std::string child = {},
        std::uint32_t rename_cookie = 0)
      : mask(mask_bits), node(target), name(std::move(child)),
        cookie(rename_cookie) {}

  std::uint32_t mask = 0;
  NodeId node = kInvalidNode;  // the watched node the event fired on
  std::string name;
  std::uint32_t cookie = 0;

  // Causal contexts this event carries (empty when untraced).  Normally
  // one ref — the context active on the emitting thread — but an event
  // that coalescing merged keeps every ref it absorbed, so a batched
  // consumer can close a stage span for each trace in the batch.
  // `trace_ts_ns` is when the oldest carried ref was enqueued: the
  // consumer's (now - trace_ts_ns) is the event's queue-wait.
  std::vector<obs::TraceRef> trace;
  std::uint64_t trace_ts_ns = 0;

  bool is(std::uint32_t bit) const noexcept { return (mask & bit) != 0; }
};

/// Bounded MPMC event queue with inotify-style overflow semantics.
class WatchQueue {
 public:
  explicit WatchQueue(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Producer side (called by filesystems).  Never blocks: drops to a single
  /// overflow marker when full.
  void push(Event e);

  /// Non-blocking consume.
  std::optional<Event> try_pop();

  /// Blocking consume with timeout; nullopt on timeout.
  std::optional<Event> pop_wait(std::chrono::milliseconds timeout);

  /// Non-blocking bulk consume: appends up to `max` queued events to
  /// `out` (front first, so delivery order is unchanged) and returns how
  /// many were appended.  One lock round-trip however many events move.
  std::size_t try_pop_batch(std::vector<Event>& out, std::size_t max);

  /// Blocking bulk consume: waits until at least one event is queued (or
  /// the timeout expires — empty result), then drains up to `max`.
  std::vector<Event> pop_wait_batch(std::size_t max,
                                    std::chrono::milliseconds timeout);

  /// Drains everything currently queued.
  std::vector<Event> drain();

  /// Coalescing policy: when enabled, a push whose event is modified-only
  /// and whose (node, name) equals the queue's current *tail* event (also
  /// modified-only) merges into that tail instead of enqueuing.  Only the
  /// tail is ever merged into, so per-path ordering is untouched and a
  /// terminal event (deleted, delete_self, overflow — any non-modified
  /// mask) breaks adjacency: nothing ever coalesces across it.
  void set_coalescing(bool enabled);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  bool overflowed() const;

  /// Mirrors queue depth, dropped events, and coalesced merges into obs
  /// handles (any may be nullptr).  The owner decides the metric names.
  void bind_metrics(obs::Gauge* depth, obs::Counter* drops,
                    obs::Counter* coalesced = nullptr);

 private:
  /// Moves up to `max` events into `out`; caller holds mu_.
  std::size_t drain_locked(std::vector<Event>& out, std::size_t max);

  mutable dbg::Mutex<dbg::Rank::watch_queue> mu_;
  dbg::CondVar cv_;
  std::deque<Event> events_;
  std::size_t capacity_;
  bool overflow_pending_ = false;
  bool coalesce_ = false;
  obs::Gauge* depth_metric_ = nullptr;
  obs::Counter* drop_metric_ = nullptr;
  obs::Counter* coalesce_metric_ = nullptr;
};

using WatchQueuePtr = std::shared_ptr<WatchQueue>;

/// Registry of (node, mask, queue) subscriptions owned by a Filesystem.
/// Filesystems call emit() at each mutation point.
class WatchRegistry {
 public:
  /// Identifier for removing a subscription.
  using WatchId = std::uint64_t;

  WatchId add(NodeId node, std::uint32_t mask, WatchQueuePtr queue);
  /// Removes the subscription `id`; returns the node it was on, or
  /// kInvalidNode when there is none (removed, or dropped with its node).
  NodeId remove(WatchId id);
  /// Drops every subscription on `node` (used when a node is destroyed).
  void drop_node(NodeId node);

  /// Fans the event out to every queue watching `node` whose mask matches.
  void emit(NodeId node, std::uint32_t mask, const std::string& name = {},
            std::uint32_t cookie = 0);

  std::size_t watch_count() const;

 private:
  struct Subscription {
    NodeId node;
    std::uint32_t mask;
    WatchQueuePtr queue;
  };
  mutable dbg::Mutex<dbg::Rank::watch_registry> mu_;
  std::uint64_t next_id_ = 1;
  // watch id -> subscription; node -> watch ids (small fan-out expected)
  std::unordered_map<WatchId, Subscription> subs_;
  std::unordered_map<NodeId, std::vector<WatchId>> by_node_;
};

}  // namespace yanc::vfs
