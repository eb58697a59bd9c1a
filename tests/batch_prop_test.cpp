// Property tests for the batched event pipeline's hot path (ISSUE 5):
// random interleaved creates/writes/removes against a watched directory,
// drained through the coalescing batch consumer, checked against a
// replayed model.
//
// Invariants per seed:
//   1. terminal events are never lost or merged: the delivered
//      created/deleted sequence per path equals the applied one exactly;
//   2. per-path order is preserved: replaying the event stream tracks the
//      real file system through every incarnation, and a path written
//      after its last create always delivers a modify for that (current)
//      incarnation — coalescing may drop duplicates, never the state
//      change itself, and never merges across a remove/create boundary;
//   3. conservation: delivered modifies + coalesced merges == applied
//      writes (a merge is accounted, not silently dropped).
//
// Tier-1 runs a handful of seeds; scripts/stress.sh sweeps 50 via
// YANC_PROP_SEED (each run covers [base, base+5)).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "yanc/obs/metrics.hpp"
#include "yanc/util/rng.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/memfs.hpp"

namespace yanc::vfs {
namespace {

constexpr std::size_t kNames = 8;
constexpr std::size_t kOps = 400;

std::string name_for(std::size_t i) { return numbered("f", i); }

struct AppliedOps {
  // Per name, the op sequence actually applied: 'C'reate, 'W'rite, 'D'elete.
  std::map<std::string, std::string> per_name;
  std::size_t writes = 0;
  std::size_t creates = 0;
  std::size_t deletes = 0;
};

struct Observed {
  std::map<std::string, std::string> per_name;  // 'c' / 'm' / 'd'
  std::size_t modifies = 0;
};

void run_case(std::uint64_t seed, bool coalesce) {
  SCOPED_TRACE("YANC_PROP_SEED=" + std::to_string(seed) +
               (coalesce ? " (coalescing)" : " (plain)"));
  util::Rng rng(seed);
  MemFs fs;
  Credentials root = Credentials::root();

  obs::Registry registry;
  auto* coalesced = registry.counter("coalesced");
  auto queue = std::make_shared<WatchQueue>(1 << 16);
  queue->set_coalescing(coalesce);
  queue->bind_metrics(registry.gauge("depth"), registry.counter("drops"),
                      coalesced);
  ASSERT_TRUE(fs.watch(fs.root(),
                       event::created | event::deleted | event::modified,
                       queue)
                  .ok());

  AppliedOps applied;
  Observed observed;
  std::map<std::string, bool> exists;        // the model's view
  std::map<std::string, bool> replay_exists;  // driven by events only
  std::vector<Event> batch;

  auto drain = [&] {
    while (queue->try_pop_batch(batch, rng.below(16) + 1) > 0) {
      for (const auto& e : batch) {
        ASSERT_FALSE(e.is(event::overflow)) << "queue sized to never drop";
        if (e.is(event::created)) {
          observed.per_name[e.name] += 'c';
          replay_exists[e.name] = true;
        } else if (e.is(event::deleted)) {
          observed.per_name[e.name] += 'd';
          replay_exists[e.name] = false;
        } else if (e.is(event::modified)) {
          observed.per_name[e.name] += 'm';
          ++observed.modifies;
        }
      }
      batch.clear();
    }
  };

  for (std::size_t op = 0; op < kOps; ++op) {
    std::string name = name_for(rng.below(kNames));
    if (!exists[name]) {
      ASSERT_TRUE(fs.create(fs.root(), name, 0644, root).ok());
      exists[name] = true;
      applied.per_name[name] += 'C';
      ++applied.creates;
    } else if (rng.chance(0.25)) {
      ASSERT_FALSE(fs.unlink(fs.root(), name, root));
      exists[name] = false;
      applied.per_name[name] += 'D';
      ++applied.deletes;
    } else {
      auto resolved = fs.lookup(fs.root(), name);
      ASSERT_TRUE(resolved.ok());
      ASSERT_TRUE(fs.write(*resolved, 0, std::to_string(op), root).ok());
      applied.per_name[name] += 'W';
      ++applied.writes;
    }
    // Interleave consumption so batches race ongoing mutation.
    if (rng.chance(0.2)) drain();
  }
  drain();

  // Invariant 1+2: replay each path's event stream against its applied
  // op stream.  Terminal events must match one-for-one and in order;
  // each modify must land inside an incarnation that was written; an
  // incarnation with at least one write must deliver at least one modify.
  for (const auto& [name, ops] : applied.per_name) {
    const std::string& events = observed.per_name[name];
    std::size_t ei = 0;
    bool open = false;         // inside an incarnation (after 'c')
    std::size_t pending_w = 0;  // writes applied to the open incarnation
    bool delivered_m = false;   // ≥1 modify seen for the open incarnation
    auto close_incarnation = [&](const char* boundary) {
      if (pending_w > 0) {
        EXPECT_TRUE(delivered_m)
            << name << ": incarnation with " << pending_w
            << " writes delivered no modify before " << boundary;
      }
      pending_w = 0;
      delivered_m = false;
    };
    for (char o : ops) {
      if (o == 'C') {
        ASSERT_LT(ei, events.size()) << name << ": lost created event";
        // Modifies from the previous incarnation may still be queued
        // ahead of this create; they count toward that incarnation.
        while (events[ei] == 'm') {
          delivered_m = true;
          ASSERT_LT(++ei, events.size()) << name << ": lost created event";
        }
        close_incarnation("create");
        ASSERT_EQ(events[ei], 'c')
            << name << ": terminal event out of order at " << ei;
        ++ei;
        open = true;
      } else if (o == 'D') {
        ASSERT_LT(ei, events.size()) << name << ": lost deleted event";
        while (events[ei] == 'm') {
          delivered_m = true;
          ASSERT_LT(++ei, events.size()) << name << ": lost deleted event";
        }
        close_incarnation("delete");
        ASSERT_EQ(events[ei], 'd')
            << name << ": terminal event out of order at " << ei;
        ++ei;
        open = false;
      } else {  // 'W'
        ASSERT_TRUE(open) << name << ": write outside an incarnation?";
        ++pending_w;
      }
    }
    // Trailing modifies belong to the final incarnation.
    for (; ei < events.size(); ++ei) {
      ASSERT_EQ(events[ei], 'm')
          << name << ": unexpected trailing terminal event";
      delivered_m = true;
    }
    close_incarnation("end of run");
  }

  // Replaying only the event stream reproduces the final directory.
  for (const auto& [name, present] : exists)
    EXPECT_EQ(replay_exists[name], present) << name;

  // Invariant 3: conservation of state changes.
  EXPECT_EQ(observed.modifies + coalesced->value(), applied.writes);
  if (!coalesce) {
    EXPECT_EQ(coalesced->value(), 0u);
  }
}

TEST(BatchPipelineProperty, RandomHistoriesCoalesced) {
  const char* env = std::getenv("YANC_PROP_SEED");
  const std::uint64_t base = env ? std::strtoull(env, nullptr, 10) : 1;
  for (std::uint64_t seed = base; seed < base + 5; ++seed)
    run_case(seed, /*coalesce=*/true);
}

TEST(BatchPipelineProperty, RandomHistoriesPlain) {
  const char* env = std::getenv("YANC_PROP_SEED");
  const std::uint64_t base = env ? std::strtoull(env, nullptr, 10) : 1;
  for (std::uint64_t seed = base; seed < base + 5; ++seed)
    run_case(seed, /*coalesce=*/false);
}

// The remove/create boundary, deterministically: a modify queued for an
// old incarnation must never absorb (or be absorbed by) one from the new
// incarnation, even though both carry the same path.
TEST(BatchPipelineProperty, RecreateBoundaryNeverMerges) {
  MemFs fs;
  Credentials root = Credentials::root();
  auto queue = std::make_shared<WatchQueue>();
  queue->set_coalescing(true);
  ASSERT_TRUE(fs.watch(fs.root(),
                       event::created | event::deleted | event::modified,
                       queue)
                  .ok());
  auto f1 = fs.create(fs.root(), "f", 0644, root);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(fs.write(*f1, 0, "a", root).ok());
  ASSERT_FALSE(fs.unlink(fs.root(), "f", root));
  auto f2 = fs.create(fs.root(), "f", 0644, root);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(fs.write(*f2, 0, "b", root).ok());

  std::string seq;
  std::vector<Event> batch;
  while (queue->try_pop_batch(batch, 64) > 0) {
    for (const auto& e : batch) {
      if (e.is(event::created)) seq += 'c';
      if (e.is(event::modified)) seq += 'm';
      if (e.is(event::deleted)) seq += 'd';
    }
    batch.clear();
  }
  EXPECT_EQ(seq, "cmdcm");  // both incarnations' modifies survive
}

}  // namespace
}  // namespace yanc::vfs
