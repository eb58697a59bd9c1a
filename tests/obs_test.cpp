// Tests for yanc::obs: the metrics registry, histogram percentile math,
// the trace ring, and the /yanc/.stats procfs-style subtree — including
// reading it through the shell coreutils, exactly how an administrator
// would (paper §5.4 applied to the controller's own telemetry).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "yanc/dist/replicated.hpp"
#include "yanc/driver/of_driver.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/obs/stats_fs.hpp"
#include "yanc/obs/trace.hpp"
#include "yanc/obs/trace_fs.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/shell/coreutils.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::obs {
namespace {

// --- Registry -----------------------------------------------------------

TEST(RegistryTest, GetOrCreateReturnsStableHandles) {
  Registry reg;
  Counter* c = reg.counter("vfs/lookup_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reg.counter("vfs/lookup_total"), c);  // same handle
  c->add();
  c->add(4);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_TRUE(reg.contains("vfs/lookup_total"));
  EXPECT_FALSE(reg.contains("vfs/nope"));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryTest, KindMismatchReturnsNull) {
  Registry reg;
  ASSERT_NE(reg.counter("x/metric_total"), nullptr);
  EXPECT_EQ(reg.gauge("x/metric_total"), nullptr);
  EXPECT_EQ(reg.histogram("x/metric_total"), nullptr);
  // The original registration is untouched.
  EXPECT_NE(reg.counter("x/metric_total"), nullptr);
}

TEST(RegistryTest, GenerationBumpsOnlyOnNewNames) {
  Registry reg;
  auto g0 = reg.generation();
  reg.counter("a/one_total");
  auto g1 = reg.generation();
  EXPECT_GT(g1, g0);
  reg.counter("a/one_total");  // get, not create
  EXPECT_EQ(reg.generation(), g1);
}

TEST(RegistryTest, ValueOfResolvesHistogramSuffixes) {
  Registry reg;
  reg.counter("vfs/read_total")->add(7);
  reg.gauge("netfs/watch_queue_depth")->set(-3);
  Histogram* h = reg.histogram("vfs/op_ns");
  for (int i = 0; i < 100; ++i) h->record(1000);

  EXPECT_EQ(reg.value_of("vfs/read_total").value_or(""), "7");
  EXPECT_EQ(reg.value_of("netfs/watch_queue_depth").value_or(""), "-3");
  EXPECT_EQ(reg.value_of("vfs/op_ns_count").value_or(""), "100");
  EXPECT_FALSE(reg.value_of("vfs/op_ns").has_value());  // bare histogram name
  EXPECT_FALSE(reg.value_of("vfs/missing_total").has_value());
  auto p99 = reg.value_of("vfs/op_ns_p99");
  ASSERT_TRUE(p99.has_value());
  // All samples identical: every percentile lands in the 1000 bucket.
  auto v = parse_u64(*p99);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(static_cast<double>(*v), 1000.0, 1000.0 * 0.07);
}

TEST(RegistryTest, ExportPathsAreSortedAndExpanded) {
  Registry reg;
  reg.histogram("b/lat_ns");
  reg.counter("a/ops_total");
  auto paths = reg.export_paths();
  ASSERT_EQ(paths.size(), 6u);
  EXPECT_EQ(paths[0], "a/ops_total");
  EXPECT_EQ(paths[1], "b/lat_ns_count");
  EXPECT_EQ(paths[2], "b/lat_ns_p50");
  EXPECT_EQ(paths[3], "b/lat_ns_p90");
  EXPECT_EQ(paths[4], "b/lat_ns_p99");
  EXPECT_EQ(paths[5], "b/lat_ns_sum");
}

// --- Histogram percentile math ------------------------------------------

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  // Values below 16 get one bucket each: percentiles are exact.
  for (std::uint64_t v = 0; v < 10; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.percentile(10), 0u);
  EXPECT_EQ(h.percentile(50), 4u);
  EXPECT_EQ(h.percentile(100), 9u);
}

TEST(HistogramTest, UniformDistributionPercentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.sum(), 10000ull * 10001 / 2);
  // Log-linear with 16 sub-buckets bounds relative error to ~6%; allow 10%.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 5000.0, 500.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(90)), 9000.0, 900.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 9900.0, 990.0);
}

TEST(HistogramTest, BimodalDistribution) {
  Histogram h;
  // 90% fast ops at ~100ns, 10% slow at ~1ms: p50 must report the fast
  // mode and p99 the slow mode — the whole point of keeping a histogram
  // instead of a mean (mean here is ~100,090ns, representing neither).
  for (int i = 0; i < 900; ++i) h.record(100);
  for (int i = 0; i < 100; ++i) h.record(1'000'000);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 100.0, 10.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 1e6, 1e5);
}

TEST(HistogramTest, EmptyAndOutlierClamp) {
  Histogram h;
  EXPECT_EQ(h.percentile(99), 0u);
  h.record(~0ull);  // beyond 2^40: clamped into the last decade, not UB
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.percentile(50), 1ull << 38);
}

// --- TraceRing ----------------------------------------------------------

TEST(TraceRingTest, RecordsAndDumps) {
  TraceRing ring(8);
  ring.event(100, "driver", "packet_in");
  ring.span(200, 50, "vfs", "write");
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "packet_in");
  EXPECT_EQ(events[1].dur_ns, 50u);
  EXPECT_EQ(ring.dump(), "0 100 0 driver packet_in\n1 200 50 vfs write\n");
}

TEST(TraceRingTest, WrapsKeepingNewestAndCountsDrops) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    ring.event(i * 10, "t", name);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest, and exactly the newest four survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
    std::string expected = "e";
    expected += std::to_string(6 + i);
    EXPECT_EQ(events[i].name, expected);
  }
}

TEST(TraceRingTest, DumpAfterWrapIsOldestFirstAndKeepsLinkage) {
  TraceRing ring(4);
  // Six legacy records (no linkage), then four with causal fields; the
  // wrap must retain exactly the newest four, oldest first, and the
  // legacy line format must survive the linkage extension unchanged.
  for (std::uint64_t i = 0; i < 6; ++i) ring.event(i * 10, "t", "legacy");
  for (std::uint64_t i = 0; i < 4; ++i) {
    TraceEvent e;
    e.ts_ns = 100 + i;
    e.dur_ns = 7;
    e.component = "driver";
    e.name = "commit";
    e.trace_id = 42;
    e.span_id = 50 + i;
    e.parent_span_id = 42;
    e.queue_ns = 3;
    if (i == 3) e.note = "retry 1";
    ring.record(std::move(e));
  }
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);  // strictly increasing across the wrap
    EXPECT_EQ(events[i].span_id, 50 + i);
  }
  std::string dump = ring.dump();
  EXPECT_EQ(dump.find("legacy"), std::string::npos);  // evicted
  EXPECT_NE(dump.find("6 100 7 driver commit trace=42 span=50 parent=42 "
                      "queue_ns=3\n"),
            std::string::npos);
  EXPECT_NE(dump.find("9 103 7 driver commit trace=42 span=53 parent=42 "
                      "queue_ns=3 note=retry 1\n"),
            std::string::npos);
}

// --- Tracer -------------------------------------------------------------

TEST(TracerTest, MintIsGatedOnEnableAndSampling) {
  Tracer tracer;
  EXPECT_FALSE(bool(tracer.mint("vfs", "write")));  // off: zero ref
  tracer.start();
  auto a = tracer.mint("vfs", "write");
  EXPECT_TRUE(bool(a));
  EXPECT_EQ(a.trace_id, a.span_id);  // root span carries the trace id
  tracer.set_sample_every(4);
  std::size_t minted = 0;
  for (int i = 0; i < 16; ++i)
    if (tracer.mint("vfs", "write")) ++minted;
  EXPECT_EQ(minted, 4u);  // exactly 1-in-4
}

TEST(TracerTest, ChildSpansLinkToParents) {
  Tracer tracer;
  tracer.start();
  auto root = tracer.mint("sw", "packet_in", "port 3");
  auto child = tracer.child(root, "driver", "packet_in", 100, 250, 40);
  ASSERT_TRUE(bool(child));
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  auto events = tracer.ring().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].note, "port 3");
  EXPECT_EQ(events[1].parent_span_id, root.span_id);
  EXPECT_EQ(events[1].dur_ns, 150u);
  EXPECT_EQ(events[1].queue_ns, 40u);
  // A zero parent disarms everything downstream.
  EXPECT_FALSE(bool(tracer.child({}, "driver", "packet_in", 0, 1, 0)));
}

TEST(TracerTest, TraceScopeInstallsAndRestores) {
  EXPECT_FALSE(bool(current_trace()));
  TraceRef outer{7, 9};
  {
    TraceScope scope(outer);
    EXPECT_EQ(current_trace().span_id, 9u);
    {
      TraceScope inner(TraceRef{7, 11});
      EXPECT_EQ(current_trace().span_id, 11u);
    }
    EXPECT_EQ(current_trace().span_id, 9u);
    // Regression: a zero scope is inert — it must NOT sever the active
    // context.  Nested ingress points (write_flow calling Vfs::write_file)
    // each open a scope on a possibly-zero mint; the inner zero must keep
    // the outer trace flowing into the watch events emitted under it.
    {
      TraceScope inert{TraceRef{}};
      EXPECT_EQ(current_trace().span_id, 9u);
    }
  }
  EXPECT_FALSE(bool(current_trace()));
}

TEST(TracerTest, SpanGuardRecordsServiceTimeAtDestruction) {
  Tracer& t = tracer();
  t.clear();
  t.start();
  auto root = t.mint("sw", "packet_in");
  {
    Span span(root, "driver", "packet_in", 11);
    ASSERT_TRUE(bool(span));
    EXPECT_EQ(span.ref().trace_id, root.trace_id);
    span.note("shard 2");
    // ref() is usable while still open: nested stages parent to it.
    TraceScope scope(span.ref());
    EXPECT_EQ(current_trace().span_id, span.ref().span_id);
  }
  auto events = t.ring().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].component, "driver");
  EXPECT_EQ(events[1].parent_span_id, root.span_id);
  EXPECT_EQ(events[1].queue_ns, 11u);
  EXPECT_EQ(events[1].note, "shard 2");
  // Inert span: no clock reads, no record, zero ref.
  { Span inert({}, "driver", "packet_in"); EXPECT_FALSE(bool(inert)); }
  EXPECT_EQ(t.ring().snapshot().size(), 2u);
  t.stop();
  t.clear();
}

TEST(TracerTest, WireAndPathHandoffsMeasureQueueWait) {
  Tracer tracer;
  tracer.start();
  auto ref = tracer.mint("sw", "packet_in");
  tracer.wire_put(1, 77, ref);
  tracer.path_put("/net/apps/l2/pkt_0", ref);
  EXPECT_EQ(tracer.inflight(), 2u);
  auto wire = tracer.wire_take(1, 77);
  ASSERT_TRUE(bool(wire));
  EXPECT_EQ(wire.ref.span_id, ref.span_id);
  EXPECT_GT(wire.ts_ns, 0u);
  EXPECT_FALSE(bool(tracer.wire_take(1, 77)));  // claimed exactly once
  auto path = tracer.path_take("/net/apps/l2/pkt_0");
  EXPECT_TRUE(bool(path));
  EXPECT_EQ(tracer.inflight(), 0u);
  // Zero refs are dropped at put(): a lost sampling draw costs nothing.
  tracer.wire_put(1, 78, {});
  EXPECT_EQ(tracer.inflight(), 0u);
}

TEST(TracerTest, TriggerKeepsAnchorsButFiltersFastSpans) {
  Tracer tracer;
  tracer.start();
  tracer.set_trigger_ns(1000);
  auto root = tracer.mint("vfs", "write");        // anchor: always kept
  (void)tracer.child(root, "driver", "commit", 100, 200, 0);    // 100ns: cut
  (void)tracer.child(root, "driver", "commit", 100, 200, 950);  // q+s >= 1µs
  tracer.annotate(root, "driver", "train_fault", "retry 1");  // always kept
  auto events = tracer.ring().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "write");
  EXPECT_EQ(events[1].queue_ns, 950u);
  EXPECT_EQ(events[2].note, "retry 1");
}

TEST(TracerTest, ClearDropsRingAndInflightEntries) {
  Tracer tracer;
  tracer.start();
  auto ref = tracer.mint("sw", "packet_in");
  tracer.wire_put(9, 1, ref);
  tracer.clear();
  EXPECT_EQ(tracer.ring().snapshot().size(), 0u);
  EXPECT_EQ(tracer.inflight(), 0u);
  // Ids keep rising: refs already in flight stay unique after clear().
  auto next = tracer.mint("sw", "packet_in");
  EXPECT_GT(next.trace_id, ref.trace_id);
}

// --- TraceFs ------------------------------------------------------------

class TraceFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(vfs->mkdir_p("/yanc/.trace", 0555, vfs::Credentials::root()));
    ASSERT_FALSE(vfs->mount("/yanc/.trace", make_trace_fs(tracer)));
  }
  Status ctl(std::string_view line) {
    return vfs->write_file("/yanc/.trace/ctl", line);
  }
  std::string status() { return *vfs->read_file("/yanc/.trace/status"); }
  Tracer tracer;
  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
};

TEST_F(TraceFsTest, CtlGrammarDrivesTheTracer) {
  EXPECT_FALSE(tracer.enabled());
  ASSERT_FALSE(ctl("start"));
  EXPECT_TRUE(tracer.enabled());
  ASSERT_FALSE(ctl("sample_every=8 trigger=dur_ns>1ms capacity=512"));
  EXPECT_EQ(tracer.sample_every(), 8u);
  EXPECT_EQ(tracer.trigger_ns(), 1000000u);
  EXPECT_EQ(tracer.ring().capacity(), 512u);
  std::string st = status();
  EXPECT_NE(st.find("enabled 1"), std::string::npos);
  EXPECT_NE(st.find("sample_every 8"), std::string::npos);
  EXPECT_NE(st.find("trigger_ns 1000000"), std::string::npos);
  EXPECT_NE(st.find("capacity 512"), std::string::npos);
  ASSERT_FALSE(ctl("trigger=off stop"));
  EXPECT_EQ(tracer.trigger_ns(), 0u);
  EXPECT_FALSE(tracer.enabled());
}

TEST_F(TraceFsTest, CtlParsesThenAppliesSoBadLinesChangeNothing) {
  ASSERT_FALSE(ctl("start sample_every=4"));
  // One bad token poisons the whole line: nothing applies.
  EXPECT_EQ(ctl("sample_every=2 bogus=1"),
            make_error_code(Errc::invalid_argument));
  EXPECT_EQ(ctl("start stop"), make_error_code(Errc::invalid_argument));
  EXPECT_EQ(ctl("trigger=dur_ns>fast"),
            make_error_code(Errc::invalid_argument));
  EXPECT_TRUE(tracer.enabled());
  EXPECT_EQ(tracer.sample_every(), 4u);
  // Only ctl is writable.
  EXPECT_EQ(vfs->write_file("/yanc/.trace/status", "x"),
            make_error_code(Errc::access_denied));
  EXPECT_EQ(vfs->mkdir("/yanc/.trace/by-id/99"),
            make_error_code(Errc::not_permitted));
}

TEST_F(TraceFsTest, WatchSeesAcceptedCtlWritesOnly) {
  auto queue = std::make_shared<vfs::WatchQueue>();
  auto watch = vfs->watch("/yanc/.trace/ctl", vfs::event::modified, queue);
  ASSERT_TRUE(watch.ok());
  ASSERT_FALSE(ctl("sample_every=4"));
  auto events = queue->drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].is(vfs::event::modified));
  // A rejected line changed nothing, so nothing is announced.
  EXPECT_EQ(ctl("sample_every=0"), make_error_code(Errc::invalid_argument));
  EXPECT_TRUE(queue->drain().empty());
}

TEST_F(TraceFsTest, ByIdListsAndRendersSpanTrees) {
  tracer.start();
  auto root = tracer.mint("vfs", "write", "/net/switches/sw1/flows/f");
  auto commit = tracer.child(root, "driver", "commit", 2000, 2500, 300);
  (void)tracer.child(commit, "sw", "flow_mod", 2600, 2650, 50);
  auto other = tracer.mint("sw", "packet_in");
  ASSERT_TRUE(bool(other));

  auto ids = shell::ls(*vfs, "/yanc/.trace/by-id");
  ASSERT_TRUE(ids.ok());
  EXPECT_NE(ids->find(std::to_string(root.trace_id)), std::string::npos);
  EXPECT_NE(ids->find(std::to_string(other.trace_id)), std::string::npos);

  auto rendered =
      vfs->read_file("/yanc/.trace/by-id/" + std::to_string(root.trace_id));
  ASSERT_TRUE(rendered.ok());
  EXPECT_NE(rendered->find("trace " + std::to_string(root.trace_id) +
                           ": 3 spans"),
            std::string::npos);
  // Children indent under their parents, queue/service split visible.
  EXPECT_NE(rendered->find("vfs/write"), std::string::npos);
  EXPECT_NE(rendered->find("\n  driver/commit"), std::string::npos);
  EXPECT_NE(rendered->find("\n    sw/flow_mod"), std::string::npos);
  EXPECT_NE(rendered->find("queue=300ns dur=500ns"), std::string::npos);
  // The other trace's spans stay out of this file.
  EXPECT_EQ(rendered->find("packet_in"), std::string::npos);

  EXPECT_EQ(vfs->read_file("/yanc/.trace/by-id/123456").error(),
            make_error_code(Errc::not_found));
}

TEST_F(TraceFsTest, ExportJsonIsChromeTraceEventShaped) {
  tracer.start();
  auto root = tracer.mint("vfs", "write", "a \"quoted\"\npath");
  (void)tracer.child(root, "driver", "commit", 1000, 4000, 500);
  auto json = vfs->read_file("/yanc/.trace/export.json");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->front(), '{');
  EXPECT_EQ(json->substr(json->size() - 3), "]}\n");
  EXPECT_NE(json->find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json->find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json->find("\"name\":\"driver/commit\""), std::string::npos);
  EXPECT_NE(json->find("\"queue_ns\":500"), std::string::npos);
  // Notes are escaped into valid JSON string literals; the body itself is
  // one line (the only newline is the trailing one).
  EXPECT_NE(json->find("a \\\"quoted\\\"\\npath"), std::string::npos);
  EXPECT_EQ(json->find('\n'), json->size() - 1);
}

TEST_F(TraceFsTest, ClearResetsCaptureAndByIdNamespace) {
  tracer.start();
  auto root = tracer.mint("vfs", "write");
  std::string file = "/yanc/.trace/by-id/" + std::to_string(root.trace_id);
  ASSERT_TRUE(vfs->read_file(file).ok());
  ASSERT_FALSE(ctl("clear"));
  EXPECT_EQ(tracer.ring().snapshot().size(), 0u);
  EXPECT_EQ(vfs->read_file(file).error(), make_error_code(Errc::not_found));
  EXPECT_NE(status().find("events 0"), std::string::npos);
}

// --- StatsFs ------------------------------------------------------------

TEST(StatsFsTest, MaterializesRegistryAsTree) {
  auto vfs = std::make_shared<vfs::Vfs>();
  auto mounted = mount_stats_fs(*vfs);
  ASSERT_TRUE(mounted.ok());

  // The Vfs registered its own metrics at construction; they must be
  // visible as files, via plain readdir/cat.
  auto entries = vfs->readdir("/yanc/.stats/vfs");
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& e : *entries) names.push_back(e.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "lookup_total"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "op_ns_p99"), names.end());
}

// A histogram's _sum row is the total of what it recorded, so a stage's
// service_ns_sum reads as its busy time.
TEST(StatsFsTest, HistogramSumReadsAsTotal) {
  auto vfs = std::make_shared<vfs::Vfs>();
  Histogram* service = vfs->metrics()->histogram("pipeline/test/service_ns");
  for (std::uint64_t ns : {100u, 250u, 650u, 12'000u}) service->record(ns);
  ASSERT_TRUE(mount_stats_fs(*vfs).ok());

  auto sum = vfs->read_file("/yanc/.stats/pipeline/test/service_ns_sum");
  ASSERT_TRUE(sum.ok()) << sum.error().message();
  EXPECT_EQ(trim(*sum), "13000");
  auto count = vfs->read_file("/yanc/.stats/pipeline/test/service_ns_count");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(trim(*count), "4");

  // Live: the row follows later records.
  service->record(7);
  sum = vfs->read_file("/yanc/.stats/pipeline/test/service_ns_sum");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(trim(*sum), "13007");
}

TEST(StatsFsTest, CountersReadThroughShellAndIncreaseMonotonically) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(mount_stats_fs(*vfs).ok());

  auto read_counter = [&](const std::string& path) {
    auto text = shell::cat(*vfs, path);
    EXPECT_TRUE(text.ok()) << path;
    auto v = parse_u64(trim(*text));
    EXPECT_TRUE(v.ok()) << *text;
    return *v;
  };

  std::uint64_t before = read_counter("/yanc/.stats/vfs/lookup_total");
  for (int i = 0; i < 128; ++i) (void)vfs->stat("/yanc");
  std::uint64_t after = read_counter("/yanc/.stats/vfs/lookup_total");
  EXPECT_GT(after, before);
  // Monotonic: a third read can only move forward.
  EXPECT_GE(read_counter("/yanc/.stats/vfs/lookup_total"), after);

  // The latency histogram samples 1-in-64 ops; 128 stats guarantee a hit.
  EXPECT_GT(read_counter("/yanc/.stats/vfs/op_ns_count"), 0u);
}

TEST(StatsFsTest, IsReadOnly) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(mount_stats_fs(*vfs).ok());
  EXPECT_TRUE(vfs->write_file("/yanc/.stats/vfs/lookup_total", "0"));
  EXPECT_TRUE(vfs->mkdir("/yanc/.stats/mine"));
  EXPECT_TRUE(vfs->unlink("/yanc/.stats/vfs/lookup_total"));
  // ...but stat and readdir are world-accessible.
  vfs::Credentials nobody;
  nobody.uid = 1000;
  nobody.gid = 1000;
  EXPECT_TRUE(vfs->stat("/yanc/.stats/vfs/lookup_total", nobody).ok());
}

TEST(StatsFsTest, NewMetricsAppearWithoutRemount) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(mount_stats_fs(*vfs).ok());
  EXPECT_FALSE(vfs->stat("/yanc/.stats/apps/route_total").ok());
  vfs->metrics()->counter("apps/route_total")->add(3);
  auto text = shell::cat(*vfs, "/yanc/.stats/apps/route_total");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(trim(*text), "3");
}

// Metrics registered while other threads read the tree: every metric
// registered before a read starts must resolve, however the tree's
// catch-up with the registry interleaves with the read.
TEST(StatsFsTest, RegisteredMetricsResolveDuringConcurrentRegistration) {
  constexpr int kRounds = 8;  // a fresh tree each: many catch-ups to race
  constexpr int kMetrics = 256;
  auto name = [](int i) { return "race/m" + std::to_string(i) + "_total"; };
  for (int round = 0; round < kRounds; ++round) {
    auto vfs = std::make_shared<vfs::Vfs>();
    ASSERT_TRUE(mount_stats_fs(*vfs).ok());
    std::atomic<int> registered{0};
    std::atomic<int> misses{0};
    std::vector<std::thread> readers;
    for (std::uint64_t t = 1; t <= 3; ++t)
      readers.emplace_back([&, t] {
        std::uint64_t state = t;
        for (;;) {
          int n = registered.load(std::memory_order_acquire);
          if (n == kMetrics) return;
          if (n == 0) continue;
          // Mostly the newest metrics: a tree that has not caught up
          // with the registry lacks exactly those.
          state = state * 6364136223846793005ull + 1442695040888963407ull;
          int i = n - 1 - static_cast<int>((state >> 33) % 4u);
          if (i < 0) i = 0;
          if (!vfs->read_file("/yanc/.stats/" + name(i))) ++misses;
        }
      });
    for (int i = 0; i < kMetrics; ++i) {
      vfs->metrics()->counter(name(i))->add();
      registered.store(i + 1, std::memory_order_release);
      std::this_thread::yield();
    }
    for (auto& reader : readers) reader.join();
    EXPECT_EQ(misses.load(), 0) << "round " << round;
  }
}

TEST(StatsFsTest, RefreshEmitsModifiedEventsForWatchers) {
  auto vfs = std::make_shared<vfs::Vfs>();
  auto mounted = mount_stats_fs(*vfs);
  ASSERT_TRUE(mounted.ok());
  auto stats = *mounted;

  auto queue = std::make_shared<vfs::WatchQueue>();
  auto watch =
      vfs->watch("/yanc/.stats/vfs/read_total", vfs::event::modified, queue);
  ASSERT_TRUE(watch.ok());

  (void)vfs->read_file("/yanc/.stats/vfs/lookup_total");  // bump read_total
  EXPECT_GT(stats->refresh(), 0u);
  auto event = queue->try_pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->is(vfs::event::modified));

  // No traffic => no change => no event.
  stats->refresh();
  std::size_t steady = queue->drain().size();
  stats->refresh();
  EXPECT_EQ(queue->drain().size(), steady - steady);  // empty after drain
}

// Vfs::counters() is computed from the vfs/*_total counters that
// /yanc/.stats shows, so the two agree; reset_counters() restarts only
// counters().
TEST(StatsFsTest, VfsCountersAgreeWithStatsFiles) {
  auto vfs = std::make_shared<vfs::Vfs>();
  auto mounted = mount_stats_fs(*vfs);
  ASSERT_TRUE(mounted.ok());
  auto stats = *mounted;
  // Read through the mounted filesystem itself: a Vfs call would count.
  auto file = [&](const char* name) -> std::uint64_t {
    auto dir = stats->lookup(stats->root(), "vfs");
    auto node = dir ? stats->lookup(*dir, name) : dir;
    if (!node) return ~std::uint64_t{0};
    auto text = stats->read(*node, 0, 64, vfs::Credentials::root());
    if (!text) return ~std::uint64_t{0};
    return parse_u64(trim(*text)).value_or(~std::uint64_t{0});
  };
  struct Files {
    std::uint64_t reads, writes, metadata, lookups;
  };
  auto files = [&] {
    return Files{file("read_total"), file("write_total"),
                 file("metadata_total"), file("lookup_total")};
  };
  auto mix = [&] {
    ASSERT_FALSE(vfs->mkdir_p("/a/b"));
    ASSERT_FALSE(vfs->write_file("/a/b/f", "x"));
    ASSERT_TRUE(vfs->read_file("/a/b/f").ok());
    ASSERT_TRUE(vfs->stat("/a/b").ok());
    auto dir = vfs->resolve("/a/b", vfs::Credentials::root());
    ASSERT_TRUE(dir.ok());
    ASSERT_TRUE(vfs->read_file(*dir, "f").ok());
    ASSERT_FALSE(vfs->write_file(*dir, "g", "y"));
    ASSERT_TRUE(vfs->readdir(*dir).ok());
    ASSERT_FALSE(vfs->rename("/a/b/g", "/a/b/h"));
    EXPECT_FALSE(vfs->read_file("/a/missing").ok());
  };
  auto expect_counts = [&](const Files& since) {
    const Files now = files();
    const vfs::OpCounters c = vfs->counters();
    EXPECT_EQ(c.reads.load(), now.reads - since.reads);
    EXPECT_EQ(c.writes.load(), now.writes - since.writes);
    EXPECT_EQ(c.metadata.load(), now.metadata - since.metadata);
    EXPECT_EQ(c.lookups.load(), now.lookups - since.lookups);
    EXPECT_EQ(c.total.load(), c.reads.load() + c.writes.load() +
                                  c.metadata.load() + c.lookups.load());
  };

  mix();
  expect_counts(Files{0, 0, 0, 0});
  EXPECT_GT(vfs->counters().total.load(), 0u);

  const Files at_reset = files();
  vfs->reset_counters();
  EXPECT_EQ(vfs->counters().total.load(), 0u);
  const Files after_reset = files();
  EXPECT_EQ(after_reset.reads, at_reset.reads);
  EXPECT_EQ(after_reset.writes, at_reset.writes);
  EXPECT_EQ(after_reset.metadata, at_reset.metadata);
  EXPECT_EQ(after_reset.lookups, at_reset.lookups);

  mix();
  expect_counts(at_reset);
  EXPECT_GT(vfs->counters().total.load(), 0u);
}

TEST(StatsFsTest, LockEdgeGraphExposedAsFile) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(mount_stats_fs(*vfs).ok());
  // A mkdir under a watched directory fans its event out from MemFs,
  // nesting watch_registry under vfs_emit.
  ASSERT_FALSE(vfs->mkdir("/w"));
  auto queue = std::make_shared<vfs::WatchQueue>();
  auto watch = vfs->watch("/w", vfs::event::created, queue);
  ASSERT_TRUE(watch.ok());
  ASSERT_FALSE(vfs->mkdir("/w/d"));
  auto text = shell::cat(*vfs, "/yanc/.stats/dbg/lock_edges");
  ASSERT_TRUE(text.ok());
#if YANC_DBG_LOCKS
  // The dump holds that edge, in the "<held> <acquired> <site> <site>"
  // format yanc-analyze diffs.
  EXPECT_NE(text->find("vfs_emit watch_registry "), std::string::npos);
#else
  EXPECT_TRUE(text->empty());  // release builds record no graph
#endif
}

// --- Cross-subsystem wiring ---------------------------------------------

TEST(ObsIntegrationTest, NetfsValidationMetrics) {
  auto vfs = std::make_shared<vfs::Vfs>();
  ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
  ASSERT_TRUE(mount_stats_fs(*vfs).ok());
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));

  auto& reg = *vfs->metrics();
  std::uint64_t writes = reg.counter("netfs/typed_write_total")->value();
  std::uint64_t fails = reg.counter("netfs/validation_fail_total")->value();

  // A valid typed write counts once; an invalid one also fails the count.
  EXPECT_FALSE(vfs->write_file("/net/switches/sw1/id", "0xab"));
  EXPECT_TRUE(vfs->write_file("/net/switches/sw1/id", "not hex"));
  EXPECT_GE(reg.counter("netfs/typed_write_total")->value(), writes + 2);
  EXPECT_EQ(reg.counter("netfs/validation_fail_total")->value(), fails + 1);
}

TEST(ObsIntegrationTest, SwitchHitMissCounters) {
  net::Scheduler scheduler;
  net::Network network(scheduler);
  Registry reg;

  sw::SwitchOptions opts;
  opts.datapath_id = 0x1;
  sw::Switch dp("dp1", opts, network);
  dp.add_port(1, MacAddress::from_u64(0x101), "eth0");
  dp.bind_metrics(reg);

  net::Host h1("h1", MacAddress::from_u64(0xa1), Ipv4Address(0x0a000001),
               network);
  ASSERT_TRUE(network.add_link(dp, 1, h1, 0).ok());
  h1.send_arp_request(Ipv4Address(0x0a000002));
  scheduler.run_until_idle();

  // No flow table entries yet: the frame is a miss.
  EXPECT_EQ(reg.counter("sw/flow_hit_total")->value(), 0u);
  EXPECT_GE(reg.counter("sw/flow_miss_total")->value(), 1u);
}

TEST(ObsIntegrationTest, ReplicationLagHistogram) {
  net::Scheduler scheduler;
  dist::ClusterOptions options;
  options.nodes = 2;
  options.link_latency = std::chrono::microseconds(500);
  dist::Cluster cluster(scheduler, options);

  Registry reg;
  cluster.fs(1)->bind_metrics(reg);

  auto fs0 = cluster.fs(0);
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(switches.ok());
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  scheduler.run_until_idle();

  Histogram* lag = reg.histogram("dist/replication_lag_ns");
  ASSERT_GE(lag->count(), 1u);
  // One simulated hop from the primary: lag == link latency (500us),
  // reported within the histogram's ~6% bucket resolution.
  EXPECT_NEAR(static_cast<double>(lag->percentile(50)), 500'000.0, 35'000.0);
  EXPECT_GE(reg.counter("dist/replication_apply_total")->value(), 1u);
}

}  // namespace
}  // namespace yanc::obs
