// EXP-4 (§8.1 + §3.5): packet-in fan-out to M applications — file-system
// event buffers (one private copy per app) vs libyanc's zero-copy packet
// pool (one write, M references).
//
// Expected shape: the FS path grows ~linearly in M x payload (every app's
// buffer gets mkdir + 6 file writes including the payload copy, and each
// app reads the 5 files it uses back and removes the directory); the
// zero-copy path is ~flat in M and independent of payload size.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <memory>

#include "yanc/fast/packet_pool.hpp"
#include "yanc/fast/ring.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"

using namespace yanc;

namespace {

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(i * 31);
  return p;
}

// The driver's §3.5 delivery: one pkt_* directory per application buffer.
void BM_FanOut_FsEvents(benchmark::State& state) {
  const int apps = static_cast<int>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  auto v = std::make_shared<vfs::Vfs>();
  (void)netfs::mount_yanc_fs(*v);
  netfs::NetDir net(v);
  std::vector<netfs::EventBufferHandle> buffers;
  for (int a = 0; a < apps; ++a)
    buffers.push_back(*net.open_events("app" + std::to_string(a)));
  auto frame = payload(bytes);
  netfs::PacketInInfo pkt;
  pkt.datapath = "sw1";
  pkt.in_port = 3;
  pkt.reason = "no_match";
  pkt.total_len = static_cast<std::uint16_t>(bytes);
  pkt.data.assign(frame.begin(), frame.end());

  std::uint64_t seq = 0;
  for (auto _ : state) {
    pkt.name = "pkt_" + std::to_string(seq++);
    (void)netfs::deliver_packet_in(*v, "/net/events", pkt);
    // Consumers read + remove (the app side of the buffer protocol).
    for (auto& buffer : buffers) benchmark::DoNotOptimize(buffer.drain());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes) * apps);
  state.counters["copies"] = benchmark::Counter(static_cast<double>(apps));
}
BENCHMARK(BM_FanOut_FsEvents)
    ->Args({1, 128})
    ->Args({2, 128})
    ->Args({4, 128})
    ->Args({8, 128})
    ->Args({1, 1500})
    ->Args({4, 1500})
    ->Args({8, 1500});

// libyanc: one pool write + M 16-byte references through SPSC rings.
void BM_FanOut_ZeroCopy(benchmark::State& state) {
  const int apps = static_cast<int>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  fast::PacketPool pool(64, 2048);
  std::vector<std::unique_ptr<fast::SpscRing<fast::PacketRef>>> rings;
  for (int a = 0; a < apps; ++a)
    rings.push_back(std::make_unique<fast::SpscRing<fast::PacketRef>>(64));
  auto frame = payload(bytes);

  for (auto _ : state) {
    auto ref = pool.emplace(frame, 1, 3);
    for (auto& ring : rings) (void)ring->push(*ref);
    *ref = fast::PacketRef{};
    // Consumers read the shared bytes and drop their reference.
    std::uint64_t checksum = 0;
    for (auto& ring : rings) {
      auto got = ring->pop();
      checksum += got->data()[0];
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes) * apps);
  state.counters["copies"] = benchmark::Counter(1);  // the pool write
}
BENCHMARK(BM_FanOut_ZeroCopy)
    ->Args({1, 128})
    ->Args({2, 128})
    ->Args({4, 128})
    ->Args({8, 128})
    ->Args({1, 1500})
    ->Args({4, 1500})
    ->Args({8, 1500});

}  // namespace

YANC_BENCH_MAIN();
