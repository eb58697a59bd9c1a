// Heap allocations of warmed Vfs calls, counted by a replaced global
// operator new; in a binary of its own, so that no other test's
// replacement or threads disturb the count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "yanc/vfs/memfs.hpp"
#include "yanc/vfs/vfs.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// All out of line: once one is inlined into a caller, GCC sees malloc or
// free meet the other operator and reports a mismatched pair
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace yanc::vfs {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// A value that fits std::string's inline buffer, so that returning or
// storing it allocates nothing by itself.
const std::string kValue(15, '7');

class VfsAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The file sits below a mount, so walks cross (and pin) a filesystem.
    ASSERT_FALSE(vfs.mkdir("/net"));
    ASSERT_FALSE(vfs.mount("/net", std::make_shared<MemFs>()));
    ASSERT_FALSE(vfs.mkdir_p("/net/switches/sw1/counters"));
    ASSERT_FALSE(vfs.write_file(kFile, kValue));
  }
  static constexpr const char* kDir = "/net/switches/sw1/counters";
  static constexpr const char* kFile = "/net/switches/sw1/counters/packet_ins";
  Vfs vfs;
};

TEST_F(VfsAllocTest, WarmedHandleReadAndWriteAllocateNothing) {
  auto dir = vfs.resolve(kDir, Credentials::root());
  ASSERT_TRUE(dir.ok());
  // The first calls on this thread size its walk buffers.
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(vfs.write_file(*dir, "packet_ins", kValue));
    ASSERT_TRUE(vfs.read_file(*dir, "packet_ins").ok());
  }
  const std::uint64_t before = allocations();
  const Status written = vfs.write_file(*dir, "packet_ins", kValue);
  const Result<std::string> read = vfs.read_file(*dir, "packet_ins");
  const std::uint64_t made = allocations() - before;
  EXPECT_FALSE(written);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, kValue);
  EXPECT_EQ(made, 0u);
}

TEST_F(VfsAllocTest, WarmedPathReadWriteAndStatAllocateNothing) {
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(vfs.write_file(kFile, kValue));
    ASSERT_TRUE(vfs.read_file(kFile).ok());
    ASSERT_TRUE(vfs.stat(kFile).ok());
  }
  const std::uint64_t before = allocations();
  const Status written = vfs.write_file(kFile, kValue);
  const Result<std::string> read = vfs.read_file(kFile);
  const Result<Stat> st = vfs.stat(kFile);
  const std::uint64_t made = allocations() - before;
  EXPECT_FALSE(written);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, kValue);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, kValue.size());
  EXPECT_EQ(made, 0u);
}

}  // namespace
}  // namespace yanc::vfs
