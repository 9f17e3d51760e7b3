#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "proc/address_space.hpp"
#include "proc/process.hpp"

namespace migr::proc {
namespace {

using common::Errc;

TEST(AddressSpace, MmapFixedAndAccess) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, 8192, "buf").is_ok());
  std::uint8_t data[4] = {1, 2, 3, 4};
  ASSERT_TRUE(mem.write(0x10000 + 100, data).is_ok());
  std::uint8_t out[4] = {};
  ASSERT_TRUE(mem.read(0x10000 + 100, out).is_ok());
  EXPECT_EQ(std::memcmp(data, out, 4), 0);
}

TEST(AddressSpace, UnmappedAccessFails) {
  AddressSpace mem;
  std::uint8_t b[1] = {0};
  EXPECT_EQ(mem.read(0x5000, b).code(), Errc::permission_denied);
  EXPECT_EQ(mem.write(0x5000, b).code(), Errc::permission_denied);
}

TEST(AddressSpace, WrappingRangeIsUnmapped) {
  AddressSpace mem;
  const VirtAddr top = ~std::uint64_t{0} - kPageSize + 1;  // last page
  ASSERT_TRUE(mem.mmap_fixed(0x10000, kPageSize, "low").is_ok());
  // 2^64 - 2048 plus 4096 bytes wraps to 2048.
  const VirtAddr wrapping = ~std::uint64_t{0} - 2047;
  std::vector<std::uint8_t> buf(kPageSize, 0xEE);
  EXPECT_FALSE(mem.mapped(wrapping, buf.size()));
  EXPECT_EQ(mem.read(wrapping, buf).code(), Errc::permission_denied);
  EXPECT_EQ(mem.write(wrapping, buf).code(), Errc::permission_denied);
  // A wrapping range starting inside a VMA is unmapped too.
  EXPECT_FALSE(mem.mapped(0x10000 + 1, ~std::uint64_t{0}));
  // No VMA may end past the top of the address space.
  EXPECT_EQ(mem.mmap_fixed(top, kPageSize, "top").code(), Errc::invalid_argument);
  EXPECT_EQ(mem.mremap(0x10000, top).code(), Errc::invalid_argument);
}

TEST(AddressSpace, OverlappingMmapRejected) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, 8192, "a").is_ok());
  EXPECT_EQ(mem.mmap_fixed(0x11000, 4096, "b").code(), Errc::already_exists);
  EXPECT_EQ(mem.mmap_fixed(0xF000, 8192, "c").code(), Errc::already_exists);
  // Adjacent is fine.
  EXPECT_TRUE(mem.mmap_fixed(0x12000, 4096, "d").is_ok());
}

TEST(AddressSpace, CrossPageAccess) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, 3 * kPageSize, "buf").is_ok());
  std::vector<std::uint8_t> data(kPageSize + 123, 0xAB);
  ASSERT_TRUE(mem.write(0x10000 + kPageSize - 50, data).is_ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(mem.read(0x10000 + kPageSize - 50, out).is_ok());
  EXPECT_EQ(data, out);
}

TEST(AddressSpace, CrossVmaAccessWhenAdjacent) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, kPageSize, "a").is_ok());
  ASSERT_TRUE(mem.mmap_fixed(0x10000 + kPageSize, kPageSize, "b").is_ok());
  std::vector<std::uint8_t> data(100, 7);
  EXPECT_TRUE(mem.write(0x10000 + kPageSize - 50, data).is_ok());
}

TEST(AddressSpace, MunmapRemovesPages) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, kPageSize, "a").is_ok());
  ASSERT_TRUE(mem.munmap(0x10000).is_ok());
  std::uint8_t b[1] = {0};
  EXPECT_FALSE(mem.read(0x10000, b).is_ok());
  EXPECT_EQ(mem.munmap(0x10000).code(), Errc::not_found);
}

TEST(AddressSpace, MmapAnywhereDoesNotOverlap) {
  AddressSpace mem;
  auto a = mem.mmap(10000, "a");
  auto b = mem.mmap(10000, "b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_TRUE(mem.mapped(a.value(), 10000));
  EXPECT_TRUE(mem.mapped(b.value(), 10000));
}

TEST(AddressSpace, DirtyTrackingAndClear) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, 4 * kPageSize, "buf").is_ok());
  // Fresh mappings are clean until written.
  EXPECT_TRUE(mem.collect_dirty().empty());
  std::uint8_t b[1] = {1};
  ASSERT_TRUE(mem.write(0x10000 + kPageSize + 5, b).is_ok());
  auto dirty = mem.collect_dirty(/*clear=*/true);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0x10000 + kPageSize);
  EXPECT_TRUE(mem.collect_dirty().empty());
}

TEST(AddressSpace, MarkAllDirty) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, 3 * kPageSize, "buf").is_ok());
  mem.mark_all_dirty();
  EXPECT_EQ(mem.collect_dirty().size(), 3u);
}

TEST(AddressSpace, MremapPreservesContentAndPhysicalIdentity) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, 2 * kPageSize, "buf").is_ok());
  std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(mem.write(0x10000 + kPageSize, data).is_ok());
  const std::uint8_t* phys_before = mem.page_at(0x10000 + kPageSize)->data();

  ASSERT_TRUE(mem.mremap(0x10000, 0x40000).is_ok());
  EXPECT_FALSE(mem.mapped(0x10000, 1));
  std::uint8_t out[8] = {};
  ASSERT_TRUE(mem.read(0x40000 + kPageSize, out).is_ok());
  EXPECT_EQ(std::memcmp(data, out, 8), 0);
  // Same physical page object after the move (mremap keeps phys pages).
  EXPECT_EQ(phys_before, mem.page_at(0x40000 + kPageSize)->data());
}

TEST(AddressSpace, MremapCarriesDirtyBits) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, kPageSize, "buf").is_ok());
  std::uint8_t b[1] = {1};
  ASSERT_TRUE(mem.write(0x10000, b).is_ok());
  ASSERT_TRUE(mem.mremap(0x10000, 0x90000).is_ok());
  auto dirty = mem.collect_dirty();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0x90000u);
}

TEST(AddressSpace, MremapRejectsOccupiedTarget) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, kPageSize, "a").is_ok());
  ASSERT_TRUE(mem.mmap_fixed(0x20000, kPageSize, "b").is_ok());
  EXPECT_EQ(mem.mremap(0x10000, 0x20000).code(), Errc::already_exists);
}

TEST(AddressSpace, FindVmaAndTags) {
  AddressSpace mem;
  ASSERT_TRUE(mem.mmap_fixed(0x10000, kPageSize, "qp_buf").is_ok());
  const Vma* vma = mem.find_vma(0x10010);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->tag, "qp_buf");
  EXPECT_EQ(mem.find_vma(0x20000), nullptr);
}

TEST(SimProcess, PollerStopsWhenFrozen) {
  sim::EventLoop loop;
  SimProcess p(1, "app", loop);
  int ticks = 0;
  p.spawn_poller(10, [&] { ticks++; });
  loop.run_until(100);
  const int before = ticks;
  EXPECT_GT(before, 5);
  p.freeze();
  loop.run_until(200);
  EXPECT_EQ(ticks, before);
  p.thaw();
  loop.run_until(300);
  EXPECT_GT(ticks, before);
}

TEST(SimProcess, DaemonSurvivesFreezeButNotKill) {
  sim::EventLoop loop;
  SimProcess p(2, "daemon-holder", loop);
  int ticks = 0;
  p.spawn_task(
      10,
      [&] {
        ticks++;
        return true;
      },
      /*daemon=*/true);
  p.freeze();
  loop.run_until(100);
  EXPECT_GT(ticks, 5);
  const int before = ticks;
  p.kill();
  loop.run_until(200);
  EXPECT_EQ(ticks, before);
}

TEST(SimProcess, IdleTaskParksAndFreezeDefersItsWakeToThaw) {
  sim::EventLoop loop;
  SimProcess p(3, "app", loop);
  std::vector<sim::TimeNs> ticks;
  int work = 0;
  p.spawn_task(10, [&] {
    ticks.push_back(loop.now());
    if (work == 0) return false;
    work--;
    return true;
  });
  loop.run_until(100);
  EXPECT_EQ(ticks, (std::vector<sim::TimeNs>{10}));

  // Work arrives while frozen: the wake waits for the thaw.
  p.freeze();
  work = 1;
  p.wake_tasks();
  loop.run_until(200);
  EXPECT_EQ(ticks.size(), 1u);
  loop.schedule_at(205, [&] { p.thaw(); });
  loop.run_until(300);
  EXPECT_EQ(ticks, (std::vector<sim::TimeNs>{10, 210, 220}));
}

TEST(SimProcess, WakeTasksLeavesDaemonsToTheirOwner) {
  sim::EventLoop loop;
  SimProcess p(4, "lib", loop);
  int ticks = 0;
  sim::EventHandle daemon = p.spawn_task(
      10,
      [&] {
        ticks++;
        return false;
      },
      /*daemon=*/true);
  loop.run_until(100);
  EXPECT_EQ(ticks, 1);
  p.wake_tasks();
  loop.run_until(200);
  EXPECT_EQ(ticks, 1);
  loop.wake(daemon);
  loop.run_until(300);
  EXPECT_EQ(ticks, 2);
}

}  // namespace
}  // namespace migr::proc
