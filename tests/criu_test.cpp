#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "criu/checkpoint.hpp"
#include "criu/dirtyrate.hpp"
#include "criu/image.hpp"
#include "sim/event_loop.hpp"

namespace migr::criu {
namespace {

using common::Errc;
using proc::kPageSize;
using proc::SimProcess;
using proc::VirtAddr;

class CriuTest : public ::testing::Test {
 protected:
  CriuTest() : src_(1, "src", loop_), dst_(2, "dst", loop_) {}

  VirtAddr alloc_filled(SimProcess& p, std::uint64_t size, std::uint8_t fill,
                        const std::string& tag = "buf") {
    VirtAddr va = p.mem().mmap(size, tag).value();
    std::vector<std::uint8_t> data(size, fill);
    EXPECT_TRUE(p.mem().write(va, data).is_ok());
    return va;
  }

  void expect_filled(SimProcess& p, VirtAddr va, std::uint64_t size, std::uint8_t fill) {
    std::vector<std::uint8_t> data(size);
    ASSERT_TRUE(p.mem().read(va, data).is_ok());
    for (std::uint64_t i = 0; i < size; ++i) ASSERT_EQ(data[i], fill) << "offset " << i;
  }

  /// Run a complete pre-copy + stop-and-copy migration of src_'s memory
  /// into dst_, with `pinned` VMAs placed at original addresses up front.
  void migrate(const std::set<VirtAddr>& pinned = {}) {
    Checkpointer ckpt(src_);
    Restorer restorer(dst_);
    auto d0 = ckpt.pre_dump();
    ASSERT_TRUE(restorer.begin(d0.image, pinned).is_ok());
    ASSERT_TRUE(restorer.apply_pages(d0.pages).is_ok());
    src_.freeze();
    auto df = ckpt.final_dump();
    ASSERT_TRUE(df.is_ok());
    ASSERT_TRUE(restorer.update(df->image, pinned).is_ok());
    ASSERT_TRUE(restorer.apply_pages(df->pages).is_ok());
    ASSERT_TRUE(restorer.finish().is_ok());
  }

  sim::EventLoop loop_;
  SimProcess src_;
  SimProcess dst_;
};

TEST(ImageFormat, MemoryImageRoundTrip) {
  MemoryImage img;
  img.mmap_cursor = 0x7f0012340000;
  img.vmas = {{0x1000, 8192, "heap"}, {0x9000, 4096, "qp_buf"}};
  auto parsed = MemoryImage::parse(img.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->mmap_cursor, img.mmap_cursor);
  ASSERT_EQ(parsed->vmas.size(), 2u);
  EXPECT_EQ(parsed->vmas[1].tag, "qp_buf");
  EXPECT_NE(parsed->find(0x9000), nullptr);
  EXPECT_EQ(parsed->find(0x5000), nullptr);
}

TEST(ImageFormat, PageSetRoundTrip) {
  const common::Bytes content(kPageSize, 0x5A);
  PageSet set;
  set.pages.push_back({0x4000, content});
  EXPECT_EQ(set.byte_size(), kPageSize);
  const common::Bytes wire = set.serialize();
  EXPECT_EQ(wire.size(), set.serialized_size());
  auto parsed = PageSet::parse(wire);
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->pages.size(), 1u);
  EXPECT_EQ(parsed->pages[0].addr, 0x4000u);
  EXPECT_TRUE(std::ranges::equal(parsed->pages[0].data, content));
  // Parsing copies nothing: the page views the wire buffer after its count
  // and address.
  EXPECT_EQ(parsed->pages[0].data.data(), wire.data() + 4 + 8);
}

TEST(ImageFormat, TruncatedPageSetRejected) {
  const common::Bytes content(kPageSize, 1);
  PageSet set;
  set.pages.push_back({0x4000, content});
  auto bytes = set.serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(PageSet::parse(bytes).is_ok());
}

TEST_F(CriuTest, FullMigrationPreservesContent) {
  VirtAddr a = alloc_filled(src_, 3 * kPageSize, 0x11);
  VirtAddr b = alloc_filled(src_, kPageSize, 0x22);
  migrate();
  expect_filled(dst_, a, 3 * kPageSize, 0x11);
  expect_filled(dst_, b, kPageSize, 0x22);
  // Allocation cursor carried over: new allocations don't collide.
  EXPECT_EQ(dst_.mem().mmap_cursor(), src_.mem().mmap_cursor());
}

TEST_F(CriuTest, DirtyPagesInLaterRoundsWin) {
  VirtAddr a = alloc_filled(src_, 2 * kPageSize, 0x11);
  Checkpointer ckpt(src_);
  Restorer restorer(dst_);
  auto d0 = ckpt.pre_dump();
  ASSERT_TRUE(restorer.begin(d0.image, {}).is_ok());
  ASSERT_TRUE(restorer.apply_pages(d0.pages).is_ok());

  // Source keeps running: page 1 changes.
  std::vector<std::uint8_t> newdata(kPageSize, 0x77);
  ASSERT_TRUE(src_.mem().write(a + kPageSize, newdata).is_ok());

  auto d1 = ckpt.pre_dump();
  EXPECT_EQ(d1.pages.pages.size(), 1u);  // only the dirty page
  ASSERT_TRUE(restorer.update(d1.image, {}).is_ok());
  ASSERT_TRUE(restorer.apply_pages(d1.pages).is_ok());

  src_.freeze();
  auto df = ckpt.final_dump();
  ASSERT_TRUE(df.is_ok());
  EXPECT_TRUE(df->pages.pages.empty());  // nothing dirtied since
  ASSERT_TRUE(restorer.apply_pages(df->pages).is_ok());
  ASSERT_TRUE(restorer.finish().is_ok());

  expect_filled(dst_, a, kPageSize, 0x11);
  expect_filled(dst_, a + kPageSize, kPageSize, 0x77);
}

TEST_F(CriuTest, FinalDumpRequiresFrozenProcess) {
  alloc_filled(src_, kPageSize, 1);
  Checkpointer ckpt(src_);
  EXPECT_EQ(ckpt.final_dump().code(), Errc::failed_precondition);
}

TEST_F(CriuTest, StagingKeepsOriginalAddressesFreeUntilFinish) {
  VirtAddr a = alloc_filled(src_, kPageSize, 0x33);
  Checkpointer ckpt(src_);
  Restorer restorer(dst_);
  auto d0 = ckpt.pre_dump();
  ASSERT_TRUE(restorer.begin(d0.image, {}).is_ok());
  ASSERT_TRUE(restorer.apply_pages(d0.pages).is_ok());
  // Before finish: the original address is NOT mapped (content is staged
  // elsewhere) — this is why naive MR registration during pre-copy fails.
  EXPECT_FALSE(dst_.mem().mapped(a, kPageSize));
  const VirtAddr staged = restorer.current_addr(a);
  ASSERT_NE(staged, 0u);
  EXPECT_NE(staged, a);
  expect_filled(dst_, staged, kPageSize, 0x33);
  // After finish, the content sits at the original address.
  src_.freeze();
  auto df = ckpt.final_dump();
  ASSERT_TRUE(restorer.apply_pages(df->pages).is_ok());
  ASSERT_TRUE(restorer.finish().is_ok());
  EXPECT_EQ(restorer.current_addr(a), a);
  expect_filled(dst_, a, kPageSize, 0x33);
}

TEST_F(CriuTest, PinnedVmaMappedAtOriginalAddressDuringPartialRestore) {
  VirtAddr mr_buf = alloc_filled(src_, 2 * kPageSize, 0x44, "mr_buf");
  alloc_filled(src_, kPageSize, 0x55, "heap");
  Checkpointer ckpt(src_);
  Restorer restorer(dst_);
  auto d0 = ckpt.pre_dump();
  auto rep = restorer.begin(d0.image, {mr_buf});
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->deferred.empty());
  ASSERT_TRUE(restorer.apply_pages(d0.pages).is_ok());
  // Pinned: already at the original address — MRs can be registered now.
  EXPECT_TRUE(dst_.mem().mapped(mr_buf, 2 * kPageSize));
  EXPECT_EQ(restorer.current_addr(mr_buf), mr_buf);
  expect_filled(dst_, mr_buf, 2 * kPageSize, 0x44);
}

TEST_F(CriuTest, VmaCreatedDuringPrecopyConflictsWithTempAndIsDeferred) {
  alloc_filled(src_, kPageSize, 0x01);
  Checkpointer ckpt(src_);
  Restorer restorer(dst_);
  auto d0 = ckpt.pre_dump();
  ASSERT_TRUE(restorer.begin(d0.image, {}).is_ok());
  ASSERT_TRUE(restorer.apply_pages(d0.pages).is_ok());

  // Source registers a new MR buffer during pre-copy: its address lands in
  // the range now occupied by the restorer's temporary arena.
  VirtAddr late = alloc_filled(src_, kPageSize, 0x99, "late_mr");
  auto d1 = ckpt.pre_dump();
  auto rep = restorer.update(d1.image, {late});
  ASSERT_TRUE(rep.is_ok());
  ASSERT_EQ(rep->deferred.size(), 1u);
  EXPECT_EQ(rep->deferred[0].start, late);
  ASSERT_TRUE(restorer.apply_pages(d1.pages).is_ok());
  // The address range is occupied by the restorer's temp arena, not the
  // application's buffer; the pages are buffered until finish().
  ASSERT_NE(dst_.mem().find_vma(late), nullptr);
  EXPECT_EQ(dst_.mem().find_vma(late)->tag, "criu_temp");
  EXPECT_EQ(restorer.current_addr(late), 0u);

  src_.freeze();
  auto df = ckpt.final_dump();
  ASSERT_TRUE(restorer.update(df->image, {late}).is_ok());
  ASSERT_TRUE(restorer.apply_pages(df->pages).is_ok());
  auto fin = restorer.finish();
  ASSERT_TRUE(fin.is_ok());
  // finish() reports the deferred VMA as now-mapped so the RDMA plugin can
  // register the conflicting MRs at the end of stop-and-copy (§3.2).
  ASSERT_EQ(fin->deferred.size(), 1u);
  EXPECT_EQ(fin->deferred[0].start, late);
  expect_filled(dst_, late, kPageSize, 0x99);
}

TEST_F(CriuTest, VmaUnmappedDuringPrecopyDisappears) {
  VirtAddr a = alloc_filled(src_, kPageSize, 0x11);
  VirtAddr b = alloc_filled(src_, kPageSize, 0x22);
  Checkpointer ckpt(src_);
  Restorer restorer(dst_);
  auto d0 = ckpt.pre_dump();
  ASSERT_TRUE(restorer.begin(d0.image, {}).is_ok());
  ASSERT_TRUE(restorer.apply_pages(d0.pages).is_ok());
  ASSERT_TRUE(src_.mem().munmap(b).is_ok());
  src_.freeze();
  auto df = ckpt.final_dump();
  ASSERT_TRUE(restorer.update(df->image, {}).is_ok());
  ASSERT_TRUE(restorer.apply_pages(df->pages).is_ok());
  ASSERT_TRUE(restorer.finish().is_ok());
  EXPECT_TRUE(dst_.mem().mapped(a, kPageSize));
  EXPECT_FALSE(dst_.mem().mapped(b, kPageSize));
}

TEST_F(CriuTest, DumpCostGrowsSuperlinearlyInVmaCount) {
  CriuCosts costs;
  const auto base = costs.dump_cost(0, 0);
  const auto c100 = costs.dump_cost(100, 0) - base;
  const auto c1000 = costs.dump_cost(1000, 0) - base;
  EXPECT_GT(c1000, 10 * c100);  // superlinear in the VMA count
}

TEST_F(CriuTest, DirtyRateEstimatorEstimatesChurnFraction) {
  const VirtAddr va = alloc_filled(src_, 256 * kPageSize, 0x11);
  DirtyRateEstimator est(src_);
  EXPECT_FALSE(est.open());
  EXPECT_FALSE(est.primed());
  est.begin_interval(0);
  EXPECT_TRUE(est.open());
  // Rewrite a quarter of the pages with new content; untouched pages hash
  // identically and must not count.
  for (int p = 0; p < 64; ++p) {
    std::uint8_t b = 0x22;
    ASSERT_TRUE(src_.mem().write(va + static_cast<VirtAddr>(p) * kPageSize, {&b, 1}).is_ok());
  }
  const std::uint64_t pages = est.end_interval(sim::sec(1));
  EXPECT_TRUE(est.primed());
  EXPECT_FALSE(est.open());
  // Sampling with replacement: the estimate is statistical, not exact.
  EXPECT_GE(pages, 32u);
  EXPECT_LE(pages, 96u);
  EXPECT_NEAR(est.pages_per_sec(), static_cast<double>(pages), 1e-6);
  EXPECT_NEAR(est.bytes_per_sec(), static_cast<double>(pages) * kPageSize, 1e-3);

  // A quiet second interval folds into the EWMA (alpha 0.5): rate halves.
  est.begin_interval(sim::sec(1));
  const std::uint64_t quiet = est.end_interval(sim::sec(2));
  EXPECT_EQ(quiet, 0u);
  EXPECT_NEAR(est.pages_per_sec(), static_cast<double>(pages) / 2, 1.0);

  // A mapping that was never written hashes as zero pages: storing zeros
  // into every page changes no content, storing anything else changes all.
  const VirtAddr fresh = dst_.mem().mmap(64 * kPageSize, "fresh").value();
  DirtyRateEstimator fresh_est(dst_);
  for (const std::uint8_t b : {std::uint8_t{0}, std::uint8_t{0x5A}}) {
    fresh_est.begin_interval(sim::sec(2));
    for (VirtAddr p = 0; p < 64; ++p) {
      ASSERT_TRUE(dst_.mem().write(fresh + p * kPageSize, {&b, 1}).is_ok());
    }
    EXPECT_EQ(fresh_est.end_interval(sim::sec(3)), b == 0 ? 0u : 64u) << "byte " << int{b};
  }
}

TEST_F(CriuTest, FinalDumpLazyListsDirtyPagesInsteadOfCopying) {
  const VirtAddr va = alloc_filled(src_, 8 * kPageSize, 0x33);
  Checkpointer ckpt(src_);
  auto d0 = ckpt.pre_dump();
  EXPECT_EQ(d0.pages.pages.size(), 8u);
  // Dirty two pages after the first pass, then freeze for the lazy dump.
  std::uint8_t b = 0x44;
  ASSERT_TRUE(src_.mem().write(va + 2 * kPageSize, {&b, 1}).is_ok());
  ASSERT_TRUE(src_.mem().write(va + 5 * kPageSize, {&b, 1}).is_ok());
  src_.freeze();
  auto lazy = ckpt.final_dump_lazy();
  ASSERT_TRUE(lazy.is_ok());
  ASSERT_EQ(lazy->missing.size(), 2u);
  EXPECT_EQ(lazy->missing[0], va + 2 * kPageSize);
  EXPECT_EQ(lazy->missing[1], va + 5 * kPageSize);
  EXPECT_EQ(lazy->image.vmas.size(), 1u);
  // The whole point: the lazy dump's blackout cost carries no per-page
  // term, only the VMA walk plus the freeze overhead.
  CriuCosts costs;
  EXPECT_EQ(lazy->cost, costs.dump_cost(1, 0) + costs.freeze);
}

TEST_F(CriuTest, FinalDumpLazyWithoutPreDumpLeavesAllPagesMissing) {
  (void)alloc_filled(src_, 4 * kPageSize, 0x55);
  Checkpointer ckpt(src_);
  src_.freeze();
  auto lazy = ckpt.final_dump_lazy();
  ASSERT_TRUE(lazy.is_ok());
  EXPECT_EQ(lazy->missing.size(), 4u);
}

TEST_F(CriuTest, RestoreLifecycleGuards) {
  Restorer restorer(dst_);
  EXPECT_EQ(restorer.finish().code(), Errc::failed_precondition);
  EXPECT_EQ(restorer.apply_pages(PageSet{}).code(), Errc::failed_precondition);
  MemoryImage empty;
  empty.mmap_cursor = dst_.mem().mmap_cursor() + (1ull << 30);
  ASSERT_TRUE(restorer.begin(empty, {}).is_ok());
  EXPECT_EQ(restorer.begin(empty, {}).code(), Errc::failed_precondition);
  ASSERT_TRUE(restorer.finish().is_ok());
  EXPECT_EQ(restorer.finish().code(), Errc::failed_precondition);
}

TEST_F(CriuTest, EpochDumpsShrinkToDirtySetForQuietGuest) {
  // Continuous-FT micro-checkpointing: epoch 0 carries the full image; a
  // later epoch carries only what was dirtied since the previous one, so a
  // quiet guest's steady-state epochs are near-empty.
  const VirtAddr va = alloc_filled(src_, 64 * kPageSize, 0xAB);
  Checkpointer ckpt(src_);

  // Requires a frozen process, like final_dump.
  EXPECT_EQ(ckpt.epoch_dump().code(), Errc::failed_precondition);

  src_.freeze();
  auto e0 = ckpt.epoch_dump();
  ASSERT_TRUE(e0.is_ok());
  EXPECT_EQ(e0->epoch, 0u);
  EXPECT_EQ(e0->pages.pages.size(), 64u);
  src_.thaw();

  // Touch two pages between epochs.
  const std::uint8_t b = 0xCD;
  ASSERT_TRUE(src_.mem().write(va + 3 * kPageSize, {&b, 1}).is_ok());
  ASSERT_TRUE(src_.mem().write(va + 40 * kPageSize, {&b, 1}).is_ok());

  src_.freeze();
  auto e1 = ckpt.epoch_dump();
  ASSERT_TRUE(e1.is_ok());
  EXPECT_EQ(e1->epoch, 1u);
  EXPECT_EQ(e1->pages.pages.size(), 2u);
  // The incremental epoch is a small fraction of the full image.
  EXPECT_LT(e1->pages.byte_size() * 8, e0->pages.byte_size());
  src_.thaw();

  // A fully quiet interval dumps zero pages; epochs are not terminal, so
  // they keep flowing.
  src_.freeze();
  auto e2 = ckpt.epoch_dump();
  ASSERT_TRUE(e2.is_ok());
  EXPECT_EQ(e2->epoch, 2u);
  EXPECT_TRUE(e2->pages.pages.empty());
  EXPECT_EQ(ckpt.epochs_dumped(), 3u);
}

}  // namespace
}  // namespace migr::criu
