#include "proc/address_space.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace migr::proc {

using common::Errc;
using common::Result;
using common::Status;

namespace {

// The entry of `vmas` whose VMA holds `addr`, or vmas.end(). A template so
// const and mutable callers share it.
template <typename Map>
auto entry_at(Map& vmas, VirtAddr addr) {
  auto it = vmas.upper_bound(addr);
  if (it == vmas.begin()) return vmas.end();
  --it;
  return it->second.vma.contains(addr, 1) ? it : vmas.end();
}

// The entry holding `addr` when all of [addr, addr+len) is mapped, through
// adjacent VMAs if need be; vmas.end() otherwise, and for a range that wraps.
// `len` is non-zero.
template <typename Map>
auto range_entry(Map& vmas, VirtAddr addr, std::uint64_t len) {
  auto first = entry_at(vmas, addr);
  if (first == vmas.end() || first->second.vma.contains(addr, len)) return first;
  const VirtAddr last = addr + len;
  if (last < addr) return vmas.end();
  VirtAddr reach = first->second.vma.end();
  for (auto next = std::next(first); reach < last; ++next) {
    if (next == vmas.end() || next->first != reach) return vmas.end();
    reach = next->second.vma.end();
  }
  return first;
}

// What a never-written slot reads as.
constexpr std::uint8_t kZeroPage[kPageSize] = {};

// Out of line so the copy stays a call to the C library's memcpy. Inlined,
// with a size it can bound by one page, GCC expands the copy to `rep movsq`,
// which is about twice as slow on 64-byte copies.
[[gnu::noinline]] void copy_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::memcpy(dst, src, n);
}

Status unmapped() { return common::err(Errc::permission_denied, "unmapped address"); }

}  // namespace

Status AddressSpace::mmap_fixed(VirtAddr addr, std::uint64_t length, std::string tag) {
  if (length == 0 || addr != page_floor(addr)) {
    return common::err(Errc::invalid_argument, "mmap_fixed: unaligned or empty");
  }
  length = page_ceil(length);
  if (addr + length <= addr) {  // also a length that rounded up to 0
    return common::err(Errc::invalid_argument, "mmap_fixed: range wraps");
  }
  if (!range_free(addr, length, nullptr)) {
    return common::err(Errc::already_exists, "mmap_fixed: overlaps existing vma");
  }
  const std::uint64_t npages = length / kPageSize;
  Mapping& m = vmas_.emplace(addr, Mapping{}).first->second;
  m.vma = Vma{addr, length, std::move(tag)};
  m.pages.resize(npages);
  m.dirty.resize((npages + 63) / 64);
  mapped_bytes_ += length;
  return Status::ok();
}

Result<VirtAddr> AddressSpace::mmap(std::uint64_t length, std::string tag) {
  length = page_ceil(length);
  const VirtAddr addr = mmap_base_;
  mmap_base_ += length + kPageSize;  // guard page gap
  MIGR_RETURN_IF_ERROR(mmap_fixed(addr, length, std::move(tag)));
  return addr;
}

Status AddressSpace::munmap(VirtAddr addr) {
  auto it = vmas_.find(addr);
  if (it == vmas_.end()) return common::err(Errc::not_found, "munmap: no vma at address");
  const Vma& vma = it->second.vma;
  if (!missing_.empty()) {
    for (VirtAddr p = vma.start; p < vma.end(); p += kPageSize) missing_.erase(p);
  }
  mapped_bytes_ -= vma.length;
  vmas_.erase(it);
  return Status::ok();
}

Status AddressSpace::mremap(VirtAddr old_addr, VirtAddr new_addr) {
  auto it = vmas_.find(old_addr);
  if (it == vmas_.end()) return common::err(Errc::not_found, "mremap: no vma at address");
  if (new_addr != page_floor(new_addr)) {
    return common::err(Errc::invalid_argument, "mremap: unaligned target");
  }
  if (new_addr == old_addr) return Status::ok();
  const std::uint64_t length = it->second.vma.length;
  if (new_addr + length <= new_addr) {
    return common::err(Errc::invalid_argument, "mremap: target wraps");
  }
  // The target range must be free, ignoring the VMA being moved (which we
  // conceptually remove first).
  if (!range_free(new_addr, length, &it->second)) {
    return common::err(Errc::already_exists, "mremap: target overlaps existing vma");
  }
  // Move the node with its page table: physical pages keep their identity
  // and dirty bits stay with them.
  auto node = vmas_.extract(it);
  node.key() = new_addr;
  node.mapped().vma.start = new_addr;
  vmas_.insert(std::move(node));
  return Status::ok();
}

bool AddressSpace::range_free(VirtAddr addr, std::uint64_t len, const Mapping* ignore) const {
  // Only the neighbours around `addr` can overlap: VMAs are disjoint and
  // sorted, and the one before an ignored VMA ends before `addr`.
  auto next = vmas_.lower_bound(addr);
  if (next != vmas_.begin()) {
    auto prev = std::prev(next);
    if (&prev->second != ignore && prev->second.vma.overlaps(addr, len)) return false;
  }
  if (next != vmas_.end() && &next->second == ignore) ++next;
  return next == vmas_.end() || !next->second.vma.overlaps(addr, len);
}

bool AddressSpace::mapped(VirtAddr addr, std::uint64_t length) const {
  return length == 0 || range_entry(vmas_, addr, length) != vmas_.end();
}

const Vma* AddressSpace::find_vma(VirtAddr addr) const {
  auto it = entry_at(vmas_, addr);
  return it == vmas_.end() ? nullptr : &it->second.vma;
}

std::vector<Vma> AddressSpace::vmas() const {
  std::vector<Vma> out;
  out.reserve(vmas_.size());
  for (auto& [_, m] : vmas_) out.push_back(m.vma);
  return out;
}

Status AddressSpace::read(VirtAddr addr, std::span<std::uint8_t> out) const {
  if (out.empty()) return Status::ok();
  auto it = range_entry(vmas_, addr, out.size());
  if (it == vmas_.end()) return unmapped();
  for (std::size_t done = 0; done < out.size();) {
    const VirtAddr cur = addr + done;
    if (cur == it->second.vma.end()) ++it;  // into the adjacent VMA
    const Mapping& m = it->second;
    const std::uint64_t idx = (cur - m.vma.start) / kPageSize;
    const std::uint64_t off = (cur - m.vma.start) % kPageSize;
    const std::size_t n = std::min<std::size_t>(out.size() - done, kPageSize - off);
    if (!missing_.empty()) fault_in(page_floor(cur));
    const std::uint8_t* page = m.pages[idx] ? m.pages[idx].data() : kZeroPage;
    copy_bytes(out.data() + done, page + off, n);
    done += n;
  }
  return Status::ok();
}

Status AddressSpace::write(VirtAddr addr, std::span<const std::uint8_t> in) {
  if (in.empty()) return Status::ok();
  auto it = range_entry(vmas_, addr, in.size());
  if (it == vmas_.end()) return unmapped();
  for (std::size_t done = 0; done < in.size();) {
    const VirtAddr cur = addr + done;
    if (cur == it->second.vma.end()) ++it;  // into the adjacent VMA
    Mapping& m = it->second;
    const std::uint64_t idx = (cur - m.vma.start) / kPageSize;
    const std::uint64_t off = (cur - m.vma.start) % kPageSize;
    const std::size_t n = std::min<std::size_t>(in.size() - done, kPageSize - off);
    if (!missing_.empty()) fault_in(page_floor(cur));
    copy_bytes(m.materialize(idx).data() + off, in.data() + done, n);
    m.mark_dirty(idx);
    done += n;
  }
  return Status::ok();
}

Status AddressSpace::write(VirtAddr addr, common::PayloadRef&& in) {
  if (!in.sole_page_block() || addr != page_floor(addr)) return write(addr, in.span());
  // VMAs are whole pages, so one holds all of an aligned page or none of it.
  auto it = entry_at(vmas_, addr);
  if (it == vmas_.end()) return unmapped();
  Mapping& m = it->second;
  const std::uint64_t idx = (addr - m.vma.start) / kPageSize;
  if (!missing_.empty()) fault_in(addr);
  // One block for one: a never-written slot takes its first block from the
  // heap, as the copying write does, so the pool keeps its population.
  if (m.pages[idx]) {
    in.hand_over(m.pages[idx]);
  } else {
    copy_bytes(m.materialize(idx).data(), in.data(), kPageSize);
  }
  m.mark_dirty(idx);
  return Status::ok();
}

void AddressSpace::fault_in(VirtAddr page) const {
  if (missing_.erase(page) == 0) return;
  if (fault_hook_) {
    auto hook = fault_hook_;  // the hook may replace/uninstall itself
    hook(page);
  }
}

std::optional<PageBytes> AddressSpace::page_at(VirtAddr page_addr) {
  auto it = entry_at(vmas_, page_addr);
  if (it == vmas_.end()) return std::nullopt;
  Mapping& m = it->second;
  return m.materialize((page_addr - m.vma.start) / kPageSize);
}

std::vector<VirtAddr> AddressSpace::collect_dirty(bool clear) {
  std::vector<VirtAddr> out;
  out.reserve(dirty_count());
  // VMAs in address order, bits in page order: the result comes out sorted.
  for (auto& [start, m] : vmas_) {
    if (m.dirty_pages == 0) continue;
    for (std::size_t w = 0; w < m.dirty.size(); w++) {
      for (std::uint64_t bits = m.dirty[w]; bits != 0; bits &= bits - 1) {
        const std::uint64_t idx = w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        out.push_back(start + idx * kPageSize);
      }
    }
    if (clear) {
      std::fill(m.dirty.begin(), m.dirty.end(), 0);
      m.dirty_pages = 0;
    }
  }
  return out;
}

void AddressSpace::mark_all_dirty() {
  for (auto& [_, m] : vmas_) {
    const std::size_t npages = m.pages.size();
    std::fill(m.dirty.begin(), m.dirty.end(), ~std::uint64_t{0});
    if (npages % 64 != 0) m.dirty.back() = (std::uint64_t{1} << (npages % 64)) - 1;
    m.dirty_pages = npages;
  }
}

std::size_t AddressSpace::dirty_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [_, m] : vmas_) n += m.dirty_pages;
  return n;
}

}  // namespace migr::proc
