#include "criu/image.hpp"

namespace migr::criu {

using common::ByteReader;
using common::ByteWriter;

namespace {
// Smallest encodings, for bounding counts read off the wire: a VMA with an
// empty tag, and one page.
constexpr std::size_t kMinVmaRecord = 8 + 8 + 4;
constexpr std::size_t kPageRecord = 8 + proc::kPageSize;
}  // namespace

std::size_t MemoryImage::serialized_size() const {
  std::size_t n = 8 + 4;
  for (const auto& v : vmas) n += kMinVmaRecord + v.tag.size();
  return n;
}

void MemoryImage::serialize_into(ByteWriter& w) const {
  w.u64(mmap_cursor);
  w.u32(static_cast<std::uint32_t>(vmas.size()));
  for (const auto& v : vmas) {
    w.u64(v.start);
    w.u64(v.length);
    w.str(v.tag);
  }
}

common::Bytes MemoryImage::serialize() const {
  ByteWriter w(serialized_size());
  serialize_into(w);
  return std::move(w).take();
}

common::Result<MemoryImage> MemoryImage::parse(std::span<const std::uint8_t> data) {
  ByteReader r{data};
  MemoryImage img;
  MIGR_ASSIGN_OR_RETURN(img.mmap_cursor, r.u64());
  MIGR_ASSIGN_OR_RETURN(auto n, r.count(kMinVmaRecord));
  img.vmas.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    VmaImage v;
    MIGR_ASSIGN_OR_RETURN(v.start, r.u64());
    MIGR_ASSIGN_OR_RETURN(v.length, r.u64());
    MIGR_ASSIGN_OR_RETURN(v.tag, r.str());
    img.vmas.push_back(std::move(v));
  }
  return img;
}

void PageSet::serialize_into(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(pages.size()));
  for (const auto& p : pages) {
    w.u64(p.addr);
    w.raw(p.data);
  }
}

common::Bytes PageSet::serialize() const {
  ByteWriter w(serialized_size());
  serialize_into(w);
  return std::move(w).take();
}

common::Result<PageSet> PageSet::parse(std::span<const std::uint8_t> data) {
  ByteReader r{data};
  PageSet set;
  MIGR_ASSIGN_OR_RETURN(auto n, r.count(kPageRecord));
  set.pages.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Page p;
    MIGR_ASSIGN_OR_RETURN(p.addr, r.u64());
    MIGR_ASSIGN_OR_RETURN(p.data, r.view(proc::kPageSize));
    set.pages.push_back(p);
  }
  return set;
}

}  // namespace migr::criu
