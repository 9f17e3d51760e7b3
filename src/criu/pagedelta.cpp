#include "criu/pagedelta.hpp"

#include <algorithm>
#include <cstring>

namespace migr::criu {

using common::ByteReader;
using common::ByteWriter;
using common::Errc;

namespace {

constexpr std::uint8_t kMagic = 0xE5;

// A changed page delta-encodes only when the fraction of its bytes that
// changed is below this; above it a full page is cheaper than run framing.
constexpr double kDeltaThreshold = 0.5;

// Per-page encodings, source → destination.
enum Tag : std::uint8_t {
  kFull = 0,   // raw kPageSize bytes follow
  kZero = 1,   // page is all zeroes
  kSame = 2,   // content identical to what was last shipped for this addr
  kDelta = 3,  // XOR-sparse runs against the last-shipped content
};

// Same FNV-1a as criu::DirtyRateEstimator's sampled page hash; cheap enough
// to run over every dirty page and good enough to gate the byte compare.
std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

bool all_zero(std::span<const std::uint8_t> data) {
  for (std::uint8_t b : data) {
    if (b != 0) return false;
  }
  return true;
}

struct DeltaRun {
  std::uint16_t off = 0;
  std::uint16_t len = 0;
};

// Collect the contiguous differing ranges between old and new page content.
// Returns the total differing byte count; runs land in `runs`.
std::size_t diff_runs(std::span<const std::uint8_t> oldp, std::span<const std::uint8_t> newp,
                      std::vector<DeltaRun>& runs) {
  runs.clear();
  std::size_t changed = 0;
  std::size_t i = 0;
  const std::size_t n = newp.size();
  while (i < n) {
    if (oldp[i] == newp[i]) {
      ++i;
      continue;
    }
    std::size_t start = i;
    while (i < n && oldp[i] != newp[i]) ++i;
    runs.push_back({static_cast<std::uint16_t>(start),
                    static_cast<std::uint16_t>(i - start)});
    changed += i - start;
  }
  return changed;
}

}  // namespace

common::Bytes PageDeltaEncoder::encode(const PageSet& set, PageDeltaStats* batch) {
  ByteWriter w;
  w.u8(kMagic);
  w.u64(next_seq_++);
  w.u32(static_cast<std::uint32_t>(set.pages.size()));

  PageDeltaStats b;
  std::vector<DeltaRun> runs;
  for (const auto& page : set.pages) {
    b.bytes_raw += page.data.size();
    w.u64(page.addr);

    if (all_zero(page.data)) {
      w.u8(kZero);
      b.pages_zero++;
      auto& cached = shipped_[page.addr];
      cached.assign(page.data.size(), 0);
      continue;
    }

    auto it = shipped_.find(page.addr);
    if (it != shipped_.end() && it->second.size() == page.data.size()) {
      const common::Bytes& prev = it->second;
      if (fnv1a(prev) == fnv1a(page.data) && std::ranges::equal(prev, page.data)) {
        w.u8(kSame);
        b.pages_same++;
        continue;  // cache already holds this content
      }
      const std::size_t changed = diff_runs(prev, page.data, runs);
      const double frac =
          static_cast<double>(changed) / static_cast<double>(page.data.size());
      if (frac < kDeltaThreshold && runs.size() <= 0xFFFF) {
        w.u8(kDelta);
        w.u16(static_cast<std::uint16_t>(runs.size()));
        for (const DeltaRun& run : runs) {
          w.u16(run.off);
          w.u16(run.len);
          // Ship the XOR of old and new so the decoder applies it in place.
          for (std::uint16_t j = 0; j < run.len; ++j) {
            w.u8(static_cast<std::uint8_t>(prev[run.off + j] ^
                                           page.data[run.off + j]));
          }
          b.bytes_shipped += run.len;
        }
        b.pages_delta++;
        it->second.assign(page.data.begin(), page.data.end());
        continue;
      }
    }

    w.u8(kFull);
    w.raw(page.data);
    b.pages_full++;
    b.bytes_shipped += page.data.size();
    shipped_[page.addr].assign(page.data.begin(), page.data.end());
  }

  b.bytes_suppressed = b.bytes_raw - b.bytes_shipped;
  stats_.merge(b);
  if (batch != nullptr) *batch = b;
  return std::move(w).take();
}

common::Result<PageSet> PageDeltaDecoder::decode(std::span<const std::uint8_t> data) {
  ByteReader r{data};
  MIGR_ASSIGN_OR_RETURN(auto magic, r.u8());
  if (magic != kMagic) {
    return common::err(Errc::invalid_argument, "pagedelta: bad magic");
  }
  MIGR_ASSIGN_OR_RETURN(auto seq, r.u64());
  if (seq != next_seq_) {
    return common::err(Errc::failed_precondition,
                       "pagedelta: batch out of order (cache would desync)");
  }
  next_seq_++;

  // Smallest page record: the address and a kZero or kSame tag.
  MIGR_ASSIGN_OR_RETURN(auto npages, r.count(8 + 1));
  PageSet out;
  out.pages.reserve(npages);
  for (std::uint32_t i = 0; i < npages; ++i) {
    MIGR_ASSIGN_OR_RETURN(auto addr, r.u64());
    MIGR_ASSIGN_OR_RETURN(auto tag, r.u8());
    switch (tag) {
      case kFull: {
        MIGR_ASSIGN_OR_RETURN(auto data, r.view(proc::kPageSize));
        common::Bytes& cached = content_[addr];
        cached.assign(data.begin(), data.end());
        out.pages.push_back({addr, cached});
        break;
      }
      case kZero: {
        common::Bytes& cached = content_[addr];
        cached.assign(proc::kPageSize, 0);
        out.pages.push_back({addr, cached});
        break;
      }
      case kSame: {
        // Nothing to apply: the destination already holds this content from
        // an earlier batch. (It must — the encoder only emits kSame for
        // addresses it has shipped before.)
        if (content_.find(addr) == content_.end()) {
          return common::err(Errc::failed_precondition,
                             "pagedelta: kSame for never-shipped page");
        }
        break;
      }
      case kDelta: {
        auto it = content_.find(addr);
        if (it == content_.end()) {
          return common::err(Errc::failed_precondition,
                             "pagedelta: kDelta for never-shipped page");
        }
        common::Bytes& page = it->second;
        MIGR_ASSIGN_OR_RETURN(auto nruns, r.u16());
        for (std::uint16_t run = 0; run < nruns; ++run) {
          MIGR_ASSIGN_OR_RETURN(auto off, r.u16());
          MIGR_ASSIGN_OR_RETURN(auto len, r.u16());
          if (static_cast<std::size_t>(off) + len > page.size()) {
            return common::err(Errc::invalid_argument,
                               "pagedelta: delta run out of page bounds");
          }
          MIGR_ASSIGN_OR_RETURN(auto x, r.view(len));
          for (std::uint16_t j = 0; j < len; ++j) {
            page[off + j] = static_cast<std::uint8_t>(page[off + j] ^ x[j]);
          }
        }
        out.pages.push_back({addr, page});
        break;
      }
      default:
        return common::err(Errc::invalid_argument, "pagedelta: unknown tag");
    }
  }
  return out;
}

}  // namespace migr::criu
