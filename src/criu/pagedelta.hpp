// Page-suppression codec for the pre-copy transfer path (multifd-style
// "don't ship what the destination can reconstruct"):
//
//  * zero pages ship a 1-byte tag instead of 4 KiB (QEMU's zero-page
//    detection),
//  * pages whose content matches what the previous round already shipped
//    ship a "same" tag (the dirty bit fired but the bytes round-tripped),
//  * pages that changed by less than a threshold fraction ship XOR-sparse
//    runs against the previously shipped content (delta encoding),
//  * everything else ships in full.
//
// The encoder (source side) and decoder (destination side) each keep a
// shadow cache of the last-shipped content per page, using the same FNV-1a
// page hash as the PR-7 DirtyRateEstimator for the cheap "unchanged" check.
// The caches stay coherent because every encoded batch carries a sequence
// number and is decoded exactly once, in order — the transfer layer (mux or
// single-stream) delivers payloads whole and in order, and a migration that
// aborts mid-round never decodes the interrupted batch.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "criu/image.hpp"

namespace migr::criu {

/// Cumulative suppression accounting. `raw` is the page content the dirty
/// set was worth (pages x kPageSize); `shipped` is the page content bytes
/// that actually went on the wire. The invariant raw == shipped + suppressed
/// holds by construction and is pinned by tools/validate_artifacts.py.
struct PageDeltaStats {
  std::uint64_t pages_zero = 0;
  std::uint64_t pages_same = 0;
  std::uint64_t pages_delta = 0;
  std::uint64_t pages_full = 0;
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t bytes_suppressed = 0;

  std::uint64_t pages() const {
    return pages_zero + pages_same + pages_delta + pages_full;
  }
  void merge(const PageDeltaStats& o) {
    pages_zero += o.pages_zero;
    pages_same += o.pages_same;
    pages_delta += o.pages_delta;
    pages_full += o.pages_full;
    bytes_raw += o.bytes_raw;
    bytes_shipped += o.bytes_shipped;
    bytes_suppressed += o.bytes_suppressed;
  }
};

/// Source-side encoder. Stateful: remembers the content it shipped for each
/// page so later rounds can delta- or same-suppress against it.
class PageDeltaEncoder {
 public:
  /// Encode one dirty-round page set. Updates the shadow cache and the
  /// cumulative stats; per-batch numbers land in `batch` when non-null.
  common::Bytes encode(const PageSet& set, PageDeltaStats* batch = nullptr);

  const PageDeltaStats& stats() const noexcept { return stats_; }

 private:
  std::unordered_map<proc::VirtAddr, common::Bytes> shipped_;  // last-shipped content
  std::uint64_t next_seq_ = 0;
  PageDeltaStats stats_;
};

/// Destination-side decoder. Mirrors the encoder's shadow cache; batches
/// must arrive exactly once and in order (the sequence number is checked).
/// "same" pages decode to nothing — the destination already holds the
/// content — so the returned PageSet is the restore work left after
/// suppression, not a reconstruction of the full dirty set. Its pages view
/// the decoder's cache and stay valid until the next decode().
class PageDeltaDecoder {
 public:
  common::Result<PageSet> decode(std::span<const std::uint8_t> data);

 private:
  std::unordered_map<proc::VirtAddr, common::Bytes> content_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace migr::criu
