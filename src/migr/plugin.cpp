#include "migr/plugin.hpp"

#include "common/log.hpp"

namespace migr::migrlib {

using common::Errc;
using common::Status;

common::Bytes Plugin::pre_dump(GuestContext& guest) {
  RdmaImage img = guest.dump(/*final=*/false);
  cost_ += costs_.dump_cost(img);
  predump_image_ = img;
  return img.serialize();
}

common::Bytes Plugin::final_dump(GuestContext& guest) {
  RdmaImage img = guest.dump(/*final=*/true);
  cost_ += costs_.dump_cost(img);
  return img.serialize();
}

std::set<proc::VirtAddr> Plugin::pinned_vma_starts(const criu::MemoryImage& mem,
                                                   const RdmaImage& rdma) {
  std::vector<std::pair<proc::VirtAddr, std::uint64_t>> ranges;
  for (const auto& mr : rdma.mrs) ranges.emplace_back(mr.addr, mr.length);
  for (const auto& dm : rdma.dms) ranges.emplace_back(dm.mapped_at, dm.length);
  std::set<proc::VirtAddr> pinned;
  for (const auto& vma : mem.vmas) {
    // The driver's queue mappings are identified by their VMA tag; MR and
    // on-chip memory ranges come from the RDMA image.
    if (vma.tag == "qp_shadow" || vma.tag == "rnic_dm") {
      pinned.insert(vma.start);
      continue;
    }
    for (const auto& [addr, len] : ranges) {
      if (addr < vma.start + vma.length && addr + len > vma.start) {
        pinned.insert(vma.start);
        break;
      }
    }
  }
  return pinned;
}

Status Plugin::premap(std::span<const std::uint8_t> predump_bytes, MigrRdmaRuntime& dest_rt,
                      proc::SimProcess& dest_proc) {
  auto parsed = RdmaImage::parse(predump_bytes);
  if (!parsed.is_ok()) return parsed.status();
  predump_image_ = std::move(parsed).value();
  MIGR_RETURN_IF_ERROR(staged_.premap(predump_image_, dest_rt, dest_proc));
  cost_ += staged_.take_ctrl_cost();
  premapped_ = true;
  return Status::ok();
}

Status Plugin::pre_setup(std::span<const std::uint8_t> predump_bytes,
                         MigrRdmaRuntime& dest_rt, proc::SimProcess& dest_proc) {
  if (!premapped_) {
    MIGR_RETURN_IF_ERROR(premap(predump_bytes, dest_rt, dest_proc));
  }
  MIGR_RETURN_IF_ERROR(staged_.build(predump_image_));
  cost_ += staged_.take_ctrl_cost();
  return Status::ok();
}

Status Plugin::full_restore(GuestContext& guest, std::span<const std::uint8_t> final_bytes,
                            MigrRdmaRuntime& dest_rt) {
  (void)dest_rt;
  auto parsed = RdmaImage::parse(final_bytes);
  if (!parsed.is_ok()) return parsed.status();
  MIGR_RETURN_IF_ERROR(guest.adopt_staged(std::move(staged_)));
  MIGR_RETURN_IF_ERROR(guest.finalize_restore(parsed.value()));
  cost_ += guest.raw().take_ctrl_cost();
  return Status::ok();
}

}  // namespace migr::migrlib
