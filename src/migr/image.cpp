#include "migr/image.hpp"

#include <algorithm>
#include <set>
#include <string>

namespace migr::migrlib {

using common::ByteReader;
using common::ByteWriter;
using common::Result;

namespace {

// Smallest wire size of each record type, for bounding the counts read off
// the wire before a vector is sized from them (WRs with no SGEs).
constexpr std::size_t kSgeRecord = 8 + 4 + 4;
constexpr std::size_t kSendWrRecord = 8 + 1 + 1 + 8 + 4 + 8 + 8 + 4 + 4 + 4 + 4;
constexpr std::size_t kRecvWrRecord = 8 + 4;
constexpr std::size_t kCqeRecord = 8 + 1 + 1 + 4 + 4 + 1 + 4 + 4;

// An SGE count that fits SgeList (resize only asserts, and NDEBUG builds
// drop the assert) and the rest of the buffer.
Result<std::uint32_t> sge_count(ByteReader& r) {
  MIGR_ASSIGN_OR_RETURN(auto n, r.count(kSgeRecord));
  if (n > rnic::SgeList::kCapacity) {
    return common::err(common::Errc::invalid_argument, "rdma image: too many SGEs in a WR");
  }
  return n;
}

// An enum stored as one byte, rejected past its last value so that no
// consumer's switch meets a value it has no case for.
template <typename E>
Result<E> get_enum(ByteReader& r, E last, const char* what) {
  MIGR_ASSIGN_OR_RETURN(auto b, r.u8());
  if (b > static_cast<std::uint8_t>(last)) {
    return common::err(common::Errc::invalid_argument, std::string("rdma image: bad ") + what);
  }
  return static_cast<E>(b);
}

void put_send_wr(ByteWriter& w, const rnic::SendWr& wr) {
  w.u64(wr.wr_id);
  w.u8(static_cast<std::uint8_t>(wr.opcode));
  w.boolean(wr.signaled);
  w.u64(wr.remote_addr);
  w.u32(wr.rkey);
  w.u64(wr.compare_add);
  w.u64(wr.swap);
  w.u32(wr.imm);
  w.u32(wr.remote_host);
  w.u32(wr.remote_qpn);
  w.u32(static_cast<std::uint32_t>(wr.sge.size()));
  for (const auto& s : wr.sge) {
    w.u64(s.addr);
    w.u32(s.length);
    w.u32(s.lkey);
  }
}

Result<rnic::SendWr> get_send_wr(ByteReader& r) {
  rnic::SendWr wr;
  MIGR_ASSIGN_OR_RETURN(wr.wr_id, r.u64());
  MIGR_ASSIGN_OR_RETURN(wr.opcode, get_enum(r, rnic::kLastWrOpcode, "WR opcode"));
  MIGR_ASSIGN_OR_RETURN(wr.signaled, r.boolean());
  MIGR_ASSIGN_OR_RETURN(wr.remote_addr, r.u64());
  MIGR_ASSIGN_OR_RETURN(wr.rkey, r.u32());
  MIGR_ASSIGN_OR_RETURN(wr.compare_add, r.u64());
  MIGR_ASSIGN_OR_RETURN(wr.swap, r.u64());
  MIGR_ASSIGN_OR_RETURN(wr.imm, r.u32());
  MIGR_ASSIGN_OR_RETURN(wr.remote_host, r.u32());
  MIGR_ASSIGN_OR_RETURN(wr.remote_qpn, r.u32());
  MIGR_ASSIGN_OR_RETURN(auto n, sge_count(r));
  wr.sge.resize(n);
  for (auto& s : wr.sge) {
    MIGR_ASSIGN_OR_RETURN(s.addr, r.u64());
    MIGR_ASSIGN_OR_RETURN(s.length, r.u32());
    MIGR_ASSIGN_OR_RETURN(s.lkey, r.u32());
  }
  return wr;
}

void put_recv_wr(ByteWriter& w, const rnic::RecvWr& wr) {
  w.u64(wr.wr_id);
  w.u32(static_cast<std::uint32_t>(wr.sge.size()));
  for (const auto& s : wr.sge) {
    w.u64(s.addr);
    w.u32(s.length);
    w.u32(s.lkey);
  }
}

Result<rnic::RecvWr> get_recv_wr(ByteReader& r) {
  rnic::RecvWr wr;
  MIGR_ASSIGN_OR_RETURN(wr.wr_id, r.u64());
  MIGR_ASSIGN_OR_RETURN(auto n, sge_count(r));
  wr.sge.resize(n);
  for (auto& s : wr.sge) {
    MIGR_ASSIGN_OR_RETURN(s.addr, r.u64());
    MIGR_ASSIGN_OR_RETURN(s.length, r.u32());
    MIGR_ASSIGN_OR_RETURN(s.lkey, r.u32());
  }
  return wr;
}

void put_cqe(ByteWriter& w, const rnic::Cqe& c) {
  w.u64(c.wr_id);
  w.u8(static_cast<std::uint8_t>(c.status));
  w.u8(static_cast<std::uint8_t>(c.opcode));
  w.u32(c.byte_len);
  w.u32(c.qpn);
  w.boolean(c.has_imm);
  w.u32(c.imm);
  w.u32(c.src_qp);
}

Result<rnic::Cqe> get_cqe(ByteReader& r) {
  rnic::Cqe c;
  MIGR_ASSIGN_OR_RETURN(c.wr_id, r.u64());
  MIGR_ASSIGN_OR_RETURN(c.status, get_enum(r, rnic::kLastCqeStatus, "CQE status"));
  MIGR_ASSIGN_OR_RETURN(c.opcode, get_enum(r, rnic::kLastCqeOpcode, "CQE opcode"));
  MIGR_ASSIGN_OR_RETURN(c.byte_len, r.u32());
  MIGR_ASSIGN_OR_RETURN(c.qpn, r.u32());
  MIGR_ASSIGN_OR_RETURN(c.has_imm, r.boolean());
  MIGR_ASSIGN_OR_RETURN(c.imm, r.u32());
  MIGR_ASSIGN_OR_RETURN(c.src_qp, r.u32());
  return c;
}

}  // namespace

common::Bytes RdmaImage::serialize() const {
  ByteWriter w;
  w.boolean(final);

  w.u32(static_cast<std::uint32_t>(pds.size()));
  for (const auto& x : pds) w.u32(x.vpd);

  w.u32(static_cast<std::uint32_t>(channels.size()));
  for (const auto& x : channels) w.u32(x.vchannel);

  w.u32(static_cast<std::uint32_t>(cqs.size()));
  for (const auto& x : cqs) {
    w.u32(x.vcq);
    w.u32(x.capacity);
    w.u32(x.vchannel);
  }

  w.u32(static_cast<std::uint32_t>(srqs.size()));
  for (const auto& x : srqs) {
    w.u32(x.vsrq);
    w.u32(x.vpd);
    w.u32(x.capacity);
  }

  w.u32(static_cast<std::uint32_t>(mrs.size()));
  for (const auto& x : mrs) {
    w.u32(x.vlkey);
    w.u32(x.vrkey);
    w.u32(x.vpd);
    w.u64(x.addr);
    w.u64(x.length);
    w.u32(x.access);
  }

  w.u32(static_cast<std::uint32_t>(dms.size()));
  for (const auto& x : dms) {
    w.u32(x.vdm);
    w.u64(x.length);
    w.u64(x.mapped_at);
  }

  w.u32(static_cast<std::uint32_t>(mws.size()));
  for (const auto& x : mws) {
    w.u32(x.vmw);
    w.u32(x.vpd);
    w.boolean(x.bound);
    w.u32(x.vrkey);
    w.u32(x.mr_vlkey);
    w.u32(x.bind_vqpn);
    w.u64(x.addr);
    w.u64(x.length);
    w.u32(x.access);
  }

  w.u32(static_cast<std::uint32_t>(qps.size()));
  for (const auto& x : qps) {
    w.u32(x.vqpn);
    w.u8(static_cast<std::uint8_t>(x.type));
    w.u32(x.vpd);
    w.u32(x.vsend_cq);
    w.u32(x.vrecv_cq);
    w.u32(x.vsrq);
    w.u32(x.caps.max_send_wr);
    w.u32(x.caps.max_recv_wr);
    w.boolean(x.connected);
    w.u32(x.dest_host);
    w.u32(x.dest_pqpn);
    w.u32(x.dest_vqpn);
    w.u32(x.peer_guest);
    w.boolean(x.peer_is_migrrdma);
  }

  w.u32(static_cast<std::uint32_t>(intercepted_sends.size()));
  for (const auto& x : intercepted_sends) {
    w.u32(x.vqpn);
    put_send_wr(w, x.wr);
  }
  w.u32(static_cast<std::uint32_t>(pending_recvs.size()));
  for (const auto& x : pending_recvs) {
    w.u32(x.vqpn);
    w.u32(x.vsrq);
    put_recv_wr(w, x.wr);
  }
  w.u32(static_cast<std::uint32_t>(incomplete_sends.size()));
  for (const auto& x : incomplete_sends) {
    w.u32(x.vqpn);
    put_send_wr(w, x.wr);
  }
  w.u32(static_cast<std::uint32_t>(fake_cq_entries.size()));
  for (const auto& x : fake_cq_entries) {
    w.u32(x.vcq);
    put_cqe(w, x.cqe);
  }
  w.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& x : counters) {
    w.u32(x.vqpn);
    w.u64(x.n_sent);
    w.u64(x.n_recv);
  }
  return std::move(w).take();
}

Result<RdmaImage> RdmaImage::parse(std::span<const std::uint8_t> data) {
  ByteReader r{data};
  RdmaImage img;
  MIGR_ASSIGN_OR_RETURN(img.final, r.boolean());

  std::uint32_t n = 0;

  MIGR_ASSIGN_OR_RETURN(n, r.count(4));
  img.pds.resize(n);
  for (auto& x : img.pds) {
    MIGR_ASSIGN_OR_RETURN(x.vpd, r.u32());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4));
  img.channels.resize(n);
  for (auto& x : img.channels) {
    MIGR_ASSIGN_OR_RETURN(x.vchannel, r.u32());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 4 + 4));
  img.cqs.resize(n);
  for (auto& x : img.cqs) {
    MIGR_ASSIGN_OR_RETURN(x.vcq, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.capacity, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vchannel, r.u32());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 4 + 4));
  img.srqs.resize(n);
  for (auto& x : img.srqs) {
    MIGR_ASSIGN_OR_RETURN(x.vsrq, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vpd, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.capacity, r.u32());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 4 + 4 + 8 + 8 + 4));
  img.mrs.resize(n);
  for (auto& x : img.mrs) {
    MIGR_ASSIGN_OR_RETURN(x.vlkey, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vrkey, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vpd, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.addr, r.u64());
    MIGR_ASSIGN_OR_RETURN(x.length, r.u64());
    MIGR_ASSIGN_OR_RETURN(x.access, r.u32());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 8 + 8));
  img.dms.resize(n);
  for (auto& x : img.dms) {
    MIGR_ASSIGN_OR_RETURN(x.vdm, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.length, r.u64());
    MIGR_ASSIGN_OR_RETURN(x.mapped_at, r.u64());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 4 + 1 + 4 + 4 + 4 + 8 + 8 + 4));
  img.mws.resize(n);
  for (auto& x : img.mws) {
    MIGR_ASSIGN_OR_RETURN(x.vmw, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vpd, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.bound, r.boolean());
    MIGR_ASSIGN_OR_RETURN(x.vrkey, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.mr_vlkey, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.bind_vqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.addr, r.u64());
    MIGR_ASSIGN_OR_RETURN(x.length, r.u64());
    MIGR_ASSIGN_OR_RETURN(x.access, r.u32());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 1 + 4 * 6 + 1 + 4 * 4 + 1));
  img.qps.resize(n);
  for (auto& x : img.qps) {
    MIGR_ASSIGN_OR_RETURN(x.vqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.type, get_enum(r, rnic::kLastQpType, "QP type"));
    MIGR_ASSIGN_OR_RETURN(x.vpd, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vsend_cq, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vrecv_cq, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vsrq, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.caps.max_send_wr, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.caps.max_recv_wr, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.connected, r.boolean());
    MIGR_ASSIGN_OR_RETURN(x.dest_host, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.dest_pqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.dest_vqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.peer_guest, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.peer_is_migrrdma, r.boolean());
  }

  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + kSendWrRecord));
  img.intercepted_sends.resize(n);
  for (auto& x : img.intercepted_sends) {
    MIGR_ASSIGN_OR_RETURN(x.vqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.wr, get_send_wr(r));
  }
  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 4 + kRecvWrRecord));
  img.pending_recvs.resize(n);
  for (auto& x : img.pending_recvs) {
    MIGR_ASSIGN_OR_RETURN(x.vqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.vsrq, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.wr, get_recv_wr(r));
  }
  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + kSendWrRecord));
  img.incomplete_sends.resize(n);
  for (auto& x : img.incomplete_sends) {
    MIGR_ASSIGN_OR_RETURN(x.vqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.wr, get_send_wr(r));
  }
  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + kCqeRecord));
  img.fake_cq_entries.resize(n);
  for (auto& x : img.fake_cq_entries) {
    MIGR_ASSIGN_OR_RETURN(x.vcq, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.cqe, get_cqe(r));
  }
  MIGR_ASSIGN_OR_RETURN(n, r.count(4 + 8 + 8));
  img.counters.resize(n);
  for (auto& x : img.counters) {
    MIGR_ASSIGN_OR_RETURN(x.vqpn, r.u32());
    MIGR_ASSIGN_OR_RETURN(x.n_sent, r.u64());
    MIGR_ASSIGN_OR_RETURN(x.n_recv, r.u64());
  }
  return img;
}

RdmaImage RdmaImage::diff_against(const RdmaImage& older) const {
  RdmaImage d;
  d.final = final;

  std::set<VHandle> seen;
  for (const auto& x : older.pds) seen.insert(x.vpd);
  for (const auto& x : pds) {
    if (!seen.contains(x.vpd)) d.pds.push_back(x);
  }
  seen.clear();
  for (const auto& x : older.channels) seen.insert(x.vchannel);
  for (const auto& x : channels) {
    if (!seen.contains(x.vchannel)) d.channels.push_back(x);
  }
  seen.clear();
  for (const auto& x : older.cqs) seen.insert(x.vcq);
  for (const auto& x : cqs) {
    if (!seen.contains(x.vcq)) d.cqs.push_back(x);
  }
  seen.clear();
  for (const auto& x : older.srqs) seen.insert(x.vsrq);
  for (const auto& x : srqs) {
    if (!seen.contains(x.vsrq)) d.srqs.push_back(x);
  }
  seen.clear();
  for (const auto& x : older.mrs) seen.insert(x.vlkey);
  for (const auto& x : mrs) {
    if (!seen.contains(x.vlkey)) d.mrs.push_back(x);
  }
  seen.clear();
  for (const auto& x : older.dms) seen.insert(x.vdm);
  for (const auto& x : dms) {
    if (!seen.contains(x.vdm)) d.dms.push_back(x);
  }
  seen.clear();
  for (const auto& x : older.mws) seen.insert(x.vmw);
  for (const auto& x : mws) {
    if (!seen.contains(x.vmw)) d.mws.push_back(x);
  }
  seen.clear();
  for (const auto& x : older.qps) seen.insert(x.vqpn);
  for (const auto& x : qps) {
    if (!seen.contains(x.vqpn)) d.qps.push_back(x);
  }

  // WBS residue is only ever produced by the final dump; copy as-is.
  d.intercepted_sends = intercepted_sends;
  d.pending_recvs = pending_recvs;
  d.incomplete_sends = incomplete_sends;
  d.fake_cq_entries = fake_cq_entries;
  d.counters = counters;
  return d;
}

}  // namespace migr::migrlib
