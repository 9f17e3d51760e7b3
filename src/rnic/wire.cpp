#include "rnic/wire.hpp"

namespace migr::rnic {

namespace {

constexpr std::uint8_t kFlagFirst = 1;
constexpr std::uint8_t kFlagLast = 2;
constexpr std::uint8_t kFlagImm = 4;
constexpr std::uint8_t kKnownFlags = kFlagFirst | kFlagLast | kFlagImm;

inline void put_le(std::uint8_t*& p, std::uint64_t v, int nbytes) {
  for (int i = 0; i < nbytes; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint64_t get_le(const std::uint8_t*& p, int nbytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < nbytes; ++i) v |= static_cast<std::uint64_t>(*p++) << (8 * i);
  return v;
}

}  // namespace

void WirePacket::serialize_header(net::FrameHeader& out) const {
  out.resize(kHeaderBytes);
  std::uint8_t* p = out.data();
  *p++ = static_cast<std::uint8_t>(op);
  put_le(p, dst_qpn, 4);
  put_le(p, src_qpn, 4);
  put_le(p, psn, 8);
  std::uint8_t flags = 0;
  if (first) flags |= kFlagFirst;
  if (last) flags |= kFlagLast;
  if (has_imm) flags |= kFlagImm;
  *p++ = flags;
  put_le(p, imm, 4);
  put_le(p, remote_addr, 8);
  put_le(p, rkey, 4);
  put_le(p, msg_len, 4);
  put_le(p, offset, 4);
  *p++ = atomic_op;
  put_le(p, compare_add, 8);
  put_le(p, swap, 8);
  put_le(p, resp_token, 8);
  put_le(p, payload.size(), 4);
}

common::Result<WirePacket> WirePacket::parse(net::Packet&& raw) {
  if (raw.header.size() != kHeaderBytes) {
    return common::err(common::Errc::invalid_argument, "bad packet header size");
  }
  const std::uint8_t* p = raw.header.data();
  WirePacket pkt;
  const auto op = static_cast<std::uint8_t>(*p++);
  if (op > static_cast<std::uint8_t>(PktOp::nak)) {
    return common::err(common::Errc::invalid_argument, "bad packet opcode");
  }
  pkt.op = static_cast<PktOp>(op);
  pkt.dst_qpn = static_cast<Qpn>(get_le(p, 4));
  pkt.src_qpn = static_cast<Qpn>(get_le(p, 4));
  pkt.psn = static_cast<Psn>(get_le(p, 8));
  const auto flags = static_cast<std::uint8_t>(*p++);
  if ((flags & ~kKnownFlags) != 0) {
    return common::err(common::Errc::invalid_argument, "unknown packet flag bits");
  }
  pkt.first = (flags & kFlagFirst) != 0;
  pkt.last = (flags & kFlagLast) != 0;
  pkt.has_imm = (flags & kFlagImm) != 0;
  pkt.imm = static_cast<std::uint32_t>(get_le(p, 4));
  pkt.remote_addr = static_cast<proc::VirtAddr>(get_le(p, 8));
  pkt.rkey = static_cast<Rkey>(get_le(p, 4));
  pkt.msg_len = static_cast<std::uint32_t>(get_le(p, 4));
  pkt.offset = static_cast<std::uint32_t>(get_le(p, 4));
  pkt.atomic_op = static_cast<std::uint8_t>(*p++);
  pkt.compare_add = get_le(p, 8);
  pkt.swap = get_le(p, 8);
  pkt.resp_token = get_le(p, 8);
  const auto declared_len = static_cast<std::uint32_t>(get_le(p, 4));
  if (declared_len != raw.body.size()) {
    return common::err(common::Errc::invalid_argument, "payload length mismatch");
  }
  pkt.payload = std::move(raw.body);
  return pkt;
}

}  // namespace migr::rnic
