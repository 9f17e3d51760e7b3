// RoCE-like wire format for the simulated fabric. One WirePacket is one
// MTU-bounded transport packet; the header layout loosely follows the IB
// Base Transport Header plus the RETH/AtomicETH extended headers, carrying
// exactly the fields MigrRDMA cares about: destination QPN (routing), PSN
// (go-back-N reliability), and rkey/remote address (one-sided validation).
//
// The header serializes into the net::Packet's inline FrameHeader (71
// bytes: the fixed fields, then the u32 payload length) and the payload
// rides as a zero-copy PayloadRef slice in the packet body.
// parse(net::Packet&&) is the one wire parser: it returns a status for any
// frame it does not accept, and a frame it accepts serializes back to the
// same header bytes.
#pragma once

#include <cstdint>

#include "common/payload.hpp"
#include "common/result.hpp"
#include "net/fabric.hpp"
#include "rnic/types.hpp"

namespace migr::rnic {

enum class PktOp : std::uint8_t {
  send,         // two-sided payload packet
  write,        // one-sided write payload packet
  read_req,     // one-sided read request (no payload)
  read_resp,    // read response payload packet
  atomic_req,   // CAS / FAA request
  atomic_resp,  // atomic response (original value)
  ack,          // cumulative acknowledgement
  nak,          // go-back-N: "retransmit from psn"
};

struct WirePacket {
  /// Serialized header size: fixed fields (67 B) + u32 payload length.
  static constexpr std::size_t kHeaderBytes = 71;

  PktOp op = PktOp::send;
  Qpn dst_qpn = 0;
  Qpn src_qpn = 0;
  Psn psn = 0;       // request packets: sequence; ack/nak: cumulative/expected
  bool first = false;  // first packet of a message
  bool last = false;   // last packet of a message
  bool has_imm = false;
  std::uint32_t imm = 0;

  // RETH (write / read_req / atomic_req)
  proc::VirtAddr remote_addr = 0;
  Rkey rkey = 0;
  std::uint32_t msg_len = 0;  // total message length (first pkt / read_req)

  // Payload placement within the message.
  std::uint32_t offset = 0;

  // AtomicETH
  std::uint8_t atomic_op = 0;  // 0 = CAS, 1 = FAA
  std::uint64_t compare_add = 0;
  std::uint64_t swap = 0;

  // Read/atomic bookkeeping token: requester-side WQE identity echoed in
  // responses, so retried requests match up.
  std::uint64_t resp_token = 0;

  common::PayloadRef payload;

  /// Header (incl. payload length) into the packet's inline buffer; the
  /// payload travels separately as Packet::body.
  void serialize_header(net::FrameHeader& out) const;

  /// Decode the inline header and adopt `raw.body` without copying.
  /// Rejects a header of any other size, an unknown opcode, unknown flag
  /// bits, and a declared payload length that disagrees with the body.
  static common::Result<WirePacket> parse(net::Packet&& raw);
};

}  // namespace migr::rnic
