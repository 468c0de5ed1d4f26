// Minimal libpcap-format reader.
//
// The paper's real-life inputs are .pcap captures "with packet-level
// details and not pre-assembled flows" (Sec. V-A). This reader ingests the
// classic libpcap file format (magic 0xa1b2c3d4, microsecond or nanosecond
// variants, either endianness), parses Ethernet/IPv4/{TCP,UDP} headers to
// recover the 5-tuple and the L4 payload, and emits a Trace whose packets
// carry TCP sequence-relative offsets so the flow inspector can reassemble
// exactly like it does for generated traces. Stream offsets are 64-bit:
// the 32-bit wire sequence is unwrapped via its signed delta from the last
// seen position, so flows longer than 4 GiB keep monotone offsets instead
// of folding back to zero. Non-IPv4/non-TCP/UDP frames are counted and
// skipped. No external dependency.
//
// Malformed-capture policy: damage at the CAPTURE level — an implausible
// record length, a record body the file is too short to hold, trailing
// bytes shorter than a record header — makes every later record boundary
// untrustworthy, so parsing stops with ok=false and a diagnostic naming the
// offending frame (packets parsed before the damage stay in the trace).
// Damage INSIDE a well-formed record (truncated IP/TCP headers, bad IHL,
// lying UDP lengths) is hostile traffic, not a broken file: those frames
// are counted in skipped_truncated and parsing continues.
#pragma once

#include <cstdint>
#include <string>

#include "trace/trace.h"

namespace mfa::trace {

struct PcapStats {
  std::uint64_t frames = 0;           ///< records in the file
  std::uint64_t payload_packets = 0;  ///< frames contributing payload bytes
  std::uint64_t skipped_non_ip = 0;
  std::uint64_t skipped_non_l4 = 0;   ///< IPv4 but not TCP/UDP
  std::uint64_t skipped_truncated = 0;
  std::uint64_t skipped_empty = 0;    ///< TCP segments with no payload (ACKs)
};

struct PcapResult {
  bool ok = false;
  std::string error;
  Trace trace;
  PcapStats stats;
};

/// Read a .pcap file into a Trace. TCP payload offsets are relative to the
/// first sequence number seen per flow (SYN-aware); UDP datagrams are
/// delivered back to back per flow.
PcapResult read_pcap(const std::string& path);

/// Parse from an in-memory buffer (used by tests and network ingestion).
PcapResult read_pcap_buffer(const std::uint8_t* data, std::size_t size,
                            std::string name = "pcap");

}  // namespace mfa::trace
