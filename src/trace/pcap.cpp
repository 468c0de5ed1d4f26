#include "trace/pcap.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/binio.h"

namespace mfa::trace {

namespace {

constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsecSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinkEthernet = 1;

/// Sanity cap on a single captured record. Real captures top out at jumbo
/// frames (~9 KB); anything past this is a corrupt or hostile length field,
/// and trusting it would make the reader walk off (or far through) the
/// buffer. Generous so ERF-style super-jumbo snaplens still pass.
constexpr std::uint32_t kMaxFrameBytes = 256 * 1024;

std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) | (v >> 24);
}

/// Cursor over the raw capture bytes.
struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  [[nodiscard]] bool have(std::size_t n) const { return pos + n <= size; }
  const std::uint8_t* take(std::size_t n) {
    const std::uint8_t* p = data + pos;
    pos += n;
    return p;
  }
};

std::uint16_t read_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t read_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

}  // namespace

PcapResult read_pcap_buffer(const std::uint8_t* data, std::size_t size, std::string name) {
  PcapResult result;
  result.trace = Trace(std::move(name));
  Cursor cur{data, size};

  if (!cur.have(24)) {
    result.error = "file shorter than a pcap global header";
    return result;
  }
  std::uint32_t magic;
  std::memcpy(&magic, cur.take(4), 4);
  bool swapped;
  if (magic == kMagicUsec || magic == kMagicNsec) swapped = false;
  else if (magic == kMagicUsecSwapped || magic == kMagicNsecSwapped) swapped = true;
  else {
    result.error = "not a pcap file (bad magic)";
    return result;
  }
  cur.take(2 + 2 + 4 + 4 + 4);  // version, thiszone, sigfigs, snaplen
  std::uint32_t linktype;
  std::memcpy(&linktype, cur.take(4), 4);
  if (swapped) linktype = bswap32(linktype);
  if (linktype != kLinkEthernet) {
    result.error = "unsupported link type " + std::to_string(linktype) +
                   " (only Ethernet is supported)";
    return result;
  }

  // Per-flow TCP sequence tracking. The wire carries 32-bit sequence
  // numbers; long flows wrap them every 4 GiB, so `seq - base` alone would
  // fold the stream offset back to zero (and a stray pre-base segment would
  // wrap to a bogus ~4 GiB offset). Instead each new segment is unwrapped
  // onto a 64-bit stream position via its signed 32-bit delta from the most
  // recent unwrapped position — exact as long as successive segments stay
  // within +/-2 GiB of each other, which TCP's window rules guarantee.
  struct TcpSeqState {
    std::uint64_t base = 0;  ///< unwrapped position of stream byte 0
    std::uint64_t last = 0;  ///< highest unwrapped sequence seen
  };
  std::unordered_map<flow::FlowKey, TcpSeqState, flow::FlowKeyHash> tcp_seq;
  std::unordered_map<flow::FlowKey, std::uint64_t, flow::FlowKeyHash> udp_offset;

  while (cur.have(16)) {
    ++result.stats.frames;
    cur.take(8);  // timestamp
    std::uint32_t incl_len, orig_len;
    std::memcpy(&incl_len, cur.take(4), 4);
    std::memcpy(&orig_len, cur.take(4), 4);
    if (swapped) incl_len = bswap32(incl_len);
    // A corrupt capture is an error, not a skip: a bogus length field means
    // every later record boundary is untrustworthy, so parsing stops with a
    // diagnostic naming the frame. Packets parsed so far stay in the trace.
    if (incl_len > kMaxFrameBytes) {
      result.error = "frame " + std::to_string(result.stats.frames) +
                     ": implausible record length " + std::to_string(incl_len) +
                     " (max " + std::to_string(kMaxFrameBytes) + ")";
      return result;
    }
    if (!cur.have(incl_len)) {
      result.error = "frame " + std::to_string(result.stats.frames) +
                     ": record truncated (header claims " +
                     std::to_string(incl_len) + " bytes, " +
                     std::to_string(cur.size - cur.pos) + " left in file)";
      return result;
    }
    const std::uint8_t* frame = cur.take(incl_len);
    const std::size_t frame_len = incl_len;

    // Ethernet header: 14 bytes, ethertype 0x0800 = IPv4.
    if (frame_len < 14 + 20) {
      ++result.stats.skipped_non_ip;
      continue;
    }
    if (read_be16(frame + 12) != 0x0800) {
      ++result.stats.skipped_non_ip;
      continue;
    }
    const std::uint8_t* ip = frame + 14;
    const std::size_t ip_space = frame_len - 14;
    if ((ip[0] >> 4) != 4) {
      ++result.stats.skipped_non_ip;
      continue;
    }
    const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
    const std::size_t ip_total = read_be16(ip + 2);
    if (ihl < 20 || ip_total < ihl || ip_total > ip_space) {
      ++result.stats.skipped_truncated;
      continue;
    }
    const std::uint8_t proto = ip[9];
    flow::FlowKey key;
    key.src_ip = read_be32(ip + 12);
    key.dst_ip = read_be32(ip + 16);
    key.proto = proto;
    const std::uint8_t* l4 = ip + ihl;
    const std::size_t l4_space = ip_total - ihl;

    if (proto == 6) {  // TCP
      if (l4_space < 20) {
        ++result.stats.skipped_truncated;
        continue;
      }
      key.src_port = read_be16(l4);
      key.dst_port = read_be16(l4 + 2);
      const std::uint32_t seq = read_be32(l4 + 4);
      const std::size_t data_off = static_cast<std::size_t>(l4[12] >> 4) * 4;
      const std::uint8_t flags = l4[13];
      if (data_off < 20 || data_off > l4_space) {
        ++result.stats.skipped_truncated;
        continue;
      }
      const std::uint8_t* payload = l4 + data_off;
      std::size_t payload_len = l4_space - data_off;
      // Establish the per-flow base sequence: SYN consumes one sequence
      // number, so payload starts at seq+1 relative to the SYN's seq.
      auto it = tcp_seq.find(key);
      if (it == tcp_seq.end()) {
        TcpSeqState st;
        st.last = seq;
        st.base = st.last + ((flags & 0x02) != 0 ? 1 : 0);
        it = tcp_seq.emplace(key, st).first;
      }
      if (payload_len == 0) {
        ++result.stats.skipped_empty;
        continue;
      }
      TcpSeqState& st = it->second;
      // Unwrap: interpret the 32-bit difference from the last unwrapped
      // position as signed, so both wraps (forward past 2^32) and
      // retransmits (small negative deltas) land on the right 64-bit spot.
      const auto delta =
          static_cast<std::int32_t>(seq - static_cast<std::uint32_t>(st.last));
      const std::uint64_t unwrapped = st.last + static_cast<std::int64_t>(delta);
      if (unwrapped > st.last) st.last = unwrapped;
      // Segments (or prefixes) from before stream byte 0 — keep-alive
      // probes, retransmitted SYN-era bytes — are trimmed rather than left
      // to wrap into a bogus far-future offset.
      std::uint64_t rel = 0;
      if (unwrapped < st.base) {
        const std::uint64_t skip = st.base - unwrapped;
        if (skip >= payload_len) {
          ++result.stats.skipped_empty;
          continue;
        }
        payload += skip;
        payload_len -= static_cast<std::size_t>(skip);
      } else {
        rel = unwrapped - st.base;
      }
      result.trace.add_packet(key, rel, payload, payload_len);
      ++result.stats.payload_packets;
    } else if (proto == 17) {  // UDP
      if (l4_space < 8) {
        ++result.stats.skipped_truncated;
        continue;
      }
      key.src_port = read_be16(l4);
      key.dst_port = read_be16(l4 + 2);
      const std::size_t udp_len = read_be16(l4 + 4);
      if (udp_len < 8 || udp_len > l4_space) {
        ++result.stats.skipped_truncated;
        continue;
      }
      const std::size_t payload_len = udp_len - 8;
      if (payload_len == 0) {
        ++result.stats.skipped_empty;
        continue;
      }
      std::uint64_t& offset = udp_offset[key];
      result.trace.add_packet(key, offset, l4 + 8, payload_len);
      offset += payload_len;
      ++result.stats.payload_packets;
    } else {
      ++result.stats.skipped_non_l4;
    }
  }
  if (cur.pos != cur.size) {
    // Trailing bytes too short to be a record header: the file was cut
    // mid-header (or garbage was appended) — also a capture-level error.
    result.error = "frame " + std::to_string(result.stats.frames + 1) +
                   ": truncated record header (" +
                   std::to_string(cur.size - cur.pos) + " trailing bytes)";
    return result;
  }

  result.ok = true;
  return result;
}

PcapResult read_pcap(const std::string& path) {
  util::FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    PcapResult r;
    r.error = "cannot open " + path;
    return r;
  }
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (size < 0) {
    PcapResult r;
    r.error = "cannot stat " + path;
    return r;
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    PcapResult r;
    r.error = "short read on " + path;
    return r;
  }
  return read_pcap_buffer(bytes.data(), bytes.size(), path);
}

}  // namespace mfa::trace
