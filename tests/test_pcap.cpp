// Pcap reader tests over hand-assembled capture bytes: a tiny writer
// builds Ethernet/IPv4/TCP-UDP frames so every parsing path is exercised
// without binary fixtures.
#include "trace/pcap.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "flow/tiered.h"
#include "mfa/mfa.h"

namespace mfa::trace {
namespace {

/// Minimal pcap writer used only by these tests.
class PcapBuilder {
 public:
  explicit PcapBuilder(bool swapped = false) : swapped_(swapped) {
    u32(0xa1b2c3d4);  // u32 applies the byte swap for swapped files
    u16(2);
    u16(4);
    u32(0);  // thiszone
    u32(0);  // sigfigs
    u32(65535);
    u32(1);  // Ethernet
  }

  void tcp_packet(const flow::FlowKey& key, std::uint32_t seq, std::uint8_t flags,
                  const std::string& payload) {
    std::vector<std::uint8_t> l4(20);
    be16(&l4[0], key.src_port);
    be16(&l4[2], key.dst_port);
    be32(&l4[4], seq);
    l4[12] = 5 << 4;  // data offset 20
    l4[13] = flags;
    append_frame(key, 6, l4, payload);
  }

  void udp_packet(const flow::FlowKey& key, const std::string& payload) {
    std::vector<std::uint8_t> l4(8);
    be16(&l4[0], key.src_port);
    be16(&l4[2], key.dst_port);
    be16(&l4[4], static_cast<std::uint16_t>(8 + payload.size()));
    append_frame(key, 17, l4, payload);
  }

  void non_ip_frame() {
    std::vector<std::uint8_t> frame(60, 0);
    frame[12] = 0x08;
    frame[13] = 0x06;  // ARP
    record(frame);
  }

  void raw_record(const std::vector<std::uint8_t>& frame) { record(frame); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return out_; }

 private:
  void append_frame(const flow::FlowKey& key, std::uint8_t proto,
                    const std::vector<std::uint8_t>& l4, const std::string& payload) {
    std::vector<std::uint8_t> frame(14);
    frame[12] = 0x08;  // IPv4 ethertype
    std::vector<std::uint8_t> ip(20);
    ip[0] = 0x45;
    be16(&ip[2], static_cast<std::uint16_t>(20 + l4.size() + payload.size()));
    ip[8] = 64;
    ip[9] = proto;
    be32(&ip[12], key.src_ip);
    be32(&ip[16], key.dst_ip);
    frame.insert(frame.end(), ip.begin(), ip.end());
    frame.insert(frame.end(), l4.begin(), l4.end());
    frame.insert(frame.end(), payload.begin(), payload.end());
    record(frame);
  }

  void record(const std::vector<std::uint8_t>& frame) {
    u32(0);  // ts sec
    u32(0);  // ts usec
    u32(static_cast<std::uint32_t>(frame.size()));
    u32(static_cast<std::uint32_t>(frame.size()));
    out_.insert(out_.end(), frame.begin(), frame.end());
  }

  static void be16(std::uint8_t* p, std::uint16_t v) {
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  static void be32(std::uint8_t* p, std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
  }

  void u16(std::uint16_t v) {
    if (swapped_) v = static_cast<std::uint16_t>((v << 8) | (v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    if (swapped_)
      v = ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) | (v >> 24);
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  bool swapped_;
  std::vector<std::uint8_t> out_;
};

const flow::FlowKey kFlow{0x0a000001, 0x0a000002, 40000, 80, 6};

TEST(Pcap, RejectsGarbage) {
  const std::uint8_t junk[] = "this is not a pcap file";
  const PcapResult r = read_pcap_buffer(junk, sizeof junk);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(Pcap, TcpStreamWithSyn) {
  PcapBuilder b;
  b.tcp_packet(kFlow, 1000, 0x02, "");        // SYN, consumes seq 1000
  b.tcp_packet(kFlow, 1001, 0x10, "hello ");  // first data at rel offset 0
  b.tcp_packet(kFlow, 1007, 0x10, "world");
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.frames, 3u);
  EXPECT_EQ(r.stats.payload_packets, 2u);
  EXPECT_EQ(r.stats.skipped_empty, 1u);  // the bare SYN
  ASSERT_EQ(r.trace.packet_count(), 2u);
  EXPECT_EQ(r.trace.packet(0).seq, 0u);
  EXPECT_EQ(r.trace.packet(1).seq, 6u);
  EXPECT_EQ(r.trace.payload_bytes(), 11u);
}

TEST(Pcap, SwappedEndiannessAccepted) {
  PcapBuilder b(/*swapped=*/true);
  b.tcp_packet(kFlow, 5, 0, "data");
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.trace.packet_count(), 1u);
}

TEST(Pcap, UdpDatagramsGetRunningOffsets) {
  flow::FlowKey udp = kFlow;
  udp.proto = 17;
  PcapBuilder b;
  b.udp_packet(udp, "aaaa");
  b.udp_packet(udp, "bb");
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.trace.packet_count(), 2u);
  EXPECT_EQ(r.trace.packet(0).seq, 0u);
  EXPECT_EQ(r.trace.packet(1).seq, 4u);
}

TEST(Pcap, NonIpFramesSkipped) {
  PcapBuilder b;
  b.non_ip_frame();
  b.tcp_packet(kFlow, 0, 0, "x");
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stats.skipped_non_ip, 1u);
  EXPECT_EQ(r.trace.packet_count(), 1u);
}

TEST(Pcap, TruncatedRecordRejectedWithDiagnostic) {
  PcapBuilder b;
  b.tcp_packet(kFlow, 0, 0, "full packet");
  std::vector<std::uint8_t> bytes = b.bytes();
  // Append a record header claiming more bytes than exist: capture-level
  // damage is an error naming the frame, not a silent early stop.
  for (int i = 0; i < 8; ++i) bytes.push_back(0);
  for (const std::uint8_t v : {0xff, 0x00, 0x00, 0x00}) bytes.push_back(v);
  for (const std::uint8_t v : {0xff, 0x00, 0x00, 0x00}) bytes.push_back(v);
  const PcapResult r = read_pcap_buffer(bytes.data(), bytes.size());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("frame 2"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
  // The packet parsed before the damage is still available for diagnosis.
  EXPECT_EQ(r.trace.packet_count(), 1u);
}

TEST(Pcap, ImplausibleRecordLengthRejected) {
  PcapBuilder b;
  b.tcp_packet(kFlow, 0, 0, "ok");
  std::vector<std::uint8_t> bytes = b.bytes();
  for (int i = 0; i < 8; ++i) bytes.push_back(0);
  for (const std::uint8_t v : {0xff, 0xff, 0xff, 0x7f}) bytes.push_back(v);
  for (const std::uint8_t v : {0xff, 0xff, 0xff, 0x7f}) bytes.push_back(v);
  // Pad so the file LOOKS long enough to keep parsing naively.
  bytes.resize(bytes.size() + 4096, 0);
  const PcapResult r = read_pcap_buffer(bytes.data(), bytes.size());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("implausible record length"), std::string::npos)
      << r.error;
}

TEST(Pcap, TruncatedRecordHeaderRejected) {
  PcapBuilder b;
  b.tcp_packet(kFlow, 0, 0, "ok");
  std::vector<std::uint8_t> bytes = b.bytes();
  for (int i = 0; i < 7; ++i) bytes.push_back(0);  // 7 < 16-byte record header
  const PcapResult r = read_pcap_buffer(bytes.data(), bytes.size());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated record header"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.trace.packet_count(), 1u);
}

TEST(Pcap, MalformedCorpusNeverCrashes) {
  // Corpus fuzz: every truncation prefix of a healthy capture, plus
  // deterministic byte corruptions, must parse without crashing or
  // over-reading (ASan job), and every failure must carry a diagnostic.
  PcapBuilder b;
  flow::FlowKey udp = kFlow;
  udp.proto = 17;
  b.tcp_packet(kFlow, 100, 0x02, "");
  b.tcp_packet(kFlow, 101, 0x10, "hello across ");
  b.non_ip_frame();
  b.udp_packet(udp, "datagram");
  b.tcp_packet(kFlow, 114, 0x10, "the stream");
  const std::vector<std::uint8_t> good = b.bytes();
  const PcapResult healthy = read_pcap_buffer(good.data(), good.size());
  ASSERT_TRUE(healthy.ok) << healthy.error;

  for (std::size_t len = 0; len <= good.size(); ++len) {
    const PcapResult r = read_pcap_buffer(good.data(), len, "trunc");
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty()) << "truncated at " << len;
    }
    EXPECT_LE(r.trace.packet_count(), healthy.trace.packet_count());
  }

  // Single-byte corruptions at every offset (bit-flip and 0xff stomp):
  // lengths, ethertypes, IHL nibbles, UDP lengths, record headers...
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    for (const std::uint8_t stomp : {std::uint8_t{0xff}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> bad = good;
      bad[pos] ^= stomp;
      const PcapResult r = read_pcap_buffer(bad.data(), bad.size(), "corrupt");
      if (!r.ok) {
        EXPECT_FALSE(r.error.empty()) << "corrupt byte " << pos;
      }
    }
  }
}

TEST(Pcap, OutOfOrderTcpReassembledByInspector) {
  // Data segment for offset 6 arrives before offset 0; the flow inspector
  // must reassemble and the pattern spanning both must match.
  PcapBuilder b;
  b.tcp_packet(kFlow, 100, 0x02, "");        // SYN: base = 101
  b.tcp_packet(kFlow, 109, 0, "needle");     // rel 8
  b.tcp_packet(kFlow, 101, 0, "heres a ");   // rel 0, 8 bytes
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok) << r.error;
  auto m = core::build_mfa(mfa::testing::compile_patterns({".*a needle"}));
  ASSERT_TRUE(m.has_value());
  flow::TieredFlowInspector<core::Mfa> insp{*m};
  CollectingSink sink;
  r.trace.for_each_packet([&](const flow::Packet& p) { insp.packet(p, sink); });
  ASSERT_EQ(sink.matches.size(), 1u);
}

TEST(Pcap, EndToEndScanThroughMfa) {
  PcapBuilder b;
  flow::FlowKey other{0x0a000003, 0x0a000004, 5555, 80, 6};
  b.tcp_packet(kFlow, 0, 0, "GET /cmd");
  b.tcp_packet(other, 0, 0, "unrelated traffic");
  b.tcp_packet(kFlow, 8, 0, ".exe HTTP/1.0");
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok);
  auto m = core::build_mfa(mfa::testing::compile_patterns({".*cmd\\.exe"}));
  ASSERT_TRUE(m.has_value());
  flow::TieredFlowInspector<core::Mfa> insp{*m};
  CollectingSink sink;
  r.trace.for_each_packet([&](const flow::Packet& p) { insp.packet(p, sink); });
  ASSERT_EQ(sink.matches.size(), 1u);  // spans the two kFlow segments
}

TEST(Pcap, LongFlowOffsetsStayMonotonePast4GiB) {
  // Regression: rel used to be computed as a 32-bit difference, folding
  // stream offsets back to zero every 4 GiB. Hop forward in ~1.5 GiB steps
  // (each within the signed-32-bit unwrap window) until the cumulative
  // stream position passes 2^32 and check offsets keep growing.
  constexpr std::uint64_t kStep = 0x60000000;  // 1.5 GiB
  PcapBuilder b;
  for (std::uint64_t off = 0; off <= 3 * kStep; off += kStep)
    b.tcp_packet(kFlow, static_cast<std::uint32_t>(off), 0, "x");
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.trace.packet_count(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(r.trace.packet(i).seq, i * kStep);
  EXPECT_GT(r.trace.packet(3).seq, std::uint64_t{1} << 32);  // 4.5 GiB
}

TEST(Pcap, SeqWrapAcrossZeroReassembles) {
  // A pattern spanning the 2^32 sequence wrap: segment one ends at wire
  // seq 0xffffffff, segment two starts at wire seq 3 after wrapping. The
  // unwrapped offsets must be contiguous so the inspector sees one stream.
  PcapBuilder b;
  b.tcp_packet(kFlow, 0xfffffff9, 0, "a need");  // wire seqs f9..fe
  b.tcp_packet(kFlow, 0xffffffff, 0, "le!");     // crosses zero
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.trace.packet_count(), 2u);
  EXPECT_EQ(r.trace.packet(0).seq, 0u);
  EXPECT_EQ(r.trace.packet(1).seq, 6u);
  auto m = core::build_mfa(mfa::testing::compile_patterns({".*a needle"}));
  ASSERT_TRUE(m.has_value());
  flow::TieredFlowInspector<core::Mfa> insp{*m};
  CollectingSink sink;
  r.trace.for_each_packet([&](const flow::Packet& p) { insp.packet(p, sink); });
  ASSERT_EQ(sink.matches.size(), 1u);
}

TEST(Pcap, KeepAliveBeforeBaseIsTrimmedNotWrapped) {
  // TCP keep-alives carry one garbage byte at seq base-1. The old 32-bit
  // subtraction wrapped that to a ~4 GiB offset, planting a phantom
  // far-future segment; it must be dropped (or front-trimmed) instead.
  PcapBuilder b;
  b.tcp_packet(kFlow, 1000, 0x02, "");   // SYN: base = 1001
  b.tcp_packet(kFlow, 1001, 0, "data");  // rel 0
  b.tcp_packet(kFlow, 1000, 0, "k");     // keep-alive probe at base-1
  b.tcp_packet(kFlow, 1000, 0, "kmore"); // retransmit overlapping base
  const PcapResult r = read_pcap_buffer(b.bytes().data(), b.bytes().size());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.trace.packet_count(), 2u);
  EXPECT_EQ(r.trace.packet(0).seq, 0u);
  EXPECT_EQ(r.trace.packet(1).seq, 0u);  // trimmed to start at stream byte 0
  EXPECT_EQ(r.trace.packet(1).length, 4u);  // "more"
  // Nothing may land anywhere near the wrapped 32-bit offset.
  for (std::uint64_t i = 0; i < r.trace.packet_count(); ++i)
    EXPECT_LT(r.trace.packet(i).seq, 16u);
}

TEST(Pcap, MissingFileReported) {
  const PcapResult r = read_pcap("/nonexistent/capture.pcap");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

}  // namespace
}  // namespace mfa::trace
