// Reference flow semantics for tests: reassemble every flow's bytes by
// offset, with no eviction, caps or budgets, then scan each flow's stream
// with the NFA. The result is correct by inspection, so inspector and
// pipeline output is compared against it exactly.
//
// A flow's stream is its contiguous prefix from offset 0: bytes past the
// first hole were never deliverable in order, so no inspector scans them.
// Overlapping deliveries must carry identical bytes — a delivery plan that
// rewrites history is a bug in the test, and is reported as a failure.
//
// Also here: the hostile delivery plans the fuzz tests feed to both sides,
// and a helper that runs a plan through an inspector and collects its
// output in the oracle's form.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "flow/flow.h"
#include "nfa/nfa.h"
#include "util/match.h"
#include "util/rng.h"

namespace mfa::testing {

/// One match attributed to its flow; ordered by (flow key, id, end).
struct FlowMatch {
  flow::FlowKey key;
  std::uint32_t id = 0;
  std::uint64_t end = 0;

  [[nodiscard]] auto tie() const {
    return std::tie(key.src_ip, key.dst_ip, key.src_port, key.dst_port, key.proto, id,
                    end);
  }
  friend bool operator==(const FlowMatch& a, const FlowMatch& b) {
    return a.tie() == b.tie();
  }
  friend bool operator<(const FlowMatch& a, const FlowMatch& b) {
    return a.tie() < b.tie();
  }
};

using FlowMatches = std::vector<FlowMatch>;
using PerFlowMatches = std::unordered_map<flow::FlowKey, MatchVec, flow::FlowKeyHash>;

class FlowOracle {
 public:
  /// Record one delivery; any order, any overlap.
  void packet(const flow::Packet& p) {
    Stream& s = flows_[p.key];
    const std::uint64_t end = p.seq + p.length;
    // Offsets index a dense buffer: a test trace past 1 GiB is a bug.
    ASSERT_LE(end, std::uint64_t{1} << 30) << "oracle stream offset out of range";
    if (s.bytes.size() < end) {
      s.bytes.resize(end);
      s.have.resize(end, false);
    }
    for (std::uint32_t i = 0; i < p.length; ++i) {
      const std::uint64_t at = p.seq + i;
      if (s.have[at]) {
        EXPECT_EQ(s.bytes[at], p.payload[i])
            << "overlapping deliveries disagree at offset " << at;
      } else {
        s.bytes[at] = p.payload[i];
        s.have[at] = true;
      }
    }
  }

  /// Every flow's NFA matches, sorted by (flow, id, end).
  [[nodiscard]] FlowMatches matches(const nfa::Nfa& nfa) const {
    FlowMatches out;
    for (const auto& [key, s] : flows_) {
      const std::size_t n = static_cast<std::size_t>(
          std::find(s.have.begin(), s.have.end(), false) - s.have.begin());
      Scanner scanner(nfa);
      for (const Match& m : scanner.scan(s.bytes.data(), n))
        out.push_back(FlowMatch{key, m.id, m.end});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// matches() grouped per flow, each flow's list sorted by (end, id);
  /// flows without a match are absent.
  [[nodiscard]] PerFlowMatches per_flow(const nfa::Nfa& nfa) const {
    PerFlowMatches out;
    for (const FlowMatch& m : matches(nfa)) out[m.key].push_back(Match{m.id, m.end});
    for (auto& [key, v] : out) std::sort(v.begin(), v.end());
    return out;
  }

 private:
  struct Stream {
    std::vector<std::uint8_t> bytes;  ///< indexed by stream offset
    std::vector<bool> have;           ///< which offsets were delivered
  };
  std::unordered_map<flow::FlowKey, Stream, flow::FlowKeyHash> flows_;
};

/// Flow matches without the flow attribution, sorted by (end, id).
inline MatchVec unattributed(const FlowMatches& matches) {
  MatchVec out;
  for (const FlowMatch& m : matches) out.push_back(Match{m.id, m.end});
  std::sort(out.begin(), out.end());
  return out;
}

// --- hostile delivery plans ---

/// One delivery; owns its bytes (the Packet payload points here).
struct Delivery {
  flow::FlowKey key;
  std::uint64_t seq = 0;
  std::string bytes;

  [[nodiscard]] flow::Packet packet() const {
    return flow::Packet{key, seq, reinterpret_cast<const std::uint8_t*>(bytes.data()),
                        static_cast<std::uint32_t>(bytes.size())};
  }
};

/// Patterns whose literals fuzz_content() plants.
inline const std::vector<std::string> kFuzzSources = {".*ab12.*cd34", ".*wxyz",
                                                      ".*ha[0-9]ck"};

/// One flow's payload: lowercase filler with kFuzzSources literals planted.
inline std::string fuzz_content(util::Rng& rng) {
  std::string s;
  const std::size_t chunks = 2 + rng.below(5);
  for (std::size_t i = 0; i < chunks; ++i) {
    s += rng.lower_string(3 + rng.below(20));
    switch (rng.below(5)) {
      case 0: s += "ab12"; break;
      case 1: s += "cd34"; break;
      case 2: s += "wxyz"; break;
      case 3: s += "ha7ck"; break;
      default: break;  // filler only
    }
  }
  return s;
}

/// Fragment `content` into 1..max_seg byte segments, splice in overlapping
/// retransmissions of earlier slices, swap neighbours up to 4 apart (keeps
/// the pending buffer small while still reordering), and repeat a few
/// deliveries verbatim. Every byte is delivered at least once.
inline std::vector<Delivery> plan_flow(const flow::FlowKey& key, const std::string& content,
                                       util::Rng& rng, std::size_t max_seg = 9) {
  std::vector<Delivery> plan;
  std::size_t off = 0;
  while (off < content.size()) {
    const std::size_t len = std::min(content.size() - off, 1 + rng.below(max_seg));
    plan.push_back({key, off, content.substr(off, len)});
    off += len;
  }
  const std::size_t extras = rng.below(3);
  for (std::size_t i = 0; i < extras && !content.empty(); ++i) {
    const std::size_t start = rng.below(content.size());
    const std::size_t len = std::min(content.size() - start, 1 + rng.below(12));
    plan.push_back({key, start, content.substr(start, len)});
  }
  for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
    const std::size_t j =
        i + 1 + rng.below(std::min<std::size_t>(4, plan.size() - i - 1));
    if (rng.chance(0.5)) std::swap(plan[i], plan[j]);
  }
  const std::size_t dups = rng.below(3);
  for (std::size_t i = 0; i < dups; ++i) plan.push_back(plan[rng.below(plan.size())]);
  return plan;
}

/// The oracle fed with every delivery of `plan`.
inline FlowOracle oracle_of(const std::vector<Delivery>& plan) {
  FlowOracle oracle;
  for (const Delivery& d : plan) oracle.packet(d.packet());
  return oracle;
}

/// Run `plan` through an inspector and collect its matches in the oracle's
/// form. burst == 0 delivers packet by packet, otherwise through
/// packet_batch_flows() in bursts of that size.
template <typename InspectorT>
FlowMatches run_plan(InspectorT& insp, const std::vector<Delivery>& plan,
                     std::size_t burst = 0) {
  FlowMatches got;
  std::vector<flow::Packet> packets;
  for (const Delivery& d : plan) packets.push_back(d.packet());
  if (burst == 0) {
    for (const flow::Packet& p : packets)
      insp.packet(p, [&](std::uint32_t id, std::uint64_t end) {
        got.push_back(FlowMatch{p.key, id, end});
      });
  } else {
    for (std::size_t i = 0; i < packets.size(); i += burst)
      insp.packet_batch_flows(
          packets.data() + i, std::min(burst, packets.size() - i),
          [&](const flow::FlowKey& key, std::uint32_t id, std::uint64_t end) {
            got.push_back(FlowMatch{key, id, end});
          },
          [](const flow::Packet&) {});
  }
  std::sort(got.begin(), got.end());
  return got;
}

}  // namespace mfa::testing
