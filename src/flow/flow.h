// Flow substrate shared by the inspector, the pipeline and the traces:
// packets, 5-tuple flow keys, the out-of-order segment list, and the engine
// concepts (refining ScanEngine, util/match.h) and mode enums the flow
// inspector (flow/tiered.h) is written against.
//
// Paper Sec. III-B: "To handle many flows arriving in multiplexed fashion,
// all that is necessary is to keep a (q, m) pair for each flow". An engine
// is one shared immutable automaton with a cheap per-flow Context (that
// pair); the inspector stores one Context per flow and reassembles each
// flow's segments so engines always see a contiguous byte stream.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/prefilter.h"
#include "util/match.h"

namespace mfa::flow {

struct FlowKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 6;  // TCP by default

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    mix(k.src_ip);
    mix(k.dst_ip);
    mix((std::uint64_t{k.src_port} << 32) | (std::uint64_t{k.dst_port} << 16) | k.proto);
    return static_cast<std::size_t>(h);
  }
};

/// One packet's payload, referencing bytes owned by a Trace.
struct Packet {
  FlowKey key;
  std::uint64_t seq = 0;  ///< byte offset of payload[0] within the flow
  const std::uint8_t* payload = nullptr;
  std::uint32_t length = 0;
  /// Latency-span stamp (DESIGN.md Sec. 12): TSC at pipeline submit for
  /// the sampled 1-in-N packets, 0 for the rest. Trails the aggregate
  /// fields so existing {key, seq, payload, length} initializers compile
  /// unchanged.
  std::uint64_t submit_tsc = 0;
};

/// Default per-flow cap on buffered out-of-order bytes: a hostile trace
/// that opens holes and floods segments behind them cannot grow a flow's
/// reassembly buffer past this (oldest-buffered segments are dropped).
inline constexpr std::size_t kDefaultMaxPendingBytes = 256 * 1024;

/// One buffered out-of-order segment. Flows keep these in a small vector
/// sorted by `seq` (binary-search insert): segment counts are tiny — a
/// handful of in-flight holes — so a flat sorted vector beats a node-based
/// map on both memory (no per-node allocation) and drain locality. The
/// inspector keeps one such list in each reordering flow's cold record.
struct PendingSegment {
  std::uint64_t seq = 0;      ///< byte offset of bytes[0] within the flow
  std::uint64_t arrival = 0;  ///< inspector-wide tick, for oldest-drop
  std::vector<std::uint8_t> bytes;
};

/// Sorted-by-seq pending list of one flow.
using PendingList = std::vector<PendingSegment>;

/// First segment with seq >= `seq` (lower bound in the sorted list).
inline PendingList::iterator pending_lower_bound(PendingList& list,
                                                 std::uint64_t seq) {
  return std::lower_bound(
      list.begin(), list.end(), seq,
      [](const PendingSegment& s, std::uint64_t q) { return s.seq < q; });
}

/// Engines exposing the SIMD literal-prefilter gate (today the Mfa,
/// DESIGN.md §13): prefilter_gate() may prove a chunk literal-free and
/// advance the context past it without a full scan (simd::Gate::kSkip).
/// The inspector consults it before every in-order feed and counts the
/// outcomes (mfa_prefilter_{pass,skip}_total).
template <typename EngineT>
concept PrefilterEngine =
    ScanEngine<EngineT> &&
    requires(const EngineT& e, typename EngineT::Context& ctx,
             const std::uint8_t* data) {
      { e.prefilter_gate(ctx, data, std::size_t{0}) } -> std::same_as<simd::Gate>;
    };

/// Engines exposing a *stateless* literal probe (today the Mfa): "could
/// this chunk contain a match?" with no per-flow context involved. The
/// degraded scan modes below use it as their detection signal; engines
/// without one degrade to full scanning (a probe that cannot prove absence
/// reports everything suspicious).
template <typename EngineT>
concept ProbeEngine =
    ScanEngine<EngineT> && requires(const EngineT& e, const std::uint8_t* data) {
      { e.prefilter_probe(data, std::size_t{0}) } -> std::same_as<bool>;
    };

/// Scan-fidelity ladder rung an inspector runs at (DESIGN.md §14). The
/// degradation controller moves inspectors down this ladder under overload
/// and back up when pressure clears; L3 (count-and-bypass) lives above the
/// inspector, in the pipeline's shed path.
enum class ScanMode : std::uint8_t {
  /// L0: every in-order chunk takes the exact scan path (prefilter gate
  /// included) — the only mode with exact match semantics.
  kFull,
  /// L1: 1-in-2^k flows (by key hash) keep the exact path; the rest scan a
  /// chunk only when the literal probe fires on it. Probe-quiet chunks are
  /// skipped without tail replay, so non-sampled flows are approximate:
  /// full fidelity on suspicious bytes, none spent proving clean bytes clean.
  kSampled,
  /// L2: no automaton advance at all — probe-positive chunks are recorded
  /// as degraded detection hits (degraded_hit_count()), probe-quiet chunks
  /// are dropped. Detection-only: tells the operator *that* suspicious
  /// traffic exists, not which rule matched where.
  kPrefilterOnly,
};

/// What happens to flows whose context was built by a previous engine
/// generation when adopt_engine() publishes a new one (DESIGN.md Sec. 10).
enum class SwapPolicy : std::uint8_t {
  /// The flow's (q, m) restarts on the new engine at its next packet; the
  /// stream position and buffered out-of-order segments are kept, so the
  /// flow keeps scanning the same byte stream under the new rules.
  kResetOnNextPacket,
  /// Existing flows finish their lifetime on the generation that created
  /// their context; only new flows use the new engine. The old generation
  /// is retired epoch-style: its pin is released when its last flow goes.
  kDrainOld,
};

}  // namespace mfa::flow
