// Match-filter bytecode (paper Sec. IV-C).
//
// The paper encodes each filter action as 4 integers: a memory bit that
// must be set for the action to take effect (test), a bit to set, a bit to
// clear, and the match id to report. We keep exactly that encoding, plus
// the offset-tracking fields gap separators need and a same-position rank.
// Counting constraints (the paper's Sec. VI future work) are not
// supported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mfa::filter {

inline constexpr std::int32_t kNone = -1;

/// Bits backed by Memory's fixed inline words; programs up to this size
/// never heap-allocate bit storage (the common small-ruleset case).
inline constexpr std::uint32_t kInlineMemoryBits = 256;

/// Sanity cap on per-flow bit memory, enforced by Program::validate().
/// Memory grows its bit storage to the program's declared geometry
/// (Snort-class rulesets decompose into thousands of guard bits), so this
/// is a corruption guard against absurd declared geometry, not a design
/// limit: 1M bits is ~128 KB of per-flow state, far past any deployable
/// configuration.
inline constexpr std::uint32_t kMaxMemoryBits = 1u << 20;

struct Action {
  std::int32_t test = kNone;    ///< bit that must be 1 for this action to fire
  std::int32_t set = kNone;     ///< bit set when the action fires
  std::int32_t clear = kNone;   ///< bit cleared when the action fires
  std::int32_t report = kNone;  ///< original match id to report, or kNone

  // Offset-tracking extension (Sec. VI "tracking the offsets of previous
  // matches"): a Set with `set_slot` records the *earliest* position its
  // bit fired at; a Test with `min_gap` additionally requires
  // pos - position(test_slot) >= min_gap. This decomposes `.*A.{n,}B`
  // patterns, and the offset requirement subsumes the overlap safety check
  // (a B-match satisfying the gap necessarily starts after A ends).
  std::int32_t set_slot = kNone;   ///< slot recorded when the Set fires
  std::int32_t test_slot = kNone;  ///< slot of the tested bit (with min_gap)
  std::int32_t min_gap = 0;        ///< required pos - recorded distance on Test

  /// Same-position execution rank (lower runs first). The splitter assigns
  /// ranks so that within one pattern, actions run in *reverse* segment
  /// order: a Test of bit i always executes before the same-position Set of
  /// bit i. This is load-bearing: `.*b.*ab` on input "ab" has the b-piece
  /// and ab-piece co-ending, and the original semantics ("ab" strictly
  /// after "b") require the ab-side Test to read the memory before the
  /// b-side Set lands — otherwise a whole guard chain can falsely cascade
  /// through a single input position. Clears rank just below their setter
  /// (paper Sec. IV-B's override rule). Bits are never shared across
  /// patterns, so cross-pattern rank order is irrelevant.
  std::int32_t order = 0;

  friend bool operator==(const Action&, const Action&) = default;

  /// True if the action does nothing but report unconditionally.
  [[nodiscard]] bool is_plain_report() const {
    return test == kNone && set == kNone && clear == kNone && report != kNone;
  }

  /// True if the action does nothing but clear a bit unconditionally: no
  /// test, set or report. Pure clears commute, so an accept state made only
  /// of them folds into per-word masks (DESIGN.md §6 #10).
  [[nodiscard]] bool is_pure_clear() const {
    return clear != kNone && test == kNone && set == kNone && report == kNone;
  }

  /// True if the action changes nothing while no memory bit is set: it
  /// tests a bit (and so stops at the test) or is a pure clear. An accept
  /// state made only of quiet actions is skipped by the scan on a flow with
  /// no live bit (DESIGN.md §6 #11).
  [[nodiscard]] bool is_quiet() const { return test != kNone || is_pure_clear(); }

  /// Pseudocode rendering, e.g. "Test 0 to Set 1" (paper Tables III/IV).
  [[nodiscard]] std::string to_pseudocode() const;
};

/// Comparator for same-position execution: ascending `order`, ties broken
/// by engine id for determinism (cross-pattern actions touch disjoint bits,
/// so tie order cannot affect results).
struct ActionOrderLess {
  const std::vector<Action>* actions;
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    const std::int32_t oa = (*actions)[a].order;
    const std::int32_t ob = (*actions)[b].order;
    if (oa != ob) return oa < ob;
    return a < b;
  }
};

/// A complete filter program: one action per engine match id, plus the
/// memory geometry every per-flow context must provide.
struct Program {
  std::vector<Action> actions;   ///< indexed by engine match id
  std::uint32_t memory_bits = 0;
  std::uint32_t position_slots = 0;  ///< offset-tracking slots (gap extension)

  /// Image accounting: the 4 (+4 offset-tracking and rank) int32 fields per
  /// action, as the paper stores them ("filters taking up an average of
  /// less than 0.2% of each image", Sec. V-C).
  [[nodiscard]] std::size_t memory_image_bytes() const {
    return actions.size() * sizeof(Action);
  }

  /// Geometry check: memory_bits within kMaxMemoryBits, every action
  /// operand inside the declared geometry, and a test slot on every
  /// gap-tracked test (min_gap > 0). Engine builders and Mfa::load() reject
  /// programs that fail this instead of letting a >256-bit program alias
  /// flags at scan time. On failure, fills `error` (when non-null) with the
  /// reason.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;
};

}  // namespace mfa::filter
