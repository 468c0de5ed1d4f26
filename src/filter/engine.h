// Filter engine: executes filter actions against per-flow bit memory.
//
// The Filter Engine of Fig. 1. It receives (engine match id, position)
// events from the character DFA, looks up the single action for that id,
// updates the w-bit memory and decides Confirm/Drop (paper Sec. III-A's
// f : M x Di -> M x {Confirm, Drop}).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "filter/action.h"

namespace mfa::filter {

/// Live entries an inline sparse memory holds (SparseMemory below), and the
/// id marking an empty entry (also the first bit id it cannot hold).
inline constexpr std::size_t kSparseLive = 4;
inline constexpr std::uint16_t kSparseEmpty = 0xFFFF;

/// Per-flow filter memory: bit flags plus optional position slots, zeroed
/// by convention (paper Sec. III-A). The first kInlineMemoryBits flags live
/// in a fixed inline array — programs that fit it (the common case) never
/// heap-allocate bit storage. Larger programs (Snort-class rulesets
/// decompose into thousands of guard bits) keep the rest in `ext_`,
/// sized once at construction from the program's declared geometry.
class Memory {
 public:
  Memory() = default;
  explicit Memory(std::uint32_t position_slots, std::uint32_t bits)
      : positions_(position_slots, 0) {
    if (bits > kInlineMemoryBits)
      ext_.assign((bits - kInlineMemoryBits + 63) / 64, 0);
  }

  void reset() {
    bits_.fill(0);
    std::fill(ext_.begin(), ext_.end(), 0);
    std::fill(positions_.begin(), positions_.end(), 0);
  }

  void set_bit(std::int32_t i) { word(i) |= 1ULL << (i & 63); }
  void clear_bit(std::int32_t i) { word(i) &= ~(1ULL << (i & 63)); }
  [[nodiscard]] bool test_bit(std::int32_t i) const {
    return (word(i) >> (i & 63)) & 1ULL;
  }

  /// Clear every bit of `mask` in memory word `w` (bits [64w, 64w + 64)):
  /// the folded form of a run of pure Clear actions.
  void clear_word(std::uint32_t w, std::uint64_t mask) {
    word(static_cast<std::int32_t>(w * 64)) &= ~mask;
  }

  /// True when no bit is set. Positions are not consulted: a quiet action
  /// (Action::is_quiet) changes nothing either way.
  [[nodiscard]] bool no_bits() const {
    const auto zero = [](std::uint64_t w) { return w == 0; };
    return std::all_of(bits_.begin(), bits_.end(), zero) &&
           std::all_of(ext_.begin(), ext_.end(), zero);
  }

  /// Record the earliest position a gap-tracked bit fired at.
  void record_position(std::int32_t slot, std::uint64_t pos) { positions_[slot] = pos; }
  [[nodiscard]] std::uint64_t position(std::int32_t slot) const { return positions_[slot]; }

  /// Write this memory into `live` as a SparseMemory set when it fits one:
  /// at most kSparseLive set bits, all below kSparseEmpty, and no position
  /// recorded. Returns false, leaving `live` untouched, otherwise.
  [[nodiscard]] bool to_sparse(std::uint16_t (&live)[kSparseLive]) const {
    for (const std::uint64_t p : positions_)
      if (p != 0) return false;
    std::uint16_t out[kSparseLive] = {kSparseEmpty, kSparseEmpty, kSparseEmpty,
                                      kSparseEmpty};
    std::size_t n = 0;
    const auto take = [&](std::uint64_t w, std::uint32_t first_bit) {
      for (; w != 0; w &= w - 1) {
        const std::uint32_t id = first_bit + static_cast<std::uint32_t>(std::countr_zero(w));
        if (n == kSparseLive || id >= kSparseEmpty) return false;
        out[n++] = static_cast<std::uint16_t>(id);
      }
      return true;
    };
    for (std::size_t i = 0; i < bits_.size(); ++i)
      if (!take(bits_[i], static_cast<std::uint32_t>(i * 64))) return false;
    for (std::size_t i = 0; i < ext_.size(); ++i)
      if (!take(ext_[i], kInlineMemoryBits + static_cast<std::uint32_t>(i * 64)))
        return false;
    std::copy(out, out + kSparseLive, live);
    return true;
  }

  /// Heap bytes this memory owns: overflow words and position slots (both
  /// fixed at construction).
  [[nodiscard]] std::size_t heap_bytes() const {
    return ext_.capacity() * sizeof(std::uint64_t) +
           positions_.capacity() * sizeof(std::uint64_t);
  }

  /// Bytes of per-flow state this memory contributes (w bits rounded to
  /// words + position slots); Sec. III-A prefers small contexts for
  /// many-flow environments.
  [[nodiscard]] static std::size_t context_bytes(std::uint32_t bits,
                                                 std::uint32_t position_slots) {
    return ((bits + 63) / 64) * 8 + position_slots * sizeof(std::uint64_t);
  }

 private:
  [[nodiscard]] std::uint64_t& word(std::int32_t i) {
    assert(i >= 0 && static_cast<std::uint32_t>(i) <
                         kInlineMemoryBits + ext_.size() * 64);
    const auto u = static_cast<std::uint32_t>(i);
    return u < kInlineMemoryBits ? bits_[u >> 6]
                                 : ext_[(u - kInlineMemoryBits) >> 6];
  }
  [[nodiscard]] const std::uint64_t& word(std::int32_t i) const {
    assert(i >= 0 && static_cast<std::uint32_t>(i) <
                         kInlineMemoryBits + ext_.size() * 64);
    const auto u = static_cast<std::uint32_t>(i);
    return u < kInlineMemoryBits ? bits_[u >> 6]
                                 : ext_[(u - kInlineMemoryBits) >> 6];
  }

  std::array<std::uint64_t, kInlineMemoryBits / 64> bits_{};
  std::vector<std::uint64_t> ext_;  ///< overflow words for bits >= kInlineMemoryBits
  std::vector<std::uint64_t> positions_;
};

/// The paper's per-flow (q, m) pair: character-automaton state + filter
/// memory. This is the shared Context type of every filter-backed engine
/// (MFA, HFA, XFA) under the Engine/Context split: one immutable engine is
/// shared by all flows/threads, one ScanContext is kept per flow.
struct ScanContext {
  std::uint32_t state = 0;
  Memory memory;
};

/// Memory view over a sorted inline set of live bit ids: up to kSparseLive
/// ids in ascending order, padded with kSparseEmpty. This is an MFA flow's
/// filter memory while it sits in a hot-table slot, at any program size:
/// guard bits belong to single rules, so a flow rarely holds more than a
/// few partial chains at once (DESIGN.md §11).
///
/// Reads are exact: an absent id is a clear bit, and positions read 0, as
/// they do in a full Memory that never ran a position record. Writes the
/// set cannot hold — a bit past the capacity or at kSparseEmpty and above,
/// a position record — are refused up front by admits(), so
/// Engine::on_match never starts them; the caller then spills the flow to
/// a full Memory and runs the action there.
class SparseMemory {
 public:
  explicit SparseMemory(std::uint16_t (&live)[kSparseLive]) : live_(live) {}

  /// True when no bit is set: the O(1) fast path of every clear.
  [[nodiscard]] bool empty() const { return live_[0] == kSparseEmpty; }

  [[nodiscard]] bool test_bit(std::int32_t i) const {
    if (i >= kSparseEmpty) return false;
    for (const std::uint16_t e : live_) {
      if (e >= i) return e == i;
    }
    return false;
  }

  /// Whether `a`, whose guards already passed, leaves a state this view can
  /// hold: no position write, and its Set (net of its own Clear) fits the
  /// free entries.
  [[nodiscard]] bool admits(const Action& a) const {
    if (a.set_slot != kNone) return false;
    if (a.set == kNone) return true;
    if (a.set >= kSparseEmpty) return false;
    return live_[kSparseLive - 1] == kSparseEmpty || test_bit(a.set) ||
           (a.clear != kNone && test_bit(a.clear));
  }

  /// Insert `i`; admits() guaranteed it fits.
  void set_bit(std::int32_t i) {
    assert(i >= 0 && i < kSparseEmpty);
    const auto id = static_cast<std::uint16_t>(i);
    std::size_t k = 0;
    while (k < kSparseLive && live_[k] < id) ++k;
    if (k < kSparseLive && live_[k] == id) return;
    assert(live_[kSparseLive - 1] == kSparseEmpty && "admits() was not consulted");
    for (std::size_t j = kSparseLive - 1; j > k; --j) live_[j] = live_[j - 1];
    live_[k] = id;
  }

  void clear_bit(std::int32_t i) {
    if (i >= kSparseEmpty) return;
    for (std::size_t k = 0; k < kSparseLive && live_[k] <= i; ++k) {
      if (live_[k] != i) continue;
      for (std::size_t j = k; j + 1 < kSparseLive; ++j) live_[j] = live_[j + 1];
      live_[kSparseLive - 1] = kSparseEmpty;
      return;
    }
  }

  /// Clear every bit of `mask` in memory word `w`: drop the live ids the
  /// mask covers, keeping the rest in order.
  void clear_word(std::uint32_t w, std::uint64_t mask) {
    if (empty()) return;
    std::size_t out = 0;
    for (std::size_t k = 0; k < kSparseLive; ++k) {
      const std::uint16_t e = live_[k];
      if (e == kSparseEmpty) break;
      if ((e >> 6) != w || ((mask >> (e & 63)) & 1ULL) == 0) live_[out++] = e;
    }
    for (; out < kSparseLive && live_[out] != kSparseEmpty; ++out)
      live_[out] = kSparseEmpty;
  }

  void record_position(std::int32_t, std::uint64_t) {
    assert(false && "admits() refuses position records");
  }
  [[nodiscard]] std::uint64_t position(std::int32_t) const { return 0; }

 private:
  std::uint16_t (&live_)[kSparseLive];
};

/// Stateless executor over a Program; all mutable state lives in Memory so
/// one Engine serves any number of multiplexed flows.
class Engine {
 public:
  explicit Engine(const Program& program) : program_(&program) {}

  /// Process one match event. Calls sink(report_id, pos) if the action
  /// confirms the match. Templated over the memory representation so the
  /// same action semantics run against the full Memory or a SparseMemory
  /// view (tiered flow table hot slots). Returns false, having changed
  /// nothing, when the view cannot hold the action's effect (it must spill
  /// to a full Memory first); a full Memory always takes it.
  template <typename MemoryT, typename Sink>
  bool on_match(std::uint32_t engine_id, std::uint64_t pos, MemoryT& memory,
                Sink&& sink) const {
    const Action& a = program_->actions[engine_id];
    if (a.test != kNone) {
      if (!memory.test_bit(a.test)) return true;
      // Gap extension: the tested bit must also have fired far enough back.
      if (a.min_gap > 0 &&
          pos - memory.position(a.test_slot) < static_cast<std::uint64_t>(a.min_gap))
        return true;
    }
    if constexpr (requires { memory.admits(a); }) {
      if (!memory.admits(a)) return false;
    }
    if (a.clear != kNone) memory.clear_bit(a.clear);
    if (a.set != kNone) {
      // Earliest-position semantics: only the first Set of a still-clear
      // bit records its offset (any later A-match can only shrink the gap).
      if (a.set_slot != kNone && !memory.test_bit(a.set))
        memory.record_position(a.set_slot, pos);
      memory.set_bit(a.set);
    }
    if (a.report != kNone) sink(static_cast<std::uint32_t>(a.report), pos);
    return true;
  }

  [[nodiscard]] const Program& program() const { return *program_; }

 private:
  const Program* program_;
};

}  // namespace mfa::filter
