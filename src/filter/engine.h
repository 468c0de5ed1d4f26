// Filter engine: executes filter actions against per-flow bit memory.
//
// The Filter Engine of Fig. 1. It receives (engine match id, position)
// events from the character DFA, looks up the single action for that id,
// updates the w-bit memory and decides Confirm/Drop (paper Sec. III-A's
// f : M x Di -> M x {Confirm, Drop}).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "filter/action.h"

namespace mfa::filter {

/// Per-flow filter memory: bit flags plus optional counters, zeroed by
/// convention (paper Sec. III-A). The first kInlineMemoryBits flags live in
/// a fixed inline array — programs that fit it (the common case) never
/// heap-allocate bit storage. Larger programs (Snort-class rulesets
/// decompose into thousands of guard bits) spill the rest into `ext_`,
/// sized once at construction from the program's declared geometry.
class Memory {
 public:
  Memory() = default;
  explicit Memory(std::uint32_t counters, std::uint32_t position_slots = 0,
                  std::uint32_t bits = 0)
      : counters_(counters, 0), positions_(position_slots, 0) {
    if (bits > kInlineMemoryBits)
      ext_.assign((bits - kInlineMemoryBits + 63) / 64, 0);
  }

  void reset() {
    bits_.fill(0);
    std::fill(ext_.begin(), ext_.end(), 0);
    std::fill(counters_.begin(), counters_.end(), 0);
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

  void increment(std::int32_t c) { ++counters_[c]; }
  [[nodiscard]] std::uint32_t counter(std::int32_t c) const { return counters_[c]; }

  /// Record the earliest position a gap-tracked bit fired at.
  void record_position(std::int32_t slot, std::uint64_t pos) { positions_[slot] = pos; }
  [[nodiscard]] std::uint64_t position(std::int32_t slot) const { return positions_[slot]; }

  /// Bytes of per-flow state this memory contributes (w bits rounded to
  /// words + counters + position slots); Sec. III-A prefers small contexts
  /// for many-flow environments.
  [[nodiscard]] static std::size_t context_bytes(std::uint32_t bits, std::uint32_t counters,
                                                 std::uint32_t position_slots = 0) {
    return ((bits + 63) / 64) * 8 + counters * sizeof(std::uint32_t) +
           position_slots * sizeof(std::uint64_t);
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
  std::vector<std::uint32_t> counters_;
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

/// Memory view over a single 64-bit word split into two 32-bit halves, for
/// programs whose filter state fits one word (memory_bits <= 64, no
/// counters, no position slots — the common case the paper optimizes for).
/// Backing the halves separately keeps the embedding struct 4-byte aligned,
/// so a hot-table slot can hold the full (q, m) in 12 bytes. Counter and
/// position methods exist only so Engine::on_match<InlineMemory64>
/// compiles; programs eligible for inline memory never reach them.
class InlineMemory64 {
 public:
  InlineMemory64(std::uint32_t& lo, std::uint32_t& hi) : lo_(&lo), hi_(&hi) {}

  void set_bit(std::int32_t i) {
    assert(i >= 0 && i < 64);
    word(i) |= 1U << (i & 31);
  }
  void clear_bit(std::int32_t i) {
    assert(i >= 0 && i < 64);
    word(i) &= ~(1U << (i & 31));
  }
  [[nodiscard]] bool test_bit(std::int32_t i) const {
    assert(i >= 0 && i < 64);
    return (word(i) >> (i & 31)) & 1U;
  }
  void clear_word(std::uint32_t w, std::uint64_t mask) {
    assert(w == 0);
    (void)w;
    *lo_ &= ~static_cast<std::uint32_t>(mask);
    *hi_ &= ~static_cast<std::uint32_t>(mask >> 32);
  }

  void increment(std::int32_t) { assert(false && "inline memory has no counters"); }
  [[nodiscard]] std::uint32_t counter(std::int32_t) const {
    assert(false && "inline memory has no counters");
    return 0;
  }
  void record_position(std::int32_t, std::uint64_t) {
    assert(false && "inline memory has no position slots");
  }
  [[nodiscard]] std::uint64_t position(std::int32_t) const {
    assert(false && "inline memory has no position slots");
    return 0;
  }

 private:
  [[nodiscard]] std::uint32_t& word(std::int32_t i) { return i < 32 ? *lo_ : *hi_; }
  [[nodiscard]] const std::uint32_t& word(std::int32_t i) const {
    return i < 32 ? *lo_ : *hi_;
  }

  std::uint32_t* lo_;
  std::uint32_t* hi_;
};

/// Stateless executor over a Program; all mutable state lives in Memory so
/// one Engine serves any number of multiplexed flows.
class Engine {
 public:
  explicit Engine(const Program& program) : program_(&program) {}

  /// Process one match event. Calls sink(report_id, pos) if the action
  /// confirms the match. Templated over the memory representation so the
  /// same action semantics run against the full Memory or an InlineMemory64
  /// view (tiered flow table hot slots).
  template <typename MemoryT, typename Sink>
  void on_match(std::uint32_t engine_id, std::uint64_t pos, MemoryT& memory,
                Sink&& sink) const {
    const Action& a = program_->actions[engine_id];
    if (a.test != kNone) {
      if (!memory.test_bit(a.test)) return;
      // Gap extension: the tested bit must also have fired far enough back.
      if (a.min_gap > 0 &&
          pos - memory.position(a.test_slot) < static_cast<std::uint64_t>(a.min_gap))
        return;
    }
    if (a.ctr_test != kNone &&
        memory.counter(a.ctr_test) < static_cast<std::uint32_t>(a.ctr_threshold))
      return;
    if (a.clear != kNone) memory.clear_bit(a.clear);
    if (a.set != kNone) {
      // Earliest-position semantics: only the first Set of a still-clear
      // bit records its offset (any later A-match can only shrink the gap).
      if (a.set_slot != kNone && !memory.test_bit(a.set))
        memory.record_position(a.set_slot, pos);
      memory.set_bit(a.set);
    }
    if (a.ctr_incr != kNone) memory.increment(a.ctr_incr);
    if (a.report != kNone) sink(static_cast<std::uint32_t>(a.report), pos);
  }

  [[nodiscard]] const Program& program() const { return *program_; }

 private:
  const Program* program_;
};

}  // namespace mfa::filter
