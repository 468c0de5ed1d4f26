// HFA baseline: a History-based Finite Automaton in the HASIC mold
// (Kumar et al. [15], Liu et al. [17]; paper Sec. II-A and Sec. V).
//
// An HFA augments a DFA with auxiliary "history" bits, but unlike MFA the
// bits are consulted/updated on ordinary *transitions*: every byte the
// engine loads a wide conditional transition entry, tests a history bit to
// select between the entry's two successors, and, when an annotation is
// present, interprets condition/update ops against the history. That is
// exactly the structural weakness the paper calls out — "transitions that
// check the state of memory ... direct lookup of the transition is not
// practical" — giving larger per-transition storage (16-byte entries over
// the full 256-byte alphabet, ~10-40x the MFA image) and slower per-byte
// processing (a dependent memory test on every input byte) than MFA's
// match-event-only filter.
//
// We derive the history bits from the same decomposition the MFA uses, so
// the HFA is exactly match-equivalent to the original patterns; what we
// reproduce is the HASIC *cost model*, not its construction heuristics
// (noted as a substitution in DESIGN.md).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dfa/dfa.h"
#include "filter/engine.h"
#include "split/splitter.h"

namespace mfa::hfa {

struct BuildOptions {
  split::Options split;
  dfa::BuildOptions dfa;
};

struct BuildStats {
  dfa::BuildStats dfa;
  double seconds = 0.0;
};

/// One history-conditional transition: the engine tests `test_bit` in the
/// flow's history memory and takes next_set or next_clear accordingly. For
/// transitions our construction leaves unconditioned the two successors
/// coincide, but the engine cannot know that statically — it pays the test
/// on every byte, which is the HFA cost model.
struct HfaEntry {
  std::uint32_t next_clear = 0;
  std::uint32_t next_set = 0;
  std::int32_t test_bit = 0;
  std::uint32_t ann = 0;  ///< 1 + annotation index, or 0 for none
};

class Hfa {
 public:
  /// Stable engine label used by telemetry exporters and bench reports.
  static constexpr const char* kEngineName = "hfa";

  [[nodiscard]] std::uint32_t state_count() const { return state_count_; }
  [[nodiscard]] std::uint32_t start() const { return start_; }
  [[nodiscard]] const filter::Program& program() const { return program_; }

  [[nodiscard]] const HfaEntry* table_data() const { return table_.data(); }

  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*> annotation(
      std::uint32_t index) const {
    return {annotation_ids_.data() + annotation_offsets_[index],
            annotation_ids_.data() + annotation_offsets_[index + 1]};
  }

  /// Image: full-alphabet 16-byte conditional entries + annotation tables +
  /// the action records themselves.
  [[nodiscard]] std::size_t memory_image_bytes() const {
    return table_.size() * sizeof(HfaEntry) +
           annotation_offsets_.size() * sizeof(std::uint32_t) +
           annotation_ids_.size() * sizeof(std::uint32_t) +
           program_.memory_image_bytes();
  }

  [[nodiscard]] std::size_t context_bytes() const {
    return sizeof(std::uint32_t) +
           filter::Memory::context_bytes(program_.memory_bits, program_.position_slots);
  }

  // --- Engine/Context split (uniform API across all six engines) ---
  // No InlineContext API: HFA history memory is sized per ruleset and not
  // guaranteed word-small, so the tiered flow table keeps HFA contexts in
  // its cold tier (see flow/tiered.h).

  using Context = filter::ScanContext;

  [[nodiscard]] Context make_context() const {
    return Context{start_, filter::Memory(program_.position_slots, program_.memory_bits)};
  }

  void reset(Context& ctx) const {
    ctx.state = start_;
    ctx.memory.reset();
  }

  /// The flow's current automaton state (profiler state-visit sampling).
  [[nodiscard]] std::uint32_t context_state(const Context& ctx) const {
    return ctx.state;
  }

  /// Feed a chunk through `ctx`. Thread-safe with distinct contexts.
  template <typename Sink>
  void feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
            Sink&& sink) const {
    const filter::Engine engine(program_);
    const HfaEntry* table = table_.data();
    std::uint32_t s = ctx.state;
    for (std::size_t i = 0; i < size; ++i) {
      const HfaEntry& e = table[(static_cast<std::size_t>(s) << 8) | data[i]];
      // The defining HFA cost: every transition consults the history
      // memory before the successor is known.
      s = ctx.memory.test_bit(e.test_bit) ? e.next_set : e.next_clear;
      if (e.ann != 0) {
        const auto [first, last] = annotation(e.ann - 1);
        for (const auto* it = first; it != last; ++it)
          engine.on_match(*it, base + i, ctx.memory, sink);
      }
    }
    ctx.state = s;
  }

 private:
  friend std::optional<Hfa> build_hfa(const std::vector<nfa::PatternInput>&,
                                      const BuildOptions&, BuildStats*);
  std::uint32_t state_count_ = 0;
  std::uint32_t start_ = 0;
  std::vector<HfaEntry> table_;  // state_count * 256
  std::vector<std::uint32_t> annotation_offsets_;
  std::vector<std::uint32_t> annotation_ids_;  // engine ids in phase order
  filter::Program program_;
};

std::optional<Hfa> build_hfa(const std::vector<nfa::PatternInput>& patterns,
                             const BuildOptions& options = {}, BuildStats* stats = nullptr);

}  // namespace mfa::hfa
