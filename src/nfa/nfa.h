// Epsilon-free NFA: the foundation automaton (paper Sec. I-A).
//
// Every pattern set first becomes one multi-pattern NFA; the NFA is both a
// baseline engine in its own right (small image, slow matching — Sec. V)
// and the input to subset construction for the DFA/MFA/HFA/XFA engines.
// We build a Thompson automaton with epsilon moves internally and eliminate
// them before publishing, so downstream consumers never see epsilons.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "regex/ast.h"
#include "util/match.h"

namespace mfa::nfa {

/// One labelled transition: on any byte in `cc`, move to `target`.
struct Transition {
  regex::CharClass cc;
  std::uint32_t target = 0;
};

/// A pattern to compile: regex plus the match id it reports.
struct PatternInput {
  regex::Regex regex;
  std::uint32_t id = 0;
};

class Nfa {
 public:
  /// Stable engine label used by telemetry exporters and bench reports.
  static constexpr const char* kEngineName = "nfa";

  [[nodiscard]] std::uint32_t state_count() const {
    return static_cast<std::uint32_t>(transitions_.size());
  }
  [[nodiscard]] std::uint32_t start() const { return start_; }
  [[nodiscard]] const std::vector<Transition>& transitions_from(std::uint32_t s) const {
    return transitions_[s];
  }
  /// Match ids reported when state `s` is active (sorted, unique).
  [[nodiscard]] const std::vector<std::uint32_t>& accepts(std::uint32_t s) const {
    return accepts_[s];
  }
  [[nodiscard]] std::uint32_t max_match_id() const { return max_match_id_; }

  /// Estimated in-memory image: transitions as (range lo, range hi, target)
  /// triples plus accept lists — the compact encoding the paper's NFA sizes
  /// (0.1–0.5 MB, Fig. 2) correspond to.
  [[nodiscard]] std::size_t memory_image_bytes() const;

  /// Union of all transition labels; used for byte-class computation.
  [[nodiscard]] std::vector<regex::CharClass> distinct_labels() const;

  // --- Engine/Context split (uniform API across all six engines) ---
  // The Nfa is the immutable, shareable Engine; the per-flow Context is the
  // active-state bitset plus per-id dedup stamps. `next` is scratch for the
  // simulation step — it lives in the Context (not the Engine) so one Nfa
  // can serve many threads without interior mutability.

  // No InlineContext API: the active-state bitset is proportional to the
  // automaton, never hot-slot sized, so the tiered flow table keeps NFA
  // contexts in its cold tier (see flow/tiered.h).
  struct Context {
    std::vector<std::uint64_t> current;
    std::vector<std::uint64_t> next;        ///< scratch for the step
    std::vector<std::uint64_t> seen_stamp;  ///< per id: 1 + last reported end offset
  };

  [[nodiscard]] Context make_context() const;
  void reset(Context& ctx) const;

  /// Lowest active NFA state, or state_count() when the set is empty —
  /// a representative single state so the profiler's state-visit sampling
  /// has a uniform hook even though NFA flow state is a whole bitset.
  [[nodiscard]] std::uint32_t context_state(const Context& ctx) const {
    for (std::size_t w = 0; w < ctx.current.size(); ++w)
      if (ctx.current[w] != 0)
        return static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(ctx.current[w])));
    return state_count();
  }

  /// Bytes of per-flow state (the active-state bitset) — the NFA's weakness
  /// for flow multiplexing that Sec. II-C discusses for FPGA solutions.
  [[nodiscard]] std::size_t context_bytes() const {
    return ((state_count() + 63) / 64) * sizeof(std::uint64_t);
  }

  /// Feed a chunk through `ctx`; `base` is the stream offset of data[0].
  /// Emits sink(id, end_offset) once per (id, position). Thread-safe for
  /// concurrent calls with distinct contexts.
  template <typename Sink>
  void feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
            Sink&& sink) const;

 private:
  friend Nfa build_nfa(const std::vector<PatternInput>& patterns);
  std::uint32_t start_ = 0;
  std::uint32_t max_match_id_ = 0;
  std::vector<std::vector<Transition>> transitions_;
  std::vector<std::vector<std::uint32_t>> accepts_;
};

/// Compile a pattern set into one epsilon-free multi-pattern NFA.
/// Unanchored patterns get an implicit `.{0,}` (any byte) prefix so matches
/// may start anywhere; anchored patterns start only at offset 0.
Nfa build_nfa(const std::vector<PatternInput>& patterns);

// --- template implementation ---

template <typename Sink>
void Nfa::feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
               Sink&& sink) const {
  const std::size_t words = ctx.current.size();
  for (std::size_t i = 0; i < size; ++i) {
    const unsigned char c = data[i];
    std::fill(ctx.next.begin(), ctx.next.end(), 0);
    // Gather active states then apply their transition lists.
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t w = ctx.current[wi];
      while (w != 0) {
        const std::uint32_t s =
            static_cast<std::uint32_t>(wi * 64 + static_cast<std::size_t>(__builtin_ctzll(w)));
        w &= w - 1;
        for (const auto& t : transitions_[s]) {
          if (t.cc.test(c)) ctx.next[t.target >> 6] |= 1ULL << (t.target & 63);
        }
      }
    }
    // The start state is always re-activated: unanchored patterns already
    // carry a dot-star prefix whose self-loop keeps it live, and anchored
    // patterns hang off a start that must stay active only at offset 0 —
    // the builder models that with the prefix structure, so here we only
    // re-add the start's identity (it has a self-loop through the prefix).
    ctx.current.swap(ctx.next);
    // Report accepts, deduped per (id, position) via last-seen stamps.
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t w = ctx.current[wi];
      while (w != 0) {
        const std::uint32_t s =
            static_cast<std::uint32_t>(wi * 64 + static_cast<std::size_t>(__builtin_ctzll(w)));
        w &= w - 1;
        for (const std::uint32_t id : accepts_[s]) {
          if (ctx.seen_stamp[id] != base + i + 1) {
            ctx.seen_stamp[id] = base + i + 1;
            sink(id, base + i);
          }
        }
      }
    }
  }
}

}  // namespace mfa::nfa
