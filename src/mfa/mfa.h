// Match Filtering Automaton (paper Sec. III): the composite of a character
// DFA over decomposed pattern pieces and a stateful match filter.
//
// Construction (Fig. 1, grey path): regex splitter -> piece regexes + filter
// actions -> standard NFA/DFA construction over the pieces -> per-accept-
// state action sequences ordered by the canonical same-position phase order.
// Matching (Fig. 1, black path): the DFA consumes payload bytes; every time
// it enters an accepting state the filter engine runs the pre-resolved
// actions against the flow's w-bit memory and confirms or drops matches.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dfa/d2fa.h"
#include "dfa/dfa.h"
#include "filter/engine.h"
#include "regex/parser.h"
#include "simd/prefilter.h"
#include "split/splitter.h"

namespace mfa::core {

struct BuildOptions {
  split::Options split;
  dfa::BuildOptions dfa;
  /// Options the pattern sources were parsed with. Persisted in the MFAC
  /// artifact so load() re-parses piece sources under the same dialect
  /// (flags, caps) instead of silently assuming the defaults.
  regex::ParseOptions parse;
  /// Delta mode (Snort-class ruleset scale): compress the character DFA
  /// into a D2fa (default-transition chains + delta-encoded exceptions)
  /// and drop the dense table. Several-fold smaller memory image at a
  /// bounded per-byte chain cost; match semantics are identical. The
  /// prefilter proof is still derived from the dense table before it is
  /// dropped, so skip gating works unchanged.
  bool delta = false;
  dfa::D2faOptions d2fa;
};

struct BuildStats {
  split::Stats split;
  dfa::BuildStats dfa;
  dfa::D2faStats d2fa;   ///< populated only when BuildOptions::delta
  /// Accepting states whose actions are all pure clears, run as word masks
  /// (DESIGN.md §6 #10), and the action ids those states carry.
  std::uint32_t folded_accept_states = 0;
  std::uint32_t folded_actions = 0;
  /// Accepting states whose actions are all quiet (filter::Action::is_quiet):
  /// the scan walks through them while a flow has no filter bit set
  /// (DESIGN.md §6 #11).
  std::uint32_t quiet_accept_states = 0;
  double seconds = 0.0;  ///< total construction wall time

  /// Wall seconds per construction phase. `subset` is build_dfa() less its
  /// minimisation; `minimize` and `d2fa` repeat dfa.minimize_seconds and
  /// d2fa.seconds. What `seconds` holds beyond sum() is accept ordering,
  /// loud-first numbering and clear folding.
  struct PhaseSeconds {
    double split = 0.0;
    double nfa = 0.0;
    double subset = 0.0;
    double minimize = 0.0;
    double prefilter = 0.0;  ///< Teddy masks and the skip-gate proof
    double d2fa = 0.0;       ///< 0 unless BuildOptions::delta
    [[nodiscard]] double sum() const {
      return split + nfa + subset + minimize + prefilter + d2fa;
    }
  };
  PhaseSeconds phases;
};

class Mfa {
 public:
  /// Stable engine label used by telemetry exporters and bench reports.
  static constexpr const char* kEngineName = "mfa";

  [[nodiscard]] const dfa::Dfa& character_dfa() const { return dfa_; }
  /// True when the character DFA's transitions live in a delta-encoded
  /// D2fa (BuildOptions::delta) and the dense table has been dropped.
  [[nodiscard]] bool delta_mode() const { return delta_.has_value(); }
  /// The delta table, or nullptr in dense mode.
  [[nodiscard]] const dfa::D2fa* delta_table() const {
    return delta_ ? &*delta_ : nullptr;
  }
  [[nodiscard]] const filter::Program& program() const { return program_; }
  [[nodiscard]] const std::vector<split::Piece>& pieces() const { return pieces_; }
  [[nodiscard]] const regex::ParseOptions& parse_options() const { return parse_options_; }

  /// The SIMD literal prefilter compiled from the pieces (DESIGN.md §13).
  /// Derived data: rebuilt by build_mfa() and load(), never serialized.
  [[nodiscard]] const simd::Prefilter& prefilter() const { return prefilter_; }

  /// Engine match ids of accepting state `s` in filter execution order
  /// (clears, then tests/reports, then sets). These are the scanning
  /// table's own accept lists — the Dfa's in dense mode, the D2fa's in
  /// delta mode — which build_mfa() and load() sort into that order.
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*> ordered_actions(
      std::uint32_t state) const {
    return delta_ ? delta_->accepts(state) : dfa_.accepts(state);
  }

  /// Accepting states [0, loud_accept_states()) carry a non-quiet action;
  /// the rest are quiet, and a flow with no filter bit set skips them
  /// (DESIGN.md §6 #11). build_mfa() and load() number them that way.
  [[nodiscard]] std::uint32_t loud_accept_states() const { return loud_; }

  /// Total memory image: compressed character-DFA table (with its accept
  /// lists) + filter program + the clear-fold index and masks. (Sec. V-C:
  /// "almost all the memory image bytes used in MFA are for the DFA
  /// automaton, with filters taking ... less than 0.2%".)
  [[nodiscard]] std::size_t memory_image_bytes() const {
    const std::size_t table_bytes =
        delta_ ? delta_->memory_image_bytes()
               : dfa_.memory_image_bytes(/*full_alphabet=*/false);
    return table_bytes + program_.memory_image_bytes() +
           fold_index_.size() * sizeof(std::uint32_t) +
           fold_masks_.size() * sizeof(ClearMask);
  }

  /// Per-flow scan context footprint: DFA state + filter memory.
  [[nodiscard]] std::size_t context_bytes() const {
    return sizeof(std::uint32_t) +
           filter::Memory::context_bytes(program_.memory_bits, program_.position_slots);
  }

  // --- Engine/Context split (uniform API across all six engines) ---
  // The Mfa is the immutable, shareable Engine; the Context is the paper's
  // per-flow (q, m) pair. One Mfa serves any number of flows and threads.

  using Context = filter::ScanContext;

  [[nodiscard]] Context make_context() const {
    return Context{dfa_.start(),
                   filter::Memory(program_.position_slots, program_.memory_bits)};
  }

  void reset(Context& ctx) const {
    ctx.state = dfa_.start();
    ctx.memory.reset();
  }

  /// The flow's current automaton state (profiler state-visit sampling).
  [[nodiscard]] std::uint32_t context_state(const Context& ctx) const {
    return ctx.state;
  }

  /// States of the underlying character DFA (the space context_state()
  /// indexes into).
  [[nodiscard]] std::uint32_t state_count() const { return dfa_.state_count(); }

  /// Feed a chunk through `ctx`: DFA inner loop plus filter post-processing
  /// on match events only. Thread-safe with distinct contexts.
  template <typename Sink>
  void feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
            Sink&& sink) const {
    scan(ctx.state, data, size, base, full_accept_limit(),
         [&](std::uint32_t s, std::uint64_t pos) {
           accept(s, pos, ctx.memory, sink);
           return accept_limit(ctx.memory);
         });
  }

  /// Prefilter gate probe (works on Context and InlineContext alike): when
  /// the gate's DFA-level proof is armed, the flow sits in a skippable DFA
  /// state, no literal can complete across the chunk seam (boundary walk
  /// over the first window bytes), and the chunk body contains no literal
  /// occurrence (Teddy), the full scan may be skipped — on kSkip the
  /// context is already advanced past the chunk: only the last
  /// prefilter().window() bytes were replayed from the start state, which
  /// property (ii) of the proof makes land in the *exact* post-chunk
  /// state, and the taint check (property (i)) makes fire no match or
  /// filter action (so ctx memory is untouched, byte-identical to feed()).
  /// The replayed state is itself skippable for literal-rich sets, so a
  /// clean flow keeps skipping chunk after chunk. On kScan/kNone the
  /// context is untouched and the caller must feed().
  template <typename Ctx>
  [[nodiscard]] simd::Gate prefilter_gate(Ctx& ctx, const std::uint8_t* data,
                                          std::size_t size) const {
    if (!prefilter_.should_gate(ctx.state, size)) return simd::Gate::kNone;
    // Body first: on dirty traffic Teddy stops at the first literal, and
    // the seam walk is then never paid.
    if (prefilter_.matches(data, size)) return simd::Gate::kScan;
    if (!prefilter_.boundary_quiet(ctx.state, data, size))
      return simd::Gate::kScan;
    ctx.state = replay_tail(data, size);
    return simd::Gate::kSkip;
  }

  /// Stateless literal probe for degraded scan modes (flow::ScanMode): true
  /// when the chunk *could* contain a match (literal present, or the
  /// prefilter never compiled and cannot prove absence). Unlike
  /// prefilter_gate() this consults no per-flow state and advances nothing —
  /// it is a pure detection signal for L1 sampled / L2 prefilter-only scans.
  [[nodiscard]] bool prefilter_probe(const std::uint8_t* data,
                                     std::size_t size) const {
    return prefilter_.probe(data, size);
  }

  /// Prefilter-gated feed: prefilter_gate() then a normal feed() unless the
  /// chunk was skipped. Returns true when the chunk was skipped.
  template <typename Sink>
  bool feed_gated(Context& ctx, const std::uint8_t* data, std::size_t size,
                  std::uint64_t base, Sink&& sink) const {
    if (prefilter_gate(ctx, data, size) == simd::Gate::kSkip) return true;
    feed(ctx, data, size, base, sink);
    return false;
  }

  // --- InlineContext small-state API (tiered flow table) ---
  // Any program's per-flow (q, m) starts in a 12-byte hot-table slot: the
  // DFA state plus the filter memory as a sorted set of up to four live bit
  // ids (filter::SparseMemory). When an action needs more than that — a
  // fifth live bit, a bit id past 0xFFFE or a position record — the flow
  // spills before the action runs: the caller's spill
  // target supplies a full Context built by expand_inline(), and the action
  // and the rest of the chunk run there. At the chunk's end the flow
  // returns inline if its memory fits the set again; otherwise the
  // InlineContext stays marked spilled, a forwarding handle to that
  // Context for later feeds.

  struct InlineContext {
    std::uint32_t state = 0;
    std::uint16_t live[filter::kSparseLive] = {filter::kSparseEmpty, filter::kSparseEmpty,
                                               filter::kSparseEmpty, filter::kSparseEmpty};

    /// True once the flow's memory moved to its spill target. Encoded as a
    /// live set no sorted set can be: an empty head before a live entry.
    [[nodiscard]] bool spilled() const {
      return live[0] == filter::kSparseEmpty && live[1] != filter::kSparseEmpty;
    }
    void mark_spilled() {
      live[0] = filter::kSparseEmpty;
      live[1] = 0;
    }
  };
  static_assert(sizeof(InlineContext) == 12 && alignof(InlineContext) == 4);

  [[nodiscard]] std::uint32_t context_state(const InlineContext& ic) const {
    return ic.state;
  }

  [[nodiscard]] InlineContext make_inline_context() const {
    return InlineContext{dfa_.start()};
  }

  /// Widen an unspilled inline (q, m) into a full heap Context — exact, so
  /// a flow's state can leave its hot slot without losing in-progress
  /// match state.
  [[nodiscard]] Context expand_inline(const InlineContext& ic) const {
    assert(!ic.spilled());
    Context ctx = make_context();
    ctx.state = ic.state;
    for (const std::uint16_t id : ic.live)
      if (id != filter::kSparseEmpty) ctx.memory.set_bit(id);
    return ctx;
  }

  /// feed() on an InlineContext. `spill()` returns the flow's full Context:
  /// while `ic` is not marked spilled the caller makes it expand_inline(ic)
  /// (only the memory is read; the feed sets the state), and once `ic` is
  /// marked it returns that same Context again. On return a spilled `ic`
  /// and its Context hold the same state; an `ic` no longer marked is back
  /// inline and its Context is free.
  template <typename SpillFn, typename Sink>
  void feed(InlineContext& ic, const std::uint8_t* data, std::size_t size,
            std::uint64_t base, SpillFn&& spill, Sink&& sink) const {
    if (ic.spilled()) {
      Context& full = spill();
      full.state = ic.state;  // the handle's state is the flow's
      feed(full, data, size, base, sink);
      ic.state = full.state;
    } else {
      scan(ic.state, data, size, base, accept_limit(ic),
           [&](std::uint32_t s, std::uint64_t pos) {
             accept_inline(ic, s, pos, spill, sink);
             return accept_limit(ic);
           });
    }
    if (ic.spilled()) settle(ic, spill());
  }

  /// Persist the compiled automaton (character DFA + filter program +
  /// piece sources) to a ".mfac" file so a deployment can compile once and
  /// load on every sensor. Filter order and the clear fold are derived
  /// again on load, never read from the file.
  bool save(const std::string& path) const;
  static std::optional<Mfa> load(const std::string& path);

 private:
  friend std::optional<Mfa> build_mfa(const std::vector<nfa::PatternInput>&,
                                      const BuildOptions&, BuildStats*);

  /// fold_index_ value of an accepting state that runs its ordered actions.
  static constexpr std::uint32_t kUnfolded = UINT32_MAX;

  /// One memory word of a folded clear-only accept state: word &= ~mask.
  struct ClearMask {
    std::uint64_t mask = 0;
    std::uint32_t word = 0;
    std::uint32_t last = 0;  ///< nonzero on the state's final entry
  };

  /// A flow's accept limit: the scan runs accept() only on accepting states
  /// below it. With no filter bit set the quiet states can change nothing,
  /// so only the loud ones [0, loud_) count; otherwise every accepting
  /// state does (DESIGN.md §6 #11).
  [[nodiscard]] std::uint32_t accept_limit(const filter::Memory& memory) const {
    return memory.no_bits() ? loud_ : full_accept_limit();
  }
  /// The limit a full Context starts a chunk at: proving its memory has no
  /// bit set reads every bit word, heap words at Snort scale, which costs
  /// more per chunk than the one accept it could skip. Its first accept
  /// narrows the limit.
  [[nodiscard]] std::uint32_t full_accept_limit() const {
    return dfa_.accepting_state_count();
  }
  /// The same for an inline flow: an empty live set, which also rules out a
  /// spilled flow (its encoding has a live second entry).
  [[nodiscard]] std::uint32_t accept_limit(const InlineContext& ic) const {
    return ic.live[0] == filter::kSparseEmpty && ic.live[1] == filter::kSparseEmpty
               ? loud_
               : full_accept_limit();
  }

  /// Number the accepting states loud first (loud_ set, quiet ones after,
  /// each group in its old order) in the Dfa and, in delta mode, the D2fa.
  /// Derived like filter order: build_mfa() runs it after the D2fa is
  /// built and before the prefilter; load() runs it again, a no-op on an
  /// artifact that build_mfa() wrote.
  void number_loud_first(BuildStats& stats);

  /// Sort the scanning table's accept lists into filter execution order
  /// (filter::ActionOrderLess). build_mfa() runs it before the D2fa copies
  /// the Dfa's lists; load() runs it on both, so the order in a file is
  /// never trusted.
  void order_accepts();

  /// Derive the clear fold: every accepting state whose actions are all
  /// pure clears gets its (word, mask) run in fold_masks_. Exact, because
  /// clears commute and fire unconditionally; any other state keeps its
  /// ordered action list (DESIGN.md §6 #8, #10). When no state folds, the
  /// index stays empty: no bytes, and no index load per accept.
  void fold_clears(BuildStats& stats);

  /// A state's whole filter work on entering accepting state `s` at stream
  /// offset `pos`: a folded clear-only state applies its word masks, any
  /// other state runs its actions in filter order. Returns nullptr when all
  /// of it ran, else the first action id the memory view refused (a
  /// SparseMemory that must spill); the actions before it have run.
  template <typename MemoryT, typename Sink>
  const std::uint32_t* accept(std::uint32_t s, std::uint64_t pos, MemoryT& memory,
                              Sink&& sink) const {
    if (!fold_index_.empty() && fold_index_[s] != kUnfolded) {
      for (const ClearMask* c = fold_masks_.data() + fold_index_[s];; ++c) {
        memory.clear_word(c->word, c->mask);
        if (c->last != 0) return nullptr;
      }
    }
    const auto [first, last] = ordered_actions(s);
    return run_actions(first, last, pos, memory, sink);
  }

  /// Run action ids [it, last) in order; the refused one, or nullptr.
  template <typename MemoryT, typename Sink>
  const std::uint32_t* run_actions(const std::uint32_t* it, const std::uint32_t* last,
                                   std::uint64_t pos, MemoryT& memory, Sink&& sink) const {
    const filter::Engine engine(program_);
    for (; it != last; ++it)
      if (!engine.on_match(*it, pos, memory, sink)) return it;
    return nullptr;
  }

  /// accept() for an inline flow: on its sparse memory while that holds,
  /// spilling at the first action it cannot, and on the spilled Context
  /// from then on.
  template <typename SpillFn, typename Sink>
  void accept_inline(InlineContext& ic, std::uint32_t s, std::uint64_t pos,
                     SpillFn& spill, Sink&& sink) const {
    if (ic.spilled()) [[unlikely]] {
      accept(s, pos, spill().memory, sink);
      return;
    }
    filter::SparseMemory memory(ic.live);
    const std::uint32_t* rest = accept(s, pos, memory, sink);
    if (rest == nullptr) [[likely]]
      return;
    filter::Memory& full = spill().memory;
    ic.mark_spilled();
    run_actions(rest, ordered_actions(s).second, pos, full, sink);
  }

  /// Chunk end of a spilled InlineContext: its Context takes the chunk's
  /// final state, and the flow returns inline (unmarking `ic`) when that
  /// memory fits the inline set again.
  static void settle(InlineContext& ic, Context& full) {
    full.state = ic.state;
    (void)full.memory.to_sparse(ic.live);
  }

  /// Skipped-chunk state reconstruction: run the last window() bytes from
  /// the start state. Sound only under the gate proof (prefilter_gate
  /// checks it first): the ψ-determinism property makes this land in the
  /// exact state the full chunk would have produced, and the taint check
  /// guarantees the real flow fires no match or filter action inside the
  /// chunk. The replay itself reports nothing — it only computes a state —
  /// so a fictional accept on the start-to-tail walk (possible when the
  /// skip happened from a mid-flow state) is harmless.
  [[nodiscard]] std::uint32_t replay_tail(const std::uint8_t* data,
                                          std::size_t size) const {
    const std::size_t w = std::min(prefilter_.window(), size);
    if (delta_)
      return delta_->walk(dfa_.start(), data + (size - w), w,
                          [](std::uint32_t, std::size_t) {});
    std::uint32_t s = dfa_.row_offset(dfa_.start());
    for (const std::uint8_t* p = data + (size - w); p != data + size; ++p)
      s = dfa_.step(s, *p);
    return dfa_.state_of(s);
  }

  /// The character-DFA scan loop over one chunk, shared by both context
  /// forms: on_accept(state, pos) on every state entered below `limit`,
  /// returning the limit from the next byte on (accept_limit() of the
  /// flow). A flow with no filter bit set thus walks through quiet
  /// accepting states without stopping. Delta mode is D2fa::walk(): a
  /// non-accepting root steps with one compare and one dense load (see the
  /// tagged-state comment in d2fa.h), and every accepting state leaves that
  /// path to be checked against the limit; match semantics are identical.
  /// Dense mode steps on row offsets (DESIGN.md §6 #13): `state` and the
  /// limit are multiplied once here, and a state is divided back only on an
  /// accept below the limit and at the chunk's end.
  template <typename AcceptFn>
  void scan(std::uint32_t& state, const std::uint8_t* data, std::size_t size,
            std::uint64_t base, std::uint32_t limit, AcceptFn&& on_accept) const {
    if (delta_) {
      state = delta_->walk(state, data, size, [&](std::uint32_t s, std::size_t i) {
        if (s < limit) limit = on_accept(s, base + i);
      });
      return;
    }
    const dfa::Dfa& d = dfa_;
    std::uint32_t s = d.row_offset(state);
    limit = d.row_offset(limit);
    for (std::size_t i = 0; i < size; ++i) {
      s = d.step(s, data[i]);
      if (s < limit) limit = d.row_offset(on_accept(d.state_of(s), base + i));
    }
    state = d.state_of(s);
  }

  dfa::Dfa dfa_;
  std::optional<dfa::D2fa> delta_;
  simd::Prefilter prefilter_;
  filter::Program program_;
  std::vector<split::Piece> pieces_;
  // Per accepting state: first mask or kUnfolded; empty when nothing folds.
  std::vector<std::uint32_t> fold_index_;
  std::vector<ClearMask> fold_masks_;
  std::uint32_t loud_ = 0;  ///< accepting states with a non-quiet action
  regex::ParseOptions parse_options_;
};

/// Compile a pattern set into an MFA. Returns nullopt if the piece DFA
/// exceeds the state cap (which decomposition makes rare — that is the
/// point of the paper).
std::optional<Mfa> build_mfa(const std::vector<nfa::PatternInput>& patterns,
                             const BuildOptions& options = {}, BuildStats* stats = nullptr);

}  // namespace mfa::core
