// DFA: subset construction, byte-class compression, minimization, scanning.
//
// This is both the paper's DFA baseline (dense 256-wide transition table,
// fastest matching, exponential worst-case size — Sec. I-A) and the
// character-DFA inside the MFA/HFA/XFA engines (Fig. 1 "Character DFA").
// Construction takes the epsilon-free NFA and explores reachable state
// subsets; a state cap makes "DFA fails to construct B217p" (Fig. 3) an
// observable outcome instead of an OOM.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "nfa/nfa.h"
#include "util/binio.h"
#include "util/match.h"
#include "util/row_stride.h"

namespace mfa::dfa {

struct BuildOptions {
  /// Abort construction when more than this many DFA states are discovered
  /// (or more than the premultiplied-table cap allows: state_count x
  /// classes stays below util::kMaxRowOffsets, whatever this is set to).
  /// Enforced exactly at insertion time: a build whose reachable subset
  /// count is precisely max_states succeeds; interning the (max_states+1)th
  /// subset fails immediately (the Fig. 3 "DFA fails to construct" outcome,
  /// no longer one state late).
  std::uint32_t max_states = 1u << 20;
  /// Merge equivalent states (Moore partition refinement) after subset
  /// construction. Off by default to mirror standard DFA construction.
  bool minimize = false;
};

struct BuildStats {
  double seconds = 0.0;           ///< wall time spent in construction
  double minimize_seconds = 0.0;  ///< the Moore refinement part of `seconds`
  std::uint32_t states = 0;       ///< states discovered (pre-minimization)
  std::uint32_t minimized = 0;    ///< states after minimization (== states if off)
  bool failed = false;            ///< true if max_states was exceeded
};

class Dfa {
 public:
  /// Stable engine label used by telemetry exporters and bench reports.
  static constexpr const char* kEngineName = "dfa";

  [[nodiscard]] std::uint32_t state_count() const { return state_count_; }
  [[nodiscard]] std::uint32_t start() const { return start_; }
  [[nodiscard]] std::uint16_t column_count() const {
    return static_cast<std::uint16_t>(rows_.ncols());
  }
  [[nodiscard]] std::uint32_t accepting_state_count() const { return accept_states_; }
  [[nodiscard]] std::uint32_t max_match_id() const { return max_match_id_; }

  // --- State encoding (DESIGN.md §6 #13) ---
  // The in-memory table stores every target as its row offset (id * ncols,
  // util/row_stride.h), so a scan steps with step() and no multiply; raw
  // ids live in contexts, accept lists and artifacts.

  /// Row offset of raw state `state`: a scan loop's entry conversion.
  [[nodiscard]] std::uint32_t row_offset(std::uint32_t state) const {
    return rows_.offset(state);
  }
  /// Raw state id of a row offset (exact division; accept and exit only).
  [[nodiscard]] std::uint32_t state_of(std::uint32_t offset) const {
    return rows_.id(offset);
  }
  /// One scan step on row offsets: the only per-byte transition form.
  [[nodiscard]] std::uint32_t step(std::uint32_t offset, unsigned char byte) const {
    return table_[offset + byte_to_col_[byte]];
  }

  /// Raw-id transition on byte class `col`: the one accessor for readers
  /// outside the scan loops (D2fa construction, the prefilter proof, tests).
  [[nodiscard]] std::uint32_t target(std::uint32_t state, std::uint16_t col) const {
    return state_of(table_[row_offset(state) + col]);
  }
  [[nodiscard]] std::uint32_t next(std::uint32_t state, unsigned char byte) const {
    return target(state, byte_to_col_[byte]);
  }

  /// Accepting states are remapped to ids [0, accepting_state_count()).
  [[nodiscard]] bool is_accepting(std::uint32_t state) const {
    return state < accept_states_;
  }

  /// Match ids of an accepting state: unique, ascending as built, or in the
  /// order sort_accepts() last imposed.
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*> accepts(
      std::uint32_t state) const {
    return {accept_ids_.data() + accept_offsets_[state],
            accept_ids_.data() + accept_offsets_[state + 1]};
  }

  /// Reorder every accepting state's ids by `less`; each state keeps its
  /// id set. The MFA sorts its character table into filter execution order
  /// so the scan runs accepts() directly (DESIGN.md §6 #10).
  template <typename Less>
  void sort_accepts(Less less) {
    for (std::uint32_t s = 0; s < accept_states_; ++s)
      std::sort(accept_ids_.begin() + accept_offsets_[s],
                accept_ids_.begin() + accept_offsets_[s + 1], less);
  }

  /// Rename the accepting states: old id s < accepting_state_count() becomes
  /// new_id[s], a permutation of that range; other states keep their ids.
  /// Table rows and targets, accept lists and start follow, so the
  /// automaton is unchanged under the new names (a headless Dfa renames its
  /// metadata only). The MFA numbers its loud accepting states first
  /// (DESIGN.md §6 #11).
  void renumber_accepting(const std::vector<std::uint32_t>& new_id);

  /// Memory image size. `full_alphabet` accounts a raw 256-wide table (the
  /// paper's DFA baseline accounting: C7p = 244k states ~= 250 MB); with
  /// false, the byte-class-compressed layout actually used for scanning is
  /// accounted (what MFA images use, Fig. 2).
  [[nodiscard]] std::size_t memory_image_bytes(bool full_alphabet) const;

  // Raw table access (D2fa construction, tests): row-offset targets (see
  // step()).
  [[nodiscard]] const std::uint32_t* table_data() const { return table_.data(); }
  [[nodiscard]] const std::uint8_t* byte_columns() const { return byte_to_col_.data(); }

  // --- Engine/Context split (uniform API across all six engines) ---
  // The Dfa itself is the immutable, shareable Engine; per-flow state is
  // this one-word Context. See DESIGN.md "Engine/Context split & pipeline".

  struct Context {
    std::uint32_t state = 0;
  };

  [[nodiscard]] Context make_context() const { return Context{start_}; }
  void reset(Context& ctx) const { ctx.state = start_; }

  /// The flow's current automaton state, for profiler state-visit sampling
  /// (uniform hook across all six engines).
  [[nodiscard]] std::uint32_t context_state(const Context& ctx) const {
    return ctx.state;
  }

  /// Per-flow context is a single DFA state (paper Sec. III-B).
  [[nodiscard]] std::size_t context_bytes() const { return sizeof(std::uint32_t); }

  // InlineContext small-state API (tiered flow table): a DFA's whole
  // per-flow state already fits a hot-table slot, so the inline context IS
  // the context — feed applies unchanged.
  using InlineContext = Context;
  [[nodiscard]] InlineContext make_inline_context() const { return make_context(); }

  /// Feed a chunk through `ctx`; `base` is the stream offset of data[0].
  /// Thread-safe for concurrent calls with distinct contexts.
  template <typename Sink>
  void feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
            Sink&& sink) const {
    const std::uint32_t limit = row_offset(accept_states_);
    std::uint32_t s = row_offset(ctx.state);
    for (std::size_t i = 0; i < size; ++i) {
      s = step(s, data[i]);
      if (s < limit) {
        const auto [first, last] = accepts(state_of(s));
        for (const auto* it = first; it != last; ++it) sink(*it, base + i);
      }
    }
    ctx.state = state_of(s);
  }

  /// Binary (de)serialization for compiled-automaton files. The image
  /// stores raw target ids; deserialize premultiplies them in place.
  /// deserialize validates structural invariants (transition targets in
  /// range, CSR monotone, state_count x ncols below util::kMaxRowOffsets,
  /// checked before the table is allocated) and fails the reader on any
  /// violation. `allow_empty_table`
  /// accepts a headless image (metadata + accept tables, zero-length
  /// transition table) — the MFAC v3 delta-table layout, where transitions
  /// live in a D2fa and the dense table is not persisted.
  void serialize(util::BinWriter& w) const;
  static bool deserialize(util::BinReader& r, Dfa& out, bool allow_empty_table = false);

  // --- dense-table lifecycle for the delta-encoded (D2FA) workflow ---
  // A delta-mode Mfa keeps this object only for its metadata (byte classes,
  // start, accept geometry); the dense table is dropped after the D2fa and
  // the prefilter proof are derived from it, and restored transiently when
  // a loader needs to re-derive them.

  /// Discard the dense transition table (frees state_count*ncols words).
  /// After this, next()/feed()/table_data() are invalid; all
  /// metadata and accept accessors remain usable.
  void drop_table() {
    table_.clear();
    table_.shrink_to_fit();
  }
  [[nodiscard]] bool has_table() const { return !table_.empty(); }

  /// Reinstall a dense table (state_count*ncols raw target ids, each in
  /// range), premultiplied in place. Returns false (leaving the object
  /// headless) on a geometry or range violation.
  bool restore_table(std::vector<std::uint32_t> table) {
    if (table.size() != static_cast<std::size_t>(state_count_) * rows_.ncols()) return false;
    for (const std::uint32_t t : table)
      if (t >= state_count_) return false;
    for (std::uint32_t& t : table) t = row_offset(t);
    table_ = std::move(table);
    return true;
  }

 private:
  friend std::optional<Dfa> build_dfa(const nfa::Nfa&, const BuildOptions&, BuildStats*);
  std::uint32_t state_count_ = 0;
  std::uint32_t start_ = 0;
  std::uint32_t accept_states_ = 0;
  std::uint32_t max_match_id_ = 0;
  util::RowStride rows_;  // column count; id <-> row offset
  std::array<std::uint8_t, 256> byte_to_col_{};
  std::vector<std::uint32_t> table_;           // state_count * ncols row offsets
  std::vector<std::uint32_t> accept_offsets_;  // accept_states + 1
  std::vector<std::uint32_t> accept_ids_;
};

/// Subset-construct a DFA from an epsilon-free NFA. Returns nullopt (and
/// stats->failed) if the state cap is exceeded — the B217p outcome.
std::optional<Dfa> build_dfa(const nfa::Nfa& nfa, const BuildOptions& options = {},
                             BuildStats* stats = nullptr);

/// Byte equivalence classes of an NFA: bytes that every transition label
/// treats identically share a column. Returns the byte->class map and the
/// class count. Exposed for tests and for the trace generator.
std::pair<std::array<std::uint8_t, 256>, std::uint16_t> compute_byte_classes(
    const nfa::Nfa& nfa);

/// Loader check shared by Dfa and D2fa: no accept list (CSR `offsets` into
/// `ids`, already validated monotone and in range) repeats an id. Makes no
/// assumption about id order — MFA artifacts store filter order. A repeated
/// id would run its action twice (a duplicate alert).
bool accept_ids_unique(const std::vector<std::uint32_t>& offsets,
                       const std::vector<std::uint32_t>& ids);

/// Accept CSR (`offsets` into `ids`) with its states renamed by `new_id`
/// (see Dfa::renumber_accepting): state new_id[s] takes state s's list.
void permute_accept_lists(std::vector<std::uint32_t>& offsets,
                          std::vector<std::uint32_t>& ids,
                          const std::vector<std::uint32_t>& new_id);

}  // namespace mfa::dfa
