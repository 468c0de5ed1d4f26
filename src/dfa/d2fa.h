// D2FA: default-transition compressed DFA with delta-encoded exceptions.
//
// Related-work context (paper Sec. II and ROADMAP item 4): Kumar et al.'s
// D2FA observes that IDS automaton rows are massively redundant — two
// states often differ in a handful of byte transitions. Instead of one
// modal target per row, each state gets a *default
// transition* to a similar state chosen by maximum-weight pairwise row
// similarity; only the differing transitions are stored as exceptions.
// Lookup follows default pointers until an exception (or a dense "root"
// row) resolves the byte, so the chain length is the hot-path cost — we
// bound it at construction time (`max_chain`, the diameter bound from the
// D2FA literature) and pick parents only among states whose chain is still
// below the bound, giving a hard worst-case of `max_chain + 1` hops/byte.
//
// Exceptions are delta-encoded against the parent state id (zigzag,
// per-row fixed width of 1/2/4 bytes), layered on the byte-equivalence-
// class alphabet compression — on Snort-class rulesets the combination is
// several-fold smaller than the dense class-compressed table. States whose
// best parent still leaves too many exceptions keep their dense row
// ("roots" of the default-transition forest), which also caps decode work.
#pragma once

#include <cstdint>
#include <vector>

#include "dfa/dfa.h"

namespace mfa::dfa {

struct D2faOptions {
  /// Maximum default-transition chain length (hops before a root). The
  /// scan loop does at most `max_chain + 1` row visits per byte.
  std::uint32_t max_chain = 2;
  /// How many of the most-frequent row targets to score as default-parent
  /// candidates per state (plus the start state). Similarity scoring is
  /// O(candidates * ncols) per state; 8 captures nearly all the win.
  std::uint32_t candidates = 8;
  /// A state keeps its dense row (becomes a forest root) when the best
  /// candidate would still leave more than this percentage of its columns
  /// as exceptions — a weak default is worse than a dense row.
  std::uint32_t dense_threshold_pct = 50;
  /// States within this BFS depth of the start state are forced roots.
  /// Scan time concentrates in the start state's neighborhood (clean
  /// traffic keeps restarting there), so keeping those few rows dense buys
  /// back most of the chain-walk cost for a tiny size overhead. 0 disables.
  std::uint32_t root_depth = 3;
};

struct D2faStats {
  double seconds = 0.0;               ///< wall time spent compressing
  std::uint32_t roots = 0;            ///< states that kept a dense row
  std::uint32_t max_chain = 0;        ///< longest default chain built
  double avg_chain = 0.0;             ///< mean chain length over states
  std::uint64_t exception_entries = 0;  ///< stored exception transitions
};

class D2fa {
 public:
  /// Stable engine label used by telemetry exporters and bench reports.
  static constexpr const char* kEngineName = "d2fa";

  D2fa() = default;
  /// Compress an existing dense DFA. Match behaviour is identical by
  /// construction; only the storage layout changes.
  explicit D2fa(const Dfa& dfa, const D2faOptions& options = {},
                D2faStats* stats = nullptr);

  [[nodiscard]] std::uint32_t state_count() const { return state_count_; }
  [[nodiscard]] std::uint32_t start() const { return start_; }
  [[nodiscard]] std::uint16_t column_count() const {
    return static_cast<std::uint16_t>(rows_.ncols());
  }
  [[nodiscard]] std::uint32_t accepting_state_count() const { return accept_states_; }
  [[nodiscard]] std::uint32_t max_match_id() const { return max_match_id_; }
  [[nodiscard]] std::uint32_t root_count() const {
    return static_cast<std::uint32_t>(root_raw_.size());
  }
  [[nodiscard]] std::uint32_t max_chain() const { return max_chain_; }
  [[nodiscard]] std::uint64_t exception_entries() const { return exception_entries_; }
  /// True when `state` kept its dense row (a forest root).
  [[nodiscard]] bool is_root(std::uint32_t state) const {
    return (defaults_[state] & kRootFlag) != 0;
  }

  // --- Tagged-state scan representation ---
  //
  // A naive delta scan pays two dependent loads on the HOT path: defaults_[s]
  // to learn whether s is a root, then the root's dense row — one full
  // load-to-use latency more per byte than the dense table's single load,
  // which is most of D2FA's throughput gap (knob sweeps barely move it).
  // So stored transition *targets* carry their routing metadata inline:
  //
  //   below kTagAccept      a non-accepting forest root; the value IS its
  //                         dense-row offset (row index x ncols, the
  //                         premultiplied form of DESIGN.md §6 #13)
  //   bit 30 (kTagAccept)   target is an accepting state
  //   bit 31 (kTagNonRoot)  target is not a root; low bits are its raw id
  //   bits 0..29            root: dense-row offset; non-root: raw state id
  //
  // dense_rows_ holds tagged values IN MEMORY ONLY (serialization converts
  // to/from raw state ids, keeping the artifact format unchanged), so the
  // hot step of walk() is one compare, `v < kTagAccept`, then
  // `v = dense_rows_[v + col]` with no mask: the same add-and-load chain the
  // dense table pays. Any value at or above kTagAccept (an accept, or a
  // non-root state) leaves that path. The chain walk survives only on
  // non-root states, which root_depth and the similarity threshold make
  // cold by construction. The two tag bits are why state_count x ncols (and
  // so root rows x ncols) stays below util::kMaxRowOffsets = 2^30;
  // deserialize rejects anything larger before allocating.
  static constexpr std::uint32_t kTagNonRoot = 0x80000000u;
  static constexpr std::uint32_t kTagAccept = 0x40000000u;
  static constexpr std::uint32_t kTagIdMask = 0x3fffffffu;

  /// Tagged value for a raw state id (entry into a scan loop).
  [[nodiscard]] std::uint32_t tag_state(std::uint32_t raw) const {
    const std::uint32_t a = raw < accept_states_ ? kTagAccept : 0u;
    const std::uint32_t d = defaults_[raw];
    return (d & kRootFlag) != 0 ? ((d & ~kRootFlag) | a) : (raw | kTagNonRoot | a);
  }

  /// Raw state id behind a tagged value (accept lookup, context write-back).
  [[nodiscard]] std::uint32_t untag(std::uint32_t v) const {
    return (v & kTagNonRoot) != 0 ? (v & kTagIdMask) : root_raw_[rows_.id(v & kTagIdMask)];
  }

  /// Raw-id transition (parity tests, artifact validation, cold callers).
  [[nodiscard]] std::uint32_t next(std::uint32_t state, unsigned char byte) const {
    const std::uint32_t v = tag_state(state);
    const std::uint8_t col = byte_to_col_[byte];
    return untag(v < kTagAccept ? dense_rows_[v + col] : next_cold(v, col));
  }

  /// The delta scan loop (feed(), Mfa's delta scan and its gate replay):
  /// step [data, data + size) from raw state `state`, call
  /// on_accept(raw state, i) for every accepting state entered at data[i],
  /// and return the raw state after the last byte. A non-accepting root
  /// steps with one compare and one dense load. An accepting state is
  /// reported when the next byte leaves it (or after the last byte), so
  /// the hot path carries no accept test; reports keep their order and
  /// positions. The entry state's accept belongs to the byte that entered
  /// it, so it enters without kTagAccept.
  template <typename OnAccept>
  [[nodiscard]] std::uint32_t walk(std::uint32_t state, const std::uint8_t* data,
                                   std::size_t size, OnAccept&& on_accept) const {
    std::uint32_t v = tag_state(state) & ~kTagAccept;
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint8_t col = byte_to_col_[data[i]];
      if (v < kTagAccept) [[likely]] {
        v = dense_rows_[v + col];
        continue;
      }
      if ((v & kTagAccept) != 0) on_accept(untag(v), i - 1);
      v = next_cold(v, col);
    }
    if ((v & kTagAccept) != 0) on_accept(untag(v), size - 1);
    return untag(v);
  }

  /// Match ids of an accepting state, unique, in the order of the Dfa they
  /// were copied from (or as sort_accepts() last reordered them).
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*> accepts(
      std::uint32_t state) const {
    return {accept_ids_.data() + accept_offsets_[state],
            accept_ids_.data() + accept_offsets_[state + 1]};
  }

  /// Reorder every accepting state's ids by `less` (see Dfa::sort_accepts).
  template <typename Less>
  void sort_accepts(Less less) {
    for (std::uint32_t s = 0; s < accept_states_; ++s)
      std::sort(accept_ids_.begin() + accept_offsets_[s],
                accept_ids_.begin() + accept_offsets_[s + 1], less);
  }

  /// Rename the accepting states as Dfa::renumber_accepting does. Each
  /// state keeps its default parent (renamed) and its exception columns;
  /// the deltas are re-encoded against the renamed parent, so the image
  /// may change by a few bytes.
  void renumber_accepting(const std::vector<std::uint32_t>& new_id);

  /// Image: defaults + exception row index + exception byte stream + root
  /// dense rows (+ row -> raw-id map) + accept CSR + byte->column map.
  [[nodiscard]] std::size_t memory_image_bytes() const {
    return defaults_.size() * sizeof(std::uint32_t) +
           row_offsets_.size() * sizeof(std::uint32_t) + exc_.size() +
           dense_rows_.size() * sizeof(std::uint32_t) +
           root_raw_.size() * sizeof(std::uint32_t) + 256 +
           accept_offsets_.size() * sizeof(std::uint32_t) +
           accept_ids_.size() * sizeof(std::uint32_t);
  }

  /// Compression ratio vs. the dense compressed-alphabet layout (< 1 is
  /// smaller; the 5k-fixture acceptance bar is <= 0.25, i.e. >= 4x).
  [[nodiscard]] double compression_vs_dense(const Dfa& dfa) const {
    return static_cast<double>(memory_image_bytes()) /
           static_cast<double>(dfa.memory_image_bytes(false));
  }

  /// Re-materialize the full dense table (state_count * ncols), e.g. to
  /// rebuild the SIMD prefilter proof after loading a delta-only artifact.
  [[nodiscard]] std::vector<std::uint32_t> expand_table() const;

  // --- Engine/Context split (uniform API across all engines) ---

  struct Context {
    std::uint32_t state = 0;
  };

  [[nodiscard]] Context make_context() const { return Context{start_}; }
  void reset(Context& ctx) const { ctx.state = start_; }
  [[nodiscard]] std::size_t context_bytes() const { return sizeof(std::uint32_t); }

  /// The flow's current automaton state (profiler state-visit sampling).
  [[nodiscard]] std::uint32_t context_state(const Context& ctx) const {
    return ctx.state;
  }

  // InlineContext small-state API (tiered flow table): one state word is
  // already hot-slot sized, so the inline context IS the context.
  using InlineContext = Context;
  [[nodiscard]] InlineContext make_inline_context() const { return make_context(); }

  /// Feed a chunk through `ctx`. Thread-safe with distinct contexts. The
  /// loop is walk(): root-resident bytes cost one compare and one dense
  /// load.
  template <typename Sink>
  void feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
            Sink&& sink) const {
    ctx.state = walk(ctx.state, data, size, [&](std::uint32_t s, std::size_t i) {
      const auto [first, last] = accepts(s);
      for (const auto* it = first; it != last; ++it) sink(*it, base + i);
    });
  }

  /// Binary (de)serialization (the MFAC v3 delta-table section).
  /// deserialize fully validates the encoding: exception rows must decode
  /// (stride, ascending columns, in-range targets) and every default chain
  /// must terminate at a root within the recorded chain bound.
  void serialize(util::BinWriter& w) const;
  static bool deserialize(util::BinReader& r, D2fa& out);

 private:
  /// High bit of defaults_[s]: s is a forest root; in memory the low bits
  /// are its dense row's offset (the artifact stores the row index). Clear:
  /// low bits are the default-parent state id.
  static constexpr std::uint32_t kRootFlag = 0x80000000u;

  /// One stored exception: (column, raw target state).
  using Exception = std::pair<std::uint8_t, std::uint32_t>;

  /// Append an exception row against default parent `parent` to `out`:
  /// the width code of its widest zigzagged delta, then (column, delta) per
  /// entry of `row` (ascending columns). An empty row appends nothing.
  static void encode_row(std::vector<std::uint8_t>& out, std::uint32_t parent,
                         const std::vector<Exception>& row);

  /// The step from a tagged value at or above kTagAccept: an accepting
  /// root's dense row, or the chain walk of a non-root state. Bounded by
  /// construction: at most max_chain_ default hops, then a root's dense row
  /// resolves unconditionally. Kept out of line so that the hot step of
  /// walk() stays a few instructions: with the chain walk inlined into the
  /// per-byte step, that step was a ~300-byte function whose speed moved
  /// with code placement.
  [[nodiscard, gnu::noinline]] std::uint32_t next_cold(std::uint32_t v,
                                                       std::uint8_t col) const {
    if ((v & kTagNonRoot) == 0) return dense_rows_[(v & kTagIdMask) + col];
    std::uint32_t s = v & kTagIdMask;
    for (;;) {
      const std::uint32_t d = defaults_[s];
      if ((d & kRootFlag) != 0)  // dense_rows_ entries are already tagged
        return dense_rows_[(d & ~kRootFlag) + col];
      const std::uint32_t lo = row_offsets_[s];
      const std::uint32_t hi = row_offsets_[s + 1];
      if (lo < hi) {
        // Row layout: [width code][col][delta]... with a fixed per-row
        // delta width, so the scan is a constant-stride walk; columns are
        // ascending, allowing early exit without decoding deltas.
        const std::uint32_t w = 1u << exc_[lo];
        const std::uint32_t stride = 1 + w;
        for (std::uint32_t p = lo + 1; p < hi; p += stride) {
          if (exc_[p] == col) return tag_state(d + unzigzag(load_le(&exc_[p + 1], w)));
          if (exc_[p] > col) break;
        }
      }
      s = d;
    }
  }

  static std::uint32_t load_le(const std::uint8_t* p, std::uint32_t w) {
    std::uint32_t v = p[0];
    if (w >= 2) v |= static_cast<std::uint32_t>(p[1]) << 8;
    if (w == 4)
      v |= (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    return v;
  }
  /// Zigzag of (target - parent): small bidirectional deltas take 1 byte.
  static std::uint32_t zigzag(std::int32_t n) {
    return (static_cast<std::uint32_t>(n) << 1) ^
           static_cast<std::uint32_t>(n >> 31);
  }
  static std::uint32_t unzigzag(std::uint32_t z) {
    return (z >> 1) ^ (~(z & 1) + 1);
  }

  std::uint32_t state_count_ = 0;
  std::uint32_t start_ = 0;
  std::uint32_t accept_states_ = 0;
  std::uint32_t max_match_id_ = 0;
  util::RowStride rows_;  // column count; root row index <-> offset
  std::uint32_t max_chain_ = 0;
  std::uint64_t exception_entries_ = 0;
  std::array<std::uint8_t, 256> byte_to_col_{};
  std::vector<std::uint32_t> defaults_;     // per state: parent id or root flag | offset
  std::vector<std::uint32_t> row_offsets_;  // state_count + 1, into exc_
  std::vector<std::uint8_t> exc_;          // delta-encoded exception rows
  std::vector<std::uint32_t> dense_rows_;  // root_count * ncols, TAGGED targets
  std::vector<std::uint32_t> root_raw_;    // dense row index -> raw state id
  std::vector<std::uint32_t> accept_offsets_;
  std::vector<std::uint32_t> accept_ids_;
};

}  // namespace mfa::dfa
