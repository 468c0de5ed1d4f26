// Modal-default compressed DFA ("D2FA-lite").
//
// Related-work context (paper Sec. II): D2FA/CompactDFA-style approaches
// [12][18] shrink DFA tables by storing, per state, only the transitions
// that differ from a default. IDS automata are ideal for this: from any
// state, most bytes lead to the same "restart-ish" successor — for plain
// string sets that is near the root, and for dot-star-bit product states
// it is the bit-preserving restart state. Each row therefore stores its
// *modal* target (the most frequent successor) as the default plus sparse
// exceptions. Default resolution is depth-0 (no chains), so scanning costs
// one short exception scan per byte — trading the paper's
// throughput-vs-memory knob in the opposite direction from MFA (MFA keeps
// the dense table small by removing *states*; this keeps all states but
// stores fewer *transitions*).
#pragma once

#include <cstdint>
#include <vector>

#include "dfa/dfa.h"

namespace mfa::dfa {

class CompactDfa {
 public:
  /// Stable engine label used by telemetry exporters and bench reports.
  static constexpr const char* kEngineName = "compact_dfa";

  /// Compress an existing DFA. Match behaviour is identical by
  /// construction; only the storage layout changes.
  explicit CompactDfa(const Dfa& dfa);

  [[nodiscard]] std::uint32_t state_count() const { return state_count_; }
  [[nodiscard]] std::uint32_t start() const { return start_; }
  [[nodiscard]] std::uint32_t accepting_state_count() const { return accept_states_; }

  [[nodiscard]] std::uint32_t next(std::uint32_t state, unsigned char byte) const {
    const std::uint8_t col = byte_to_col_[byte];
    const std::uint32_t lo = row_offsets_[state];
    const std::uint32_t hi = row_offsets_[state + 1];
    // Rows are short and sorted by column; linear scan beats binary search
    // at these lengths and is branch-predictable.
    for (std::uint32_t i = lo; i < hi; ++i) {
      if (entries_[i].col == col) return entries_[i].target;
      if (entries_[i].col > col) break;
    }
    return default_target_[state];
  }

  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*> accepts(
      std::uint32_t state) const {
    return {accept_ids_.data() + accept_offsets_[state],
            accept_ids_.data() + accept_offsets_[state + 1]};
  }

  /// Stored exception transitions (those differing from their row default).
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  /// Image: sparse entries (5 B each: col + target) + row index + one
  /// default target per state + accept CSR + byte->column map.
  [[nodiscard]] std::size_t memory_image_bytes() const {
    return entries_.size() * 5 + row_offsets_.size() * sizeof(std::uint32_t) +
           default_target_.size() * sizeof(std::uint32_t) + 256 +
           accept_offsets_.size() * sizeof(std::uint32_t) +
           accept_ids_.size() * sizeof(std::uint32_t);
  }

  /// Compression ratio vs. the dense compressed-alphabet layout.
  [[nodiscard]] double compression_vs_dense(const Dfa& dfa) const {
    return static_cast<double>(memory_image_bytes()) /
           static_cast<double>(dfa.memory_image_bytes(false));
  }

  // --- Engine/Context split (uniform API across all six engines) ---

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

  /// Feed a chunk through `ctx`. Thread-safe with distinct contexts.
  template <typename Sink>
  void feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
            Sink&& sink) const {
    std::uint32_t s = ctx.state;
    const std::uint32_t naccept = accept_states_;
    for (std::size_t i = 0; i < size; ++i) {
      s = next(s, data[i]);
      if (s < naccept) {
        const auto [first, last] = accepts(s);
        for (const auto* it = first; it != last; ++it) sink(*it, base + i);
      }
    }
    ctx.state = s;
  }

  using FeedJob = scan::FeedJob<Context>;

  /// Batch scan over the sparse layout (see Dfa::feed_many for the
  /// contract). Deliberately clamped to ONE lane, i.e. sequential per-job
  /// scanning: the banded row's exception scan is a short data-dependent
  /// *branchy* loop, and interleaving K of them multiplies the live branch
  /// state the predictor must carry — measured on the PR 3 bench, K=8 was
  /// honestly SLOWER than K=1 here (the "compact DFA regresses" note). The
  /// dense table's straight-line step profits from lane interleaving; this
  /// layout does not, so batched and sequential are now the same code path
  /// and bench_batch asserts batched-never-slower (--assert-compact-batched-pct).
  /// sink(job_index, id, end_offset).
  template <typename Sink>
  void feed_many(FeedJob* jobs, std::size_t count, Sink&& sink,
                 std::size_t lanes = scan::kDefaultLanes) const {
    (void)lanes;
    const std::uint32_t* offsets = row_offsets_.data();
    scan::interleaved_scan(
        jobs, count, /*lanes=*/1, [this](std::size_t) { return accept_states_; },
        [this](std::uint32_t s, std::uint8_t b) { return next(s, b); },
        [=](std::uint32_t s) { scan::prefetch_ro(offsets + s); },
        [&](std::size_t job, std::uint32_t s, std::uint64_t end) {
          const auto [first, last] = accepts(s);
          for (const auto* it = first; it != last; ++it) sink(job, *it, end);
          return accept_states_;
        });
  }

 private:
  struct Entry {
    std::uint8_t col;
    std::uint32_t target;
  };
  std::uint32_t state_count_ = 0;
  std::uint32_t start_ = 0;
  std::uint32_t accept_states_ = 0;
  std::array<std::uint8_t, 256> byte_to_col_{};
  std::vector<std::uint32_t> default_target_;  // per state: the row's modal target
  std::vector<std::uint32_t> row_offsets_;     // state_count + 1
  std::vector<Entry> entries_;              // sorted by (state, col)
  std::vector<std::uint32_t> accept_offsets_;
  std::vector<std::uint32_t> accept_ids_;
};

/// Back-compat wrapper (engine pointer + one Context); same Match contract
/// as DfaScanner.
class CompactDfaScanner {
 public:
  explicit CompactDfaScanner(const CompactDfa& dfa) : dfa_(&dfa), ctx_(dfa.make_context()) {}

  void reset() { dfa_->reset(ctx_); }

  template <typename Sink>
  void feed(const std::uint8_t* data, std::size_t size, std::uint64_t base, Sink&& sink) {
    dfa_->feed(ctx_, data, size, base, sink);
  }

  MatchVec scan(const std::uint8_t* data, std::size_t size) {
    reset();
    CollectingSink sink;
    feed(data, size, 0, sink);
    return std::move(sink.matches);
  }
  MatchVec scan(const std::string& data) {
    return scan(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

 private:
  const CompactDfa* dfa_;
  CompactDfa::Context ctx_;
};

}  // namespace mfa::dfa
