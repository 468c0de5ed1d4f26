#include "mfa/mfa.h"

#include <algorithm>

#include "util/timing.h"

namespace mfa::core {

std::optional<Mfa> build_mfa(const std::vector<nfa::PatternInput>& patterns,
                             const BuildOptions& options, BuildStats* stats) {
  util::WallTimer timer;
  BuildStats local;
  BuildStats& st = stats != nullptr ? *stats : local;

  // 1. Regex splitting (Algorithm 1).
  split::SplitResult sr = split_patterns(patterns, options.split);
  st.split = sr.stats;

  // Reject programs whose geometry exceeds the per-flow Memory (e.g. more
  // guard bits than kMaxMemoryBits) before paying for DFA construction; a
  // silently-truncated filter would alias bits and corrupt match results.
  if (!sr.program.validate()) {
    st.seconds = timer.seconds();
    return std::nullopt;
  }

  // 2. Standard NFA + DFA construction over the decomposed pieces, with
  //    piece engine-ids as the DFA's match ids.
  std::vector<nfa::PatternInput> piece_inputs;
  piece_inputs.reserve(sr.pieces.size());
  for (const auto& piece : sr.pieces)
    piece_inputs.push_back(nfa::PatternInput{piece.regex, piece.engine_id});
  const nfa::Nfa piece_nfa = nfa::build_nfa(piece_inputs);
  std::optional<dfa::Dfa> d = dfa::build_dfa(piece_nfa, options.dfa, &st.dfa);
  if (!d.has_value()) {
    st.seconds = timer.seconds();
    return std::nullopt;
  }

  Mfa mfa;
  mfa.dfa_ = *std::move(d);
  mfa.program_ = std::move(sr.program);
  mfa.pieces_ = std::move(sr.pieces);
  mfa.parse_options_ = options.parse;

  // 3. Pre-resolve per-accept-state action order in place: sort each
  //    accept list by filter phase so one pass over ordered_actions()
  //    executes the same-position semantics (clears, tests/reports, sets).
  //    Before delta compression, which copies the lists as they stand.
  mfa.order_accepts();

  // 4. Compile the literal prefilter (Teddy masks + DFA-verified skip
  //    gate). Purely derived from (dfa, pieces, parse options): load()
  //    rebuilds it the same way, so MFAC artifacts need no new fields.
  //    Must happen before delta compression — the gate proof walks the
  //    dense table.
  mfa.prefilter_ =
      simd::Prefilter::build(mfa.dfa_, mfa.pieces_, mfa.parse_options_.icase);

  // 5. Delta mode: compress the dense table into default-transition chains
  //    with delta-encoded exceptions, then drop the dense table — at
  //    Snort-ruleset scale the table is nearly the whole memory image.
  if (options.delta) {
    mfa.delta_.emplace(mfa.dfa_, options.d2fa, &st.d2fa);
    mfa.dfa_.drop_table();
  }

  // 6. Fold clear-only accept states into word masks (derived, like the
  //    prefilter: load() recomputes it).
  mfa.fold_clears(st);

  st.seconds = timer.seconds();
  return mfa;
}

void Mfa::order_accepts() {
  const filter::ActionOrderLess less{&program_.actions};
  dfa_.sort_accepts(less);
  if (delta_) delta_->sort_accepts(less);
}

void Mfa::fold_clears(BuildStats& stats) {
  const std::uint32_t naccept = dfa_.accepting_state_count();
  fold_index_.assign(naccept, kUnfolded);
  fold_masks_.clear();
  const auto pure_clear = [&](std::uint32_t id) {
    return program_.actions[id].is_pure_clear();
  };
  std::vector<ClearMask> words;
  for (std::uint32_t s = 0; s < naccept; ++s) {
    const auto [first, last] = ordered_actions(s);
    if (first == last || !std::all_of(first, last, pure_clear)) continue;
    words.clear();
    for (const auto* it = first; it != last; ++it) {
      const auto bit = static_cast<std::uint32_t>(program_.actions[*it].clear);
      auto w = std::find_if(words.begin(), words.end(),
                            [&](const ClearMask& c) { return c.word == bit / 64; });
      if (w == words.end()) w = words.insert(words.end(), ClearMask{0, bit / 64, 0});
      w->mask |= std::uint64_t{1} << (bit % 64);
    }
    words.back().last = 1;
    fold_index_[s] = static_cast<std::uint32_t>(fold_masks_.size());
    fold_masks_.insert(fold_masks_.end(), words.begin(), words.end());
    ++stats.folded_accept_states;
    stats.folded_actions += static_cast<std::uint32_t>(last - first);
  }
  if (fold_masks_.empty()) fold_index_ = {};
}

}  // namespace mfa::core
