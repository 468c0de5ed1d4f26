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
  util::WallTimer phase;
  split::SplitResult sr = split_patterns(patterns, options.split);
  st.split = sr.stats;
  st.phases.split = phase.seconds();

  // Reject programs whose geometry exceeds the per-flow Memory (e.g. more
  // guard bits than kMaxMemoryBits) before paying for DFA construction; a
  // silently-truncated filter would alias bits and corrupt match results.
  if (!sr.program.validate()) {
    st.seconds = timer.seconds();
    return std::nullopt;
  }

  // 2. Standard NFA + DFA construction over the decomposed pieces, with
  //    piece engine-ids as the DFA's match ids.
  phase.reset();
  std::vector<nfa::PatternInput> piece_inputs;
  piece_inputs.reserve(sr.pieces.size());
  for (const auto& piece : sr.pieces)
    piece_inputs.push_back(nfa::PatternInput{piece.regex, piece.engine_id});
  const nfa::Nfa piece_nfa = nfa::build_nfa(piece_inputs);
  st.phases.nfa = phase.seconds();
  std::optional<dfa::Dfa> d = dfa::build_dfa(piece_nfa, options.dfa, &st.dfa);
  st.phases.subset = st.dfa.seconds - st.dfa.minimize_seconds;
  st.phases.minimize = st.dfa.minimize_seconds;
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

  // 4. Delta mode: compress the dense table into default-transition chains
  //    with delta-encoded exceptions, from the table in construction order
  //    (so the D2fa picks the same default parents whatever step 5 does).
  if (options.delta) mfa.delta_.emplace(mfa.dfa_, options.d2fa, &st.d2fa);
  st.phases.d2fa = st.d2fa.seconds;

  // 5. Number the accepting states loud first, in both tables (derived:
  //    load() numbers them again, which is then the identity).
  mfa.number_loud_first(st);

  // 6. Compile the literal prefilter (Teddy masks + DFA-verified skip
  //    gate). Purely derived from (dfa, pieces, parse options): load()
  //    rebuilds it the same way, so MFAC artifacts need no new fields.
  //    Must follow the renumbering (the gate holds state ids) and precede
  //    dropping the dense table, which the gate proof walks — at
  //    Snort-ruleset scale that table is nearly the whole memory image.
  phase.reset();
  mfa.prefilter_ =
      simd::Prefilter::build(mfa.dfa_, mfa.pieces_, mfa.parse_options_.icase);
  st.phases.prefilter = phase.seconds();
  if (options.delta) mfa.dfa_.drop_table();

  // 7. Fold clear-only accept states into word masks (derived, like the
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

void Mfa::number_loud_first(BuildStats& stats) {
  constexpr std::uint32_t kQuiet = UINT32_MAX;
  const std::uint32_t naccept = dfa_.accepting_state_count();
  const auto quiet = [&](std::uint32_t id) { return program_.actions[id].is_quiet(); };
  std::vector<std::uint32_t> new_id(naccept);
  loud_ = 0;
  for (std::uint32_t s = 0; s < naccept; ++s) {
    const auto [first, last] = dfa_.accepts(s);
    new_id[s] = std::all_of(first, last, quiet) ? kQuiet : loud_++;
  }
  std::uint32_t next_quiet = loud_;
  bool identity = true;
  for (std::uint32_t s = 0; s < naccept; ++s) {
    if (new_id[s] == kQuiet) new_id[s] = next_quiet++;
    identity &= new_id[s] == s;
  }
  stats.quiet_accept_states = naccept - loud_;
  if (identity) return;
  dfa_.renumber_accepting(new_id);
  if (delta_) delta_->renumber_accepting(new_id);
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
