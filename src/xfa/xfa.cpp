#include "xfa/xfa.h"

#include <algorithm>

#include "util/timing.h"

namespace mfa::xfa {

namespace {

/// Lower one filter action (already phase-ordered) to XFA instructions.
/// `id` is the action's engine match id, used by the kExecAction delegate
/// for offset-tracking gap actions the native ops cannot express.
void lower_action(std::uint32_t id, const filter::Action& a,
                  std::vector<Instruction>& out) {
  using filter::kNone;
  if (a.set_slot != kNone || a.test_slot != kNone || a.min_gap > 0) {
    out.push_back({Op::kExecAction, static_cast<std::int32_t>(id), 0});
    return;
  }
  if (a.clear != kNone) {
    if (a.test != kNone)
      out.push_back({Op::kClearIfBit, a.test, a.clear});
    else
      out.push_back({Op::kBitClear, a.clear, 0});
  }
  if (a.report != kNone) {
    if (a.test != kNone)
      out.push_back({Op::kReportIfBit, a.test, a.report});
    else
      out.push_back({Op::kReport, a.report, 0});
  }
  if (a.set != kNone) {
    if (a.test != kNone)
      out.push_back({Op::kSetIfBit, a.test, a.set});
    else
      out.push_back({Op::kBitSet, a.set, 0});
  }
}

}  // namespace

std::optional<Xfa> build_xfa(const std::vector<nfa::PatternInput>& patterns,
                             const BuildOptions& options, BuildStats* stats) {
  util::WallTimer timer;
  BuildStats local;
  BuildStats& st = stats != nullptr ? *stats : local;

  split::SplitResult sr = split::split_patterns(patterns, options.split);
  // Same geometry guard as build_mfa: a program past kMaxMemoryBits would
  // alias scratch bits at scan time.
  if (!sr.program.validate()) {
    st.seconds = timer.seconds();
    return std::nullopt;
  }
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

  Xfa xfa;
  xfa.dfa_ = *std::move(d);
  xfa.program_ = sr.program;

  const std::uint32_t nstates = xfa.dfa_.state_count();
  const std::uint32_t naccept = xfa.dfa_.accepting_state_count();
  xfa.program_offsets_.assign(nstates + 1, 0);
  std::vector<std::uint32_t> scratch;
  for (std::uint32_t s = 0; s < nstates; ++s) {
    xfa.program_offsets_[s] = static_cast<std::uint32_t>(xfa.instructions_.size());
    if (s >= naccept) continue;
    const auto [first, last] = xfa.dfa_.accepts(s);
    scratch.assign(first, last);
    std::sort(scratch.begin(), scratch.end(),
              filter::ActionOrderLess{&sr.program.actions});
    for (const std::uint32_t id : scratch)
      lower_action(id, sr.program.actions[id], xfa.instructions_);
  }
  xfa.program_offsets_[nstates] = static_cast<std::uint32_t>(xfa.instructions_.size());

  st.seconds = timer.seconds();
  return xfa;
}

}  // namespace mfa::xfa
