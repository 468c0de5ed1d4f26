// Shared helpers for engine tests: compile pattern sets every way and
// compare match output across engines.
#pragma once

#include <string>
#include <vector>

#include "dfa/dfa.h"
#include "hfa/hfa.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "regex/parser.h"
#include "xfa/xfa.h"

namespace mfa::testing {

inline std::vector<nfa::PatternInput> compile_patterns(
    const std::vector<std::string>& sources) {
  std::vector<nfa::PatternInput> out;
  std::uint32_t id = 1;
  for (const auto& src : sources)
    out.push_back(nfa::PatternInput{regex::parse_or_die(src), id++});
  return out;
}

/// Reference matches: NFA simulation of the original patterns.
inline MatchVec reference_matches(const std::vector<std::string>& sources,
                                  const std::string& input) {
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(sources));
  Scanner scanner(n);
  return scanner.scan(input);
}

/// Sorted-equal helper (engines may emit same-position ids in any order).
inline MatchVec sorted(MatchVec m) {
  std::sort(m.begin(), m.end());
  return m;
}

}  // namespace mfa::testing
