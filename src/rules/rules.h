// Snort-style rule loading.
//
// The paper's S/B pattern sets come from Snort and Bro rule files
// (Sec. V-A). This module parses a pragmatic subset of the Snort rule
// language so real-world rule files can feed the MFA pipeline directly:
//
//   alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:"WEB-IIS cmd.exe access";
//     content:"cmd.exe"; nocase; pcre:"/.*cmd\.exe/i"; sid:1002; rev:3;)
//
// Supported: action/proto/address header (recorded, not enforced), msg,
// sid, pcre (preferred match source), content with |hex| escapes and
// nocase (used when no pcre is present; multiple contents become a
// dot-star-joined regex, Snort's implicit ordering), and comments/blank
// lines. Unknown body options are ignored. Each rule that fails to parse
// is reported and skipped, so one bad rule does not reject a rule file.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nfa/nfa.h"
#include "regex/ast.h"

namespace mfa::rules {

struct Rule {
  std::uint32_t sid = 0;     ///< Snort rule id; used as the match id
  std::string msg;           ///< operator-facing description
  std::string action;        ///< alert/log/pass/drop...
  std::string proto;         ///< tcp/udp/ip/icmp
  std::string pattern;       ///< the regex actually compiled
  regex::Regex regex;        ///< parsed pattern
};

struct LoadError {
  std::size_t line = 0;  ///< 1-based line of the offending rule
  std::string message;
};

struct LoadResult {
  std::vector<Rule> rules;
  std::vector<LoadError> errors;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Parse rule text (one rule per line; '\' line continuations allowed).
LoadResult parse_rules(std::string_view text);

/// Read and parse a rule file. A missing/unreadable file is reported as a
/// single error at line 0.
LoadResult load_rules_file(const std::string& path);

/// Convert loaded rules to compiler inputs (match id = sid).
std::vector<nfa::PatternInput> to_pattern_inputs(const std::vector<Rule>& rules);

/// Convert a Snort `content` string (with |68 65 78| hex sections) into an
/// escaped regex literal. Exposed for tests.
std::optional<std::string> content_to_regex(std::string_view content, bool nocase);

}  // namespace mfa::rules
