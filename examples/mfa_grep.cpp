// mfa_grep: a small grep-like CLI over the MFA engine.
//
// Compile patterns (inline, from a pattern file, or from Snort-style rules),
// optionally persist the compiled automaton, and scan files or stdin,
// printing one line per match.
//
//   $ ./mfa_grep -e '.*wget.*chmod' -e '.*etc/passwd' payload.bin
//   $ ./mfa_grep --rules web.rules --save web.mfac traffic.dump
//   $ cat traffic.dump | ./mfa_grep --load web.mfac
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "mfa/mfa.h"
#include "regex/parser.h"
#include "rules/rules.h"

namespace {

int usage() {
  std::printf(
      "usage: mfa_grep [options] [file...]\n"
      "  -e PATTERN      add a pattern (repeatable; ids are 1,2,...)\n"
      "  --patterns F    read one pattern per line from F ('#' comments)\n"
      "  --rules F       read Snort-style rules from F (ids are sids)\n"
      "  --save F        save the compiled automaton to F\n"
      "  --load F        load a compiled automaton (skips compilation)\n"
      "  --count         print only the total match count per input\n"
      "  -q              exit status only (0 = matched, 1 = no match)\n"
      "with no files, scans stdin.\n");
  return 2;
}

struct Config {
  std::vector<std::string> patterns;
  std::string pattern_file, rules_file, save_path, load_path;
  std::vector<std::string> files;
  bool count_only = false;
  bool quiet = false;
};

bool read_stream(std::istream& in, std::string& out) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "-e") {
      const char* v = next();
      if (!v) return usage();
      cfg.patterns.push_back(v);
    } else if (a == "--patterns") {
      const char* v = next();
      if (!v) return usage();
      cfg.pattern_file = v;
    } else if (a == "--rules") {
      const char* v = next();
      if (!v) return usage();
      cfg.rules_file = v;
    } else if (a == "--save") {
      const char* v = next();
      if (!v) return usage();
      cfg.save_path = v;
    } else if (a == "--load") {
      const char* v = next();
      if (!v) return usage();
      cfg.load_path = v;
    } else if (a == "--count") {
      cfg.count_only = true;
    } else if (a == "-q") {
      cfg.quiet = true;
    } else if (a == "--help") {
      return usage();
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      cfg.files.push_back(a);
    }
  }

  std::optional<core::Mfa> mfa;
  if (!cfg.load_path.empty()) {
    mfa = core::Mfa::load(cfg.load_path);
    if (!mfa) {
      std::fprintf(stderr, "mfa_grep: cannot load automaton %s\n", cfg.load_path.c_str());
      return 2;
    }
  } else {
    std::vector<nfa::PatternInput> inputs;
    std::uint32_t next_id = 1;
    for (const auto& p : cfg.patterns) {
      regex::ParseResult r = regex::parse(p);
      if (!r.ok()) {
        std::fprintf(stderr, "mfa_grep: bad pattern \"%s\": %s (offset %zu)\n",
                     p.c_str(), r.error->message.c_str(), r.error->offset);
        return 2;
      }
      inputs.push_back({*std::move(r.regex), next_id++});
    }
    if (!cfg.pattern_file.empty()) {
      std::ifstream in(cfg.pattern_file);
      if (!in) {
        std::fprintf(stderr, "mfa_grep: cannot open %s\n", cfg.pattern_file.c_str());
        return 2;
      }
      std::string line;
      std::size_t line_no = 0;
      while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        regex::ParseResult r = regex::parse(line);
        if (!r.ok()) {
          std::fprintf(stderr, "mfa_grep: %s:%zu: %s\n", cfg.pattern_file.c_str(),
                       line_no, r.error->message.c_str());
          return 2;
        }
        inputs.push_back({*std::move(r.regex), next_id++});
      }
    }
    if (!cfg.rules_file.empty()) {
      const rules::LoadResult loaded = rules::load_rules_file(cfg.rules_file);
      for (const auto& e : loaded.errors)
        std::fprintf(stderr, "mfa_grep: %s:%zu: %s\n", cfg.rules_file.c_str(), e.line,
                     e.message.c_str());
      for (auto input : rules::to_pattern_inputs(loaded.rules))
        inputs.push_back(std::move(input));
    }
    if (inputs.empty()) {
      std::fprintf(stderr, "mfa_grep: no patterns given\n");
      return usage();
    }
    mfa = core::build_mfa(inputs);
    if (!mfa) {
      std::fprintf(stderr, "mfa_grep: construction failed (state cap exceeded)\n");
      return 2;
    }
    if (!cfg.save_path.empty() && !mfa->save(cfg.save_path))
      std::fprintf(stderr, "mfa_grep: warning: could not save to %s\n",
                   cfg.save_path.c_str());
  }

  std::uint64_t total = 0;
  const auto scan_one = [&](const std::string& name, const std::string& data) {
    const MatchVec matches = Scanner(*mfa).scan(data);
    const std::uint64_t here = matches.size();
    total += here;
    if (cfg.quiet) return;
    if (cfg.count_only) {
      std::printf("%s: %llu\n", name.c_str(), static_cast<unsigned long long>(here));
      return;
    }
    for (const Match& m : matches)
      std::printf("%s: pattern %u at offset %llu\n", name.c_str(), m.id,
                  static_cast<unsigned long long>(m.end));
  };

  if (cfg.files.empty()) {
    std::string data;
    read_stream(std::cin, data);
    scan_one("(stdin)", data);
  } else {
    for (const auto& path : cfg.files) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "mfa_grep: cannot open %s\n", path.c_str());
        continue;
      }
      std::string data;
      read_stream(in, data);
      scan_one(path, data);
    }
  }
  return total > 0 ? 0 : 1;
}
