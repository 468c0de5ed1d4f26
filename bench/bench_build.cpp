// Build side of the paper's evaluation, from one engine suite per rule set:
//  - Table V: RegEx set properties — pattern count, NFA states, DFA states,
//    MFA (character-DFA) states. Our sets are structural analogs, so ratios
//    (DFA >> MFA for C sets, DFA unconstructable for B217p) are the
//    reproduction target, not the absolute counts.
//  - Fig. 2: memory image sizes (MB) for NFA / DFA / HFA / MFA. Paper shapes:
//    NFA smallest; MFA near-NFA scale (~30x below HFA on average); DFA
//    dominated by the dense 256-wide table (C7p ~ 250 MB).
//  - Fig. 3: automaton construction times (seconds) for DFA / HFA / NFA /
//    MFA. Paper shapes: NFA fastest; MFA orders of magnitude faster than
//    plain DFA (seconds, not minutes); DFA fails outright on B217p.
// The paper's values are printed alongside where it gives concrete numbers.
#include "bench_common.h"

namespace {

struct PaperRow {
  const char* name;
  const char* regexes;
  const char* nfa_states;
  const char* dfa_states;
  const char* mfa_states;
  const char* nfa_mb;
  const char* dfa_mb;
  const char* hfa_mb;
  const char* mfa_mb;
};

constexpr PaperRow kPaper[] = {
    {"B217p", "224", "2553", "-", "5332", "0.5", "-", "108", "2.6"},
    {"C7p", "11", "295", "244366", "104", "0.1", "250", "4", "0.05"},
    {"C8", "8", "99", "3786", "341", "0.1", "4", "0.8", "0.16"},
    {"C10", "10", "123", "19508", "81", "0.1", "20", "2", "0.04"},
    {"S24", "24", "702", "10257", "766", "0.2", "10", "6", "0.37"},
    {"S31p", "40", "1436", "39977", "1584", "0.4", "41", "16", "0.77"},
    {"S34", "34", "1003", "12486", "1499", "0.3", "13", "9", "0.73"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;
  const bench::Args args = bench::Args::parse(argc, argv);

  util::TextTable table5({"Set", "RegExes", "NFA Qs", "DFA Qs", "MFA Qs", "paper:NFA",
                          "paper:DFA", "paper:MFA"});
  util::TextTable fig2({"Set", "NFA", "DFA", "HFA", "MFA", "paper:NFA", "paper:DFA",
                        "paper:HFA", "paper:MFA"});
  util::TextTable fig3({"Set", "NFA", "DFA", "HFA", "MFA", "DFA/MFA speedup"});

  double hfa_over_mfa_sum = 0;
  int hfa_over_mfa_n = 0;
  const auto sets = patterns::builtin_sets();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const auto& set = sets[i];
    const PaperRow& paper = kPaper[i];
    std::fprintf(stderr, "[build] building %s ...\n", set.name.c_str());
    const eval::Suite suite = eval::build_suite(set, bench::suite_options(args));
    const eval::EngineBuild& nfa_b = suite.nfa_build;
    const eval::EngineBuild& dfa_b = suite.dfa_build;
    const eval::EngineBuild& hfa_b = suite.hfa_build;
    const eval::EngineBuild& mfa_b = suite.mfa_build;

    table5.add_row({set.name, std::to_string(set.patterns.size()),
                    std::to_string(nfa_b.states),
                    bench::cell_or_dash(dfa_b.ok, std::to_string(dfa_b.states)),
                    bench::cell_or_dash(mfa_b.ok, std::to_string(mfa_b.states)),
                    paper.nfa_states, paper.dfa_states, paper.mfa_states});

    fig2.add_row({set.name, util::format_bytes_mb(nfa_b.image_bytes, 3),
                  bench::cell_or_dash(dfa_b.ok, util::format_bytes_mb(dfa_b.image_bytes, 2)),
                  bench::cell_or_dash(hfa_b.ok, util::format_bytes_mb(hfa_b.image_bytes, 2)),
                  bench::cell_or_dash(mfa_b.ok, util::format_bytes_mb(mfa_b.image_bytes, 3)),
                  paper.nfa_mb, paper.dfa_mb, paper.hfa_mb, paper.mfa_mb});
    if (hfa_b.ok && mfa_b.ok && mfa_b.image_bytes > 0) {
      hfa_over_mfa_sum +=
          static_cast<double>(hfa_b.image_bytes) / static_cast<double>(mfa_b.image_bytes);
      ++hfa_over_mfa_n;
    }

    std::string speedup = "-";
    if (dfa_b.ok && mfa_b.ok && mfa_b.seconds > 0)
      speedup = util::format_double(dfa_b.seconds / mfa_b.seconds, 1) + "x";
    fig3.add_row({set.name, util::format_double(nfa_b.seconds, 4),
                  (dfa_b.ok ? "" : "fail@") + util::format_double(dfa_b.seconds, 3),
                  util::format_double(hfa_b.seconds, 3), util::format_double(mfa_b.seconds, 3),
                  speedup});
  }

  std::printf("Table V: RegEx set properties (measured vs paper)\n\n");
  bench::print_table(table5, args.csv);
  std::printf("Shape checks: C-set DFA/MFA ratios should span orders of magnitude;\n"
              "B217p DFA should be '-' (state cap %u exceeded).\n\n", args.dfa_cap);

  std::printf("Fig. 2: memory image sizes in MB (measured | paper)\n\n");
  bench::print_table(fig2, args.csv);
  if (hfa_over_mfa_n > 0)
    std::printf("Average HFA/MFA image ratio: %.1fx (paper reports ~30x)\n",
                hfa_over_mfa_sum / hfa_over_mfa_n);
  std::printf("\n");

  std::printf("Fig. 3: construction times in seconds (DFA '-' = cap %u exceeded;\n"
              "        time shown for failures is time-to-failure)\n\n",
              args.dfa_cap);
  bench::print_table(fig3, args.csv);
  return 0;
}
