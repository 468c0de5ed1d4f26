// Ruleset scale: Snort-class rule counts (1k/5k/10k) through the full
// pipeline — parse, split, compile, scan — comparing the dense piece-DFA
// MFA against the delta-compressed (D2FA) MFA, with the classic engines
// alongside at the smallest rung for shape context (the full-DFA column
// reproduces the paper's B217p "unconstructable at scale" outcome).
//
// Reported per rung: engine states, memory image, bytes/state, compile
// seconds, and cycles/byte over a synthetic real-life trace seeded with
// exemplars sampled from the ruleset itself. Also: split coverage (what
// fraction of rules the decomposition touched), compile seconds per phase
// (split, NFA, subset, minimise, prefilter proof, D2FA) for the dense and
// the delta build, and the delta table's chain statistics, including the
// share of trace bytes stepped from a root (the D2FA's one-load path).
//
// CI gates (exit non-zero): --assert-delta-ratio (delta table must be R×
// smaller than the dense table), --assert-delta-cpb-pct (delta CpB within
// P% of dense), and --assert-compile-seconds (largest-rung budget for the
// dense and the delta compile alike).
#include "bench_common.h"

#include <unordered_map>

#include "dfa/d2fa.h"
#include "rules/rules.h"
#include "rules/ruleset_gen.h"

namespace {

std::string fmt(double v, const char* spec = "%.3g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

std::string bytes_per_state(std::size_t bytes, std::uint32_t states) {
  if (states == 0) return "-";
  return fmt(static_cast<double>(bytes) / static_cast<double>(states), "%.1f");
}

void print_phases(const char* label, const mfa::core::BuildStats& st) {
  const auto& p = st.phases;
  std::printf("  phases (%s): split %.3fs, nfa %.3fs, subset %.3fs, minimise %.3fs, "
              "prefilter %.3fs, d2fa %.3fs; sum %.3fs of %.3fs\n",
              label, p.split, p.nfa, p.subset, p.minimize, p.prefilter, p.d2fa, p.sum(),
              st.seconds);
}

/// Percentage of `tr`'s payload bytes that `d2` steps from a forest root:
/// an untimed walk of each flow's packets in capture order from the start
/// state, one raw-id step per byte.
double root_byte_pct(const mfa::dfa::D2fa& d2, const mfa::trace::Trace& tr) {
  std::unordered_map<mfa::flow::FlowKey, std::uint32_t, mfa::flow::FlowKeyHash> states;
  std::uint64_t from_root = 0;
  tr.for_each_packet([&](const mfa::flow::Packet& p) {
    std::uint32_t& s = states.try_emplace(p.key, d2.start()).first->second;
    for (std::uint32_t i = 0; i < p.length; ++i) {
      from_root += d2.is_root(s);
      s = d2.next(s, p.payload[i]);
    }
  });
  return tr.payload_bytes() > 0
             ? 100.0 * static_cast<double>(from_root) / static_cast<double>(tr.payload_bytes())
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;
  const bench::Args args = bench::Args::parse(argc, argv);

  std::vector<std::size_t> ladder;
  if (args.rules > 0) ladder = {args.rules};
  else if (args.smoke) ladder = {300, 1000};
  else ladder = {1000, 5000, 10000};

  obs::BenchReport report("ruleset");
  bool gates_ok = true;

  std::printf("Ruleset scale: dense vs delta-compressed MFA (open-dialect fixture)\n\n");

  for (std::size_t rung = 0; rung < ladder.size(); ++rung) {
    const std::size_t nrules = ladder[rung];
    const std::string rung_name = "ruleset-" + std::to_string(nrules);
    std::fprintf(stderr, "[ruleset] generating + parsing %zu rules ...\n", nrules);

    const std::string text =
        rules::generate_ruleset(rules::RulesetGenOptions{nrules, 42});
    const rules::LoadResult loaded = rules::parse_rules(text);
    if (!loaded.ok() || loaded.rules.size() != nrules) {
      std::fprintf(stderr, "fixture must parse cleanly: %zu/%zu rules, %zu errors\n",
                   loaded.rules.size(), nrules, loaded.errors.size());
      for (std::size_t e = 0; e < loaded.errors.size() && e < 5; ++e)
        std::fprintf(stderr, "  line %zu: %s\n", loaded.errors[e].line,
                     loaded.errors[e].message.c_str());
      return 2;
    }

    patterns::PatternSet set;
    set.name = rung_name;
    set.description = "generated open-dialect fixture";
    for (const auto& rule : loaded.rules) set.sources.push_back(rule.pattern);
    set.patterns = rules::to_pattern_inputs(loaded.rules);

    // Classic engines are only tractable at the smallest rung; the full-DFA
    // cell going to "-" as rule count grows is the paper's scale story.
    eval::SuiteOptions sopt = bench::suite_options(args);
    sopt.build_dfa = rung == 0;
    sopt.build_hfa = rung == 0;
    sopt.build_xfa = rung == 0;
    // The full-DFA attempt exists to show the "-" outcome; in smoke mode
    // don't burn minutes exploring a quarter-million doomed subsets.
    if (args.smoke)
      sopt.dfa_max_states = std::min<std::uint32_t>(sopt.dfa_max_states, 10000);
    std::fprintf(stderr, "[ruleset] building engines for %zu rules ...\n", nrules);
    const eval::Suite suite = eval::build_suite(set, sopt);
    if (!suite.mfa) {
      std::fprintf(stderr, "MFA build failed at %zu rules\n", nrules);
      return 2;
    }

    // Delta mode: compress the piece DFA, drop the dense table.
    core::BuildOptions del;
    del.dfa.max_states = args.dfa_cap;
    del.delta = true;
    core::BuildStats del_stats;
    const auto delta_mfa = core::build_mfa(set.patterns, del, &del_stats);
    if (!delta_mfa || !delta_mfa->delta_mode()) {
      std::fprintf(stderr, "delta MFA build failed at %zu rules\n", nrules);
      return 2;
    }
    const dfa::D2fa& d2 = *delta_mfa->delta_table();

    const std::size_t dense_table_bytes =
        suite.mfa->character_dfa().memory_image_bytes(false);
    const std::size_t delta_table_bytes = d2.memory_image_bytes();
    const std::uint32_t piece_states = suite.mfa->character_dfa().state_count();

    // Throughput over a real-life trace carrying exemplars sampled from the
    // ruleset. NFA/HFA/XFA scanning is intractable at these pattern counts;
    // CpB is measured where a deployment would actually scan.
    std::fprintf(stderr, "[ruleset] measuring throughput ...\n");
    const auto exemplars = eval::attack_exemplars(set, 1, 7000 + nrules);
    const trace::Trace tr = trace::make_real_life(trace::RealLifeProfile::kDarpa,
                                                  args.trace_bytes, 201, exemplars);
    const eval::Throughput dense_tp =
        eval::measure_throughput(*suite.mfa, tr, args.reps);
    const eval::Throughput delta_tp =
        eval::measure_throughput(*delta_mfa, tr, args.reps);

    const double table_ratio =
        delta_table_bytes > 0
            ? static_cast<double>(dense_table_bytes) / static_cast<double>(delta_table_bytes)
            : 0.0;
    const auto& split = suite.mfa_stats.split;
    const double coverage =
        split.patterns_in > 0
            ? 100.0 * split.patterns_decomposed / split.patterns_in
            : 0.0;

    // Quiet accepts: accepting states a flow with no live filter bit walks
    // through without running the filter (DESIGN.md §6 #11).
    const auto quiet_cell = [](const core::BuildStats& st, const core::Mfa& m) {
      return std::to_string(st.quiet_accept_states) + "/" +
             std::to_string(m.character_dfa().accepting_state_count());
    };
    util::TextTable table(
        {"Engine", "States", "Bytes", "B/state", "Compile s", "CpB", "Quiet accepts"});
    table.add_row({"dfa",
                   bench::cell_or_dash(suite.dfa_build.ok, std::to_string(suite.dfa_build.states)),
                   bench::cell_or_dash(suite.dfa_build.ok, std::to_string(suite.dfa_build.image_bytes)),
                   bench::cell_or_dash(suite.dfa_build.ok,
                                       bytes_per_state(suite.dfa_build.image_bytes, suite.dfa_build.states)),
                   bench::cell_or_dash(rung == 0, fmt(suite.dfa_build.seconds)),
                   "-", "-"});
    table.add_row({"nfa", std::to_string(suite.nfa_build.states),
                   std::to_string(suite.nfa_build.image_bytes),
                   bytes_per_state(suite.nfa_build.image_bytes, suite.nfa_build.states),
                   fmt(suite.nfa_build.seconds), "-", "-"});
    table.add_row({"hfa",
                   bench::cell_or_dash(suite.hfa_build.ok, std::to_string(suite.hfa_build.states)),
                   bench::cell_or_dash(suite.hfa_build.ok, std::to_string(suite.hfa_build.image_bytes)),
                   bench::cell_or_dash(suite.hfa_build.ok,
                                       bytes_per_state(suite.hfa_build.image_bytes, suite.hfa_build.states)),
                   bench::cell_or_dash(rung == 0, fmt(suite.hfa_build.seconds)), "-", "-"});
    table.add_row({"xfa",
                   bench::cell_or_dash(suite.xfa_build.ok, std::to_string(suite.xfa_build.states)),
                   bench::cell_or_dash(suite.xfa_build.ok, std::to_string(suite.xfa_build.image_bytes)),
                   bench::cell_or_dash(suite.xfa_build.ok,
                                       bytes_per_state(suite.xfa_build.image_bytes, suite.xfa_build.states)),
                   bench::cell_or_dash(rung == 0, fmt(suite.xfa_build.seconds)), "-", "-"});
    table.add_row({"mfa", std::to_string(piece_states),
                   std::to_string(dense_table_bytes),
                   bytes_per_state(dense_table_bytes, piece_states),
                   fmt(suite.mfa_stats.seconds), fmt(dense_tp.cycles_per_byte),
                   quiet_cell(suite.mfa_stats, *suite.mfa)});
    table.add_row({"mfa-delta", std::to_string(d2.state_count()),
                   std::to_string(delta_table_bytes),
                   bytes_per_state(delta_table_bytes, d2.state_count()),
                   fmt(del_stats.seconds), fmt(delta_tp.cycles_per_byte),
                   quiet_cell(del_stats, *delta_mfa)});

    std::printf("%zu rules (%u of %u decomposed, split coverage %.1f%%):\n",
                nrules, split.patterns_decomposed, split.patterns_in, coverage);
    bench::print_table(table, args.csv);
    std::printf("  delta: table %.2fx smaller than dense (%zu -> %zu bytes), "
                "%u roots, max chain %u, avg chain %.2f, %llu exceptions, "
                "%.2f%% of trace bytes stepped from a root\n",
                table_ratio, dense_table_bytes, delta_table_bytes,
                del_stats.d2fa.roots, del_stats.d2fa.max_chain,
                del_stats.d2fa.avg_chain,
                static_cast<unsigned long long>(del_stats.d2fa.exception_entries),
                root_byte_pct(d2, tr));
    print_phases("dense", suite.mfa_stats);
    print_phases("delta", del_stats);
    std::printf("  matches dense=%llu delta=%llu\n\n",
                static_cast<unsigned long long>(dense_tp.matches),
                static_cast<unsigned long long>(delta_tp.matches));

    // mfa.bench.v1 rows. The "memory" trace rows carry bytes/state in the
    // cycles_per_byte field so bench_compare's CpB tolerance gates table
    // growth too (sizes are deterministic, so the gate is tight in practice).
    report.add(rung_name, "darpa", "mfa", dense_tp.cycles_per_byte, dense_tp.matches);
    report.add(rung_name, "darpa", "mfa-delta", delta_tp.cycles_per_byte,
               delta_tp.matches);
    report.add(rung_name, "memory", "mfa",
               static_cast<double>(dense_table_bytes) / piece_states, piece_states);
    report.add(rung_name, "memory", "mfa-delta",
               static_cast<double>(delta_table_bytes) / piece_states, piece_states);

    if (dense_tp.matches != delta_tp.matches) {
      std::fprintf(stderr, "FAIL: delta matches (%llu) != dense matches (%llu)\n",
                   static_cast<unsigned long long>(delta_tp.matches),
                   static_cast<unsigned long long>(dense_tp.matches));
      gates_ok = false;
    }

    const bool largest = rung + 1 == ladder.size();
    if (largest && args.assert_delta_ratio > 0 && table_ratio < args.assert_delta_ratio) {
      std::fprintf(stderr, "FAIL: delta table only %.2fx smaller than dense "
                   "(gate: %.2fx)\n", table_ratio, args.assert_delta_ratio);
      gates_ok = false;
    }
    if (args.assert_delta_cpb_pct >= 0 &&
        delta_tp.cycles_per_byte >
            dense_tp.cycles_per_byte * (1.0 + args.assert_delta_cpb_pct / 100.0)) {
      std::fprintf(stderr, "FAIL: delta CpB %.3f exceeds dense %.3f by more than %.0f%%\n",
                   delta_tp.cycles_per_byte, dense_tp.cycles_per_byte,
                   args.assert_delta_cpb_pct);
      gates_ok = false;
    }
    if (largest && args.assert_compile_seconds > 0) {
      const std::pair<const char*, const core::BuildStats*> compiles[] = {
          {"dense", &suite.mfa_stats}, {"delta", &del_stats}};
      for (const auto& [label, st] : compiles) {
        if (st->seconds <= args.assert_compile_seconds) continue;
        std::fprintf(stderr, "FAIL: %s compile took %.3gs, budget %.3gs\n", label,
                     st->seconds, args.assert_compile_seconds);
        gates_ok = false;
      }
    }
  }

  bench::write_report(args, report);
  return gates_ok ? 0 : 1;
}
