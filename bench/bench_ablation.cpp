// Ablation bench: what each decomposition family contributes (DESIGN.md
// Sec. 6), plus the MFA-vs-table-compression comparison. For each set and
// each splitter variant, print the piece-DFA size, filter geometry, image
// size, and scan throughput on a fixed trace; the final block compares the
// dense and default-transition (D2FA) DFA storage layouts.
#include "bench_common.h"
#include "dfa/d2fa.h"

int main(int argc, char** argv) {
  using namespace mfa;
  const bench::Args args = bench::Args::parse(argc, argv);

  struct Variant {
    const char* name;
    split::Options split;
    bool minimize = false;
  };
  std::vector<Variant> variants;
  variants.push_back({"full", {}, false});
  variants.push_back({"full+minimize", {}, true});
  {
    Variant v{"no-dot-star", {}, false};
    v.split.enable_dot_star = false;
    variants.push_back(v);
  }
  {
    Variant v{"no-almost-dot-star", {}, false};
    v.split.enable_almost_dot_star = false;
    variants.push_back(v);
  }
  {
    Variant v{"no-gap", {}, false};
    v.split.enable_gap = false;
    variants.push_back(v);
  }
  {
    Variant v{"no-decomposition", {}, false};
    v.split.enable_dot_star = false;
    v.split.enable_almost_dot_star = false;
    v.split.enable_gap = false;
    variants.push_back(v);
  }

  for (const char* set_name : {"C8", "C10", "S24"}) {
    const patterns::PatternSet set = patterns::set_by_name(set_name);
    const auto exemplars = eval::attack_exemplars(set, 2, 999);
    const trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefense,
                                                 args.trace_bytes, 999, exemplars);
    std::printf("=== %s: splitter ablations ===\n", set_name);
    util::TextTable table({"Variant", "pieces", "bits", "DFA Qs", "image MB", "CpB",
                           "matches"});
    for (const auto& variant : variants) {
      core::BuildOptions opts;
      opts.split = variant.split;
      opts.dfa.minimize = variant.minimize;
      opts.dfa.max_states = args.dfa_cap;
      core::BuildStats stats;
      auto m = core::build_mfa(set.patterns, opts, &stats);
      if (!m) {
        table.add_row({variant.name, "-", "-", "-", "-", "-", "-"});
        continue;
      }
      const auto tp = eval::measure_throughput(*m, t, args.reps);
      table.add_row({variant.name, std::to_string(m->pieces().size()),
                     std::to_string(m->program().memory_bits),
                     std::to_string(m->character_dfa().state_count()),
                     util::format_bytes_mb(m->memory_image_bytes(), 3),
                     util::format_double(tp.cycles_per_byte, 1),
                     std::to_string(tp.matches)});
    }
    bench::print_table(table, args.csv);
  }

  // Storage-layout comparison on the plain DFA baseline: dense vs
  // default-transition compressed (D2FA, the Sec. II related-work
  // direction; the same table core::BuildOptions::delta builds for MFA).
  std::printf("=== DFA storage layouts (baseline automaton) ===\n");
  util::TextTable table({"Set", "dense MB", "d2fa MB", "ratio", "dense CpB",
                         "d2fa CpB"});
  for (const char* set_name : {"C8", "C10", "S24"}) {
    const patterns::PatternSet set = patterns::set_by_name(set_name);
    const nfa::Nfa n = nfa::build_nfa(set.patterns);
    dfa::BuildOptions d_opts;
    d_opts.max_states = args.dfa_cap;
    auto d = dfa::build_dfa(n, d_opts);
    if (!d) {
      table.add_row({set_name, "-", "-", "-", "-", "-"});
      continue;
    }
    const dfa::D2fa d2fa(*d);
    const auto exemplars = eval::attack_exemplars(set, 2, 999);
    const trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefense,
                                                 args.trace_bytes, 999, exemplars);
    const auto dense_tp = eval::measure_throughput(*d, t, args.reps);
    const auto d2fa_tp = eval::measure_throughput(d2fa, t, args.reps);
    table.add_row({set_name, util::format_bytes_mb(d->memory_image_bytes(false), 2),
                   util::format_bytes_mb(d2fa.memory_image_bytes(), 2),
                   util::format_double(d2fa.compression_vs_dense(*d), 3),
                   util::format_double(dense_tp.cycles_per_byte, 1),
                   util::format_double(d2fa_tp.cycles_per_byte, 1)});
  }
  bench::print_table(table, args.csv);
  std::printf("Reading: decomposition families remove DFA states (rows 1 vs 6);\n"
              "default-transition compression removes transitions but pays\n"
              "per-byte chain walks — the opposite tradeoff to MFA.\n");
  return 0;
}
