// K-way interleaved scan sweep (ROADMAP: batch the hot path).
//
// The per-byte DFA step is a dependent-load chain: each transition load
// must retire before the next can issue, so a single flow leaves the
// memory system idle most of the time. feed_many advances K independent
// flow contexts in lockstep, giving the core K independent transition
// loads per iteration to overlap (memory-level parallelism). This bench
// sweeps K in {1, 2, 4, 8, 16} for the table-driven engines (MFA, dense
// DFA) over a multiplexed many-flow trace, delivered through the flow
// inspector's packet_batch in 64-packet bursts — the same path the
// sharded pipeline's workers use. K=1 degenerates to the sequential feed
// loop and is the baseline; the single-packet packet() path is also shown
// for reference. A last MFA-only sweep runs S31p over the C112-like noisy
// trace ("multiplexed-noisy" rows), where about a third of all bytes enter
// an accepting state: it guards the batched path's accept handling, which
// the clean CDX-like traffic above barely exercises.
//
// --smoke shrinks the run for per-push CI; --json FILE writes the
// mfa.bench.v1 schema with K recorded in the row's `shards` field
// (engine rows are distinguished by name; shards=0 is the single-packet
// reference row).
#include "bench_common.h"

namespace {

template <typename EngineT>
void sweep_engine(const char* engine_name, const EngineT& engine,
                  const mfa::trace::Trace& t, const mfa::bench::Args& args,
                  mfa::obs::BenchReport& report, mfa::util::TextTable& table,
                  const std::string& set_name, const char* trace_name = "multiplexed") {
  using namespace mfa;
  const eval::Throughput single = eval::measure_throughput(engine, t, args.reps);
  report.add(set_name, trace_name, engine_name, single.cycles_per_byte,
             single.matches, /*shards=*/0);
  double k1_cpb = 0.0;
  for (const std::size_t lanes : {1u, 2u, 4u, 8u, 16u}) {
    const eval::Throughput tp =
        eval::measure_throughput(engine, t, args.reps, {.burst = 64, .lanes = lanes});
    if (lanes == 1) k1_cpb = tp.cycles_per_byte;
    table.add_row({set_name, engine_name, std::to_string(lanes),
                   util::format_double(tp.cycles_per_byte, 1),
                   util::format_double(
                       tp.cycles_per_byte > 0 ? k1_cpb / tp.cycles_per_byte : 0.0, 2),
                   std::to_string(tp.matches),
                   util::format_double(single.cycles_per_byte, 1)});
    report.add(set_name, trace_name, engine_name, tp.cycles_per_byte, tp.matches,
               /*shards=*/lanes);
    if (tp.matches != single.matches)
      std::fprintf(stderr, "WARNING: %s K=%zu matches %llu != single-packet %llu\n",
                   engine_name, lanes, static_cast<unsigned long long>(tp.matches),
                   static_cast<unsigned long long>(single.matches));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;
  const bench::Args args = bench::Args::parse(argc, argv);

  obs::BenchReport report("batch");
  std::vector<const char*> set_names = {"C8", "S24"};
  if (args.smoke) set_names = {"C8"};

  util::TextTable table(
      {"Set", "engine", "K", "CpB", "speedup vs K=1", "matches", "single-pkt CpB"});
  for (const char* set_name : set_names) {
    const patterns::PatternSet set = patterns::set_by_name(set_name);
    const auto exemplars = eval::attack_exemplars(set, 2, 707);
    // Many concurrent flows (the real-life profiles multiplex hundreds) so
    // every burst carries enough distinct flows to fill the lanes.
    trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefense,
                                           args.trace_bytes, 707, exemplars);
    // --flows N: replicate with re-keyed flows to pressure the flow tables.
    if (args.flows != 0) t = bench::with_flow_count(t, args.flows);
    std::printf("=== %s: %zu patterns, trace %.2f MB ===\n", set.name.c_str(),
                set.patterns.size(),
                static_cast<double>(t.payload_bytes()) / (1024 * 1024));

    auto m = core::build_mfa(set.patterns);
    if (!m) {
      std::fprintf(stderr, "%s: MFA construction failed\n", set_name);
      continue;
    }
    sweep_engine(core::Mfa::kEngineName, *m, t, args, report, table, set.name);

    const nfa::Nfa n = nfa::build_nfa(set.patterns);
    dfa::BuildOptions d_opts;
    d_opts.max_states = args.dfa_cap;
    if (const auto d = dfa::build_dfa(n, d_opts)) {
      sweep_engine(dfa::Dfa::kEngineName, *d, t, args, report, table, set.name);
    } else {
      std::printf("%s: DFA baseline exceeded %u states, skipping dense rows\n",
                  set_name, d_opts.max_states);
    }
  }
  {
    const patterns::PatternSet set = patterns::set_by_name("S31p");
    const auto exemplars = eval::attack_exemplars(set, 2, 709);
    trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefenseNoisy,
                                           args.trace_bytes, 709, exemplars);
    if (args.flows != 0) t = bench::with_flow_count(t, args.flows);
    std::printf("=== %s (noisy): %zu patterns, trace %.2f MB ===\n", set.name.c_str(),
                set.patterns.size(),
                static_cast<double>(t.payload_bytes()) / (1024 * 1024));
    if (const auto m = core::build_mfa(set.patterns))
      sweep_engine(core::Mfa::kEngineName, *m, t, args, report, table, set.name,
                   "multiplexed-noisy");
    else
      std::fprintf(stderr, "S31p: MFA construction failed\n");
  }
  bench::print_table(table, args.csv);
  std::printf("Reading: K=1 is the sequential feed loop; the climb to K=8 is\n"
              "pure memory-level parallelism (same instructions, overlapped\n"
              "transition loads). Gains flatten once lanes exceed the load\n"
              "buffer / MSHR budget or the table fits in L1. Matches must be\n"
              "identical down the column — batching is a schedule, not a\n"
              "semantic change.\n");
  bench::write_report(args, report);
  return 0;
}
