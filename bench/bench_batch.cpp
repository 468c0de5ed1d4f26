// Burst delivery vs single-packet delivery through the flow inspector.
//
// The sharded pipeline's workers hand the inspector bursts through
// packet_batch, which takes the packets in burst order, each on its own
// flow's sequential walk — exactly what one packet() call per packet
// does. This bench runs the table-driven engines (MFA, dense DFA) over a
// multiplexed many-flow trace both ways: one packet() call per packet,
// and 64-packet packet_batch bursts. The two rows must report identical
// matches; their CpB difference is the per-call overhead a burst saves.
// A last MFA-only pair runs S31p over the C112-like noisy trace
// ("multiplexed-noisy" rows), where about a third of all bytes enter an
// accepting state: it guards the burst path's accept handling, which the
// clean CDX-like traffic above barely exercises.
//
// --smoke shrinks the run for per-push CI; --json FILE writes the
// mfa.bench.v1 schema with the delivery form in the row's `shards` field
// (engine rows are distinguished by name; shards=0 is the single-packet
// row, shards=1 the 64-packet burst row).
#include "bench_common.h"

namespace {

template <typename EngineT>
void run_engine(const char* engine_name, const EngineT& engine,
                const mfa::trace::Trace& t, const mfa::bench::Args& args,
                mfa::obs::BenchReport& report, mfa::util::TextTable& table,
                const std::string& set_name, const char* trace_name = "multiplexed") {
  using namespace mfa;
  constexpr std::size_t kBurst = 64;
  const eval::Throughput single = eval::measure_throughput(engine, t, args.reps);
  const eval::Throughput burst = eval::measure_throughput(engine, t, args.reps, kBurst);
  report.add(set_name, trace_name, engine_name, single.cycles_per_byte,
             single.matches, /*shards=*/0);
  report.add(set_name, trace_name, engine_name, burst.cycles_per_byte, burst.matches,
             /*shards=*/1);
  table.add_row({set_name, engine_name, util::format_double(single.cycles_per_byte, 1),
                 util::format_double(burst.cycles_per_byte, 1),
                 std::to_string(single.matches), std::to_string(burst.matches)});
  if (burst.matches != single.matches)
    std::fprintf(stderr, "WARNING: %s burst matches %llu != single-packet %llu\n",
                 engine_name, static_cast<unsigned long long>(burst.matches),
                 static_cast<unsigned long long>(single.matches));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;
  const bench::Args args = bench::Args::parse(argc, argv);

  obs::BenchReport report("batch");
  std::vector<const char*> set_names = {"C8", "S24"};
  if (args.smoke) set_names = {"C8"};

  util::TextTable table({"Set", "engine", "single-pkt CpB", "burst-64 CpB",
                         "single-pkt matches", "burst matches"});
  for (const char* set_name : set_names) {
    const patterns::PatternSet set = patterns::set_by_name(set_name);
    const auto exemplars = eval::attack_exemplars(set, 2, 707);
    // Many concurrent flows (the real-life profiles multiplex hundreds), so
    // a burst mixes many flows.
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
    run_engine(core::Mfa::kEngineName, *m, t, args, report, table, set.name);

    const nfa::Nfa n = nfa::build_nfa(set.patterns);
    dfa::BuildOptions d_opts;
    d_opts.max_states = args.dfa_cap;
    if (const auto d = dfa::build_dfa(n, d_opts)) {
      run_engine(dfa::Dfa::kEngineName, *d, t, args, report, table, set.name);
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
      run_engine(core::Mfa::kEngineName, *m, t, args, report, table, set.name,
                 "multiplexed-noisy");
    else
      std::fprintf(stderr, "S31p: MFA construction failed\n");
  }
  bench::print_table(table, args.csv);
  std::printf("Reading: a burst is its packets in order, so the match\n"
              "columns must be equal; the CpB gap is per-call overhead.\n");
  bench::write_report(args, report);
  return 0;
}
