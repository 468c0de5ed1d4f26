// Hot-reload cost: cycles-per-byte windows around a live ruleset swap
// (DESIGN.md Sec. 10). A ShardedInspector keeps scanning one trace while a
// reload::HotSwapper rebuilds the ruleset on a background thread and
// publishes it via swap_ruleset(); the bench measures whether traffic on
// the packet path pays for the swap.
//
// Three window kinds, each submitting (and fully draining) the same trace:
//   pre-swap     steady state on the constructor engine (generation 0)
//   during-swap  swap_async() in flight while the window's packets scan
//   post-swap    the new generation adopted by every shard
// `--cycles N` repeats the during/post pair N times, alternating the C8
// and C10 rulesets so every swap really recompiles. Windows drain through
// a live-telemetry barrier (batch_size 1, processed == submitted) so CpB
// covers scan work, not just producer hand-off; compare windows against
// each other, not against bench_pipeline's batched numbers.
//
// --smoke shrinks the run for per-push CI; --json FILE writes the
// mfa.bench.v1 schema with one row per window plus a final telemetry
// snapshot (ruleset_generation, swap count, prepare-latency histogram).
#include "bench_common.h"

#include "pipeline/reload.h"

int main(int argc, char** argv) {
  using namespace mfa;
  const bench::Args args = bench::Args::parse(argc, argv);
  const int swap_cycles = args.smoke ? 1 : 3;
  const std::size_t shards = 2;

  const patterns::PatternSet base_set = patterns::set_by_name("C8");
  const patterns::PatternSet alt_set = patterns::set_by_name("C10");
  auto engine = core::build_mfa(base_set.patterns);
  if (!engine) {
    std::fprintf(stderr, "C8: MFA construction failed\n");
    return 1;
  }
  // Attack content from BOTH rulesets, interleaved because the generator
  // splices exemplars round-robin from the front of the list — matches stay
  // observable on whichever generation a window's flows adopt.
  const auto base_ex = eval::attack_exemplars(base_set, 2, 909);
  const auto alt_ex = eval::attack_exemplars(alt_set, 2, 909);
  std::vector<std::string> exemplars;
  for (std::size_t i = 0; i < std::max(base_ex.size(), alt_ex.size()); ++i) {
    if (i < base_ex.size()) exemplars.push_back(base_ex[i]);
    if (i < alt_ex.size()) exemplars.push_back(alt_ex[i]);
  }
  const trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefense,
                                               args.trace_bytes, 909, exemplars);
  std::printf("trace %.2f MB, %zu packets, %zu shards, %d swap cycle(s)\n\n",
              static_cast<double>(t.payload_bytes()) / (1024 * 1024),
              t.packet_count(), shards, swap_cycles);

  obs::MetricsRegistry metrics(
      {.shards = shards, .match_id_capacity = 4096, .trace_capacity = 1024});
  pipeline::Options opt;
  opt.shards = shards;
  opt.batch_size = 1;  // live processed-counter barrier between windows
  opt.metrics = &metrics;
  opt.swap_policy = flow::SwapPolicy::kDrainOld;
  pipeline::ShardedInspector<core::Mfa> pipe(*engine, opt);
  pipeline::reload::RulesetRegistry<core::Mfa> registry;
  pipeline::reload::HotSwapper<core::Mfa> swapper(registry, pipe, &metrics);

  // Each swap recompiles a pattern set from source on the swapper's thread —
  // the "rules changed under a live sensor" cost, kept off the packet path.
  const auto rebuild = [](const patterns::PatternSet& set)
      -> pipeline::reload::SourceResult<core::Mfa> {
    auto built = core::build_mfa(set.patterns);
    if (!built) return {std::nullopt, set.name + ": MFA construction failed"};
    return {std::move(built), ""};
  };

  obs::BenchReport report("reload");
  util::TextTable table({"window", "CpB", "matches", "swap in flight at end"});
  std::uint64_t drained = 0, prev_matches = 0;
  const auto processed = [&] {
    std::uint64_t n = 0;
    for (const auto& s : metrics.snapshot().shards) n += s.packets;
    return n;
  };
  // Submit the whole trace and wait until every packet of it is scanned, so
  // each window's cycle count covers the same bytes end to end. The flow
  // keys are remapped per window (fresh src_ip space): replaying identical
  // keys+seqs would read as pure retransmission and scan nothing, and fresh
  // flows are what pick up the newly adopted generation under kDrainOld.
  std::uint32_t window_index = 0;
  const auto run_window = [&](const std::string& label) {
    const std::uint32_t ip_shift = (window_index++) << 16;
    const std::uint64_t start = util::rdtsc_now();
    t.for_each_packet([&](const flow::Packet& p) {
      flow::Packet remapped = p;
      remapped.key.src_ip += ip_shift;
      pipe.submit(remapped);
    });
    drained += t.packet_count();
    while (processed() < drained) std::this_thread::yield();
    const std::uint64_t cycles = util::rdtsc_now() - start;
    const double cpb = static_cast<double>(cycles) /
                       static_cast<double>(t.payload_bytes());
    const std::uint64_t matches = metrics.snapshot().totals().matches;
    const std::uint64_t window_matches = matches - prev_matches;
    prev_matches = matches;
    table.add_row({label, util::format_double(cpb, 1),
                   std::to_string(window_matches),
                   swapper.busy() ? "yes" : "no"});
    report.add(base_set.name, label, core::Mfa::kEngineName, cpb, window_matches,
               shards);
  };

  pipe.start();
  run_window("pre-swap");
  for (int cycle = 0; cycle < swap_cycles; ++cycle) {
    const patterns::PatternSet& next = (cycle % 2 == 0) ? alt_set : base_set;
    if (!swapper.swap_async([&rebuild, &next] { return rebuild(next); },
                            "rebuild " + next.name))
      std::fprintf(stderr, "swap %d refused: previous swap still in flight\n", cycle);
    run_window("during-swap");
    swapper.join();
    const auto swap_report = swapper.last_report();
    if (!swap_report || !*swap_report) {
      std::fprintf(stderr, "swap %d failed: %s\n", cycle,
                   swap_report ? swap_report->error.c_str() : "no report");
      pipe.finish();
      return 1;
    }
    while (pipe.adopted_generation() < swap_report->generation)
      std::this_thread::yield();
    run_window("post-swap");
    std::printf("swap %d: generation %llu (%s) prepared in %.3fs\n", cycle,
                static_cast<unsigned long long>(swap_report->generation),
                swap_report->origin.c_str(), swap_report->prepare_seconds);
  }
  pipe.finish();
  std::printf("\n");
  bench::print_table(table, args.csv);

  const auto totals = pipe.totals();
  std::printf("accounting: submitted %llu == scanned %llu + shed %llu\n",
              static_cast<unsigned long long>(totals.submitted),
              static_cast<unsigned long long>(totals.scanned),
              static_cast<unsigned long long>(totals.shed_total()));
  std::printf("matches by generation:");
  for (const auto& [gen, n] : pipe.matches_by_generation())
    std::printf(" g%llu=%llu", static_cast<unsigned long long>(gen),
                static_cast<unsigned long long>(n));
  std::printf("\nReading: during-swap CpB should track pre-swap CpB — the\n"
              "compile runs on the swapper's thread, so scanning never waits\n"
              "on it. post-swap shows the new generation's cost (C10 is a\n"
              "larger set than C8). kDrainOld keeps pre-swap flows on their\n"
              "original generation, hence matches land in every generation\n"
              "that was live while their flow existed.\n");
  if (!args.json_path.empty()) report.set_telemetry(metrics.snapshot());
  bench::write_report(args, report);
  return 0;
}
