// Observability overhead: what do latency spans + the cost profiler cost?
//
// Runs the same trace through the sharded pipeline twice with telemetry
// attached — once with spans and profiling off, once with both sampling at
// the default 1-in-64 — and reports the CpB delta. The contract (DESIGN.md
// Sec. 12) is that sampled observability stays under a few percent of the
// telemetry-only cost; --assert-overhead-pct turns that into a CI gate.
//
// Side products of the instrumented run: the span latency quantiles
// (queue-wait / scan / end-to-end), the top-K expensive-rules table, and
// --profile FILE writes the full mfa.profile.v1 JSON artifact.
#include "bench_common.h"

#include "obs/profile.h"

namespace {

struct RunResult {
  double cpb = 0.0;
  std::uint64_t matches = 0;
  /// Every rep's registry snapshot folded together, warm-up included
  /// (start() zeroes the per-run counters).
  mfa::obs::RegistrySnapshot telemetry;
};

/// Submit→finish wall CpB for one pipeline configuration, timed like
/// eval::measure_pipeline_throughput (local because this bench needs full
/// Options control, not just the metrics ptr).
RunResult run_pipeline(const mfa::core::Mfa& engine, const mfa::trace::Trace& t,
                       const mfa::pipeline::Options& opt_template, int reps) {
  RunResult r;
  r.cpb = mfa::eval::cycles_per_byte(t, reps, [&] {
    mfa::pipeline::ShardedInspector<mfa::core::Mfa> pipe(engine, opt_template);
    pipe.start();
    const std::uint64_t start = mfa::util::rdtsc_now();
    t.for_each_packet([&](const mfa::flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    const std::uint64_t elapsed = mfa::util::rdtsc_now() - start;
    r.matches = pipe.totals().matches;
    r.telemetry.add_run(opt_template.metrics->snapshot());
    return elapsed;
  });
  return r;
}

void print_span_quantiles(const char* label,
                          const mfa::obs::HistogramSnapshot& h) {
  std::printf("  %-14s count %8llu  p50 %8llu ns  p99 %8llu ns  max-bucket %llu ns\n",
              label, static_cast<unsigned long long>(h.count),
              static_cast<unsigned long long>(h.quantile(0.50)),
              static_cast<unsigned long long>(h.quantile(0.99)),
              static_cast<unsigned long long>(h.quantile(1.0)));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;

  // Bench-specific flags, filtered out before the shared parser (which
  // rejects unknown options).
  double assert_overhead_pct = 0.0;  // 0 = report only
  std::string profile_path;
  std::uint32_t shift = 6;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--assert-overhead-pct") assert_overhead_pct = std::atof(next());
    else if (a == "--profile") profile_path = next();
    else if (a == "--shift") shift = static_cast<std::uint32_t>(std::atoi(next()));
    else if (a == "--help") {
      std::printf("options: --assert-overhead-pct X  --profile FILE  --shift N"
                  "  + bench_common flags (--smoke --bytes --reps --json ...)\n");
      return 0;
    } else rest.push_back(argv[i]);
  }
  const bench::Args args =
      bench::Args::parse(static_cast<int>(rest.size()), rest.data());

  const patterns::PatternSet set = patterns::set_by_name("C8");
  auto engine = core::build_mfa(set.patterns);
  if (!engine) {
    std::fprintf(stderr, "MFA construction failed\n");
    return 1;
  }
  const auto exemplars = eval::attack_exemplars(set, 2, 808);
  trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefense,
                                         args.trace_bytes, 808, exemplars);
  if (args.flows != 0) t = bench::with_flow_count(t, args.flows);

  const std::size_t shards = 4;
  const int reps = args.smoke ? 2 : std::max(args.reps, 3);
  std::printf("=== obs overhead: %s, trace %.2f MB, %zu shards, %d reps ===\n",
              set.name.c_str(),
              static_cast<double>(t.payload_bytes()) / (1024 * 1024), shards,
              reps);

  // Telemetry-only reference: counters and histograms, no spans, no profiler.
  obs::MetricsRegistry telem_reg({.shards = shards});
  pipeline::Options telem_opt;
  telem_opt.shards = shards;
  telem_opt.metrics = &telem_reg;
  telem_opt.trace_sample_shift = 64;  // spans off
  const RunResult telem = run_pipeline(*engine, t, telem_opt, reps);

  // Full observability: spans + profiler at 1-in-2^shift.
  obs::MetricsRegistry obs_reg({.shards = shards});
  obs::Profiler profiler({.rule_capacity = set.patterns.size() + 1,  // ids 1..n
                          .state_capacity = engine->state_count(),
                          .sample_shift = shift});
  pipeline::Options obs_opt;
  obs_opt.shards = shards;
  obs_opt.metrics = &obs_reg;
  obs_opt.trace_sample_shift = shift;
  obs_opt.profiler = &profiler;
  const RunResult full = run_pipeline(*engine, t, obs_opt, reps);

  const double overhead_pct =
      telem.cpb > 0.0 ? (full.cpb - telem.cpb) / telem.cpb * 100.0 : 0.0;
  util::TextTable table({"mode", "CpB", "matches", "overhead %"});
  table.add_row({"telemetry-only", util::format_double(telem.cpb, 2),
                 std::to_string(telem.matches), "-"});
  table.add_row({"spans+profiler", util::format_double(full.cpb, 2),
                 std::to_string(full.matches),
                 util::format_double(overhead_pct, 2)});
  bench::print_table(table, args.csv);
  if (telem.matches != full.matches)
    std::fprintf(stderr, "WARNING: instrumented matches %llu != reference %llu\n",
                 static_cast<unsigned long long>(full.matches),
                 static_cast<unsigned long long>(telem.matches));

  const obs::RegistrySnapshot& snap = full.telemetry;
  std::printf("latency spans (1 in %llu packets, %llu sampled):\n",
              static_cast<unsigned long long>(std::uint64_t{1} << shift),
              static_cast<unsigned long long>(snap.totals().spans_sampled));
  print_span_quantiles("queue-wait", snap.totals().queue_wait_ns);
  print_span_quantiles("scan", snap.totals().span_scan_ns);
  print_span_quantiles("end-to-end", snap.totals().e2e_ns);

  // Pattern ids are 1..n; name them by their regex source text.
  std::vector<std::string> rule_names(set.sources.size() + 1);
  for (std::size_t i = 0; i < set.sources.size(); ++i)
    rule_names[i + 1] = set.sources[i];
  const obs::ProfileSnapshot prof = profiler.snapshot();
  std::printf("\n%s\n", obs::profile_table(prof, 10, &rule_names).c_str());

  if (!profile_path.empty()) {
    const std::string json = obs::to_profile_json(prof, 10, &rule_names);
    std::FILE* f = std::fopen(profile_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", profile_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", profile_path.c_str());
  }

  if (!args.json_path.empty()) {
    obs::BenchReport report("trace");
    report.add(set.name, "telemetry-only", core::Mfa::kEngineName, telem.cpb,
               telem.matches, shards);
    report.add(set.name, "spans+profiler", core::Mfa::kEngineName, full.cpb,
               full.matches, shards);
    report.set_telemetry(snap);
    bench::write_report(args, report);
  }

  if (assert_overhead_pct > 0.0 && overhead_pct > assert_overhead_pct) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds budget %.2f%%\n",
                 overhead_pct, assert_overhead_pct);
    return 1;
  }
  return 0;
}
