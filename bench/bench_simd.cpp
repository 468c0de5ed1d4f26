// SIMD prefilter + vectorized-kernel sweep (DESIGN.md §13).
//
// Measures the literal-prefilter gate's two regimes end to end through the
// flow inspector, A/B against the same engine with the gate switched off
// (set_prefilter), so the delta is exactly the gate:
//
//   clean   every packet is literal-free: the gate skips the full MFA scan
//           and replays only the lookback window — the headline win;
//   dirty   every packet carries a literal: the gate always passes, so its
//           cost (one Teddy pass per chunk) is pure overhead — the tax
//           bounded by --assert-overhead-pct in CI;
//   mix     90/10 clean/dirty, the "clean-traffic mix" a sensor sees when
//           most flows are benign.
//
// Each side is run once to warm up, then at least kPairs times, the two
// sides alternating, so drift and cache state hit both alike. Rows report
// each side's median CpB; the overhead gate bounds the median of the
// per-pair gated/ungated ratios, so one noisy pass cannot fail it.
//
// Rows land in mfa.bench.v1 (engine "mfa+gate" vs "mfa", trace clean/dirty/
// mix) and merge into BENCH_baseline.json for the perf trajectory. The
// kernel level (avx2/scalar) is printed — run under MFA_SIMD=scalar to
// sweep the fallback path on the same machine.
#include <algorithm>

#include "bench_common.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace {

using namespace mfa;

/// Literal-rich pattern set: every piece has a required factor, so the
/// DFA-level gate proof arms. Literals are lowercase/digits; clean filler is
/// uppercase, so clean packets are provably literal-free.
const std::vector<std::string> kPatterns = {
    ".*ab12.*cd34", ".*wxyz", ".*ha7ck", ".*evil99",
    ".*sqlinj",     ".*xsspay", ".*beacon7", ".*dropper"};

const std::vector<std::string> kPlants = {"wxyz", "ha7ck", "evil99", "sqlinj",
                                          "xsspay", "beacon7", "dropper"};

/// `dirty_pct` of packets carry one literal; the rest are uppercase filler.
trace::Trace make_traffic(const char* name, std::size_t bytes, int dirty_pct,
                          std::uint64_t seed) {
  trace::Trace t(name);
  util::Rng rng(seed);
  constexpr std::size_t kPacket = 1200;
  constexpr std::size_t kFlows = 64;
  std::vector<std::uint64_t> offsets(kFlows, 0);
  std::string payload(kPacket, '\0');
  std::size_t produced = 0;
  while (produced < bytes) {
    for (auto& c : payload)
      c = static_cast<char>('A' + rng.below(26));
    if (static_cast<int>(rng.below(100)) < dirty_pct) {
      const std::string& lit = kPlants[rng.below(kPlants.size())];
      payload.replace(rng.below(kPacket - lit.size()), lit.size(), lit);
    }
    const std::uint32_t f = static_cast<std::uint32_t>(rng.below(kFlows));
    const flow::FlowKey key{f + 1, 0xc0a80001u, 40000, 443, 6};
    t.add_packet(key, offsets[f],
                 reinterpret_cast<const std::uint8_t*>(payload.data()),
                 static_cast<std::uint32_t>(payload.size()));
    offsets[f] += payload.size();
    produced += payload.size();
  }
  return t;
}

/// Passes per side of one A/B (at least; --reps raises it).
constexpr int kPairs = 9;

struct GateRun {
  double cpb = 0.0;
  std::uint64_t matches = 0;
  std::uint64_t skips = 0;
  std::uint64_t passes = 0;
};

/// One single-packet pass over `t` through a fresh inspector with the
/// per-inspector gate switch applied.
GateRun run_once(const core::Mfa& m, const trace::Trace& t, bool gate) {
  GateRun r;
  r.cpb = eval::cycles_per_byte(t, 1, [&] {
    flow::TieredFlowInspector<core::Mfa> insp(m);
    insp.set_prefilter(gate);
    CountingSink sink;
    const std::uint64_t start = util::rdtsc_now();
    t.for_each_packet([&](const flow::Packet& p) { insp.packet(p, sink); });
    const std::uint64_t elapsed = util::rdtsc_now() - start;
    r.matches = sink.count;
    r.skips = insp.prefilter_skip_count();
    r.passes = insp.prefilter_pass_count();
    return elapsed;
  });
  return r;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The gate A/B over one trace: each side's last pass with its CpB
/// replaced by the side's median, and the median gated/ungated ratio.
struct GateAb {
  GateRun off;
  GateRun on;
  double ratio = 0.0;
};

GateAb measure_ab(const core::Mfa& m, const trace::Trace& t, int pairs) {
  run_once(m, t, false);  // warm-up, one per side
  run_once(m, t, true);
  GateAb ab;
  std::vector<double> off_cpb, on_cpb, ratios;
  for (int i = 0; i < pairs; ++i) {
    const bool on_first = i % 2 == 1;  // alternate which side goes first
    if (on_first) ab.on = run_once(m, t, true);
    ab.off = run_once(m, t, false);
    if (!on_first) ab.on = run_once(m, t, true);
    off_cpb.push_back(ab.off.cpb);
    on_cpb.push_back(ab.on.cpb);
    ratios.push_back(ab.off.cpb > 0 ? ab.on.cpb / ab.off.cpb : 0.0);
  }
  ab.off.cpb = median(off_cpb);
  ab.on.cpb = median(on_cpb);
  ab.ratio = median(ratios);
  return ab;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);

  std::vector<nfa::PatternInput> inputs;
  std::uint32_t id = 1;
  for (const std::string& src : kPatterns)
    inputs.push_back(nfa::PatternInput{regex::parse_or_die(src), id++});
  auto m = core::build_mfa(inputs);
  if (!m) {
    std::fprintf(stderr, "bench_simd: MFA construction failed\n");
    return 2;
  }
  const simd::Prefilter& pf = m->prefilter();
  std::printf("kernel=%s prefilter=%s literals=%zu window=%zu\n",
              simd::level_name(), pf.status(), pf.literal_count(), pf.window());
  if (!pf.gate_enabled()) {
    // Without the gate the A/B below measures nothing; fail loudly unless
    // the user disabled it on purpose via MFA_PREFILTER.
    std::fprintf(stderr, "bench_simd: gate not armed (%s)\n", pf.status());
    return simd::prefilter_env_disabled() ? 0 : 2;
  }

  obs::BenchReport report("simd");
  util::TextTable table({"trace", "gate", "CpB", "speedup", "matches",
                         "skips", "passes"});
  struct TraceSpec {
    const char* name;
    int dirty_pct;
  };
  const TraceSpec specs[] = {{"clean", 0}, {"dirty", 100}, {"mix", 10}};

  int failures = 0;
  for (const TraceSpec& spec : specs) {
    const trace::Trace t =
        make_traffic(spec.name, args.trace_bytes, spec.dirty_pct, 4242);
    const GateAb ab = measure_ab(*m, t, std::max(kPairs, args.reps));
    const GateRun& off = ab.off;
    const GateRun& on = ab.on;
    if (on.matches != off.matches) {
      std::fprintf(stderr,
                   "ASSERT FAIL: %s gated matches %llu != ungated %llu\n",
                   spec.name, static_cast<unsigned long long>(on.matches),
                   static_cast<unsigned long long>(off.matches));
      ++failures;
    }
    const double speedup = on.cpb > 0 ? off.cpb / on.cpb : 0.0;
    table.add_row({spec.name, "off", util::format_double(off.cpb, 2), "1.00",
                   std::to_string(off.matches), "0", "0"});
    table.add_row({spec.name, "on", util::format_double(on.cpb, 2),
                   util::format_double(speedup, 2), std::to_string(on.matches),
                   std::to_string(on.skips), std::to_string(on.passes)});
    report.add("SIMD", spec.name, "mfa", off.cpb, off.matches, /*shards=*/0);
    report.add("SIMD", spec.name, "mfa+gate", on.cpb, on.matches, /*shards=*/0);

    if (spec.dirty_pct == 100 && args.assert_overhead_pct >= 0) {
      const double limit = 1.0 + args.assert_overhead_pct / 100.0;
      if (ab.ratio > limit) {
        std::fprintf(stderr,
                     "ASSERT FAIL: dirty-traffic gated CpB exceeds ungated by "
                     "%.1f%% (median of pairs; medians %.2f vs %.2f), more "
                     "than %.0f%%\n",
                     (ab.ratio - 1.0) * 100.0, on.cpb, off.cpb,
                     args.assert_overhead_pct);
        ++failures;
      }
    }
  }
  bench::print_table(table, args.csv);
  std::printf(
      "Reading: on clean traffic the gate turns the per-byte DFA walk into\n"
      "one Teddy pass plus a window-sized tail replay per chunk — CpB drops\n"
      "by the skip ratio. On dirty traffic every chunk passes the gate, so\n"
      "the 'on' row prices the prefilter tax (bounded in CI via\n"
      "--assert-overhead-pct, on the median per-pair ratio). Matches must\n"
      "be identical in every pair — the gate is a schedule, not a semantic\n"
      "change.\n");
  bench::write_report(args, report);
  return failures == 0 ? 0 : 1;
}
