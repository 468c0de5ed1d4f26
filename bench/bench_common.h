// Shared plumbing for the per-table/figure bench binaries.
//
// Each binary regenerates part of the paper's evaluation (Sec. V) and
// prints measured values next to the paper's reported ones where the paper
// gives concrete numbers. Absolute values differ (synthetic analog pattern
// sets, C++ vs OCaml, different CPU); the shapes are the reproduction
// target — see EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "obs/export.h"
#include "util/table.h"

namespace mfa::bench {

/// Command-line knobs shared by the bench binaries.
struct Args {
  std::size_t trace_bytes = 2 << 20;  ///< per-trace payload size
  /// DFA baseline state cap: 250k states is a ~256 MB dense table, the
  /// boundary of "practical" the paper's B217p result illustrates.
  std::uint32_t dfa_cap = 250000;
  int reps = 2;                       ///< throughput repetitions (first warms)
  bool csv = false;                   ///< also print CSV blocks
  bool smoke = false;                 ///< CI smoke mode: tiny trace, 1 rep
  std::string json_path;              ///< write an obs::BenchReport here
  /// Concurrent-flow count for flow-table benches (0 = binary default).
  /// bench_pipeline/bench_batch spread the trace across this many flows;
  /// bench_flows sizes its flow sweep with it.
  std::size_t flows = 0;
  /// bench_flows only: exit non-zero if the tiered inspector's measured
  /// bytes/flow exceeds this ceiling (0 = no assertion). CI regression gate.
  std::size_t assert_bytes_per_flow = 0;
  /// bench_simd only: exit non-zero if the prefilter-gated scan's CpB on
  /// dirty traffic (every chunk carries a literal, so nothing is skipped)
  /// exceeds the ungated scan's by more than this percentage (negative = no
  /// assertion). Bounds the gate's overhead when it never fires.
  double assert_overhead_pct = -1.0;
  /// bench_ruleset: single rule-count rung override (0 = default ladder
  /// 1k/5k/10k, or a reduced ladder under --smoke). bench_flows: run the
  /// generated N-rule set in delta mode instead of C8 (0 = C8).
  std::size_t rules = 0;
  /// bench_ruleset only: exit non-zero unless the delta table is at least
  /// this many times smaller than the dense piece table at the largest
  /// rung (0 = no assertion).
  double assert_delta_ratio = 0.0;
  /// bench_ruleset only: exit non-zero if the delta-mode MFA's CpB exceeds
  /// the dense-mode MFA's by more than this percentage (negative = no
  /// assertion). Bounds the cost of walking default chains.
  double assert_delta_cpb_pct = -1.0;
  /// bench_ruleset only: exit non-zero if compiling the largest rung, dense
  /// or delta, takes longer than this many seconds (0 = no assertion).
  double assert_compile_seconds = 0.0;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", a.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (a == "--bytes") args.trace_bytes = std::strtoull(next(), nullptr, 10);
      else if (a == "--dfa-cap") args.dfa_cap = static_cast<std::uint32_t>(
          std::strtoull(next(), nullptr, 10));
      else if (a == "--reps") args.reps = std::atoi(next());
      else if (a == "--csv") args.csv = true;
      else if (a == "--smoke") {
        // CI-friendly: small enough to run on every push; later flags may
        // still override bytes/reps.
        args.smoke = true;
        args.trace_bytes = 256 * 1024;
        args.reps = 1;
      } else if (a == "--json") args.json_path = next();
      else if (a == "--flows") args.flows = std::strtoull(next(), nullptr, 10);
      else if (a == "--assert-bytes-per-flow")
        args.assert_bytes_per_flow = std::strtoull(next(), nullptr, 10);
      else if (a == "--assert-overhead-pct")
        args.assert_overhead_pct = std::strtod(next(), nullptr);
      else if (a == "--rules") args.rules = std::strtoull(next(), nullptr, 10);
      else if (a == "--assert-delta-ratio")
        args.assert_delta_ratio = std::strtod(next(), nullptr);
      else if (a == "--assert-delta-cpb-pct")
        args.assert_delta_cpb_pct = std::strtod(next(), nullptr);
      else if (a == "--assert-compile-seconds")
        args.assert_compile_seconds = std::strtod(next(), nullptr);
      else if (a == "--help") {
        std::printf("options: --bytes N  --dfa-cap N  --reps N  --csv  --smoke"
                    "  --json FILE  --flows N  --assert-bytes-per-flow N"
                    "  --assert-overhead-pct P"
                    "  --rules N  --assert-delta-ratio R  --assert-delta-cpb-pct P"
                    "  --assert-compile-seconds S\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown option %s\n", a.c_str());
        std::exit(2);
      }
    }
    return args;
  }
};

/// Write the accumulated report when --json was given (mfa.bench.v1 — the
/// schema the BENCH_*.json perf trajectory accumulates).
inline void write_report(const Args& args, const obs::BenchReport& report) {
  if (args.json_path.empty()) return;
  if (report.write_file(args.json_path))
    std::printf("wrote %s\n", args.json_path.c_str());
  else
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
}

/// Visit every successfully built engine of a Suite as (label, engine).
/// Labels are the engines' kEngineName constants; visit order is the
/// fixed column order of the paper's figures (DFA NFA HFA XFA MFA).
template <typename Fn>
void for_each_engine(const eval::Suite& suite, Fn&& fn) {
  if (suite.dfa) fn(dfa::Dfa::kEngineName, *suite.dfa);
  fn(nfa::Nfa::kEngineName, suite.nfa);
  if (suite.hfa) fn(hfa::Hfa::kEngineName, *suite.hfa);
  if (suite.xfa) fn(xfa::Xfa::kEngineName, *suite.xfa);
  if (suite.mfa) fn(core::Mfa::kEngineName, *suite.mfa);
}

/// Engine labels in figure column order, with the table-header spellings.
inline const std::vector<std::pair<const char*, const char*>>& engine_columns() {
  static const std::vector<std::pair<const char*, const char*>> cols = {
      {"dfa", "DFA"}, {"nfa", "NFA"}, {"hfa", "HFA"}, {"xfa", "XFA"}, {"mfa", "MFA"}};
  return cols;
}

inline eval::SuiteOptions suite_options(const Args& args) {
  eval::SuiteOptions opts;
  opts.dfa_max_states = args.dfa_cap;
  opts.mfa_max_states = args.dfa_cap;
  return opts;
}

/// "-" when a build failed (the paper's B217p DFA cell).
inline std::string cell_or_dash(bool ok, const std::string& value) {
  return ok ? value : "-";
}

/// The three real-life trace families of Sec. V-A, scaled to `bytes`.
struct NamedTrace {
  std::string name;
  trace::Trace trace;
};

inline std::vector<NamedTrace> real_life_traces(std::size_t bytes,
                                                const std::vector<std::string>& exemplars) {
  std::vector<NamedTrace> out;
  // DARPA week-5 Monday/Wednesday/Thursday analogs.
  out.push_back({"LL1", trace::make_real_life(trace::RealLifeProfile::kDarpa, bytes, 101,
                                              exemplars)});
  out.push_back({"LL2", trace::make_real_life(trace::RealLifeProfile::kDarpa, bytes, 102,
                                              exemplars)});
  out.push_back({"LL3", trace::make_real_life(trace::RealLifeProfile::kDarpa, bytes, 103,
                                              exemplars)});
  // CDX competition traces.
  out.push_back({"C110", trace::make_real_life(trace::RealLifeProfile::kCyberDefense,
                                               bytes, 110, exemplars)});
  // C112 is the paper's outlier: a trace whose content floods the filter
  // with match events (MFA alone degrades there, Sec. V-D).
  out.push_back({"C112", trace::make_real_life(trace::RealLifeProfile::kCyberDefenseNoisy,
                                               bytes, 112, exemplars)});
  // Nitroba.
  out.push_back({"N", trace::make_real_life(trace::RealLifeProfile::kNitroba, bytes, 120,
                                            exemplars)});
  return out;
}

/// Scale a trace to roughly `flows` distinct flows by replicating the
/// capture with re-keyed flow ids (dst_ip offset per replica). Payload
/// bytes replicate too (Trace owns its arena), so CpB stays comparable
/// while flow-table pressure — table size, eviction churn, cache misses on
/// per-flow state — scales with the knob. Returns the input unchanged when
/// it already carries at least `flows` flows.
inline trace::Trace with_flow_count(const trace::Trace& t, std::size_t flows) {
  std::unordered_set<flow::FlowKey, flow::FlowKeyHash> keys;
  t.for_each_packet([&](const flow::Packet& p) { keys.insert(p.key); });
  const std::size_t base = keys.empty() ? 1 : keys.size();
  if (base >= flows) return t;
  const std::size_t reps = (flows + base - 1) / base;
  trace::Trace out(t.name() + "+flows");
  for (std::size_t r = 0; r < reps; ++r) {
    t.for_each_packet([&](const flow::Packet& p) {
      flow::FlowKey key = p.key;
      key.dst_ip += static_cast<std::uint32_t>(r);  // distinct flow per replica
      out.add_packet(key, p.seq, p.payload, p.length);
    });
  }
  return out;
}

inline void print_table(const util::TextTable& table, bool csv) {
  std::fputs(table.to_string().c_str(), stdout);
  if (csv) {
    std::fputs("\nCSV:\n", stdout);
    std::fputs(table.to_csv().c_str(), stdout);
  }
  std::fputs("\n", stdout);
}

}  // namespace mfa::bench
