// Evaluation harness shared by the bench binaries (paper Sec. V).
//
// Builds all five engines for a pattern set with uniform stats (build time,
// state count, memory image) and measures matching throughput in cycles per
// byte over multiplexed traces, via the same rdtsc methodology the paper
// describes in Sec. V-B.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dfa/dfa.h"
#include "flow/tiered.h"
#include "hfa/hfa.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "obs/metrics.h"
#include "patterns/builtin.h"
#include "pipeline/pipeline.h"
#include "trace/trace.h"
#include "util/timing.h"
#include "xfa/xfa.h"

namespace mfa::eval {

struct EngineBuild {
  bool ok = false;
  double seconds = 0.0;
  std::size_t image_bytes = 0;
  std::uint32_t states = 0;
};

struct SuiteOptions {
  /// Subset-construction cap for the plain-DFA baseline; exceeding it is
  /// reported as "failed to construct" (the paper's B217p outcome).
  std::uint32_t dfa_max_states = 500000;
  /// Cap for the decomposed-piece DFA inside MFA/HFA/XFA.
  std::uint32_t mfa_max_states = 500000;
  bool build_dfa = true;
  bool build_hfa = true;
  bool build_xfa = true;
  split::Options split;
};

/// Every engine built for one pattern set, with uniform build stats.
struct Suite {
  std::string set_name;
  std::vector<nfa::PatternInput> patterns;

  nfa::Nfa nfa;
  EngineBuild nfa_build;
  std::optional<dfa::Dfa> dfa;
  EngineBuild dfa_build;
  std::optional<core::Mfa> mfa;
  EngineBuild mfa_build;
  core::BuildStats mfa_stats;
  std::optional<hfa::Hfa> hfa;
  EngineBuild hfa_build;
  std::optional<xfa::Xfa> xfa;
  EngineBuild xfa_build;
};

Suite build_suite(const patterns::PatternSet& set, const SuiteOptions& options = {});

/// Strings sampled from the set's pattern languages, for injecting
/// attack-like content into synthetic real-life traces.
std::vector<std::string> attack_exemplars(const patterns::PatternSet& set,
                                          std::size_t per_pattern, std::uint64_t seed);

struct Throughput {
  double cycles_per_byte = 0.0;
  std::uint64_t matches = 0;     ///< confirmed matches in the final repetition
  std::size_t flows = 0;         ///< flows tracked by the inspector
};

/// The timing protocol every measure_* function shares: call `rep()`
/// `reps` times, each scanning `trace` once from fresh state and returning
/// the cycles it took, and report cycles per payload byte. The first rep
/// warms the caches and is excluded when reps > 1.
template <typename RepFn>
double cycles_per_byte(const trace::Trace& trace, int reps, RepFn&& rep) {
  std::uint64_t cycles = 0;
  int timed_reps = 0;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t elapsed = rep();
    if (reps > 1 && i == 0) continue;  // warm-up
    cycles += elapsed;
    ++timed_reps;
  }
  if (trace.payload_bytes() == 0 || timed_reps == 0) return 0.0;
  return static_cast<double>(cycles) /
         (static_cast<double>(timed_reps) * static_cast<double>(trace.payload_bytes()));
}

/// Scan a trace through the flow inspector and report cycles per payload
/// byte. The engine is shared (immutable); each repetition starts from a
/// fresh flow table of per-flow Contexts. Packets go `burst` at a time
/// through packet_batch (1 is the single-packet packet() path); matches and
/// reassembly semantics are the same for every burst size (DESIGN.md
/// Sec. 7).
template <typename EngineT>
Throughput measure_throughput(const EngineT& engine, const trace::Trace& trace,
                              int reps = 2, std::size_t burst = 1) {
  std::vector<flow::Packet> packets;
  packets.reserve(trace.packet_count());
  trace.for_each_packet([&](const flow::Packet& p) { packets.push_back(p); });
  Throughput result;
  result.cycles_per_byte = cycles_per_byte(trace, reps, [&] {
    flow::TieredFlowInspector<EngineT> inspector(engine);
    CountingSink sink;
    const std::uint64_t start = util::rdtsc_now();
    for (std::size_t i = 0; i < packets.size(); i += burst)
      inspector.packet_batch(packets.data() + i, std::min(burst, packets.size() - i),
                             sink);
    const std::uint64_t elapsed = util::rdtsc_now() - start;
    result.matches = sink.count;
    result.flows = inspector.flow_count();
    return elapsed;
  });
  return result;
}

struct PipelineThroughput {
  double cycles_per_byte = 0.0;  ///< wall cycles / payload bytes, submit→finish
  std::uint64_t matches = 0;     ///< merged matches in the final repetition
  std::vector<pipeline::ShardStats> shards;  ///< per-shard stats, final rep
};

/// Run a trace through the sharded pipeline and report wall cycles per
/// payload byte across all shards (submit through finish, including queue
/// hand-off). One Engine is shared by every shard; each shard owns a flow
/// table of Contexts. Passing `metrics` attaches live telemetry to every
/// repetition — the measurement then includes instrumentation cost, so use
/// it for observability runs, not for headline CpB numbers.
template <typename EngineT>
PipelineThroughput measure_pipeline_throughput(const EngineT& engine,
                                               const trace::Trace& trace,
                                               std::size_t shards, int reps = 2,
                                               obs::MetricsRegistry* metrics = nullptr) {
  PipelineThroughput result;
  result.cycles_per_byte = cycles_per_byte(trace, reps, [&] {
    pipeline::Options opt;
    opt.shards = shards;
    opt.metrics = metrics;
    pipeline::ShardedInspector<EngineT> pipe(engine, opt);
    pipe.start();
    const std::uint64_t start = util::rdtsc_now();
    trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    const std::uint64_t elapsed = util::rdtsc_now() - start;
    result.matches = pipe.totals().matches;
    result.shards = pipe.stats();
    return elapsed;
  });
  return result;
}

}  // namespace mfa::eval
