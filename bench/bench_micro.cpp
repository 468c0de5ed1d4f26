// Microbenchmarks (google-benchmark): engine inner loops, filter-engine
// action cost, subset construction, splitter, and the action-ordering
// ablation called out in DESIGN.md Sec. 6.
#include <benchmark/benchmark.h>

#include "eval/harness.h"
#include "regex/sample.h"

namespace {

using namespace mfa;

std::vector<nfa::PatternInput> mid_patterns() {
  return patterns::set_by_name("C8").patterns;
}

std::string payload_for(const dfa::Dfa& d, double pm, std::size_t bytes) {
  const trace::Trace t = trace::make_synthetic(d, pm, bytes, 99);
  std::string out;
  t.for_each_packet([&](const flow::Packet& p) {
    out.append(reinterpret_cast<const char*>(p.payload), p.length);
  });
  return out;
}

struct Fixture {
  Fixture() {
    const auto pats = mid_patterns();
    nfa_engine = nfa::build_nfa(pats);
    dfa_engine = *dfa::build_dfa(nfa_engine);
    mfa_engine = *core::build_mfa(pats);
    hfa_engine = *hfa::build_hfa(pats);
    xfa_engine = *xfa::build_xfa(pats);
    quiet = payload_for(dfa_engine, 0.0, 1 << 20);
    noisy = payload_for(dfa_engine, 0.9, 1 << 20);
  }
  nfa::Nfa nfa_engine;
  dfa::Dfa dfa_engine;
  core::Mfa mfa_engine;
  hfa::Hfa hfa_engine;
  xfa::Xfa xfa_engine;
  std::string quiet, noisy;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

template <typename EngineT>
void scan_loop(benchmark::State& state, const EngineT& engine, const std::string& data) {
  Scanner scanner(engine);
  CountingSink sink;
  for (auto _ : state) {
    scanner.reset();
    scanner.feed(reinterpret_cast<const std::uint8_t*>(data.data()), data.size(), 0, sink);
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}

void BM_DfaScanQuiet(benchmark::State& s) {
  scan_loop(s, fixture().dfa_engine, fixture().quiet);
}
void BM_DfaScanNoisy(benchmark::State& s) {
  scan_loop(s, fixture().dfa_engine, fixture().noisy);
}
void BM_MfaScanQuiet(benchmark::State& s) {
  scan_loop(s, fixture().mfa_engine, fixture().quiet);
}
void BM_MfaScanNoisy(benchmark::State& s) {
  scan_loop(s, fixture().mfa_engine, fixture().noisy);
}
void BM_HfaScanQuiet(benchmark::State& s) {
  scan_loop(s, fixture().hfa_engine, fixture().quiet);
}
void BM_XfaScanQuiet(benchmark::State& s) {
  scan_loop(s, fixture().xfa_engine, fixture().quiet);
}
void BM_NfaScanQuiet(benchmark::State& s) {
  // NFA is orders of magnitude slower; use a slice to keep iterations sane.
  scan_loop(s, fixture().nfa_engine, fixture().quiet.substr(0, 64 << 10));
}

BENCHMARK(BM_DfaScanQuiet);
BENCHMARK(BM_DfaScanNoisy);
BENCHMARK(BM_MfaScanQuiet);
BENCHMARK(BM_MfaScanNoisy);
BENCHMARK(BM_HfaScanQuiet);
BENCHMARK(BM_XfaScanQuiet);
BENCHMARK(BM_NfaScanQuiet);

void BM_FilterEngineAction(benchmark::State& state) {
  filter::Program program;
  program.memory_bits = 2;
  program.actions.push_back(filter::Action{filter::kNone, 0, filter::kNone, filter::kNone});
  program.actions.push_back(filter::Action{0, 1, filter::kNone, filter::kNone});
  program.actions.push_back(filter::Action{1, filter::kNone, filter::kNone, 1});
  filter::Engine engine(program);
  filter::Memory memory;
  CountingSink sink;
  std::uint32_t i = 0;
  for (auto _ : state) {
    engine.on_match(i % 3, i, memory, sink);
    ++i;
    benchmark::DoNotOptimize(sink.count);
  }
}
BENCHMARK(BM_FilterEngineAction);

void BM_SubsetConstructionC8(benchmark::State& state) {
  const auto pats = mid_patterns();
  const nfa::Nfa n = nfa::build_nfa(pats);
  for (auto _ : state) {
    auto d = dfa::build_dfa(n);
    benchmark::DoNotOptimize(d->state_count());
  }
}
BENCHMARK(BM_SubsetConstructionC8);

void BM_RegexSplitC8(benchmark::State& state) {
  const auto pats = mid_patterns();
  for (auto _ : state) {
    auto r = split::split_patterns(pats);
    benchmark::DoNotOptimize(r.pieces.size());
  }
}
BENCHMARK(BM_RegexSplitC8);

void BM_MfaFullBuildC8(benchmark::State& state) {
  const auto pats = mid_patterns();
  for (auto _ : state) {
    auto m = core::build_mfa(pats);
    benchmark::DoNotOptimize(m->memory_image_bytes());
  }
}
BENCHMARK(BM_MfaFullBuildC8);

// Ablation (DESIGN.md Sec. 6): disabling decomposition families shows what
// each contributes to the piece-DFA size.
void BM_AblationNoAlmostDotStar(benchmark::State& state) {
  auto pats = mid_patterns();
  core::BuildOptions opts;
  opts.split.enable_almost_dot_star = false;
  for (auto _ : state) {
    auto m = core::build_mfa(pats, opts);
    benchmark::DoNotOptimize(m.has_value());
    if (m) state.counters["dfa_states"] = m->character_dfa().state_count();
  }
}
BENCHMARK(BM_AblationNoAlmostDotStar);

void BM_AblationFullSplit(benchmark::State& state) {
  auto pats = mid_patterns();
  for (auto _ : state) {
    auto m = core::build_mfa(pats);
    benchmark::DoNotOptimize(m.has_value());
    if (m) state.counters["dfa_states"] = m->character_dfa().state_count();
  }
}
BENCHMARK(BM_AblationFullSplit);

}  // namespace

BENCHMARK_MAIN();
