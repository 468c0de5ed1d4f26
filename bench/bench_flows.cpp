// Flow-state footprint and latency at high concurrent-flow counts through
// the tiered hot/cold flow inspector (2-choice hot table with inline MFA
// contexts, slab-arena cold tier, timing-wheel eviction — DESIGN.md
// Sec. 11).
//
// Real memory is measured, not estimated: a global operator new/delete pair
// tracks live heap bytes via malloc_usable_size, so allocator slack and
// node headers are included. Reported per scenario: bytes/flow, CpB, p99
// per-packet scan latency, and eviction-accounting conservation under a
// bounded table (inserts == resident + evicted).
//
// --flows N pins one flow count (default sweep: 100k, and 1M when not
// --smoke); --rules N replaces C8 with the generated N-rule Snort-dialect
// set compiled in delta mode (thousands of filter bits, still one inline
// hot slot per flow); --assert-bytes-per-flow N exits non-zero if the tiered
// inspector's in-order bytes/flow exceeds the ceiling (the CI regression
// gate); --json FILE writes the mfa.bench.v1 schema, where rows carry
// cycles-per-byte and the flow count rides in the trace label.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "flow/tiered.h"
#include "obs/metrics.h"
#include "rules/rules.h"
#include "rules/ruleset_gen.h"

namespace {

std::atomic<std::size_t> g_live_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

using namespace mfa;

/// A synthetic workload of `nflows` concurrent flows, `pkts_per_flow`
/// in-order packets each, round-robin interleaved (every packet lands on a
/// different flow than its predecessor — the hostile case for flow-table
/// locality). All packets share one payload buffer: the measured heap delta
/// is flow-table state, not traffic.
struct Workload {
  std::vector<flow::Packet> packets;
  std::string payload;
  std::size_t nflows = 0;

  Workload(std::size_t nflows_in, std::size_t pkts_per_flow, std::size_t payload_len)
      : nflows(nflows_in) {
    payload.assign(payload_len, 'a');
    payload[payload_len / 2] = 'q';  // never matches C8 content
    packets.reserve(nflows * pkts_per_flow);
    for (std::size_t round = 0; round < pkts_per_flow; ++round) {
      for (std::size_t f = 0; f < nflows; ++f) {
        const flow::FlowKey key{static_cast<std::uint32_t>(f + 1),
                                static_cast<std::uint32_t>(f >> 16), 1000, 80, 6};
        packets.push_back(flow::Packet{
            key, round * payload_len,
            reinterpret_cast<const std::uint8_t*>(payload.data()),
            static_cast<std::uint32_t>(payload_len)});
      }
    }
  }
};

struct FlowRunResult {
  double bytes_per_flow = 0.0;
  double cycles_per_byte = 0.0;
  std::uint64_t p99_scan_ns = 0;
  std::uint64_t matches = 0;
  std::size_t flows = 0;
};

template <typename InspT>
FlowRunResult run_inspector(InspT& insp, const Workload& w, double ns_per_cycle) {
  FlowRunResult r;
  obs::Histogram scan_ns;  // fixed-size counters, no heap
  CountingSink sink;
  const std::size_t heap_before = g_live_bytes.load(std::memory_order_relaxed);
  std::uint64_t cycles = 0;
  for (const flow::Packet& p : w.packets) {
    const std::uint64_t t0 = util::rdtsc_now();
    insp.packet(p, sink);
    const std::uint64_t dt = util::rdtsc_now() - t0;
    cycles += dt;
    scan_ns.record(static_cast<std::uint64_t>(static_cast<double>(dt) * ns_per_cycle));
  }
  const std::size_t heap_after = g_live_bytes.load(std::memory_order_relaxed);
  r.flows = insp.flow_count();
  r.bytes_per_flow = r.flows == 0 ? 0.0
                                  : static_cast<double>(heap_after - heap_before +
                                                        sizeof(InspT)) /
                                        static_cast<double>(r.flows);
  const double payload_total =
      static_cast<double>(w.packets.size()) * static_cast<double>(w.payload.size());
  r.cycles_per_byte = payload_total > 0 ? static_cast<double>(cycles) / payload_total : 0.0;
  r.p99_scan_ns = scan_ns.snapshot().quantile(0.99);
  r.matches = sink.count;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const double ns_per_cycle = 1e9 / util::tsc_ticks_per_second();

  patterns::PatternSet set;
  core::BuildOptions build;
  if (args.rules == 0) {
    set = patterns::set_by_name("C8");
  } else {
    const rules::LoadResult loaded = rules::parse_rules(
        rules::generate_ruleset(rules::RulesetGenOptions{args.rules, 42}));
    if (!loaded.ok()) {
      std::fprintf(stderr, "generated ruleset failed to parse\n");
      return 2;
    }
    set.name = "ruleset-" + std::to_string(args.rules);
    set.patterns = rules::to_pattern_inputs(loaded.rules);
    build.delta = true;
    build.dfa.max_states = args.dfa_cap;
  }
  const auto mfa = core::build_mfa(set.patterns, build);
  if (!mfa) {
    std::fprintf(stderr, "MFA construction failed\n");
    return 1;
  }
  std::printf("engine: mfa (%s%s), %u filter bits, heap context %zu B\n\n",
              set.name.c_str(), mfa->delta_mode() ? ", delta" : "",
              mfa->program().memory_bits, mfa->context_bytes());

  std::vector<std::size_t> flow_counts;
  if (args.flows != 0) flow_counts = {args.flows};
  else if (args.smoke) flow_counts = {100000};
  else flow_counts = {100000, 1000000};

  obs::BenchReport report("flows");
  util::TextTable table({"flows", "bytes/flow", "CpB", "p99 scan ns", "matches"});
  bool gate_failed = false;
  bool conservation_failed = false;

  for (const std::size_t nflows : flow_counts) {
    const Workload w(nflows, /*pkts_per_flow=*/4, /*payload_len=*/64);
    const std::string trace_label = "inorder-" + std::to_string(nflows);

    flow::TieredFlowInspector<core::Mfa> tiered{*mfa};
    tiered.reserve_flows(nflows);  // deployments size for max_flows; match that
    const FlowRunResult tr = run_inspector(tiered, w, ns_per_cycle);

    // Unbounded table: every distinct key must still be resident.
    if (tr.flows != nflows) {
      std::fprintf(stderr, "MISMATCH: %zu of %zu flows resident\n", tr.flows, nflows);
      conservation_failed = true;
    }

    table.add_row({std::to_string(nflows), util::format_double(tr.bytes_per_flow, 1),
                   util::format_double(tr.cycles_per_byte, 1),
                   std::to_string(tr.p99_scan_ns), std::to_string(tr.matches)});
    report.add(set.name, trace_label, "mfa-tiered", tr.cycles_per_byte, tr.matches);

    if (args.assert_bytes_per_flow != 0 &&
        tr.bytes_per_flow > static_cast<double>(args.assert_bytes_per_flow)) {
      std::fprintf(stderr,
                   "FAIL: tiered bytes/flow %.1f exceeds ceiling %zu at %zu flows\n",
                   tr.bytes_per_flow, args.assert_bytes_per_flow, nflows);
      gate_failed = true;
    }

    // Eviction accounting under a bounded table: each key arrives exactly
    // once (one-packet flows), so flow creations == nflows and the table
    // must conserve creations == resident + evicted (the timing wheel may
    // not drop or double-evict anything).
    const Workload once(nflows, /*pkts_per_flow=*/1, /*payload_len=*/64);
    flow::TieredFlowInspector<core::Mfa> bounded{*mfa, /*max_flows=*/nflows / 2};
    CountingSink sink;
    for (const flow::Packet& p : once.packets) bounded.packet(p, sink);
    const std::uint64_t accounted = bounded.flow_count() + bounded.evicted_count();
    if (accounted != nflows) {
      std::fprintf(stderr,
                   "ACCOUNTING VIOLATION at %zu flows: resident %zu + evicted "
                   "%llu != inserts %zu\n",
                   nflows, bounded.flow_count(),
                   static_cast<unsigned long long>(bounded.evicted_count()), nflows);
      conservation_failed = true;
    }
  }

  bench::print_table(table, args.csv);
  std::printf(
      "Reading: bytes/flow is live heap delta (malloc_usable_size-accurate)\n"
      "per resident flow. In-order MFA flows live in one %zu-byte hot slot\n"
      "with the (q, m) context inline at any ruleset size; cold slabs hold\n"
      "only reordering or spilled flows.\n",
      sizeof(flow::TieredFlowInspector<core::Mfa>::HotSlot));
  bench::write_report(args, report);
  if (conservation_failed) return 1;
  return gate_failed ? 1 : 0;
}
