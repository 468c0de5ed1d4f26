// Graceful-degradation ladder: fidelity and cost of each rung, and the
// closed-loop controller under an offered-load sweep (DESIGN.md Sec. 14).
//
// Part 1 pins the ladder (Options::degrade.force_level) and measures every
// rung on the same trace: CpB and recall (matches / sequential matches) for
//   L0 full scan, L1 sampled (1-in-2^3 flows exact + prefilter-gated rest),
//   L2 prefilter-only detection (hits counted, nothing scanned),
//   L3 count-and-bypass.
// These rows land in the mfa.bench.v1 report, so bench_compare gates the
// cost of every rung against BENCH_baseline.json.
//
// Part 2 enables the controller (Options::slo) and paces the producer at
// 0.5x / 1x / 2x / 4x of the measured L0 capacity, reporting the e2e p99,
// shed ratio, ladder level reached and transition count per offered load.
// The expectation that CI cannot easily gate numerically but this table
// makes visible: below capacity the ladder stays at L0; past capacity the
// controller steps down until the shard keeps up, and the p99 stays bounded
// instead of growing with the backlog.
//
// --smoke shrinks the run for per-push CI; --json FILE writes mfa.bench.v1
// with telemetry from an instrumented L0 pass (scan-latency p99 gate).
#include "bench_common.h"

#include "pipeline/degrade.h"

namespace {

struct LevelRun {
  double cycles_per_byte = 0.0;
  std::uint64_t matches = 0;
  std::uint64_t degraded_hits = 0;
  std::uint64_t shed_bypass = 0;
  /// Every rep's registry snapshot folded together, warm-up included
  /// (start() zeroes the per-run counters). Only with a registry attached.
  mfa::obs::RegistrySnapshot telemetry;
};

LevelRun run_pinned(const mfa::core::Mfa& engine, const mfa::trace::Trace& t,
                    int level, int reps, mfa::obs::MetricsRegistry* metrics) {
  using namespace mfa;
  LevelRun out;
  std::uint64_t cycles = 0;
  int timed = 0;
  for (int rep = 0; rep < reps + 1; ++rep) {
    pipeline::Options opt;
    opt.shards = 1;
    opt.degrade.force_level = level;
    opt.metrics = metrics;
    pipeline::ShardedInspector<core::Mfa> pipe(engine, opt);
    pipe.start();
    const std::uint64_t c0 = util::rdtsc_now();
    t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    const std::uint64_t elapsed = util::rdtsc_now() - c0;
    if (rep > 0) {  // first rep warms caches and the flow table allocator
      cycles += elapsed;
      ++timed;
    }
    const pipeline::ShardStats total = pipe.totals();
    out.matches = total.matches;
    out.degraded_hits = total.degraded_hits;
    out.shed_bypass = total.shed_bypass;
    if (metrics != nullptr) out.telemetry.add_run(metrics->snapshot());
  }
  if (t.payload_bytes() > 0 && timed > 0) {
    out.cycles_per_byte =
        static_cast<double>(cycles) /
        (static_cast<double>(timed) * static_cast<double>(t.payload_bytes()));
  }
  return out;
}

/// Big-packet trace for the offered-load sweep: 16 flows of 16 KiB packets.
/// Two properties matter more than realism here:
///  - Large payloads make the scan (not the producer's pacing loop) the
///    dominant per-packet cost, so a paced producer can genuinely exceed
///    worker capacity even when both share one core — with small real-life
///    packets the producer itself becomes the bottleneck first.
///  - Exemplar prefixes stamped every 48 bytes keep every chunk
///    prefilter-positive, so L0 pays the full automaton scan (a clean
///    random filler would be prefilter-skipped and cost next to nothing,
///    leaving the controller no lever to measure). Prefixes stop one byte
///    short of the full exemplar so match storms stay rare.
mfa::trace::Trace make_sweep_trace(std::size_t bytes,
                                   const std::vector<std::string>& exemplars) {
  using namespace mfa;
  trace::Trace t("degrade-sweep");
  constexpr std::size_t kPacket = 16384;
  constexpr std::uint32_t kFlows = 16;
  std::vector<std::uint8_t> buf(kPacket);
  std::vector<std::uint64_t> offsets(kFlows, 0);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::uint32_t i = 0;
  for (std::size_t made = 0; made < bytes; made += kPacket, ++i) {
    for (auto& b : buf) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>('a' + ((rng >> 33) % 26));
    }
    for (std::size_t pos = 0; !exemplars.empty() && pos + 64 < kPacket;
         pos += 48) {
      const std::string& ex = exemplars[(i + pos / 48) % exemplars.size()];
      const std::size_t n = ex.size() > 1 ? ex.size() - 1 : ex.size();
      std::memcpy(buf.data() + pos, ex.data(), n);
    }
    if (!exemplars.empty() && i % 37 == 0) {
      const std::string& ex = exemplars[i % exemplars.size()];
      if (ex.size() < kPacket)
        std::memcpy(buf.data() + (i * 97) % (kPacket - ex.size()), ex.data(),
                    ex.size());
    }
    const std::uint32_t f = i % kFlows;
    t.add_packet(flow::FlowKey{f, 1, 2, 3, 6}, offsets[f], buf.data(), kPacket);
    offsets[f] += kPacket;
  }
  return t;
}

struct SweepRow {
  double ratio = 0.0;
  double offered_mbps = 0.0;
  double realized_mbps = 0.0;  ///< what the producer actually submitted
  std::uint64_t p99_ns = 0;
  double shed_ratio = 0.0;
  std::uint64_t level = 0;
  std::uint64_t transitions = 0;
};

/// Pace the trace at `ratio` x the measured capacity for at least
/// `min_seconds`, controller enabled, and report where the ladder settled.
SweepRow run_paced(const mfa::core::Mfa& engine, const mfa::trace::Trace& t,
                   double ratio, double capacity_bytes_per_sec,
                   double ns_per_packet, double min_seconds) {
  using namespace mfa;
  SweepRow row;
  row.ratio = ratio;
  const double rate = ratio * capacity_bytes_per_sec;
  row.offered_mbps = rate / (1024.0 * 1024.0);

  obs::MetricsRegistry metrics(1);
  pipeline::Options opt;
  opt.shards = 1;
  opt.queue_capacity = 256;
  opt.batch_size = 16;
  opt.metrics = &metrics;
  opt.trace_sample_shift = 4;  // 1-in-16 packets carry an e2e latency span
  opt.shed_policy = pipeline::ShedPolicy::kDropNewest;
  opt.shed_high_water = 192;
  opt.shed_low_water = 64;
  // SLO: the queueing the controller tolerates before stepping down — about
  // a quarter of the queue full of average-cost packets.
  opt.slo.p99_ns = static_cast<std::uint64_t>(ns_per_packet * 64.0) + 1;
  opt.degrade.dwell_ms = 10;
  pipeline::ShardedInspector<core::Mfa> pipe(engine, opt);
  pipe.start();

  const auto start = std::chrono::steady_clock::now();
  auto next = start;
  std::uint64_t submitted_bytes = 0;
  // The trace loops for the whole run, re-keyed to FRESH flows every pass
  // (flow churn, as with_flow_count does). Two failure modes this avoids:
  // resubmitting the same flows+seqs would make passes 2..N retransmissions
  // the inspector discards for free, and eternal flows would wedge after
  // their first admission shed (the hole never fills, so every later byte
  // parks in reassembly until dropped) — either way the worker ends up
  // scanning nothing and the overload disappears.
  std::uint32_t pass = 0;
  const auto deadline = start + std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(min_seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    t.for_each_packet([&](const flow::Packet& p0) {
      flow::Packet p = p0;
      p.key.dst_ip += pass;
      // Burst pacing: each packet owes length/rate seconds of budget, but
      // the producer only sleeps once it is a full millisecond ahead of
      // schedule, so ~50us of per-sleep timer slack amortizes to noise
      // instead of capping the realized rate. sleep_for (not a busy-wait)
      // also yields the core to the shard worker — essential on single-core
      // hosts, where a spinning producer would starve the very worker it is
      // load-testing.
      next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(static_cast<double>(p.length) / rate));
      const auto now = std::chrono::steady_clock::now();
      if (next - now > std::chrono::milliseconds(1))
        std::this_thread::sleep_for(next - now);
      submitted_bytes += p.length;
      pipe.submit(p);
    });
    ++pass;
  }
  // Read the settled level BEFORE finish(): the drain empties the queue, so
  // the controller legitimately walks back toward L0 during shutdown.
  obs::ShardSnapshot live;
  for (const auto& s : metrics.snapshot().shards) live += s;
  row.level = live.degrade_level;
  pipe.finish();

  const pipeline::ShardStats total = pipe.totals();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  obs::ShardSnapshot merged;
  for (const auto& s : metrics.snapshot().shards) merged += s;
  row.realized_mbps =
      elapsed > 0.0
          ? static_cast<double>(submitted_bytes) / elapsed / (1024.0 * 1024.0)
          : 0.0;
  row.p99_ns = merged.e2e_ns.quantile(0.99);
  row.transitions = total.degrade_transitions;
  row.shed_ratio = total.submitted > 0
                       ? static_cast<double>(total.shed_total()) /
                             static_cast<double>(total.submitted)
                       : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;
  const bench::Args args = bench::Args::parse(argc, argv);

  const patterns::PatternSet set = patterns::set_by_name("C8");
  const auto engine = core::build_mfa(set.patterns);
  if (!engine) {
    std::fprintf(stderr, "C8: MFA construction failed\n");
    return 1;
  }
  const auto exemplars = eval::attack_exemplars(set, 2, 808);
  const trace::Trace t = trace::make_real_life(
      trace::RealLifeProfile::kCyberDefense, args.trace_bytes, 808, exemplars);

  obs::BenchReport report("degrade");
  const eval::Throughput seq = eval::measure_throughput(*engine, t, args.reps);
  report.add(set.name, "cyberdefense", core::Mfa::kEngineName,
             seq.cycles_per_byte, seq.matches, /*shards=*/0);
  std::printf("=== C8, trace %.2f MB, sequential %.1f CpB, %llu matches ===\n\n",
              static_cast<double>(t.payload_bytes()) / (1024 * 1024),
              seq.cycles_per_byte,
              static_cast<unsigned long long>(seq.matches));

  // --- Part 1: every rung pinned, fidelity vs cost -----------------------
  util::TextTable ladder({"level", "CpB", "recall", "matches", "degraded hits",
                          "bypass shed"});
  for (int level = 0; level <= 3; ++level) {
    const LevelRun r = run_pinned(*engine, t, level, args.reps, nullptr);
    const double recall =
        seq.matches > 0
            ? static_cast<double>(r.matches) / static_cast<double>(seq.matches)
            : 1.0;
    ladder.add_row({pipeline::to_string(static_cast<pipeline::DegradeLevel>(level)),
                    util::format_double(r.cycles_per_byte, 1),
                    util::format_double(recall, 3), std::to_string(r.matches),
                    std::to_string(r.degraded_hits),
                    std::to_string(r.shed_bypass)});
    report.add(set.name,
               std::string("degrade-L") + std::to_string(level),
               core::Mfa::kEngineName, r.cycles_per_byte, r.matches,
               /*shards=*/1);
  }
  bench::print_table(ladder, args.csv);

  // --- Part 2: closed loop under an offered-load sweep -------------------
  const trace::Trace sweep_trace = make_sweep_trace(args.trace_bytes, exemplars);
  // Capacity must be the WORKER's scan rate, not the whole pipeline's: on a
  // single-core host a flat-out producer and the worker serialize, and that
  // wall time would understate what the worker alone can drain — making
  // "2x capacity" accidentally reachable. And it must use the worker's
  // burst delivery path (packet_batch_attributed), so the calibration
  // times the same code the loaded worker runs.
  double cal_seconds = 0.0;
  for (int rep = 0; rep < 2; ++rep) {  // first pass warms the flow table
    flow::TieredFlowInspector<core::Mfa> cal_insp{*engine};
    std::vector<flow::Packet> burst;
    burst.reserve(16);
    const auto feed = [&]() {
      cal_insp.packet_batch_attributed(
          burst.data(), burst.size(),
          [](const flow::FlowKey&, std::uint64_t, std::uint32_t,
             std::uint64_t) {},
          [](const flow::Packet&) {});
      burst.clear();
    };
    const auto c0 = std::chrono::steady_clock::now();
    sweep_trace.for_each_packet([&](const flow::Packet& p) {
      burst.push_back(p);
      if (burst.size() == 16) feed();
    });
    if (!burst.empty()) feed();
    cal_seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - c0)
                      .count();
  }
  const double capacity =
      cal_seconds > 0.0
          ? static_cast<double>(sweep_trace.payload_bytes()) / cal_seconds
          : 0.0;
  const double ns_per_packet =
      sweep_trace.packet_count() > 0
          ? cal_seconds * 1e9 / static_cast<double>(sweep_trace.packet_count())
          : 0.0;
  if (capacity > 0.0) {
    std::printf("sweep trace: %.2f MB in %zu packets of %.0f KiB; L0 capacity "
                "%.1f MB/s (%.0f ns/packet); controller SLO = 64 packets of "
                "queueing\n",
                static_cast<double>(sweep_trace.payload_bytes()) / (1024 * 1024),
                sweep_trace.packet_count(),
                static_cast<double>(sweep_trace.payload_bytes()) /
                    static_cast<double>(sweep_trace.packet_count()) / 1024.0,
                capacity / (1024 * 1024), ns_per_packet);
    const double min_seconds = args.smoke ? 0.25 : 1.0;
    std::vector<double> ratios = {0.5, 1.0, 2.0, 4.0};
    if (args.smoke) ratios = {0.5, 2.0};
    util::TextTable sweep({"offered/capacity", "offered MB/s", "realized MB/s",
                           "e2e p99 ms", "shed ratio", "settled level",
                           "transitions"});
    for (const double ratio : ratios) {
      const SweepRow row = run_paced(*engine, sweep_trace, ratio, capacity,
                                     ns_per_packet, min_seconds);
      sweep.add_row({util::format_double(row.ratio, 1),
                     util::format_double(row.offered_mbps, 1),
                     util::format_double(row.realized_mbps, 1),
                     util::format_double(static_cast<double>(row.p99_ns) / 1e6, 2),
                     util::format_double(row.shed_ratio, 3),
                     std::to_string(row.level), std::to_string(row.transitions)});
    }
    bench::print_table(sweep, args.csv);
  }

  if (!args.json_path.empty()) {
    // Instrumented L0 pass for the report's telemetry block (kept out of the
    // timed runs; bench_compare gates its scan-latency p99).
    obs::MetricsRegistry registry(1);
    report.set_telemetry(run_pinned(*engine, t, 0, 1, &registry).telemetry);
  }
  std::printf("Reading: each rung trades recall for cost — L1 keeps every\n"
              "prefilter-positive chunk plus 1-in-8 flows exact, L2 only counts\n"
              "detections, L3 only counts packets. Under the sweep the ladder\n"
              "must sit at L0 below capacity and settle on the cheapest rung\n"
              "that holds the SLO above it, with p99 bounded by the queue cap.\n");
  bench::write_report(args, report);
  return 0;
}
