// Traced run: the per-layer cost ledger and the span recorder.
//
// Engine layers (dfa, filter, simd) are fed the per-flow in-order streams,
// chunked at the workload's packet boundaries, so each differs from the
// next by exactly one layer's work. The flow and pipeline layers are fed
// the delivered packets, since reordering and duplicates are the flow
// layer's work; the bytes they scan are the same streams.
#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>

#include "dfa/d2fa.h"
#include "simd/prefilter.h"
#include "split/splitter.h"
#include "sensorbench.h"
#include "util/timing.h"

namespace sensorbench {

Tracer::Tracer(bool enabled, std::string workload, std::uint64_t run_id)
    : enabled_(enabled), workload_(std::move(workload)), run_id_(run_id) {}

namespace {

/// Spans kept per run; later begin() calls are dropped, so a long traced
/// run cannot grow without bound.
constexpr std::size_t kMaxSpans = 50000;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::begin(const char* name) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, steady_ns(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = steady_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  out << "{\"env\": " << header << ", \"spans\": " << spans_.size() << "}\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_)
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin << ", \"parent\": " << s.parent
        << ", \"workload\": \"" << workload_ << "\", \"run_id\": " << run_id_ << "}\n";
  out.flush();
  return static_cast<bool>(out);
}

namespace {

using mfa::core::Mfa;

/// Counts a DFA walk's accept events (distinct end offsets) and the match
/// ids they carry, which are the filter actions Mfa::feed would run.
struct WalkSink {
  std::uint64_t ids = 0;
  std::uint64_t accepts = 0;
  std::uint64_t last = ~std::uint64_t{0};
  void operator()(std::uint32_t, std::uint64_t end) {
    ++ids;
    if (end != last) {
      ++accepts;
      last = end;
    }
  }
};

/// A stage's cost is its fastest pass: every pass does identical work, and
/// interference from other tenants of a shared host only adds time.
double best(const std::vector<double>& v) { return quantile(v, 0.0); }

/// Run `pass` (returning one sample) at least `min_reps` times and until
/// `budget_s` has passed. Single-thread stages rotate their passes over
/// the CPUs (see PinnedTo); pipeline stages must not, since their workers
/// would inherit the pin.
template <typename Fn>
std::vector<double> repeat(double budget_s, std::size_t min_reps, bool rotate_cpus,
                           Fn&& pass) {
  std::vector<double> out;
  const double end = now_s() + budget_s;
  while (out.size() < min_reps || now_s() < end) {
    if (!rotate_cpus) {
      out.push_back(pass());
      continue;
    }
    const PinnedTo cpu(out.size());
    out.push_back(pass());
  }
  return out;
}

/// Feed every in-order packet to its flow's context through `feed`;
/// returns the TSC ticks of the walk.
template <typename Ctx, typename Feed>
double chunk_pass(const Workload& w, std::vector<Ctx>& ctx, Feed&& feed) {
  const std::uint64_t t0 = mfa::util::rdtsc_now();
  for (std::size_t i = 0; i < w.in_order.size(); ++i)
    feed(ctx[w.in_order_flow[i]], w.in_order[i], w.in_order_flow[i]);
  return static_cast<double>(mfa::util::rdtsc_now() - t0);
}

double seconds_of(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

}  // namespace

std::vector<Metric> run_ledger(const Workload& w, const Mfa& mfa, double build_mfa_s,
                               const AlertReference& ref, Tracer& tracer, double seconds,
                               Outcome& outcome) {
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit});
  };
  const std::size_t nflows = w.flow_keys.size();
  const double stream_bytes = static_cast<double>(w.stream_bytes());
  const double delivered_bytes = static_cast<double>(w.delivered_bytes());
  const double kib = stream_bytes / 1024.0;
  const double budget = seconds / 7.0;

  // ---- build side, in build_mfa's order ----
  {
    Tracer::Scope build(tracer, "build");
    std::vector<mfa::nfa::PatternInput> inputs;
    mfa::split::SplitResult sr;
    mfa::nfa::Nfa piece_nfa;
    std::optional<mfa::dfa::Dfa> dfa;
    mfa::dfa::BuildStats dstats;
    double parse_s = 0, split_s = 0, nfa_s = 0, subset_s = 0, prefilter_s = 0, d2fa_s = 0;
    {
      Tracer::Scope s(tracer, "rules.parse");
      parse_s = seconds_of([&] { inputs = parse_inputs(w); });
    }
    {
      Tracer::Scope s(tracer, "split.split_patterns");
      split_s = seconds_of([&] { sr = mfa::split::split_patterns(inputs, w.build.split); });
    }
    {
      Tracer::Scope s(tracer, "nfa.build_nfa");
      nfa_s = seconds_of([&] {
        std::vector<mfa::nfa::PatternInput> pieces;
        pieces.reserve(sr.pieces.size());
        for (const auto& p : sr.pieces) pieces.push_back(mfa::nfa::PatternInput{p.regex, p.engine_id});
        piece_nfa = mfa::nfa::build_nfa(pieces);
      });
    }
    {
      Tracer::Scope s(tracer, "dfa.build_dfa");
      subset_s = seconds_of([&] { dfa = mfa::dfa::build_dfa(piece_nfa, w.build.dfa, &dstats); });
    }
    if (!dfa) throw std::runtime_error("phased DFA construction failed");
    {
      Tracer::Scope s(tracer, "simd.Prefilter::build");
      prefilter_s = seconds_of([&] {
        (void)mfa::simd::Prefilter::build(*dfa, sr.pieces, w.build.parse.icase);
      });
    }
    if (w.build.delta) {
      Tracer::Scope s(tracer, "dfa.D2fa");
      d2fa_s = seconds_of([&] { (void)mfa::dfa::D2fa(*dfa, w.build.d2fa); });
    }
    add("rules.parse_s", parse_s, "s");
    add("split.s", split_s, "s");
    add("split.decomposed_ratio",
        sr.stats.patterns_in == 0 ? 0.0
                                  : static_cast<double>(sr.stats.patterns_decomposed) /
                                        static_cast<double>(sr.stats.patterns_in),
        "ratio");
    add("nfa.build_s", nfa_s, "s");
    add("dfa.subset_s", subset_s, "s");
    add("dfa.states", static_cast<double>(dstats.states), "count");
    add("simd.prefilter_build_s", prefilter_s, "s");
    add("dfa.d2fa_s", d2fa_s, "s");
    add("filter.memory_bits", static_cast<double>(sr.program.memory_bits), "count");
    add("build.phase_sum_s", split_s + nfa_s + subset_s + prefilter_s + d2fa_s, "s");
    add("build.build_mfa_s", build_mfa_s, "s");
  }

  // ---- dfa: the bare character-DFA walk ----
  WalkSink walk;
  std::vector<double> walk_ticks;
  {
    Tracer::Scope s(tracer, "dfa.feed");
    const auto walk_pass = [&](auto& table) {
      return repeat(budget, 3, true, [&] {
        std::vector<typename std::decay_t<decltype(table)>::Context> ctx(nflows,
                                                                         table.make_context());
        walk = WalkSink{};
        Tracer::Scope pass(tracer, "dfa.feed.pass");
        return chunk_pass(w, ctx, [&](auto& c, const Packet& p, std::uint32_t) {
          walk.last = ~std::uint64_t{0};
          table.feed(c, p.payload, p.length, p.seq, walk);
        });
      });
    };
    walk_ticks = mfa.delta_mode() ? walk_pass(*mfa.delta_table()) : walk_pass(mfa.character_dfa());
  }
  const double walk_cpb = best(walk_ticks) / stream_bytes;
  add("dfa.walk_cpb", walk_cpb, "cycles/B");
  add("dfa.accepts_per_kib", static_cast<double>(walk.accepts) / kib, "1/KiB");
  add("filter.actions_per_kib", static_cast<double>(walk.ids) / kib, "1/KiB");

  // ---- filter (Mfa::feed) and simd (Mfa::feed_gated) ----
  const auto check_alerts = [&](auto&& feed) {
    std::vector<FlowAlert> got;
    std::vector<Mfa::Context> ctx(nflows, mfa.make_context());
    (void)chunk_pass(w, ctx, [&](Mfa::Context& c, const Packet& p, std::uint32_t f) {
      feed(c, p, [&](std::uint32_t id, std::uint64_t end) {
        got.push_back(FlowAlert{f, mfa::Match{id, end}});
      });
    });
    outcome.attempted += w.delivered.size();
    outcome.failed += ref.mismatched_packets(got);
  };
  const auto plain = [&](Mfa::Context& c, const Packet& p, auto&& sink) {
    mfa.feed(c, p.payload, p.length, p.seq, sink);
  };
  std::uint64_t skipped = 0;
  const auto gated = [&](Mfa::Context& c, const Packet& p, auto&& sink) {
    skipped += mfa.feed_gated(c, p.payload, p.length, p.seq, sink) ? 1 : 0;
  };
  mfa::CountingSink alerts;
  std::vector<double> feed_ticks, gated_ticks;
  {
    Tracer::Scope s(tracer, "mfa.feed");
    check_alerts(plain);
    feed_ticks = repeat(budget, 3, true, [&] {
      std::vector<Mfa::Context> ctx(nflows, mfa.make_context());
      alerts = mfa::CountingSink{};
      Tracer::Scope pass(tracer, "mfa.feed.pass");
      return chunk_pass(w, ctx, [&](Mfa::Context& c, const Packet& p, std::uint32_t) {
        plain(c, p, alerts);
      });
    });
  }
  {
    Tracer::Scope s(tracer, "mfa.feed_gated");
    check_alerts(gated);
    gated_ticks = repeat(budget, 3, true, [&] {
      std::vector<Mfa::Context> ctx(nflows, mfa.make_context());
      skipped = 0;
      Tracer::Scope pass(tracer, "mfa.feed_gated.pass");
      mfa::CountingSink sink;
      return chunk_pass(w, ctx, [&](Mfa::Context& c, const Packet& p, std::uint32_t) {
        gated(c, p, sink);
      });
    });
  }
  const double feed_cpb = best(feed_ticks) / stream_bytes;
  const double gated_cpb = best(gated_ticks) / stream_bytes;
  add("filter.alert_yield",
      walk.ids == 0 ? 0.0 : static_cast<double>(alerts.count) / static_cast<double>(walk.ids),
      "ratio");
  add("mfa.feed_cpb", feed_cpb, "cycles/B");
  add("filter.self_cpb", feed_cpb - walk_cpb, "cycles/B");
  add("simd.gate_armed", mfa.prefilter().gate_enabled() ? 1.0 : 0.0, "bool");
  add("simd.skip_ratio",
      static_cast<double>(skipped) / static_cast<double>(std::max<std::size_t>(w.in_order.size(), 1)),
      "ratio");
  add("simd.feed_gated_cpb", gated_cpb, "cycles/B");
  add("simd.self_cpb", gated_cpb - feed_cpb, "cycles/B");

  // ---- flow: one shard's TieredFlowInspector on the delivered packets ----
  std::vector<double> batch_ticks;
  {
    Tracer::Scope s(tracer, "flow.packet_batch");
    std::size_t hot = 0, cold = 0;
    bool inline_ok = false;
    std::uint64_t evictions = 0, drops = 0;
    batch_ticks = repeat(budget, 3, true, [&] {
      Inspector insp(mfa);
      std::vector<double> ticks;
      ticks.reserve(w.delivered.size() / kBurst + 1);
      {
        Tracer::Scope pass(tracer, "flow.packet_batch.pass");
        outcome.failed += inspector_pass(insp, w, ref, &ticks);
        outcome.attempted += w.delivered.size();
      }
      hot = insp.hot_bytes();
      cold = insp.cold_bytes();
      inline_ok = insp.inline_eligible();
      evictions = insp.evicted_count();
      drops = insp.reassembly_dropped_count();
      double sum = 0;
      for (const double t : ticks) sum += t;
      return sum;
    });
    const double batch = best(batch_ticks);
    add("flow.packet_batch_cpb", batch / delivered_bytes, "cycles/B");
    add("flow.self_cycles_per_packet",
        (batch - best(gated_ticks)) / static_cast<double>(w.delivered.size()), "cycles/pkt");
    add("flow.hot_bytes", static_cast<double>(hot), "B");
    add("flow.cold_bytes", static_cast<double>(cold), "B");
    add("flow.inline_eligible", inline_ok ? 1.0 : 0.0, "bool");
    add("flow.evictions", static_cast<double>(evictions), "count");
    add("flow.reassembly_drops", static_cast<double>(drops), "count");
  }

  // ---- pipeline: 1 shard, then kShards with and without submit spans ----
  const auto run = [&](std::size_t shards, Tracer* spans) {
    PipelinePass p = pipeline_pass(mfa, w, ref, shards, spans);
    outcome.attempted += p.submitted;
    outcome.failed += p.failed;
    return p;
  };
  std::vector<double> one_ticks, one_s;
  {
    Tracer::Scope s(tracer, "pipeline.one_shard");
    (void)run(1, nullptr);  // warm-up
    one_ticks = repeat(budget, 3, false, [&] {
      Tracer::Scope pass(tracer, "pipeline.one_shard.pass");
      const PipelinePass p = run(1, nullptr);
      one_s.push_back(p.seconds);
      return static_cast<double>(p.cycles);
    });
  }
  std::vector<double> three_ticks, three_s, traced_s, spins, depth, imbalance;
  {
    Tracer::Scope s(tracer, "pipeline.sharded");
    for (int i = 0; i < 3; ++i) (void)run(kShards, nullptr);  // warm-up
    const double end = now_s() + 2 * budget;
    while (three_s.size() < 3 || now_s() < end) {
      PipelinePass p;
      {
        Tracer::Scope pass(tracer, "pipeline.sharded.pass");
        p = run(kShards, nullptr);
      }
      three_ticks.push_back(static_cast<double>(p.cycles));
      three_s.push_back(p.seconds);
      std::uint64_t spin = 0, max_depth = 0, max_pkts = 0, pkts = 0;
      for (const auto& st : p.shards) {
        spin += st.queue_full_spins;
        max_depth = std::max(max_depth, st.max_queue_depth);
        max_pkts = std::max(max_pkts, st.packets);
        pkts += st.packets;
      }
      spins.push_back(1000.0 * static_cast<double>(spin) / static_cast<double>(pkts));
      depth.push_back(static_cast<double>(max_depth));
      imbalance.push_back(static_cast<double>(max_pkts) * static_cast<double>(p.shards.size()) /
                          static_cast<double>(pkts));
      Tracer::Scope traced(tracer, "pipeline.sharded.traced_pass");
      traced_s.push_back(run(kShards, &tracer).seconds);
    }
  }
  const double one_cpb = best(one_ticks) / delivered_bytes;
  add("pipeline.one_shard_cpb", one_cpb, "cycles/B");
  add("pipeline.handoff_cpb", one_cpb - best(batch_ticks) / delivered_bytes, "cycles/B");
  add("pipeline.sharded_cpb", best(three_ticks) / delivered_bytes, "cycles/B");
  add("pipeline.scaling_eff",
      best(one_s) / best(three_s) / static_cast<double>(kShards), "ratio");
  add("pipeline.queue_full_spins_per_kpkt", median(spins), "1/kpkt");
  add("pipeline.max_queue_depth", median(depth), "count");
  add("pipeline.shard_imbalance", median(imbalance), "ratio");
  const double untraced_gbps = delivered_bytes * 8.0 / best(three_s) / 1e9;
  const double traced_gbps = delivered_bytes * 8.0 / best(traced_s) / 1e9;
  add("trace.untraced_gbps", untraced_gbps, "Gbit/s");
  add("trace.traced_gbps", traced_gbps, "Gbit/s");
  add("trace.overhead_gbps", traced_gbps - untraced_gbps, "Gbit/s");
  return m;
}

}  // namespace sensorbench
