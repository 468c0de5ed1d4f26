// Alert reference and the checked pipeline pass.
#include <algorithm>
#include <numeric>

#include "pipeline/pipeline.h"
#include "sensorbench.h"
#include "util/rng.h"
#include "util/timing.h"

namespace sensorbench {

namespace {

std::vector<mfa::Match> nfa_alerts(const mfa::nfa::Nfa& nfa, const std::string& s) {
  mfa::CollectingSink sink;
  auto ctx = nfa.make_context();
  nfa.feed(ctx, reinterpret_cast<const std::uint8_t*>(s.data()), s.size(), 0, sink);
  std::sort(sink.matches.begin(), sink.matches.end());
  return std::move(sink.matches);
}

std::vector<mfa::Match> mfa_alerts(const mfa::core::Mfa& mfa, const std::string& s) {
  mfa::CollectingSink sink;
  auto ctx = mfa.make_context();
  mfa.feed(ctx, reinterpret_cast<const std::uint8_t*>(s.data()), s.size(), 0, sink);
  std::sort(sink.matches.begin(), sink.matches.end());
  return std::move(sink.matches);
}

}  // namespace

AlertReference::AlertReference(const Workload& w, const mfa::core::Mfa& mfa) {
  const std::size_t n = w.flow_keys.size();
  index_.reserve(n);
  for (std::uint32_t f = 0; f < n; ++f) index_.emplace(w.flow_keys[f], f);
  packets_.assign(n, 0);
  for (const Packet& p : w.delivered) ++packets_[flow_of(p.key)];

  const mfa::nfa::Nfa nfa = mfa::nfa::build_nfa(w.patterns);
  expected_.resize(n);
  if (w.nfa_budget_bytes == 0) {
    for (std::uint32_t f = 0; f < n; ++f) expected_[f] = nfa_alerts(nfa, w.streams[f]);
    nfa_flows_ = n;
  } else {
    // Within its byte budget the NFA re-checks first the flows on which the
    // single-context Mfa::feed alerts, then flows drawn with a fixed seed
    // (the same flow ids for every traffic seed).
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    mfa::util::Rng rng(0x5e1ec7ULL);
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    for (std::uint32_t f = 0; f < n; ++f) expected_[f] = mfa_alerts(mfa, w.streams[f]);
    std::stable_partition(order.begin(), order.end(),
                          [&](std::uint32_t f) { return !expected_[f].empty(); });
    std::uint64_t spent = 0;
    for (const std::uint32_t f : order) {
      if (spent >= w.nfa_budget_bytes) break;
      spent += w.streams[f].size();
      std::vector<mfa::Match> want = nfa_alerts(nfa, w.streams[f]);
      if (want != expected_[f]) ++disagreements_;
      expected_[f] = std::move(want);
      ++nfa_flows_;
    }
  }
  for (const auto& e : expected_) alerts_ += e.size();
}

std::uint32_t AlertReference::flow_of(const FlowKey& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? UINT32_MAX : it->second;
}

std::uint64_t AlertReference::mismatched_packets(std::vector<FlowAlert>& got) const {
  std::sort(got.begin(), got.end());
  std::uint64_t failed = 0;
  std::size_t i = 0;
  for (std::uint32_t f = 0; f < expected_.size(); ++f) {
    const std::size_t begin = i;
    while (i < got.size() && got[i].flow == f) ++i;
    const std::vector<mfa::Match>& want = expected_[f];
    bool same = i - begin == want.size();
    for (std::size_t k = 0; same && k < want.size(); ++k)
      same = got[begin + k].match == want[k];
    if (!same) failed += packets_[f];
  }
  return failed + (got.size() - i);  // alerts on flows the workload never sent
}

std::uint64_t inspector_pass(Inspector& insp, const Workload& w, const AlertReference& ref,
                             std::vector<double>* ticks) {
  std::vector<std::pair<FlowKey, mfa::Match>> alerts;
  alerts.reserve(ref.alerts() + 1024);
  const auto sink = [&](const FlowKey& k, std::uint32_t id, std::uint64_t end) {
    alerts.emplace_back(k, mfa::Match{id, end});
  };
  const auto drop = [](const Packet&) {};
  for (std::size_t i = 0; i < w.delivered.size(); i += kBurst) {
    const std::size_t n = std::min(kBurst, w.delivered.size() - i);
    const std::uint64_t t0 = mfa::util::rdtsc_now();
    insp.packet_batch_flows(w.delivered.data() + i, n, sink, drop);
    if (ticks != nullptr) ticks->push_back(static_cast<double>(mfa::util::rdtsc_now() - t0));
  }
  std::vector<FlowAlert> got;
  got.reserve(alerts.size());
  for (const auto& [k, m] : alerts) got.push_back(FlowAlert{ref.flow_of(k), m});
  return ref.mismatched_packets(got);
}

mfa::pipeline::Options pipeline_options(std::size_t shards) {
  mfa::pipeline::Options opt;
  opt.shards = shards;
  opt.batch_size = kBurst;
  opt.shed_policy = mfa::pipeline::ShedPolicy::kBackpressure;
  opt.collect_flow_matches = true;
  return opt;
}

PipelinePass pipeline_pass(const mfa::core::Mfa& mfa, const Workload& w,
                           const AlertReference& ref, std::size_t shards, Tracer* spans) {
  PipelinePass r;
  mfa::pipeline::ShardedInspector<mfa::core::Mfa> pipe(mfa, pipeline_options(shards));
  pipe.start();
  const double t0 = now_s();
  const std::uint64_t c0 = mfa::util::rdtsc_now();
  if (spans == nullptr) {
    for (const Packet& p : w.delivered) pipe.submit(p);
  } else {
    for (std::size_t i = 0; i < w.delivered.size(); i += kBurst) {
      const int id = spans->begin("pipeline.submit_burst");
      const std::size_t end = std::min(w.delivered.size(), i + kBurst);
      for (std::size_t k = i; k < end; ++k) pipe.submit(w.delivered[k]);
      spans->end(id);
    }
  }
  pipe.finish();
  r.cycles = mfa::util::rdtsc_now() - c0;
  r.seconds = now_s() - t0;
  r.shards = pipe.stats();
  const mfa::pipeline::ShardStats t = pipe.totals();
  r.submitted = t.submitted;
  std::vector<FlowAlert> got;
  got.reserve(pipe.flow_matches().size());
  for (const auto& fm : pipe.flow_matches()) got.push_back(FlowAlert{ref.flow_of(fm.key), fm.match});
  r.failed = t.shed_total() + ref.mismatched_packets(got);
  return r;
}

}  // namespace sensorbench
