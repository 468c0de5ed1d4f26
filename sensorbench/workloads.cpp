// Seeded workload generators. The program under test sees only the packets
// built here; the rule sets are fixed per workload so engine size and
// set-up time do not drift with the traffic seed.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <unordered_set>

#include "eval/harness.h"
#include "patterns/builtin.h"
#include "rules/rules.h"
#include "rules/ruleset_gen.h"
#include "sensorbench.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace sensorbench {

namespace {

using mfa::trace::RealLifeProfile;

const std::uint8_t* bytes_of(const std::string& s) {
  return reinterpret_cast<const std::uint8_t*>(s.data());
}

/// Regroup a generated trace into per-flow streams and in-order packets
/// whose payloads point into those streams.
void adopt_trace(const mfa::trace::Trace& t, Workload& w) {
  std::unordered_map<FlowKey, std::uint32_t, mfa::flow::FlowKeyHash> ids;
  struct Rec {
    std::uint32_t flow;
    std::uint64_t seq;
    std::uint32_t length;
  };
  std::vector<Rec> recs;
  recs.reserve(t.packet_count());
  t.for_each_packet([&](const Packet& p) {
    const auto [it, fresh] =
        ids.try_emplace(p.key, static_cast<std::uint32_t>(w.flow_keys.size()));
    if (fresh) {
      w.flow_keys.push_back(p.key);
      w.streams.emplace_back();
    }
    std::string& s = w.streams[it->second];
    if (p.seq != s.size()) throw std::runtime_error("generator emitted a flow out of order");
    s.append(reinterpret_cast<const char*>(p.payload), p.length);
    recs.push_back(Rec{it->second, p.seq, p.length});
  });
  for (const Rec& r : recs) {
    w.in_order.push_back(
        Packet{w.flow_keys[r.flow], r.seq, bytes_of(w.streams[r.flow]) + r.seq, r.length});
    w.in_order_flow.push_back(r.flow);
  }
}

/// Re-cut whole streams into `min_len`..`max_len` payloads, interleaved at
/// random across a window of `concurrent` flows: each step emits the next
/// segment of a random open flow, and a finished flow's slot goes to the
/// next unopened one.
void packetize(Workload& w, std::size_t concurrent, std::size_t min_len,
               std::size_t max_len, mfa::util::Rng& rng) {
  std::vector<std::uint32_t> open;
  std::vector<std::uint64_t> sent(w.streams.size(), 0);
  std::uint32_t next = 0;
  const auto n = static_cast<std::uint32_t>(w.streams.size());
  while (next < n || !open.empty()) {
    while (open.size() < concurrent && next < n) open.push_back(next++);
    const std::size_t i = rng.below(open.size());
    const std::uint32_t f = open[i];
    const std::string& s = w.streams[f];
    const std::size_t len =
        std::min<std::size_t>(rng.between(min_len, max_len), s.size() - sent[f]);
    w.in_order.push_back(Packet{w.flow_keys[f], sent[f], bytes_of(s) + sent[f],
                                static_cast<std::uint32_t>(len)});
    w.in_order_flow.push_back(f);
    sent[f] += len;
    if (sent[f] == s.size()) {
      open[i] = open.back();
      open.pop_back();
    }
  }
}

/// Hostile delivery: about `swap_p` of adjacent in-flow packet pairs are
/// swapped, and about `dup_p` of packets are retransmitted 1..64 packets
/// later.
std::vector<Packet> hostile_delivery(const Workload& w, double swap_p, double dup_p,
                                     mfa::util::Rng& rng) {
  std::vector<Packet> out = w.in_order;
  std::vector<std::int64_t> last(w.streams.size(), -1);
  std::vector<bool> moved(out.size(), false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint32_t f = w.in_order_flow[i];
    const std::int64_t prev = last[f];
    last[f] = static_cast<std::int64_t>(i);
    if (prev < 0 || moved[static_cast<std::size_t>(prev)] || !rng.chance(swap_p)) continue;
    std::swap(out[static_cast<std::size_t>(prev)], out[i]);
    moved[static_cast<std::size_t>(prev)] = moved[i] = true;
  }
  std::vector<Packet> delivered;
  delivered.reserve(out.size() + out.size() / 16);
  std::deque<std::pair<std::size_t, Packet>> due;  // (emit after index, copy)
  for (std::size_t i = 0; i < out.size(); ++i) {
    delivered.push_back(out[i]);
    if (rng.chance(dup_p)) {
      const std::size_t at = i + rng.between(1, 64);
      const auto pos = std::upper_bound(
          due.begin(), due.end(), at,
          [](std::size_t a, const std::pair<std::size_t, Packet>& d) { return a < d.first; });
      due.insert(pos, {at, out[i]});
    }
    while (!due.empty() && due.front().first <= i) {
      delivered.push_back(due.front().second);
      due.pop_front();
    }
  }
  for (const auto& d : due) delivered.push_back(d.second);
  return delivered;
}

mfa::patterns::PatternSet builtin(const char* name, Workload& w) {
  mfa::patterns::PatternSet set = mfa::patterns::set_by_name(name);
  w.pattern_sources = set.sources;
  w.patterns = set.patterns;
  return set;
}

void make_c112_s31p(Workload& w, std::uint64_t seed, bool smoke) {
  const auto set = builtin("S31p", w);
  const std::size_t bytes = smoke ? (1u << 20) : (24u << 20);
  adopt_trace(mfa::trace::make_real_life(RealLifeProfile::kCyberDefenseNoisy, bytes, seed,
                                         mfa::eval::attack_exemplars(set, 2, seed)),
              w);
  w.delivered = w.in_order;
}

void make_c10_cdx_reorder(Workload& w, std::uint64_t seed, bool smoke) {
  const auto set = builtin("C10", w);
  const std::size_t bytes = smoke ? (1u << 20) : (48u << 20);
  adopt_trace(mfa::trace::make_real_life(RealLifeProfile::kCyberDefense, bytes, seed,
                                         mfa::eval::attack_exemplars(set, 2, seed)),
              w);
  mfa::util::Rng rng(seed ^ 0xc10c10c10ULL);
  w.delivered = hostile_delivery(w, 0.05, 0.025, rng);
  w.nfa_budget_bytes = smoke ? 0 : (8u << 20);
}

void make_snort5k_smallpkt(Workload& w, std::uint64_t seed, bool smoke) {
  // The repository's canonical fixture seed: the same 5k rules on every run.
  const std::size_t nrules = smoke ? 500 : 5000;
  w.rule_text = mfa::rules::generate_ruleset(mfa::rules::RulesetGenOptions{nrules, 42});
  w.patterns = parse_inputs(w);
  w.build.delta = true;
  mfa::patterns::PatternSet set;
  set.patterns = w.patterns;

  // DARPA-like content, cut into 128..1536-byte flow streams with fresh keys.
  Workload darpa;
  const std::size_t bytes = smoke ? (1u << 20) : (64u << 20);
  adopt_trace(mfa::trace::make_real_life(RealLifeProfile::kDarpa, bytes, seed,
                                         mfa::eval::attack_exemplars(set, 1, seed)),
              darpa);
  mfa::util::Rng rng(seed ^ 0x5a0f75a0f7ULL);
  for (const std::string& s : darpa.streams) {
    for (std::size_t at = 0; at < s.size();) {
      const std::size_t len = std::min<std::size_t>(rng.between(128, 1536), s.size() - at);
      const auto id = static_cast<std::uint32_t>(w.flow_keys.size());
      w.flow_keys.push_back(FlowKey{0x0b000000u + id,
                                    0xc0a80000u + static_cast<std::uint32_t>(rng.below(4096)),
                                    static_cast<std::uint16_t>(1024 + rng.below(60000)),
                                    static_cast<std::uint16_t>(rng.chance(0.6) ? 80 : 25), 6});
      w.streams.push_back(s.substr(at, len));
      at += len;
    }
  }
  packetize(w, smoke ? 5000 : 100000, 64, 512, rng);
  w.delivered = w.in_order;
  w.nfa_budget_bytes = smoke ? (16u << 10) : (48u << 10);
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

}  // namespace

std::uint64_t Workload::stream_bytes() const {
  std::uint64_t n = 0;
  for (const std::string& s : streams) n += s.size();
  return n;
}

std::uint64_t Workload::delivered_bytes() const {
  std::uint64_t n = 0;
  for (const Packet& p : delivered) n += p.length;
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"c112-s31p", "snort5k-smallpkt",
                                                 "c10-cdx-reorder"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "c112-s31p") make_c112_s31p(w, seed, smoke);
  else if (name == "snort5k-smallpkt") make_snort5k_smallpkt(w, seed, smoke);
  else if (name == "c10-cdx-reorder") make_c10_cdx_reorder(w, seed, smoke);
  else throw std::invalid_argument("unknown workload: " + name);
  return w;
}

std::vector<mfa::nfa::PatternInput> parse_inputs(const Workload& w) {
  if (w.rule_text.empty())
    return mfa::patterns::make_custom(w.name, w.pattern_sources).patterns;
  const mfa::rules::LoadResult loaded = mfa::rules::parse_rules(w.rule_text);
  if (!loaded.ok())
    throw std::runtime_error("rule text failed to parse: line " +
                             std::to_string(loaded.errors.front().line) + ": " +
                             loaded.errors.front().message);
  return mfa::rules::to_pattern_inputs(loaded.rules);
}

void print_traffic_profile(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t hist[6] = {};  // <64, <128, <256, <512, <1024, >=1024 B
  std::unordered_map<FlowKey, std::uint32_t, mfa::flow::FlowKeyHash> ids;
  ids.reserve(w.flow_keys.size());
  for (std::uint32_t f = 0; f < w.flow_keys.size(); ++f) ids.emplace(w.flow_keys[f], f);
  std::vector<std::size_t> first(w.flow_keys.size(), SIZE_MAX), last(w.flow_keys.size(), 0);
  std::vector<std::uint64_t> prev_seq(w.flow_keys.size(), 0);
  std::unordered_set<std::uint64_t> seen;  // (flow, seq) pairs
  seen.reserve(w.delivered.size());
  std::uint64_t pairs = 0, reordered = 0, dups = 0;
  for (std::size_t i = 0; i < w.delivered.size(); ++i) {
    const Packet& p = w.delivered[i];
    h = fnv(h, &p.key.src_ip, 4);
    h = fnv(h, &p.key.dst_ip, 4);
    h = fnv(h, &p.key.src_port, 2);
    h = fnv(h, &p.key.dst_port, 2);
    h = fnv(h, &p.key.proto, 1);
    h = fnv(h, &p.seq, 8);
    h = fnv(h, p.payload, p.length);
    const std::uint32_t len = p.length;
    ++hist[len < 64 ? 0 : len < 128 ? 1 : len < 256 ? 2 : len < 512 ? 3 : len < 1024 ? 4 : 5];
    const std::uint32_t f = ids.at(p.key);
    if (!seen.insert((std::uint64_t{f} << 40) ^ p.seq).second) {
      ++dups;
      continue;
    }
    if (first[f] != SIZE_MAX) {
      ++pairs;
      if (p.seq < prev_seq[f]) ++reordered;
    } else {
      first[f] = i;
    }
    prev_seq[f] = p.seq;
    last[f] = i;
  }
  // Concurrent flows: the most flows between their first and last packet.
  std::vector<std::int64_t> delta(w.delivered.size() + 1, 0);
  for (std::size_t f = 0; f < first.size(); ++f) {
    if (first[f] == SIZE_MAX) continue;
    ++delta[first[f]];
    --delta[last[f] + 1];
  }
  std::int64_t open = 0, peak = 0;
  for (const std::int64_t d : delta) peak = std::max(peak, open += d);
  const double n = static_cast<double>(w.delivered.size());
  std::printf("traffic: fingerprint %016llx, %zu packets, %llu payload bytes, %zu flows, "
              "%lld concurrent flows\n",
              static_cast<unsigned long long>(h), w.delivered.size(),
              static_cast<unsigned long long>(w.delivered_bytes()), w.flow_keys.size(),
              static_cast<long long>(peak));
  std::printf("traffic: payload sizes <64:%llu <128:%llu <256:%llu <512:%llu <1024:%llu "
              ">=1024:%llu; reordered pairs %.4f, duplicates %.4f\n",
              static_cast<unsigned long long>(hist[0]), static_cast<unsigned long long>(hist[1]),
              static_cast<unsigned long long>(hist[2]), static_cast<unsigned long long>(hist[3]),
              static_cast<unsigned long long>(hist[4]), static_cast<unsigned long long>(hist[5]),
              pairs == 0 ? 0.0 : static_cast<double>(reordered) / static_cast<double>(pairs),
              n == 0 ? 0.0 : static_cast<double>(dups) / n);
}

}  // namespace sensorbench
