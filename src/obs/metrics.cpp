#include "obs/metrics.h"

#include <algorithm>
#include <map>

#include "util/timing.h"

namespace mfa::obs {

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative > 0 && cumulative >= target)
      return Histogram::bucket_upper_bound(i);
  }
  return Histogram::bucket_upper_bound(kHistogramBuckets - 1);
}

MatchTraceRing::MatchTraceRing(std::size_t capacity) {
  std::size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

void MatchTraceRing::record(std::uint32_t src_ip, std::uint32_t dst_ip,
                            std::uint16_t src_port, std::uint16_t dst_port,
                            std::uint8_t proto, std::uint32_t match_id,
                            std::uint64_t offset, std::uint64_t tsc) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & mask_];
  s.seq.store(2 * ticket + 1, std::memory_order_relaxed);  // mark in-progress
  s.src_ip.store(src_ip, std::memory_order_relaxed);
  s.dst_ip.store(dst_ip, std::memory_order_relaxed);
  s.ports_proto.store((std::uint64_t{src_port} << 32) |
                          (std::uint64_t{dst_port} << 16) | proto,
                      std::memory_order_relaxed);
  s.match_id.store(match_id, std::memory_order_relaxed);
  s.offset.store(offset, std::memory_order_relaxed);
  s.tsc.store(tsc, std::memory_order_relaxed);
  s.seq.store(2 * ticket + 2, std::memory_order_release);  // publish
}

std::vector<MatchTraceRing::Event> MatchTraceRing::drain() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = head < mask_ + 1 ? head : mask_ + 1;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t ticket = head - n; ticket < head; ++ticket) {
    const Slot& s = slots_[ticket & mask_];
    const std::uint64_t want = 2 * ticket + 2;
    if (s.seq.load(std::memory_order_acquire) != want) continue;  // mid-overwrite
    Event e;
    e.src_ip = s.src_ip.load(std::memory_order_relaxed);
    e.dst_ip = s.dst_ip.load(std::memory_order_relaxed);
    const std::uint64_t pp = s.ports_proto.load(std::memory_order_relaxed);
    e.src_port = static_cast<std::uint16_t>(pp >> 32);
    e.dst_port = static_cast<std::uint16_t>(pp >> 16);
    e.proto = static_cast<std::uint8_t>(pp);
    e.match_id = s.match_id.load(std::memory_order_relaxed);
    e.offset = s.offset.load(std::memory_order_relaxed);
    e.tsc = s.tsc.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) != want) continue;  // re-check
    out.push_back(e);
  }
  return out;
}

SpanTraceRing::SpanTraceRing(std::size_t capacity) {
  std::size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

void SpanTraceRing::record(std::uint32_t src_ip, std::uint32_t dst_ip,
                           std::uint16_t src_port, std::uint16_t dst_port,
                           std::uint8_t proto, std::uint32_t shard,
                           std::uint64_t submit_tsc, std::uint64_t dequeue_tsc,
                           std::uint64_t scan_start_tsc,
                           std::uint64_t scan_end_tsc) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & mask_];
  s.seq.store(2 * ticket + 1, std::memory_order_relaxed);  // mark in-progress
  s.src_ip.store(src_ip, std::memory_order_relaxed);
  s.dst_ip.store(dst_ip, std::memory_order_relaxed);
  s.ports_proto.store((std::uint64_t{src_port} << 32) |
                          (std::uint64_t{dst_port} << 16) | proto,
                      std::memory_order_relaxed);
  s.shard.store(shard, std::memory_order_relaxed);
  s.submit_tsc.store(submit_tsc, std::memory_order_relaxed);
  s.dequeue_tsc.store(dequeue_tsc, std::memory_order_relaxed);
  s.scan_start_tsc.store(scan_start_tsc, std::memory_order_relaxed);
  s.scan_end_tsc.store(scan_end_tsc, std::memory_order_relaxed);
  s.seq.store(2 * ticket + 2, std::memory_order_release);  // publish
}

std::vector<SpanTraceRing::Event> SpanTraceRing::drain() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = head < mask_ + 1 ? head : mask_ + 1;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t ticket = head - n; ticket < head; ++ticket) {
    const Slot& s = slots_[ticket & mask_];
    const std::uint64_t want = 2 * ticket + 2;
    if (s.seq.load(std::memory_order_acquire) != want) continue;  // mid-overwrite
    Event e;
    e.src_ip = s.src_ip.load(std::memory_order_relaxed);
    e.dst_ip = s.dst_ip.load(std::memory_order_relaxed);
    const std::uint64_t pp = s.ports_proto.load(std::memory_order_relaxed);
    e.src_port = static_cast<std::uint16_t>(pp >> 32);
    e.dst_port = static_cast<std::uint16_t>(pp >> 16);
    e.proto = static_cast<std::uint8_t>(pp);
    e.shard = s.shard.load(std::memory_order_relaxed);
    e.submit_tsc = s.submit_tsc.load(std::memory_order_relaxed);
    e.dequeue_tsc = s.dequeue_tsc.load(std::memory_order_relaxed);
    e.scan_start_tsc = s.scan_start_tsc.load(std::memory_order_relaxed);
    e.scan_end_tsc = s.scan_end_tsc.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) != want) continue;  // re-check
    out.push_back(e);
  }
  return out;
}

MetricsRegistry::MetricsRegistry(Options opt)
    : shard_count_(opt.shards == 0 ? 1 : opt.shards),
      match_id_capacity_(opt.match_id_capacity),
      shards_(std::make_unique<ShardMetrics[]>(shard_count_)),
      match_counts_(
          std::make_unique<std::atomic<std::uint64_t>[]>(match_id_capacity_)),
      trace_(opt.trace_capacity),
      spans_(opt.span_capacity) {
  for (std::size_t i = 0; i < match_id_capacity_; ++i)
    match_counts_[i].store(0, std::memory_order_relaxed);
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot snap;
  snap.shards.reserve(shard_count_);
  for (std::size_t i = 0; i < shard_count_; ++i)
    snap.shards.push_back(shards_[i].snapshot());
  for (std::size_t id = 0; id < match_id_capacity_; ++id) {
    const std::uint64_t c = match_counts_[id].load(std::memory_order_relaxed);
    if (c != 0) snap.match_counts.emplace_back(static_cast<std::uint32_t>(id), c);
  }
  snap.match_id_overflow = match_id_overflow_.load(std::memory_order_relaxed);
  snap.trace_events = trace_.drain();
  snap.trace_recorded = trace_.recorded();
  snap.span_events = spans_.drain();
  snap.span_recorded = spans_.recorded();
  snap.ruleset_generation = ruleset_generation_.load(std::memory_order_relaxed);
  snap.ruleset_swaps = ruleset_swaps_.load(std::memory_order_relaxed);
  snap.ruleset_swap_ns = ruleset_swap_ns_.snapshot();
  for (const GenerationSlot& slot : generation_slots_) {
    const std::uint64_t gen = slot.generation.load(std::memory_order_acquire);
    if (gen == kGenerationSlotEmpty) continue;
    const std::uint64_t c = slot.count.load(std::memory_order_relaxed);
    if (c != 0) snap.generation_matches.emplace_back(gen, c);
  }
  std::sort(snap.generation_matches.begin(), snap.generation_matches.end());
  snap.generation_match_overflow =
      generation_match_overflow_.load(std::memory_order_relaxed);
  return snap;
}

void MetricsRegistry::reset_match_counts() {
  for (std::size_t id = 0; id < match_id_capacity_; ++id)
    match_counts_[id].store(0, std::memory_order_relaxed);
  match_id_overflow_.store(0, std::memory_order_relaxed);
  for (GenerationSlot& slot : generation_slots_) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.generation.store(kGenerationSlotEmpty, std::memory_order_release);
  }
  generation_match_overflow_.store(0, std::memory_order_relaxed);
}

namespace {

/// Add (key, count) pairs into an ascending list, keeping it ascending.
template <typename K>
void add_counts(std::vector<std::pair<K, std::uint64_t>>& into,
                const std::vector<std::pair<K, std::uint64_t>>& from) {
  std::map<K, std::uint64_t> sum(into.begin(), into.end());
  for (const auto& [key, n] : from) sum[key] += n;
  into.assign(sum.begin(), sum.end());
}

}  // namespace

void RegistrySnapshot::add_run(const RegistrySnapshot& later) {
  if (shards.size() < later.shards.size()) shards.resize(later.shards.size());
  for (std::size_t i = 0; i < later.shards.size(); ++i) {
    ShardSnapshot& s = shards[i];
    const ShardSnapshot& l = later.shards[i];
    s += l;
    s.flows = l.flows;
    s.reassembly_pending_bytes = l.reassembly_pending_bytes;
    s.flow_hot_slots = l.flow_hot_slots;
    s.flow_cold_bytes = l.flow_cold_bytes;
    s.degrade_level = l.degrade_level;
  }
  add_counts(match_counts, later.match_counts);
  match_id_overflow += later.match_id_overflow;
  add_counts(generation_matches, later.generation_matches);
  generation_match_overflow += later.generation_match_overflow;
  trace_events = later.trace_events;
  trace_recorded = later.trace_recorded;
  span_events = later.span_events;
  span_recorded = later.span_recorded;
  ruleset_generation = later.ruleset_generation;
  ruleset_swaps = later.ruleset_swaps;
  ruleset_swap_ns = later.ruleset_swap_ns;
}

void MetricsRegistry::record_ruleset_swap(std::uint64_t generation,
                                          std::uint64_t prepare_ns) {
  ruleset_generation_.store(generation, std::memory_order_relaxed);
  ruleset_swaps_.fetch_add(1, std::memory_order_relaxed);
  ruleset_swap_ns_.record(prepare_ns);
  trace_.record(0, 0, 0, 0, 0, kRulesetSwappedEventId, generation,
                util::rdtsc_now());
}

}  // namespace mfa::obs
