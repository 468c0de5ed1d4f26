// Telemetry core: lock-free per-shard metrics and a drainable match-event
// trace ring (DESIGN.md Sec. 8 "Observability").
//
// The paper's argument is quantitative — MFA wins only if per-byte work
// stays near-DFA while filter overhead stays negligible (Sec. VII) — so the
// running system must be observable without perturbing what it measures.
// Every hot-path update here is a relaxed atomic store into shard-private,
// cache-line-aligned storage (a counter with one writer thread is advanced
// by a relaxed load and store, and telemetry histograms by increments): no
// locks, no CAS loops, no cross-shard sharing. Readers take best-effort-consistent snapshots from
// any thread while workers keep scanning; monotonic counters can only be
// observed "slightly behind", never torn (all fields are atomics, so the
// concurrent snapshot path is TSan-clean by construction).
//
// This header is dependency-free below util/ so that flow/ and pipeline/
// can include it without cycles; flow identifiers are passed as raw tuple
// fields rather than flow::FlowKey.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace mfa::obs {

/// Bucket count of every log-bucketed histogram. Bucket i holds values
/// whose bit width is i (i.e. v in [2^(i-1), 2^i - 1]; bucket 0 = {0});
/// values too large for the last bucket clamp into it.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Reserved match-id used in the MatchTraceRing for flow-quarantine events
/// (DESIGN.md Sec. 9): the flow's 5-tuple identifies the quarantined flow
/// and `offset` carries the stream position at eviction. Real pattern ids
/// never reach this value (pattern tables are far smaller than 2^32-1).
inline constexpr std::uint32_t kFlowQuarantinedEventId = 0xffffffffu;

/// Reserved match-id used in the MatchTraceRing for ruleset hot-swap events
/// (DESIGN.md Sec. 10): the 5-tuple fields are zero and `offset` carries the
/// newly published engine generation.
inline constexpr std::uint32_t kRulesetSwappedEventId = 0xfffffffeu;

/// Reserved match-id used in the MatchTraceRing for degradation-ladder
/// transitions (DESIGN.md §14): src_ip carries the shard index, `offset`
/// the new ladder level (0-3). One event per controller transition.
inline constexpr std::uint32_t kDegradeTransitionEventId = 0xfffffffdu;

/// Read-side copy of a Histogram: plain integers, mergeable across shards.
struct HistogramSnapshot {
  std::uint64_t counts[kHistogramBuckets] = {};
  std::uint64_t count = 0;  ///< total recorded values
  std::uint64_t sum = 0;    ///< sum of recorded values (exact, not bucketed)

  HistogramSnapshot& operator+=(const HistogramSnapshot& o) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) counts[i] += o.counts[i];
    count += o.count;
    sum += o.sum;
    return *this;
  }

  bool operator==(const HistogramSnapshot&) const = default;

  [[nodiscard]] double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Highest non-empty bucket index (0 when the histogram is empty).
  [[nodiscard]] std::size_t max_bucket() const {
    std::size_t hi = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
      if (counts[i] != 0) hi = i;
    return hi;
  }

  /// Upper bound of the bucket where the cumulative count first reaches
  /// q * count — a log2-granular quantile estimate.
  [[nodiscard]] std::uint64_t quantile(double q) const;
};

/// Log2-bucketed histogram with relaxed-atomic recording. One writer per
/// instance on the hot path (shard-confined); any number of concurrent
/// snapshot readers.
class Histogram {
 public:
  static constexpr std::size_t bucket_index(std::uint64_t v) {
    const auto w = static_cast<std::size_t>(std::bit_width(v));
    return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
  }

  /// Largest value that lands in bucket i (UINT64_MAX for the clamp bucket).
  static constexpr std::uint64_t bucket_upper_bound(std::size_t i) {
    return i + 1 >= kHistogramBuckets ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t v) {
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> counts_[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Read-side copy of one shard's counter record: what the shard was handed,
/// scanned and shed, and what its flow inspector saw. operator+= merges
/// across shards (counters and gauges sum; max_queue_depth and
/// degrade_level take the max). pipeline::ShardStats is this type.
struct ShardSnapshot {
  std::uint64_t submitted = 0;  ///< packets handed to submit()
  std::uint64_t scanned = 0;    ///< packets delivered and not quarantine-dropped
  std::uint64_t packets = 0;    ///< packets handed to the flow inspector
  std::uint64_t bytes = 0;      ///< payload bytes of those packets
  std::uint64_t matches = 0;    ///< matches the inspector emitted
  std::uint64_t flows = 0;                     ///< gauge: flows resident now
  /// Flows evicted to stay under max_flows; idle-TTL evictions are not
  /// counted here.
  std::uint64_t evictions = 0;
  std::uint64_t reassembly_drops = 0;
  std::uint64_t reassembly_pending_bytes = 0;  ///< gauge: buffered OOO bytes
  std::uint64_t flow_hot_slots = 0;  ///< gauge: tiered hot-table slot capacity
  std::uint64_t flow_cold_bytes = 0; ///< gauge: tiered cold-tier slab bytes
  std::uint64_t flows_spilled = 0;   ///< inline flows spilled to the cold tier
  std::uint64_t queue_full_spins = 0;          ///< producer full-spin count
  std::uint64_t max_queue_depth = 0;           ///< gauge: high-water mark
  // One bucket per pipeline::ShedReason; shed_total() is their sum.
  std::uint64_t shed_admission = 0;   ///< dropped at submit() by the shed policy
  std::uint64_t shed_bypass = 0;      ///< counted, never scanned (ladder L3)
  std::uint64_t shed_corrupt = 0;     ///< injected corrupt packets
  std::uint64_t shed_crash = 0;       ///< burst abandoned by a crashed worker
  std::uint64_t shed_quarantine = 0;  ///< flow over its CPU budget
  std::uint64_t shed_failover = 0;    ///< failed shard or shutdown deadline
  std::uint64_t shed_bytes = 0;         ///< payload bytes of shed packets
  std::uint64_t flows_quarantined = 0;  ///< flows evicted for CPU over-budget
  std::uint64_t prefilter_pass = 0;  ///< gate-eligible chunks scanned in full
  std::uint64_t prefilter_skip = 0;  ///< chunks proven clean, scan skipped
  std::uint64_t degraded_hits = 0;   ///< L2 probe-positive detections
  std::uint64_t degrade_level = 0;   ///< gauge: ladder level (merge takes max)
  std::uint64_t degrade_transitions = 0;  ///< controller level changes
  std::uint64_t flows_recovered = 0;  ///< journal-reset flows after crashes
  std::uint64_t worker_restarts = 0;    ///< crashed shard workers restarted
  std::uint64_t worker_stalls = 0;      ///< watchdog stall detections
  std::uint64_t spans_sampled = 0;      ///< packets carrying a latency span
  HistogramSnapshot scan_ns;      ///< per-packet scan latency, nanoseconds
  HistogramSnapshot packet_bytes; ///< per-packet payload size
  HistogramSnapshot bytes_per_flow;  ///< flow-table bytes / resident flow
  HistogramSnapshot queue_depth;  ///< SPSC depth sampled at each submit()
  // Latency spans (sampled 1-in-N; see pipeline::Options::trace_sample_shift):
  HistogramSnapshot queue_wait_ns;  ///< submit() -> worker dequeue
  HistogramSnapshot span_scan_ns;   ///< scan-start -> scan-end of the burst
  HistogramSnapshot e2e_ns;         ///< submit() -> scan-end (end to end)

  /// Packets shed instead of scanned, over every reason: the accounting
  /// invariant is submitted == scanned + shed_total().
  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_admission + shed_bypass + shed_corrupt + shed_crash +
           shed_quarantine + shed_failover;
  }

  ShardSnapshot& operator+=(const ShardSnapshot& o);
};

/// One shard's counter record, written once per event by the thread that
/// owns the event and readable from any thread. Cache-line-aligned so two
/// shards never share a line, and each writer's fields start a line of
/// their own: the scan side is written by the shard's worker (or the
/// sequential inspector's thread), the queue side by the submit() producer.
/// The shed and supervision side is written by whichever thread sheds —
/// producer, worker or watchdog — so its counters are read-modify-writes.
struct alignas(64) ShardMetrics {
  // --- scan side (shard worker / sequential inspector thread) ---
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> matches{0};
  std::atomic<std::uint64_t> scanned{0};
  std::atomic<std::uint64_t> flows{0};                     // gauge
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> reassembly_drops{0};
  std::atomic<std::uint64_t> reassembly_pending_bytes{0};  // gauge
  std::atomic<std::uint64_t> flow_hot_slots{0};            // gauge
  std::atomic<std::uint64_t> flow_cold_bytes{0};           // gauge
  std::atomic<std::uint64_t> flows_spilled{0};
  std::atomic<std::uint64_t> flows_quarantined{0};
  std::atomic<std::uint64_t> prefilter_pass{0};
  std::atomic<std::uint64_t> prefilter_skip{0};
  std::atomic<std::uint64_t> degraded_hits{0};
  std::atomic<std::uint64_t> degrade_level{0};        // gauge
  std::atomic<std::uint64_t> degrade_transitions{0};
  std::atomic<std::uint64_t> spans_sampled{0};
  Histogram scan_ns;
  Histogram packet_bytes;
  Histogram bytes_per_flow;
  // Latency spans, recorded by the shard worker for sampled packets only.
  Histogram queue_wait_ns;
  Histogram span_scan_ns;
  Histogram e2e_ns;
  // --- queue side (the submit() producer thread) ---
  alignas(64) std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> queue_full_spins{0};
  std::atomic<std::uint64_t> max_queue_depth{0};           // gauge
  Histogram queue_depth;
  // --- shed/supervision side (producer, worker, or watchdog thread) ---
  alignas(64) std::atomic<std::uint64_t> shed_admission{0};
  std::atomic<std::uint64_t> shed_bypass{0};
  std::atomic<std::uint64_t> shed_corrupt{0};
  std::atomic<std::uint64_t> shed_crash{0};
  std::atomic<std::uint64_t> shed_quarantine{0};
  std::atomic<std::uint64_t> shed_failover{0};
  std::atomic<std::uint64_t> shed_bytes{0};
  std::atomic<std::uint64_t> worker_restarts{0};
  std::atomic<std::uint64_t> worker_stalls{0};
  std::atomic<std::uint64_t> flows_recovered{0};  // journal resets (watchdog)

  /// Calls f(live field, snapshot field) for every field, counters before
  /// histograms and `packets` first: the one list snapshot(), reset() and
  /// ShardSnapshot::operator+= walk.
  template <typename F>
  static void for_each_field(F&& f) {
    f(&ShardMetrics::packets, &ShardSnapshot::packets);
    f(&ShardMetrics::bytes, &ShardSnapshot::bytes);
    f(&ShardMetrics::matches, &ShardSnapshot::matches);
    f(&ShardMetrics::scanned, &ShardSnapshot::scanned);
    f(&ShardMetrics::submitted, &ShardSnapshot::submitted);
    f(&ShardMetrics::flows, &ShardSnapshot::flows);
    f(&ShardMetrics::evictions, &ShardSnapshot::evictions);
    f(&ShardMetrics::reassembly_drops, &ShardSnapshot::reassembly_drops);
    f(&ShardMetrics::reassembly_pending_bytes, &ShardSnapshot::reassembly_pending_bytes);
    f(&ShardMetrics::flow_hot_slots, &ShardSnapshot::flow_hot_slots);
    f(&ShardMetrics::flow_cold_bytes, &ShardSnapshot::flow_cold_bytes);
    f(&ShardMetrics::flows_spilled, &ShardSnapshot::flows_spilled);
    f(&ShardMetrics::queue_full_spins, &ShardSnapshot::queue_full_spins);
    f(&ShardMetrics::max_queue_depth, &ShardSnapshot::max_queue_depth);
    f(&ShardMetrics::shed_admission, &ShardSnapshot::shed_admission);
    f(&ShardMetrics::shed_bypass, &ShardSnapshot::shed_bypass);
    f(&ShardMetrics::shed_corrupt, &ShardSnapshot::shed_corrupt);
    f(&ShardMetrics::shed_crash, &ShardSnapshot::shed_crash);
    f(&ShardMetrics::shed_quarantine, &ShardSnapshot::shed_quarantine);
    f(&ShardMetrics::shed_failover, &ShardSnapshot::shed_failover);
    f(&ShardMetrics::shed_bytes, &ShardSnapshot::shed_bytes);
    f(&ShardMetrics::flows_quarantined, &ShardSnapshot::flows_quarantined);
    f(&ShardMetrics::prefilter_pass, &ShardSnapshot::prefilter_pass);
    f(&ShardMetrics::prefilter_skip, &ShardSnapshot::prefilter_skip);
    f(&ShardMetrics::degraded_hits, &ShardSnapshot::degraded_hits);
    f(&ShardMetrics::degrade_level, &ShardSnapshot::degrade_level);
    f(&ShardMetrics::degrade_transitions, &ShardSnapshot::degrade_transitions);
    f(&ShardMetrics::flows_recovered, &ShardSnapshot::flows_recovered);
    f(&ShardMetrics::worker_restarts, &ShardSnapshot::worker_restarts);
    f(&ShardMetrics::worker_stalls, &ShardSnapshot::worker_stalls);
    f(&ShardMetrics::spans_sampled, &ShardSnapshot::spans_sampled);
    f(&ShardMetrics::scan_ns, &ShardSnapshot::scan_ns);
    f(&ShardMetrics::packet_bytes, &ShardSnapshot::packet_bytes);
    f(&ShardMetrics::bytes_per_flow, &ShardSnapshot::bytes_per_flow);
    f(&ShardMetrics::queue_depth, &ShardSnapshot::queue_depth);
    f(&ShardMetrics::queue_wait_ns, &ShardSnapshot::queue_wait_ns);
    f(&ShardMetrics::span_scan_ns, &ShardSnapshot::span_scan_ns);
    f(&ShardMetrics::e2e_ns, &ShardSnapshot::e2e_ns);
  }

  [[nodiscard]] ShardSnapshot snapshot() const {
    ShardSnapshot s;
    for_each_field([&](auto live, auto snap) { s.*snap = read(this->*live); });
    return s;
  }

  /// Zero every field. Only for a block no thread is writing (a pipeline
  /// zeroes its shards' blocks in start(), before the workers spawn);
  /// concurrent readers see each field either old or zero, never torn.
  void reset() {
    for_each_field([&](auto live, auto) { zero(this->*live); });
  }

 private:
  static std::uint64_t read(const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  }
  static HistogramSnapshot read(const Histogram& h) { return h.snapshot(); }
  static void zero(std::atomic<std::uint64_t>& a) { a.store(0, std::memory_order_relaxed); }
  static void zero(Histogram& h) { h.reset(); }
};

inline ShardSnapshot& ShardSnapshot::operator+=(const ShardSnapshot& o) {
  // The merged depth and level are the worst shard's: one shard at L2
  // means the aggregate is degraded to L2, whatever the siblings are doing.
  const std::uint64_t depth = std::max(max_queue_depth, o.max_queue_depth);
  const std::uint64_t level = std::max(degrade_level, o.degrade_level);
  ShardMetrics::for_each_field([&](auto, auto f) { this->*f += o.*f; });
  max_queue_depth = depth;
  degrade_level = level;
  return *this;
}

/// Fixed-capacity ring of match events, drainable while workers keep
/// recording. Writers claim a slot by ticket (fetch_add) and publish it
/// with a release store of the slot's sequence number; old events are
/// silently overwritten once the ring wraps. drain() is best-effort under
/// concurrency: a slot caught mid-overwrite is skipped, never torn (every
/// field is an atomic).
class MatchTraceRing {
 public:
  struct Event {
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t proto = 0;
    std::uint32_t match_id = 0;
    std::uint64_t offset = 0;  ///< flow byte offset of the match end
    std::uint64_t tsc = 0;     ///< util::rdtsc_now() at the match
  };

  /// Capacity rounds up to a power of two (minimum 2).
  explicit MatchTraceRing(std::size_t capacity);

  void record(std::uint32_t src_ip, std::uint32_t dst_ip, std::uint16_t src_port,
              std::uint16_t dst_port, std::uint8_t proto, std::uint32_t match_id,
              std::uint64_t offset, std::uint64_t tsc);

  /// The newest (up to capacity) published events, oldest first.
  [[nodiscard]] std::vector<Event> drain() const;

  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 empty, 2t+1 writing, 2t+2 published
    std::atomic<std::uint32_t> src_ip{0};
    std::atomic<std::uint32_t> dst_ip{0};
    std::atomic<std::uint64_t> ports_proto{0};  ///< sp<<32 | dp<<16 | proto
    std::atomic<std::uint32_t> match_id{0};
    std::atomic<std::uint64_t> offset{0};
    std::atomic<std::uint64_t> tsc{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  ///< next ticket to claim
};

/// Fixed-capacity ring of per-packet latency spans (submit / dequeue /
/// scan-start / scan-end TSC stamps), drainable while workers keep
/// recording. Same slot protocol as MatchTraceRing: ticket-claimed slots,
/// release-published sequence numbers, best-effort drain that skips
/// mid-overwrite slots and never reads a torn record. Spans are sampled
/// 1-in-N on the pipeline hot path (pipeline::Options::trace_sample_shift),
/// so the ring sees a trickle, not the packet rate.
class SpanTraceRing {
 public:
  struct Event {
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t proto = 0;
    std::uint32_t shard = 0;          ///< shard slot that scanned the packet
    std::uint64_t submit_tsc = 0;     ///< producer stamp at submit()
    std::uint64_t dequeue_tsc = 0;    ///< worker stamp when the burst popped
    std::uint64_t scan_start_tsc = 0; ///< just before engine delivery
    std::uint64_t scan_end_tsc = 0;   ///< just after engine delivery
  };

  /// Capacity rounds up to a power of two (minimum 2).
  explicit SpanTraceRing(std::size_t capacity);

  void record(std::uint32_t src_ip, std::uint32_t dst_ip, std::uint16_t src_port,
              std::uint16_t dst_port, std::uint8_t proto, std::uint32_t shard,
              std::uint64_t submit_tsc, std::uint64_t dequeue_tsc,
              std::uint64_t scan_start_tsc, std::uint64_t scan_end_tsc);

  /// The newest (up to capacity) published spans, oldest first.
  [[nodiscard]] std::vector<Event> drain() const;

  /// Total spans ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 empty, 2t+1 writing, 2t+2 published
    std::atomic<std::uint32_t> src_ip{0};
    std::atomic<std::uint32_t> dst_ip{0};
    std::atomic<std::uint64_t> ports_proto{0};  ///< sp<<32 | dp<<16 | proto
    std::atomic<std::uint32_t> shard{0};
    std::atomic<std::uint64_t> submit_tsc{0};
    std::atomic<std::uint64_t> dequeue_tsc{0};
    std::atomic<std::uint64_t> scan_start_tsc{0};
    std::atomic<std::uint64_t> scan_end_tsc{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  ///< next ticket to claim
};

/// Whole-registry read-side copy: per-shard snapshots, per-match-id hit
/// counts, and the drained trace ring.
struct RegistrySnapshot {
  std::vector<ShardSnapshot> shards;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> match_counts;  ///< nonzero ids
  std::uint64_t match_id_overflow = 0;  ///< hits whose id exceeded the counter table
  std::vector<MatchTraceRing::Event> trace_events;
  std::uint64_t trace_recorded = 0;
  std::vector<SpanTraceRing::Event> span_events;
  std::uint64_t span_recorded = 0;
  // --- ruleset lifecycle (DESIGN.md Sec. 10) ---
  std::uint64_t ruleset_generation = 0;  ///< gauge: newest published generation
  std::uint64_t ruleset_swaps = 0;       ///< completed hot swaps
  HistogramSnapshot ruleset_swap_ns;     ///< swap prepare latency (compile/load)
  /// Matches attributed per engine generation, ascending by generation.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> generation_matches;
  std::uint64_t generation_match_overflow = 0;  ///< hits the slot table couldn't place

  [[nodiscard]] ShardSnapshot totals() const {
    ShardSnapshot t;
    for (const auto& s : shards) t += s;
    return t;
  }

  /// Fold a later snapshot of the same registry, taken after the pipeline
  /// restarted on it, into this one: totals over several runs. start()
  /// zeroes the per-run counters (the shard blocks and the per-id and
  /// per-generation match counts), so counters and histograms add, shard
  /// gauges take the later run's value and max_queue_depth the max. The
  /// rings and the ruleset lifecycle outlive a run, so the later copy
  /// replaces this one's.
  void add_run(const RegistrySnapshot& later);
};

/// The telemetry root shared by all engines and the sharded pipeline: N
/// cache-line-aligned ShardMetrics, a per-match-id counter table, and one
/// match-event trace ring. Construct once, hand shard slots to inspectors
/// (TieredFlowInspector::set_metrics / pipeline::Options::metrics),
/// snapshot from anywhere at any time.
class MetricsRegistry {
 public:
  struct Options {
    std::size_t shards = 1;
    std::size_t match_id_capacity = 1024;  ///< ids >= this count as overflow
    std::size_t trace_capacity = 1024;     ///< match-event ring slots
    std::size_t span_capacity = 1024;      ///< latency-span ring slots
  };

  MetricsRegistry() : MetricsRegistry(Options{}) {}
  explicit MetricsRegistry(Options opt);
  explicit MetricsRegistry(std::size_t shards)
      : MetricsRegistry(Options{.shards = shards}) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  [[nodiscard]] ShardMetrics& shard(std::size_t i) { return shards_[i]; }
  [[nodiscard]] const ShardMetrics& shard(std::size_t i) const { return shards_[i]; }

  void count_match(std::uint32_t id) {
    if (id < match_id_capacity_)
      match_counts_[id].fetch_add(1, std::memory_order_relaxed);
    else
      match_id_overflow_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t match_count(std::uint32_t id) const {
    return id < match_id_capacity_
               ? match_counts_[id].load(std::memory_order_relaxed)
               : 0;
  }

  /// Zero the per-run match tables: per-id counts, per-generation counts
  /// and their overflows. A pipeline calls this in start(), next to zeroing
  /// its shard blocks, so mfa_match_hits_total sums to mfa_matches_total on
  /// every run. Only while no thread is counting matches into the registry.
  void reset_match_counts();

  /// A shard abandoned by bounded shutdown keeps a detached worker that
  /// may still write its slot and the match tables. The pipeline marks the
  /// registry here, and start() refuses a marked registry: a new run must
  /// not share its record with that worker.
  void note_abandoned_writer() {
    abandoned_writer_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool has_abandoned_writer() const {
    return abandoned_writer_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] MatchTraceRing& trace() { return trace_; }
  [[nodiscard]] const MatchTraceRing& trace() const { return trace_; }

  [[nodiscard]] SpanTraceRing& spans() { return spans_; }
  [[nodiscard]] const SpanTraceRing& spans() const { return spans_; }

  // --- ruleset lifecycle (DESIGN.md Sec. 10) ---

  /// A hot swap published `generation`; `prepare_ns` is the off-thread
  /// compile/load latency. Bumps the generation gauge and swap counter,
  /// records the latency histogram and a kRulesetSwappedEventId trace event.
  void record_ruleset_swap(std::uint64_t generation, std::uint64_t prepare_ns);

  [[nodiscard]] std::uint64_t ruleset_generation() const {
    return ruleset_generation_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ruleset_swaps() const {
    return ruleset_swaps_.load(std::memory_order_relaxed);
  }

  /// Attribute one match to the engine generation that produced it. Lock
  /// free: a small fixed table of CAS-claimed (generation, count) slots —
  /// plenty for the handful of generations alive at once; a hit that cannot
  /// claim a slot (hash collision with a different live generation) counts
  /// as generation_match_overflow instead of being dropped.
  void count_match_generation(std::uint64_t generation) {
    GenerationSlot& slot = generation_slots_[generation % kGenerationSlots];
    std::uint64_t cur = slot.generation.load(std::memory_order_acquire);
    if (cur == kGenerationSlotEmpty &&
        slot.generation.compare_exchange_strong(cur, generation,
                                                std::memory_order_acq_rel))
      cur = generation;  // we claimed it (CAS failure leaves the winner in cur)
    if (cur != generation) {
      generation_match_overflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.count.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t generation_match_count(std::uint64_t generation) const {
    const GenerationSlot& slot = generation_slots_[generation % kGenerationSlots];
    return slot.generation.load(std::memory_order_acquire) == generation
               ? slot.count.load(std::memory_order_relaxed)
               : 0;
  }

  /// Read-side copy of everything, safe while workers keep scanning.
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  static constexpr std::size_t kGenerationSlots = 32;
  static constexpr std::uint64_t kGenerationSlotEmpty = ~std::uint64_t{0};

  struct GenerationSlot {
    std::atomic<std::uint64_t> generation{kGenerationSlotEmpty};
    std::atomic<std::uint64_t> count{0};
  };

  std::size_t shard_count_;
  std::size_t match_id_capacity_;
  std::unique_ptr<ShardMetrics[]> shards_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> match_counts_;
  std::atomic<std::uint64_t> match_id_overflow_{0};
  MatchTraceRing trace_;
  SpanTraceRing spans_;
  std::atomic<std::uint64_t> ruleset_generation_{0};
  std::atomic<std::uint64_t> ruleset_swaps_{0};
  Histogram ruleset_swap_ns_;
  GenerationSlot generation_slots_[kGenerationSlots];
  std::atomic<std::uint64_t> generation_match_overflow_{0};
  std::atomic<bool> abandoned_writer_{false};
};

}  // namespace mfa::obs
