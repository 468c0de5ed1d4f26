// The flow inspector: hierarchical hot/cold flow state (DESIGN.md Sec. 11).
//
// Paper Sec. III-B multiplexes flows by keeping "a (q, m) pair for each
// flow" next to one shared automaton. For the paper's MFA that pair is a
// 12-byte context, so at millions of concurrent flows the table around it
// — not the automaton — decides memory. A node-based map pays ~200 bytes
// of node and allocator overhead per flow, and a per-packet LRU relink
// dirties two extra cache lines per packet.
//
// TieredFlowInspector splits the flow table into two tiers:
//
//  - HOT: an open-addressed, 2-choice-hashed table of fixed-size slots
//    (width-8 buckets, one cuckoo kick level, then grow). A slot holds the
//    FlowKey, the stream offset, the last-active epoch, and — for engines
//    exposing the InlineContext small-state API (Dfa, D2fa, Mfa) — the
//    whole per-flow scan state inline. In-order flows of such engines
//    never touch the heap at all, at any ruleset size: an Mfa flow's
//    filter memory rides along as up to four live bit ids.
//  - COLD: per-shard slab-arena records (slab.h), allocated only for flows
//    that reorder (buffered segments), run a big-state engine
//    (Nfa/Hfa/Xfa), or spilled: an Mfa flow whose filter memory still
//    outgrows its slot at a chunk end (a fifth live bit or a position
//    record) moves it into a full heap Context and stays cold
//    until re-adoption or eviction.
//    A reorder-only record is freed again the moment its gap fills.
//
// Eviction uses a hashed timing wheel (timing_wheel.h) driven by a
// per-shard packet epoch: touching a flow writes one epoch field in its hot
// slot — no list relinking — and wheel entries are validated lazily when
// they surface. Capacity eviction (max_flows) consumes the oldest-surfacing
// valid entry; an optional idle TTL evicts flows untouched for N epochs.
// All O(1) amortized.
//
// Capacity note: wheel entries encode (slot << 8 | stamp) in 32 bits, so a
// single inspector is capped at 2^24 hot slots (~16M flows per shard).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "flow/flow.h"
#include "flow/slab.h"
#include "flow/timing_wheel.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/faultpoint.h"
#include "util/timing.h"

namespace mfa::flow {

namespace detail {

/// Spill-target shape, for the concept check below only.
template <typename Ctx>
struct SpillProbe {
  Ctx& operator()() const;
};

}  // namespace detail

/// Engines with a compact InlineContext that can outgrow its slot (Mfa):
/// the InlineContext feed takes a spill target returning the flow's full
/// Context, which the inspector builds with expand_inline() when the
/// engine asks (see spill_slot()).
template <typename EngineT>
concept SpillingInlineEngine =
    ScanEngine<EngineT> &&
    requires(const EngineT& e, typename EngineT::InlineContext& ic,
             const std::uint8_t* data,
             detail::SpillProbe<typename EngineT::Context> spill) {
      { e.make_inline_context() } -> std::same_as<typename EngineT::InlineContext>;
      { e.expand_inline(ic) } -> std::same_as<typename EngineT::Context>;
      e.feed(ic, data, std::size_t{0}, std::uint64_t{0}, spill,
             [](std::uint32_t, std::uint64_t) {});
    };

/// Engines whose per-flow scan state lives inline in a hot-table slot:
/// either the Context itself is slot-sized (the table-driven DFAs, whose
/// InlineContext is their Context and whose feed applies unchanged), or
/// the engine spills (above).
template <typename EngineT>
concept InlineScanEngine =
    SpillingInlineEngine<EngineT> ||
    (ScanEngine<EngineT> &&
     std::same_as<typename EngineT::InlineContext, typename EngineT::Context> &&
     requires(const EngineT& e) {
       { e.make_inline_context() } -> std::same_as<typename EngineT::Context>;
     });

namespace detail {

/// Slot-resident scan state: the engine's InlineContext when it has one, an
/// empty (zero-size via [[no_unique_address]]) placeholder otherwise.
template <typename EngineT, bool kInlineCapable = InlineScanEngine<EngineT>>
struct InlineStateOf {
  struct type {};
};
template <typename EngineT>
struct InlineStateOf<EngineT, true> {
  using type = typename EngineT::InlineContext;
};

}  // namespace detail

/// Multiplexing inspector over the Engine/Context split. Stores one shared
/// Engine reference for ALL flows and one scan state per flow — no
/// per-flow engine copies or pointers — so the per-flow footprint is the
/// engine's context plus reassembly bookkeeping (see file comment for
/// where each lives).
///
/// `max_flows` bounds the flow table (0 = unbounded): when a new flow would
/// exceed it, the longest-untouched flow (to timing-wheel precision) is
/// evicted and counted in evicted_count().
///
/// `max_pending_bytes` bounds each flow's out-of-order buffer (0 =
/// unbounded); overflow drops the oldest-arrival buffered segment and
/// counts it in reassembly_dropped_count().
///
/// Not thread-safe; under the sharded pipeline each worker thread owns one
/// inspector. The engine must outlive the inspector.
template <typename EngineT>
  requires ScanEngine<EngineT>
class TieredFlowInspector {
 public:
  using Context = typename EngineT::Context;
  using InlineState = typename detail::InlineStateOf<EngineT>::type;

  /// Slots per bucket; both candidate buckets are scanned on lookup.
  static constexpr std::uint32_t kBucketWidth = 8;
  /// Epochs ahead a validated wheel entry is rescheduled. Deliberately NOT
  /// a multiple of the wheel span (256 buckets * 4-epoch granule = 1024):
  /// a same-bucket reschedule loop would otherwise re-surface immediately.
  static constexpr std::uint32_t kHorizon = 768;

  explicit TieredFlowInspector(const EngineT& engine, std::size_t max_flows = 0,
                               std::size_t max_pending_bytes = kDefaultMaxPendingBytes)
      : engine_(&engine), max_flows_(max_flows), max_pending_(max_pending_bytes) {
    if (max_flows_ != 0) reserve_flows(max_flows_);
  }

  /// One hot-table slot. Public so tests can verify the storage contract
  /// (fixed-size, pointer-free for inline flows) by inspecting its layout.
  /// next_offset is split into two u32 halves so the slot stays 4-aligned
  /// (no u64 padding holes around the 13-byte key).
  struct HotSlot {
    FlowKey key;                  ///< valid when kOccupied
    std::uint32_t off_lo = 0;     ///< next_offset, low half
    std::uint32_t off_hi = 0;     ///< next_offset, high half
    std::uint32_t last_epoch = 0; ///< epoch of the last packet (recency)
    std::uint32_t cold = kNoRecord;  ///< slab handle, kNoRecord when pure-hot
    [[no_unique_address]] InlineState ictx;  ///< engine state (inline flows)
    std::uint8_t stamp = 0;  ///< bumped per (re)occupancy; ghost detection
    std::uint8_t flags = 0;
  };
  static_assert(sizeof(HotSlot) <= 48, "a hot slot is at most 48 bytes");

  static constexpr std::uint8_t kOccupied = 1;  ///< slot holds a live flow
  static constexpr std::uint8_t kInline = 2;    ///< scan state lives in ictx

  /// Cold-tier record: the heap Context (engaged for big-state and spilled
  /// flows, empty for inline flows that merely reordered) plus the
  /// reassembly buffer.
  struct ColdRecord {
    std::optional<Context> ctx;
    PendingList pending;  ///< sorted by seq
    std::uint64_t pending_bytes = 0;
  };

  // --- telemetry / budgets ---

  /// Attach telemetry (DESIGN.md Sec. 8): the inspector's counters are
  /// published to the registry's shard slot `shard_index` once per burst,
  /// and latency histograms, per-match-id counts and trace-ring events flow
  /// into the registry. Pass nullptr to detach. When detached (the default)
  /// the instrumented path reduces to one branch per burst.
  void set_metrics(obs::MetricsRegistry* registry, std::size_t shard_index = 0) {
    set_counters(registry != nullptr ? &registry->shard(shard_index) : nullptr);
    registry_ = registry;
    // Pre-resolve the tick->ns factor so the per-packet path never pays the
    // one-time TSC calibration.
    if (registry != nullptr) ns_per_tick_ = 1e9 / util::tsc_ticks_per_second();
  }

  /// Attach only a counter block, without a registry: publish() runs into
  /// `block` once per burst, and nothing else is recorded. This is how a
  /// pipeline shard without telemetry keeps its one counter record. Pass
  /// nullptr to detach (which also detaches set_metrics()'s registry).
  void set_counters(obs::ShardMetrics* block) {
    metrics_ = block;
    registry_ = nullptr;
  }

  /// Hand every counter of this inspector to `m`, one relaxed store each:
  /// packets, bytes and matches handled (packets of quarantined flows
  /// included), the flow-table gauges, and the spill, quarantine, prefilter
  /// and degraded-hit counts. The attached block gets this once per burst.
  void publish(obs::ShardMetrics& m) const {
    const auto put = [](std::atomic<std::uint64_t>& field, std::uint64_t v) {
      field.store(v, std::memory_order_relaxed);
    };
    put(m.packets, packets_);
    put(m.bytes, bytes_);
    put(m.matches, matches_);
    put(m.flows, live_);
    put(m.evictions, evicted_);
    put(m.reassembly_drops, reassembly_dropped_);
    put(m.reassembly_pending_bytes, total_pending_);
    put(m.flow_hot_slots, slots_.size());
    put(m.flow_cold_bytes, cold_bytes());
    put(m.flows_spilled, spills_);
    put(m.flows_quarantined, flows_quarantined_);
    put(m.prefilter_pass, prefilter_passes_);
    put(m.prefilter_skip, prefilter_skips_);
    put(m.degraded_hits, degraded_hits_);
  }

  /// Attach the sampled cost profiler (DESIGN.md Sec. 12). Requires
  /// set_metrics() to also be attached — profiling rides the instrumented
  /// path and reuses its precise scan timing. 1-in-2^shift bursts (a
  /// packet() call is a burst of one) attribute their nanoseconds and bytes
  /// to the match-ids they produced and sample the automaton state of the
  /// flows they touched, inline or cold. Pass nullptr to detach.
  void set_profiler(obs::Profiler* profiler) {
    profiler_ = profiler;
    profile_mask_ = profiler != nullptr ? profiler->sample_mask() : 0;
  }

  /// Per-flow CPU budget (DESIGN.md Sec. 9): cumulative scan time charged
  /// to each flow; a flow whose total crosses `ns` nanoseconds is
  /// quarantined — its state evicted with an obs::kFlowQuarantinedEventId
  /// trace event, and every later packet of that flow dropped (counted in
  /// quarantined_packet_count()) — so one adversarial, ReDoS-shaped flow
  /// cannot starve the siblings sharing this inspector. 0 disables (the
  /// default; no timing is taken then). Each in-order chunk's gate, feed
  /// and reassembly drain are timed and charged to the flow that ran them.
  void set_cpu_budget_ns(std::uint64_t ns) {
    cpu_budget_ns_ = ns;
    budget_ticks_ = 0;
    if (ns != 0) {
      const double ticks =
          static_cast<double>(ns) * util::tsc_ticks_per_second() / 1e9;
      budget_ticks_ = ticks < 1.0 ? 1 : static_cast<std::uint64_t>(ticks);
      ticks_.assign(slots_.size(), 0);
    } else {
      ticks_.clear();
    }
  }
  [[nodiscard]] std::uint64_t cpu_budget_ns() const { return cpu_budget_ns_; }

  /// True when `key` has been quarantined (and not yet aged out of the
  /// bounded quarantine memory).
  [[nodiscard]] bool is_quarantined(const FlowKey& key) const {
    return !quarantined_.empty() && quarantined_.count(key) != 0;
  }
  /// Flows evicted for exceeding the CPU budget.
  [[nodiscard]] std::uint64_t quarantined_flow_count() const {
    return flows_quarantined_;
  }
  /// Packets dropped because their flow was already quarantined.
  [[nodiscard]] std::uint64_t quarantined_packet_count() const {
    return quarantined_packets_;
  }

  /// Prefilter gate outcomes: skips are chunks the literal prefilter proved
  /// clean (full scan avoided, tail replay only), passes are gate-eligible
  /// chunks that carried a literal candidate and were scanned in full. Both
  /// stay 0 unless the engine's gate is armed.
  [[nodiscard]] std::uint64_t prefilter_skip_count() const {
    return prefilter_skips_;
  }
  [[nodiscard]] std::uint64_t prefilter_pass_count() const {
    return prefilter_passes_;
  }

  /// Per-inspector kill-switch for the literal-prefilter gate (A/B runs,
  /// bench overhead measurement). `MFA_PREFILTER=off` disarms the gate
  /// process-wide at engine build time; this toggles it per inspector at
  /// runtime. Off means every chunk takes the plain feed path.
  void set_prefilter(bool on) { prefilter_on_ = on; }
  [[nodiscard]] bool prefilter_enabled() const { return prefilter_on_; }

  // --- degraded scan modes (DESIGN.md §14) ---

  /// Set the fidelity rung this inspector scans at. `sample_shift` is the
  /// L1 sampling exponent: 1-in-2^shift flows keep the exact path. Owned by
  /// the shard worker (the degradation controller runs worker-side), so no
  /// synchronization: mode changes apply from the next chunk on.
  void set_scan_mode(ScanMode mode, std::uint32_t sample_shift = 3) {
    mode_ = mode;
    sample_mask_ = (std::uint64_t{1} << (sample_shift < 63 ? sample_shift : 63)) - 1;
  }
  [[nodiscard]] ScanMode scan_mode() const { return mode_; }
  /// Probe-positive chunks seen in kPrefilterOnly mode: "suspicious traffic
  /// was present" detections recorded while the automaton was parked.
  [[nodiscard]] std::uint64_t degraded_hit_count() const { return degraded_hits_; }

  // --- tiering knobs ---

  /// Pre-size the hot table so `n` flows fit under the grow threshold
  /// (~85% load). Called automatically for bounded tables (max_flows).
  void reserve_flows(std::size_t n) {
    const std::size_t want = n * 20 / (17 * kBucketWidth) + 1;
    if (want > nbuckets_) grow_table(want);
  }

  /// Evict flows idle for at least `epochs` packet epochs (0 = off, the
  /// default). Enforced lazily as their wheel entries surface, so an idle
  /// flow outlives its TTL only until the epoch cursor passes its bucket.
  void set_idle_ttl(std::uint32_t epochs) {
    const bool was_active = wheel_active();
    idle_ttl_ = epochs;
    if (!was_active && wheel_active()) reschedule_all();
  }
  [[nodiscard]] std::uint32_t idle_ttl() const { return idle_ttl_; }

  /// Per-shard packet epoch driving the timing wheel (advances at least
  /// once per delivered packet; u32, wraps).
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  // --- delivery ---

  /// Deliver one packet: packet_batch() with a burst of one.
  /// sink(match_id, flow_offset) fires for confirmed matches; positions are
  /// byte offsets within the flow's stream. Packets of quarantined flows are
  /// dropped (counted, never scanned).
  template <typename Sink>
  void packet(const Packet& p, Sink&& sink) {
    packet_batch(&p, 1, std::forward<Sink>(sink));
  }

  /// Deliver a burst of packets (any mix of flows): exactly what `count`
  /// packet() calls would do, in burst order, so matches arrive in the
  /// same sequence. Only telemetry and profiler sampling are per burst.
  template <typename Sink>
  void packet_batch(const Packet* pkts, std::size_t count, Sink&& sink) {
    packet_batch_flows(
        pkts, count,
        [&](const FlowKey&, std::uint32_t id, std::uint64_t end) { sink(id, end); },
        [](const Packet&) {});
  }

  /// packet_batch with flow attribution: sink(flow_key, match_id, offset)
  /// for matches, dsink(packet) for every packet dropped because its flow is
  /// quarantined. The pipeline's fault-tolerant accounting (and any caller
  /// that must prove "every packet was scanned or counted") uses this form.
  template <typename KeySink, typename DropSink>
  void packet_batch_flows(const Packet* pkts, std::size_t count, KeySink&& sink,
                          DropSink&& dsink) {
    packet_batch_attributed(
        pkts, count,
        [&](const FlowKey& key, std::uint64_t, std::uint32_t id, std::uint64_t end) {
          sink(key, id, end);
        },
        std::forward<DropSink>(dsink));
  }

  /// packet_batch_flows plus engine-generation attribution:
  /// sink(flow_key, context_generation, match_id, offset). Across a hot
  /// swap this is what lets the pipeline prove each match against the
  /// ruleset generation that actually scanned the flow.
  template <typename GenSink, typename DropSink>
  void packet_batch_attributed(const Packet* pkts, std::size_t count, GenSink&& sink,
                               DropSink&& dsink) {
    if (count == 0) return;
    if (registry_ == nullptr) {
      deliver_batch(
          pkts, count,
          [&](std::uint32_t si, std::uint32_t id, std::uint64_t end) {
            sink(slots_[si].key, generation_of(si), id, end);
          },
          dsink);
      if (metrics_ != nullptr) publish(*metrics_);
      return;
    }
    obs::ShardMetrics& m = *metrics_;
    // Mid-run snapshot ordering (DESIGN.md Sec. 8): packet_bytes records
    // before the scan and the counters are published after scan_ns, so a
    // snapshot still sees packets <= scan_ns.count and
    // packet_bytes.count >= scan_ns.count.
    std::uint64_t burst_bytes = 0;
    for (std::size_t i = 0; i < count; ++i) {
      burst_bytes += pkts[i].length;
      m.packet_bytes.record(pkts[i].length);
    }
    const bool sampled =
        profiler_ != nullptr && (++profile_tick_ & profile_mask_) == 0;
    if (sampled) profile_ids_.clear();
    const std::uint64_t t0 = util::rdtsc_now();
    deliver_batch(
        pkts, count,
        [&](std::uint32_t si, std::uint32_t id, std::uint64_t end) {
          const HotSlot& s = slots_[si];
          registry_->count_match(id);
          if (generation_active_) registry_->count_match_generation(generation_of(si));
          registry_->trace().record(s.key.src_ip, s.key.dst_ip, s.key.src_port,
                                    s.key.dst_port, s.key.proto, id, end,
                                    util::rdtsc_now());
          if (sampled) profile_ids_.push_back(id);
          sink(s.key, generation_of(si), id, end);
        },
        dsink);
    const double ticks = static_cast<double>(util::rdtsc_now() - t0);
    // The burst is timed as one unit; scan_ns keeps its one-sample-per-
    // packet contract by recording the per-packet share `count` times.
    const auto per_packet = static_cast<std::uint64_t>(
        ticks * ns_per_tick_ / static_cast<double>(count));
    for (std::size_t i = 0; i < count; ++i) m.scan_ns.record(per_packet);
    if (sampled) {
      // Burst-granular sample: the burst's ns/bytes split across its match
      // ids, states sampled per packet of the burst.
      profiler_->record_rules(profile_ids_.data(), profile_ids_.size(),
                              static_cast<std::uint64_t>(ticks * ns_per_tick_),
                              burst_bytes);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t si =
            find_slot(pkts[i].key, FlowKeyHash{}(pkts[i].key));
        if (si != kNoSlot) profiler_->record_state(slot_state(si));
      }
    }
    publish(m);
    if (live_ != 0)
      m.bytes_per_flow.record((hot_bytes() + cold_bytes() + cold_heap_bytes()) / live_);
  }

  // --- accounting ---

  /// Number of flows currently tracked.
  [[nodiscard]] std::size_t flow_count() const { return live_; }
  /// Flows evicted to honour max_flows.
  [[nodiscard]] std::uint64_t evicted_count() const { return evicted_; }
  /// Out-of-order segments dropped to honour max_pending_bytes.
  [[nodiscard]] std::uint64_t reassembly_dropped_count() const {
    return reassembly_dropped_;
  }
  /// Out-of-order bytes currently buffered across all flows.
  [[nodiscard]] std::uint64_t reassembly_pending_bytes() const {
    return total_pending_;
  }
  /// Logical per-flow context footprint (the engine's (q, m) bytes).
  [[nodiscard]] std::size_t context_bytes() const { return engine_->context_bytes(); }
  [[nodiscard]] const EngineT& engine() const { return *engine_; }

  // --- tiering accounting ---

  /// Flows evicted by the idle TTL (distinct from capacity evictions so the
  /// max_flows conservation law — inserts == flows + evictions — is
  /// unaffected by enabling a TTL).
  [[nodiscard]] std::uint64_t idle_evicted_count() const { return idle_evicted_; }

  /// Hot-table slot capacity (the mfa_flow_hot_slots gauge).
  [[nodiscard]] std::size_t hot_slot_capacity() const { return slots_.size(); }

  /// True when the engine has an inline form: every new flow starts in its
  /// hot slot, whatever the ruleset.
  [[nodiscard]] bool inline_eligible() const { return InlineScanEngine<EngineT>; }

  /// Cold records currently allocated (reordering, big-state or spilled
  /// flows).
  [[nodiscard]] std::size_t cold_record_count() const { return cold_.live(); }

  /// Flows whose inline state spilled into a cold record (monotone; the
  /// mfa_flow_spills_total counter).
  [[nodiscard]] std::uint64_t spilled_flow_count() const { return spills_; }

  /// Structural bytes of the hot tier: slot array, lazy per-flow side
  /// arrays, and the timing wheel.
  [[nodiscard]] std::size_t hot_bytes() const {
    return slots_.capacity() * sizeof(HotSlot) +
           generations_.capacity() * sizeof(std::uint64_t) +
           ticks_.capacity() * sizeof(std::uint64_t) + wheel_.allocated_bytes();
  }

  /// Structural bytes of the cold tier (the mfa_flow_cold_bytes gauge);
  /// excludes what records allocate internally (see cold_heap_bytes()).
  [[nodiscard]] std::size_t cold_bytes() const { return cold_.allocated_bytes(); }

  /// Heap bytes cold records own beyond their slab storage: the filter
  /// memory of heap contexts (words, position slots) and the
  /// reassembly buffers. Kept exact as records change.
  [[nodiscard]] std::size_t cold_heap_bytes() const { return cold_heap_; }

  /// Entries currently held by the timing wheel (live flows + stale ghosts).
  [[nodiscard]] std::size_t wheel_entries() const { return wheel_.pending(); }

  // --- live ruleset hot-swap (DESIGN.md Sec. 10) ---

  /// Replace the engine all *new* work runs on. `generation` must be a
  /// value never passed before (the pipeline hands out a monotonically
  /// increasing counter); `pin` keeps the new engine's owner (e.g. a
  /// reload::EngineSet) alive for as long as this inspector references it.
  ///
  /// Flows whose context belongs to the previous generation follow
  /// `policy`; the previous generation is retired — its engine pointer and
  /// pin are kept in a per-generation record until the last such flow is
  /// reset, drained/evicted or cleared, at which point the pin drops and a
  /// refcounted owner can be destroyed. With no live flows the old pin is
  /// released immediately. Swaps are rare: the O(table) census here is paid
  /// per swap, never per packet.
  void adopt_engine(const EngineT& engine, std::uint64_t generation, SwapPolicy policy,
                    std::shared_ptr<const void> pin = nullptr) {
    // Re-adopting the current generation (worker restart replaying a staged
    // swap) is a no-op — in particular it must not retire the generation
    // it is itself publishing.
    if (generation_active_ && generation == current_generation_) return;
    if (!generation_active_)
      generations_.assign(slots_.size(), current_generation_);
    std::size_t live = 0;
    for (std::uint32_t si = 0; si < slots_.size(); ++si)
      if ((slots_[si].flags & kOccupied) != 0 &&
          generations_[si] == current_generation_)
        ++live;
    if (live > 0)
      retired_.push_back(Retired{current_generation_, engine_, std::move(current_pin_),
                                 live, policy == SwapPolicy::kDrainOld});
    engine_ = &engine;
    current_pin_ = std::move(pin);
    current_generation_ = generation;
    generation_active_ = true;
  }

  /// Generation all new flows (and, under kResetOnNextPacket, re-adopted
  /// flows) are tagged with. 0 until the first adopt_engine().
  [[nodiscard]] std::uint64_t current_generation() const { return current_generation_; }
  /// Retired generations still pinned by at least one live flow context.
  [[nodiscard]] std::size_t retired_generation_count() const { return retired_.size(); }

  /// Live flows whose context still belongs to `generation`.
  [[nodiscard]] std::size_t flows_on_generation(std::uint64_t generation) const {
    std::size_t n = 0;
    for (std::uint32_t si = 0; si < slots_.size(); ++si)
      if ((slots_[si].flags & kOccupied) != 0 && generation_of(si) == generation) ++n;
    return n;
  }

  /// Drop a finished flow's state (not counted as an eviction).
  void evict(const FlowKey& key) {
    const std::uint32_t si = find_slot(key, FlowKeyHash{}(key));
    if (si != kNoSlot) evict_slot_core(si);
  }

  /// Crash-recovery reset (DESIGN.md §14): drop `key`'s state so its next
  /// packet re-creates a fresh context. Distinct from evict() only in
  /// intent — the flow is not leaving for capacity reasons, its last burst
  /// never committed. Neither counts an eviction. Returns true when a flow
  /// actually existed (callers count those in flows_recovered).
  bool reset_flow(const FlowKey& key) {
    const std::uint32_t si = find_slot(key, FlowKeyHash{}(key));
    if (si == kNoSlot) return false;
    evict_slot_core(si);
    return true;
  }

  /// Drop every flow and reset all derived per-inspector bookkeeping in one
  /// place — the epoch and buffered reassembly accounting — and publish
  /// the emptied gauges to the attached block at once, so they do not stay
  /// stale until the next packet.
  ///
  /// Deliberately NOT reset: the monotone totals (evicted_count,
  /// reassembly_dropped_count, quarantined_flow/packet_count), which are
  /// cumulative across restarts, and the quarantine memory itself — a
  /// hostile flow must not escape quarantine by crashing the worker
  /// (DESIGN.md Sec. 9).
  void clear() {
    for (auto& s : slots_) {
      s.flags = 0;
      s.cold = kNoRecord;
      s.stamp = 0;
    }
    cold_.clear();
    cold_heap_ = 0;
    wheel_.clear();
    retired_.clear();  // no live contexts left: every old-generation pin drops
    live_ = 0;
    total_pending_ = 0;
    epoch_ = 0;
    if (metrics_ != nullptr) publish(*metrics_);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;
  static constexpr std::size_t kMinBuckets = 8;

  // --- hashing / slot lookup ---

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> buckets_of(
      std::uint64_t h) const {
    // Multiply-shift range reduction over two independent 32-bit halves of
    // the key hash; works for any bucket count, no power-of-two rounding.
    const std::uint32_t nb = static_cast<std::uint32_t>(nbuckets_);
    const auto b1 = static_cast<std::uint32_t>(
        (std::uint64_t{static_cast<std::uint32_t>(h)} * nb) >> 32);
    auto b2 = static_cast<std::uint32_t>(
        (std::uint64_t{static_cast<std::uint32_t>(h >> 32) * 0x9e3779b1U} * nb) >> 32);
    if (b2 == b1) b2 = (b2 + 1) % nb;
    return {b1, b2};
  }

  [[nodiscard]] std::uint32_t find_slot(const FlowKey& key, std::uint64_t h) const {
    if (nbuckets_ == 0) return kNoSlot;
    const auto [b1, b2] = buckets_of(h);
    for (std::uint32_t i = b1 * kBucketWidth; i < (b1 + 1) * kBucketWidth; ++i)
      if ((slots_[i].flags & kOccupied) != 0 && slots_[i].key == key) return i;
    for (std::uint32_t i = b2 * kBucketWidth; i < (b2 + 1) * kBucketWidth; ++i)
      if ((slots_[i].flags & kOccupied) != 0 && slots_[i].key == key) return i;
    return kNoSlot;
  }

  [[nodiscard]] std::uint32_t free_in_bucket(std::uint32_t b) const {
    for (std::uint32_t i = b * kBucketWidth; i < (b + 1) * kBucketWidth; ++i)
      if ((slots_[i].flags & kOccupied) == 0) return i;
    return kNoSlot;
  }

  [[nodiscard]] std::uint32_t wheel_item(std::uint32_t si) const {
    return (si << 8) | slots_[si].stamp;
  }

  /// Decode+validate a wheel entry; kNoSlot for stale ghosts (evicted flow,
  /// reused or moved slot).
  [[nodiscard]] std::uint32_t wheel_slot(std::uint32_t item) const {
    const std::uint32_t si = item >> 8;
    if (si >= slots_.size()) return kNoSlot;
    const HotSlot& s = slots_[si];
    if ((s.flags & kOccupied) == 0 ||
        s.stamp != static_cast<std::uint8_t>(item & 0xff))
      return kNoSlot;
    return si;
  }

  static std::uint64_t slot_off(const HotSlot& s) {
    return (std::uint64_t{s.off_hi} << 32) | s.off_lo;
  }
  static void set_slot_off(HotSlot& s, std::uint64_t v) {
    s.off_lo = static_cast<std::uint32_t>(v);
    s.off_hi = static_cast<std::uint32_t>(v >> 32);
  }

  [[nodiscard]] std::uint64_t generation_of(std::uint32_t si) const {
    return generation_active_ ? generations_[si] : 0;
  }

  [[nodiscard]] bool wheel_active() const {
    return max_flows_ != 0 || idle_ttl_ != 0;
  }

  // --- table maintenance (kick / grow / move) ---

  /// Move a live flow between slots (cuckoo kick). The old wheel entry
  /// becomes a ghost; a fresh entry is scheduled for the destination.
  void move_slot(std::uint32_t from, std::uint32_t to) {
    HotSlot& d = slots_[to];
    const auto stamp = static_cast<std::uint8_t>(d.stamp + 1);
    d = slots_[from];
    d.stamp = stamp;
    slots_[from].flags = 0;
    if (generation_active_) generations_[to] = generations_[from];
    if (budget_ticks_ != 0) ticks_[to] = ticks_[from];
    if (wheel_active()) wheel_.schedule(wheel_item(to), epoch_ + kHorizon);
  }

  /// Free a slot in one of the two candidate (full) buckets by relocating a
  /// resident to its alternate bucket. One level only; kNoSlot on failure.
  [[nodiscard]] std::uint32_t kick_for_room(std::uint32_t b1, std::uint32_t b2) {
    const std::uint32_t cand[2] = {b1, b2};
    for (const std::uint32_t c : cand) {
      for (std::uint32_t i = c * kBucketWidth; i < (c + 1) * kBucketWidth; ++i) {
        const auto [rb1, rb2] = buckets_of(FlowKeyHash{}(slots_[i].key));
        const std::uint32_t alt = c == rb1 ? rb2 : rb1;
        if (alt == c) continue;
        const std::uint32_t f = free_in_bucket(alt);
        if (f != kNoSlot) {
          move_slot(i, f);
          return i;
        }
      }
    }
    return kNoSlot;
  }

  [[nodiscard]] bool rehash_place(const std::vector<HotSlot>& old,
                                  const std::vector<std::uint64_t>& oldg,
                                  const std::vector<std::uint64_t>& oldt) {
    for (std::size_t i = 0; i < old.size(); ++i) {
      if ((old[i].flags & kOccupied) == 0) continue;
      const auto [b1, b2] = buckets_of(FlowKeyHash{}(old[i].key));
      std::uint32_t f = free_in_bucket(b1);
      if (f == kNoSlot) f = free_in_bucket(b2);
      // A kick's stamp bump and wheel entry are moot here: grow_table()
      // clears the wheel and reschedules every flow after placement.
      if (f == kNoSlot) f = kick_for_room(b1, b2);
      if (f == kNoSlot) return false;
      slots_[f] = old[i];
      slots_[f].stamp = 0;  // pre-grow wheel entries were cleared wholesale
      if (generation_active_) generations_[f] = oldg[i];
      if (budget_ticks_ != 0) ticks_[f] = oldt[i];
    }
    return true;
  }

  /// Rehash into a bigger table (>= max(2x, min_buckets) buckets). The
  /// wheel is rebuilt with one fresh entry per live flow.
  void grow_table(std::size_t min_buckets = 0) {
    const std::vector<HotSlot> old = std::move(slots_);
    const std::vector<std::uint64_t> oldg = std::move(generations_);
    const std::vector<std::uint64_t> oldt = std::move(ticks_);
    std::size_t nb = nbuckets_ == 0 ? kMinBuckets : nbuckets_ * 2;
    if (min_buckets > nb) nb = min_buckets;
    for (;;) {
      nbuckets_ = nb;
      assert(nbuckets_ * kBucketWidth <= (std::size_t{1} << 24) &&
             "per-shard hot-table cap (wheel items encode slot in 24 bits)");
      slots_.assign(nbuckets_ * kBucketWidth, HotSlot{});
      if (generation_active_) generations_.assign(slots_.size(), 0);
      if (budget_ticks_ != 0) ticks_.assign(slots_.size(), 0);
      if (rehash_place(old, oldg, oldt)) break;
      nb *= 2;  // pathological bucket pile-up: double again and retry
    }
    wheel_.clear();
    if (wheel_active()) reschedule_all();
  }

  void reschedule_all() {
    for (std::uint32_t si = 0; si < slots_.size(); ++si)
      if ((slots_[si].flags & kOccupied) != 0)
        wheel_.schedule(wheel_item(si), epoch_ + kHorizon);
  }

  /// A free slot for `key`, growing/kicking as needed. Caller occupies it.
  [[nodiscard]] std::uint32_t insert_slot(std::uint64_t h) {
    for (;;) {
      if ((live_ + 1) * 20 > slot_count() * 17) {  // keep load under ~85%
        grow_table();
        continue;
      }
      const auto [b1, b2] = buckets_of(h);
      std::uint32_t f = free_in_bucket(b1);
      if (f == kNoSlot) f = free_in_bucket(b2);
      if (f == kNoSlot) f = kick_for_room(b1, b2);
      if (f != kNoSlot) return f;
      grow_table();
    }
  }

  // --- flow lifecycle ---

  std::uint32_t create_flow(const FlowKey& key, std::uint64_t h) {
    const std::uint32_t si = insert_slot(h);
    HotSlot& s = slots_[si];
    s.key = key;
    s.off_lo = 0;
    s.off_hi = 0;
    s.last_epoch = epoch_;
    s.cold = kNoRecord;
    ++s.stamp;  // invalidates any ghost wheel entry for this slot
    s.flags = kOccupied;
    if constexpr (InlineScanEngine<EngineT>) {
      s.flags |= kInline;
      s.ictx = engine_->make_inline_context();
    } else {
      s.cold = cold_.alloc();
      cold_[s.cold].ctx.emplace(engine_->make_context());
      cold_heap_ += record_heap_bytes(cold_[s.cold]);
    }
    if (generation_active_) generations_[si] = current_generation_;
    if (budget_ticks_ != 0) ticks_[si] = 0;
    if (wheel_active()) wheel_.schedule(wheel_item(si), epoch_ + kHorizon);
    ++live_;
    return si;
  }

  /// Remove a flow (evict/quarantine/TTL/explicit). Frees its cold record,
  /// releases its generation claim, leaves its wheel entry as a ghost.
  void evict_slot_core(std::uint32_t si) {
    HotSlot& s = slots_[si];
    if (generation_active_ && generations_[si] != current_generation_)
      release_generation(generations_[si]);
    if (s.cold != kNoRecord) {
      total_pending_ -= cold_[s.cold].pending_bytes;
      cold_heap_ -= record_heap_bytes(cold_[s.cold]);
      cold_.free(s.cold);
      s.cold = kNoRecord;
    }
    s.flags = 0;
    --live_;
  }

  /// Capacity eviction (max_flows): exactly one flow leaves. Victim choice:
  /// the oldest-surfacing valid wheel entry (longest untouched, to wheel
  /// precision); falls back to a full stalest-slot scan when the first
  /// entries offered are all ghosts (rare).
  void evict_for_capacity() {
    if (wheel_.pending() > 0) {
      const bool done = wheel_.pop_oldest(16, [&](std::uint32_t item) -> std::int64_t {
        const std::uint32_t si = wheel_slot(item);
        if (si == kNoSlot) return TimingWheel::kDrop;
        evict_slot_core(si);
        ++evicted_;
        return TimingWheel::kConsume;
      });
      if (done) return;
    }
    std::uint32_t victim = kNoSlot;
    std::uint32_t best_age = 0;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if ((slots_[i].flags & kOccupied) == 0) continue;
      const std::uint32_t age = epoch_ - slots_[i].last_epoch;
      if (victim == kNoSlot || age > best_age) {
        victim = i;
        best_age = age;
      }
    }
    if (victim != kNoSlot) {
      evict_slot_core(victim);
      ++evicted_;
    }
  }

  /// Advance the packet epoch; the wheel lazily validates surfaced entries,
  /// evicting idle-past-TTL flows and rescheduling live ones.
  void bump_epoch() {
    ++epoch_;
    if (!wheel_active()) return;
    wheel_.advance(epoch_, [&](std::uint32_t item) -> std::int64_t {
      const std::uint32_t si = wheel_slot(item);
      if (si == kNoSlot) return TimingWheel::kDrop;
      HotSlot& s = slots_[si];
      const std::uint32_t idle = epoch_ - s.last_epoch;
      if (idle_ttl_ != 0 && idle >= idle_ttl_) {
        evict_slot_core(si);
        ++idle_evicted_;
        return TimingWheel::kDrop;
      }
      return static_cast<std::int64_t>(
          static_cast<std::uint32_t>(s.last_epoch + kHorizon));
    });
  }

  // --- engine-generation bookkeeping (cold unless adopt_engine was used) ---

  /// A previous engine generation still referenced by live flow contexts.
  struct Retired {
    std::uint64_t generation = 0;
    const EngineT* engine = nullptr;
    std::shared_ptr<const void> pin;  ///< keeps the engine's owner alive
    std::size_t live_flows = 0;
    bool drain = false;  ///< SwapPolicy::kDrainOld
  };

  [[nodiscard]] const Retired* find_retired(std::uint64_t generation) const {
    for (const auto& r : retired_)
      if (r.generation == generation) return &r;
    return nullptr;
  }

  [[nodiscard]] const EngineT& engine_for_generation(std::uint64_t generation) const {
    if (generation == current_generation_) return *engine_;
    const Retired* r = find_retired(generation);
    return r != nullptr ? *r->engine : *engine_;
  }

  void release_generation(std::uint64_t generation) {
    for (std::size_t i = 0; i < retired_.size(); ++i) {
      if (retired_[i].generation != generation) continue;
      if (--retired_[i].live_flows == 0) retired_.erase(retired_.begin() + i);
      return;
    }
  }

  /// kResetOnNextPacket re-adoption: the flow's scan state restarts on the
  /// current engine — a spilled flow back in its hot slot, its context
  /// returned to the slab — while the stream offset and any buffered
  /// segments are kept, so the byte stream continues seamlessly under the
  /// new rules. Under kDrainOld the flow stays on its own engine.
  void adopt_flow(std::uint32_t si) {
    const Retired* r = find_retired(generations_[si]);
    if (r != nullptr && r->drain) return;
    const std::uint64_t old_generation = generations_[si];
    HotSlot& s = slots_[si];
    const std::size_t heap_before = slot_heap_bytes(s);
    if constexpr (InlineScanEngine<EngineT>) {
      if (s.cold != kNoRecord) {
        cold_[s.cold].ctx.reset();
        release_cold_if_empty(s);
      }
      s.flags |= kInline;
      s.ictx = engine_->make_inline_context();
    } else {
      cold_[s.cold].ctx.emplace(engine_->make_context());
    }
    cold_heap_ += slot_heap_bytes(s) - heap_before;
    generations_[si] = current_generation_;
    if (budget_ticks_ != 0) ticks_[si] = 0;  // fresh context, fresh account
    release_generation(old_generation);
  }

  // --- quarantine ---

  /// CPU-budget enforcement: evict an over-budget flow and remember its key
  /// so later packets are dropped at the door. The memory is bounded
  /// (oldest quarantine forgotten first) so hostile many-flow traffic
  /// cannot grow it without limit.
  void maybe_quarantine(std::uint32_t si) {
    if (budget_ticks_ == 0 || ticks_[si] < budget_ticks_) return;
    HotSlot& s = slots_[si];
    ++flows_quarantined_;
    if (registry_ != nullptr) {
      registry_->trace().record(s.key.src_ip, s.key.dst_ip, s.key.src_port,
                                s.key.dst_port, s.key.proto,
                                obs::kFlowQuarantinedEventId, slot_off(s),
                                util::rdtsc_now());
    }
    static constexpr std::size_t kMaxQuarantineRemembered = 65536;
    if (quarantine_order_.size() >= kMaxQuarantineRemembered) {
      quarantined_.erase(quarantine_order_.front());
      quarantine_order_.pop_front();
    }
    quarantined_.insert(s.key);
    quarantine_order_.push_back(s.key);
    evict_slot_core(si);
  }

  // --- scanning ---

  /// Feed bytes through a flow's scan state, wherever it lives.
  template <typename Sink>
  void feed_slot(std::uint32_t si, const std::uint8_t* data, std::size_t size,
                 std::uint64_t base, Sink&& sink) {
    HotSlot& s = slots_[si];
    const EngineT& eng = engine_for_generation(generation_of(si));
    if constexpr (SpillingInlineEngine<EngineT>) {
      if ((s.flags & kInline) != 0) {
        eng.feed(s.ictx, data, size, base,
                 [&]() -> Context& { return spill_slot(si, eng); }, sink);
        park_spill(si);
        return;
      }
    } else if constexpr (InlineScanEngine<EngineT>) {
      eng.feed(s.ictx, data, size, base, sink);
      return;
    }
    eng.feed(*cold_[s.cold].ctx, data, size, base, sink);
  }

  /// A spilling engine's spill target for slot `si` during one engine
  /// call: the scratch Context, built from the slot's inline state the
  /// first time the engine asks and returned again while its InlineContext
  /// stays marked spilled. One scratch serves every flow, because only one
  /// flow is fed at a time. Most spills are transient — a line briefly
  /// holding more than four guard bits — and end back inline, so they
  /// never touch the cold tier; park_spill() moves the rest there.
  Context& spill_slot(std::uint32_t si, const EngineT& eng) {
    if (!slots_[si].ictx.spilled()) spill_scratch_ = eng.expand_inline(slots_[si].ictx);
    return *spill_scratch_;
  }

  /// After an engine call: a flow still spilled leaves the inline path for
  /// good (until re-adoption or eviction) — the scratch Context moves into
  /// its cold record, a reorder-only record being reused.
  void park_spill(std::uint32_t si) {
    HotSlot& s = slots_[si];
    if (!s.ictx.spilled()) return;  // never spilled, or settled back inline
    const std::size_t heap_before = slot_heap_bytes(s);
    if (s.cold == kNoRecord) s.cold = cold_.alloc();
    cold_[s.cold].ctx.emplace(std::move(*spill_scratch_));
    cold_heap_ += slot_heap_bytes(s) - heap_before;
    s.flags &= static_cast<std::uint8_t>(~kInline);
    ++spills_;
  }

  /// Consult the engine's prefilter gate for a flow's chunk, wherever its
  /// state lives; kNone when the engine has no gate (the call folds away)
  /// or the set_prefilter() runtime switch is off.
  [[nodiscard]] simd::Gate gate_slot(std::uint32_t si, const std::uint8_t* data,
                                     std::size_t size) {
    if (!prefilter_on_) return simd::Gate::kNone;
    HotSlot& s = slots_[si];
    const EngineT& eng = engine_for_generation(generation_of(si));
    if constexpr (InlineScanEngine<EngineT>) {
      if ((s.flags & kInline) != 0) {
        if constexpr (requires {
                        { eng.prefilter_gate(s.ictx, data, size) }
                          -> std::same_as<simd::Gate>;
                      })
          return eng.prefilter_gate(s.ictx, data, size);
        else
          return simd::Gate::kNone;
      }
    }
    if constexpr (PrefilterEngine<EngineT>)
      return eng.prefilter_gate(*cold_[s.cold].ctx, data, size);
    else
      return simd::Gate::kNone;
  }

  /// Degraded-mode admission, then the prefilter gate: true when a flow's
  /// chunk needs the full automaton feed. On false the caller advances only
  /// the offset (a gate skip has already advanced the context by tail
  /// replay; a degraded skip leaves it).
  [[nodiscard]] bool needs_scan(std::uint32_t si, const std::uint8_t* data,
                                std::size_t size) {
    if (mode_ != ScanMode::kFull && !deep_scan_chunk(slots_[si].key, data, size))
      return false;
    const simd::Gate g = gate_slot(si, data, size);
    if (g == simd::Gate::kSkip) ++prefilter_skips_;
    if (g == simd::Gate::kScan) ++prefilter_passes_;
    return g != simd::Gate::kSkip;
  }

  /// Degraded-mode admission (DESIGN.md §14): does this chunk get an
  /// automaton feed? kSampled admits sampled flows unconditionally and the
  /// rest only on a positive literal probe; kPrefilterOnly admits nothing
  /// and records probe-positive chunks as degraded hits.
  bool deep_scan_chunk(const FlowKey& key, const std::uint8_t* data,
                       std::size_t size) {
    if (mode_ == ScanMode::kSampled &&
        (FlowKeyHash{}(key) & sample_mask_) == 0)
      return true;
    const bool hit = probe_chunk(data, size);
    if (mode_ == ScanMode::kPrefilterOnly) {
      if (hit) ++degraded_hits_;
      return false;
    }
    return hit;  // kSampled, non-sampled flow: scan only suspicious chunks
  }

  [[nodiscard]] bool probe_chunk(const std::uint8_t* data, std::size_t size) const {
    if constexpr (ProbeEngine<EngineT>) {
      return engine_->prefilter_probe(data, size);
    } else {
      (void)data;
      (void)size;
      return true;  // no probe: cannot prove absence, everything suspicious
    }
  }

  /// A flow's current automaton state, wherever it lives (profiler
  /// state-visit sampling). Occupied slots without kInline always own an
  /// engaged cold Context — the invariant feed_slot relies on too.
  [[nodiscard]] std::uint32_t slot_state(std::uint32_t si) const {
    const HotSlot& s = slots_[si];
    const EngineT& eng = engine_for_generation(generation_of(si));
    if constexpr (InlineScanEngine<EngineT>) {
      if ((s.flags & kInline) != 0) return eng.context_state(s.ictx);
    }
    return eng.context_state(*cold_[s.cold].ctx);
  }

  /// Packets per deliver_batch() pre-pass: their key hashes sit in a stack
  /// array, so a burst of any length is delivered without heap allocation.
  static constexpr std::size_t kPrepassPackets = 64;
  /// Payload bytes the pre-pass prefetches per packet, from the first: four
  /// lines. One line gained less on small packets, and eight no more
  /// (EXPERIMENTS.md, "Burst pre-pass").
  static constexpr std::size_t kPayloadPrefetchBytes = 256;
  static constexpr std::size_t kCacheLineBytes = 64;

  /// Batch delivery core (DESIGN.md §7, "Pre-pass"). A pre-pass over up to
  /// kPrepassPackets packets hashes each key once and prefetches each
  /// payload head, so later packets' payloads arrive while earlier ones
  /// walk. Then the packets are delivered one at a time, in burst order,
  /// each reusing its hash. Only the hash is carried over: a slot or bucket
  /// index would go stale when an earlier packet grows the table or frees
  /// a slot.
  template <typename FlowSink, typename DropSink>
  void deliver_batch(const Packet* pkts, std::size_t count, FlowSink&& fsink,
                     DropSink&& dsink) {
    std::uint64_t hashes[kPrepassPackets];
    packets_ += count;
    for (std::size_t at = 0; at < count; at += kPrepassPackets) {
      const Packet* run = pkts + at;
      const std::size_t n = std::min(count - at, kPrepassPackets);
      std::uint64_t run_bytes = 0;
      for (std::size_t i = 0; i < n; ++i) {
        run_bytes += run[i].length;
        hashes[i] = FlowKeyHash{}(run[i].key);
        const std::size_t head = std::min<std::size_t>(run[i].length, kPayloadPrefetchBytes);
        for (std::size_t off = 0; off < head; off += kCacheLineBytes)
          __builtin_prefetch(run[i].payload + off, 0, 3);
      }
      bytes_ += run_bytes;
      for (std::size_t i = 0; i < n; ++i) deliver_packet(run[i], hashes[i], fsink, dsink);
    }
  }

  /// One packet of a burst, `h` its key hash. An in-order chunk is admitted
  /// and gated, fed unless skipped, and then drains whatever buffered
  /// segments it made contiguous; with a CPU budget set, that whole step is
  /// timed and charged to the flow.
  template <typename FlowSink, typename DropSink>
  void deliver_packet(const Packet& p, std::uint64_t h, FlowSink& fsink, DropSink& dsink) {
    if (is_quarantined(p.key)) {
      ++quarantined_packets_;
      dsink(p);
      return;
    }
    bump_epoch();
    std::uint32_t si = find_slot(p.key, h);
    if (si == kNoSlot) {
      if (max_flows_ != 0 && live_ >= max_flows_) evict_for_capacity();
      util::fault_maybe_bad_alloc("flow.table.alloc");
      si = create_flow(p.key, h);
    } else {
      slots_[si].last_epoch = epoch_;
      if (generation_active_ && generations_[si] != current_generation_) adopt_flow(si);
    }
    HotSlot& s = slots_[si];
    if (p.seq > slot_off(s)) {
      buffer_segment(si, p);
      return;
    }
    const std::uint64_t skip = slot_off(s) - p.seq;
    if (skip >= p.length) return;  // fully retransmitted bytes
    const std::uint8_t* data = p.payload + skip;
    const std::size_t len = p.length - skip;
    const std::uint64_t base = slot_off(s);
    set_slot_off(s, base + len);
    const auto sink = [&, si](std::uint32_t id, std::uint64_t end) {
      ++matches_;
      fsink(si, id, end);
    };
    const std::uint64_t t0 = budget_ticks_ != 0 ? util::rdtsc_now() : 0;
    if (needs_scan(si, data, len)) feed_slot(si, data, len, base, sink);
    drain(si, sink);
    if (budget_ticks_ != 0) {
      ticks_[si] += util::rdtsc_now() - t0;
      maybe_quarantine(si);  // may erase the flow — nothing touches it after
    }
  }

  // --- bounded out-of-order reassembly ---

  void buffer_segment(std::uint32_t si, const Packet& p) {
    if (p.length == 0) return;
    // Reassembly buffering is the allocation-heavy path hostile traffic can
    // drive at will; the fault point lets the soak test prove a bad_alloc
    // here surfaces as a crashed-and-restarted worker, never a hang.
    util::fault_maybe_bad_alloc("flow.reassembly.alloc");
    HotSlot& s = slots_[si];
    const std::size_t heap_before = slot_heap_bytes(s);
    hold_segment(s, p);
    cold_heap_ += slot_heap_bytes(s) - heap_before;
  }

  void hold_segment(HotSlot& s, const Packet& p) {
    if (s.cold == kNoRecord) s.cold = cold_.alloc();  // pending-only record
    ColdRecord& rec = cold_[s.cold];
    auto it = pending_lower_bound(rec.pending, p.seq);
    if (it != rec.pending.end() && it->seq == p.seq) {
      // Duplicate sequence number: keep whichever segment carries more
      // data. Only the *net growth* counts against the budget — a replaced
      // segment's bytes leave the buffer, so charging the full incoming
      // length would spuriously evict unrelated segments on retransmits.
      if (it->bytes.size() >= p.length) return;
      const std::uint64_t growth = p.length - it->bytes.size();
      while (max_pending_ != 0 && rec.pending_bytes + growth > max_pending_ &&
             rec.pending.size() > 1) {
        drop_oldest_pending(rec, p.seq);
        it = pending_lower_bound(rec.pending, p.seq);  // drops shift the vector
      }
      if (max_pending_ != 0 && rec.pending_bytes + growth > max_pending_) {
        // Even alone the replacement exceeds the budget: keep the smaller
        // buffered segment and count the oversized replacement as dropped.
        ++reassembly_dropped_;
        return;
      }
      it->bytes.assign(p.payload, p.payload + p.length);
      it->arrival = ++arrival_tick_;
      rec.pending_bytes += growth;
      total_pending_ += growth;
      return;
    }
    if (max_pending_ != 0 && p.length > max_pending_) {
      // A single segment larger than the whole budget can never be held.
      ++reassembly_dropped_;
      release_cold_if_empty(s);
      return;
    }
    while (max_pending_ != 0 && rec.pending_bytes + p.length > max_pending_) {
      drop_oldest_pending(rec);
      it = pending_lower_bound(rec.pending, p.seq);
    }
    it = rec.pending.emplace(it, PendingSegment{p.seq, ++arrival_tick_, {}});
    it->bytes.assign(p.payload, p.payload + p.length);
    rec.pending_bytes += p.length;
    total_pending_ += p.length;
  }

  /// Drop the oldest-arrival pending segment, optionally sparing the one at
  /// `keep_seq` (the segment a duplicate replacement is about to grow in
  /// place). Erasing shifts the vector, so callers re-derive iterators.
  void drop_oldest_pending(ColdRecord& rec,
                           std::uint64_t keep_seq = ~std::uint64_t{0}) {
    auto oldest = rec.pending.end();
    for (auto it = rec.pending.begin(); it != rec.pending.end(); ++it) {
      if (it->seq == keep_seq) continue;
      if (oldest == rec.pending.end() || it->arrival < oldest->arrival) oldest = it;
    }
    if (oldest == rec.pending.end()) return;
    rec.pending_bytes -= oldest->bytes.size();
    total_pending_ -= oldest->bytes.size();
    rec.pending.erase(oldest);
    ++reassembly_dropped_;
  }

  /// A reorder-only record whose buffer just emptied goes back to the slab:
  /// the flow is pure-hot again.
  void release_cold_if_empty(HotSlot& s) {
    if (s.cold == kNoRecord) return;
    ColdRecord& rec = cold_[s.cold];
    if (rec.pending.empty() && !rec.ctx.has_value()) {
      cold_.free(s.cold);
      s.cold = kNoRecord;
    }
  }

  template <typename Sink>
  void drain(std::uint32_t si, Sink&& sink) {
    HotSlot& s = slots_[si];
    if (s.cold == kNoRecord) return;
    ColdRecord& rec = cold_[s.cold];
    std::size_t consumed = 0;
    while (consumed < rec.pending.size()) {
      PendingSegment& seg = rec.pending[consumed];
      const std::uint64_t off = slot_off(s);
      if (seg.seq > off) break;
      const std::uint64_t skip = off - seg.seq;
      if (skip < seg.bytes.size()) {
        const std::uint8_t* data = seg.bytes.data() + skip;
        const std::size_t len = seg.bytes.size() - skip;
        if (needs_scan(si, data, len)) feed_slot(si, data, len, off, sink);
        set_slot_off(s, off + len);
      }
      rec.pending_bytes -= seg.bytes.size();
      total_pending_ -= seg.bytes.size();
      ++consumed;
    }
    // Booked after the feeds, which may have spilled (and booked) a context.
    const std::size_t heap_before = record_heap_bytes(rec);
    if (consumed != 0)
      rec.pending.erase(rec.pending.begin(),
                        rec.pending.begin() + static_cast<std::ptrdiff_t>(consumed));
    release_cold_if_empty(s);
    cold_heap_ += slot_heap_bytes(s) - heap_before;
  }

  /// Heap bytes `rec` owns (see cold_heap_bytes()). Only a filter Context's
  /// memory is counted; other engines' contexts report 0.
  static std::size_t record_heap_bytes(const ColdRecord& rec) {
    std::size_t n = rec.pending.capacity() * sizeof(PendingSegment);
    for (const PendingSegment& seg : rec.pending) n += seg.bytes.capacity();
    if constexpr (requires(const Context& c) { c.memory.heap_bytes(); }) {
      if (rec.ctx.has_value()) n += rec.ctx->memory.heap_bytes();
    }
    return n;
  }

  /// record_heap_bytes() of slot `s`'s cold record, 0 without one. Every
  /// record change books its after-minus-before difference into
  /// cold_heap_ (unsigned wrap-around makes a shrink subtract).
  [[nodiscard]] std::size_t slot_heap_bytes(const HotSlot& s) const {
    return s.cold == kNoRecord ? 0 : record_heap_bytes(cold_[s.cold]);
  }

  const EngineT* engine_;  ///< ONE engine for all flows (never per-flow)
  std::uint64_t current_generation_ = 0;
  std::shared_ptr<const void> current_pin_;
  std::vector<Retired> retired_;
  std::size_t max_flows_ = 0;
  std::size_t max_pending_ = kDefaultMaxPendingBytes;
  std::uint32_t idle_ttl_ = 0;  ///< 0 = idle eviction off
  std::uint32_t epoch_ = 0;     ///< per-shard packet epoch (wraps)
  std::uint64_t packets_ = 0;  ///< packets handed in, quarantine-dropped included
  std::uint64_t bytes_ = 0;    ///< payload bytes of those packets
  std::uint64_t matches_ = 0;  ///< matches emitted
  std::uint64_t evicted_ = 0;       ///< capacity evictions (max_flows)
  std::uint64_t idle_evicted_ = 0;  ///< TTL evictions
  std::uint64_t reassembly_dropped_ = 0;
  std::uint64_t spills_ = 0;  ///< flows whose inline state spilled
  std::uint64_t total_pending_ = 0;
  std::uint64_t arrival_tick_ = 0;
  std::uint64_t cpu_budget_ns_ = 0;
  std::uint64_t budget_ticks_ = 0;
  std::uint64_t flows_quarantined_ = 0;
  std::uint64_t quarantined_packets_ = 0;
  std::uint64_t prefilter_skips_ = 0;   ///< gated chunks, scan avoided
  std::uint64_t prefilter_passes_ = 0;  ///< gate-eligible chunks scanned
  bool prefilter_on_ = true;            ///< set_prefilter() runtime switch
  ScanMode mode_ = ScanMode::kFull;     ///< degradation-ladder rung (§14)
  bool generation_active_ = false;  ///< adopt_engine() was called at least once
  std::uint64_t sample_mask_ = 7;       ///< L1: 1-in-(mask+1) flows exact
  std::uint64_t degraded_hits_ = 0;     ///< L2 probe-positive detections
  std::unordered_set<FlowKey, FlowKeyHash> quarantined_;
  std::deque<FlowKey> quarantine_order_;
  obs::MetricsRegistry* registry_ = nullptr;  ///< telemetry; null = untraced
  obs::ShardMetrics* metrics_ = nullptr;      ///< counter block publish() fills
  double ns_per_tick_ = 0.0;
  obs::Profiler* profiler_ = nullptr;  ///< sampled cost profiler (optional)
  std::uint64_t profile_mask_ = 0;     ///< profiler_->sample_mask(), cached
  std::uint64_t profile_tick_ = 0;     ///< scan units since attach
  std::vector<std::uint32_t> profile_ids_;  ///< sampled unit's match ids

  // Hot tier.
  std::size_t nbuckets_ = 0;
  std::size_t live_ = 0;
  std::vector<HotSlot> slots_;  ///< nbuckets_ * kBucketWidth
  /// Per-slot engine generation; allocated lazily at the first
  /// adopt_engine() so single-ruleset deployments pay zero bytes for it.
  std::vector<std::uint64_t> generations_;
  /// Per-slot cumulative scan ticks; allocated only when a CPU budget is set.
  std::vector<std::uint64_t> ticks_;
  TimingWheel wheel_;

  // Cold tier.
  SlabArena<ColdRecord> cold_;
  std::size_t cold_heap_ = 0;  ///< cold_heap_bytes()

  /// Spill target of the flow being fed (see spill_slot()).
  std::optional<Context> spill_scratch_;
};

}  // namespace mfa::flow
