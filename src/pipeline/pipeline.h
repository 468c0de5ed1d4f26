// Sharded multi-worker flow inspection (ROADMAP: sharding/async scaling).
//
// One immutable Engine (built once, shared read-only) serves N worker
// threads. Each worker owns a private flow inspector
// (flow::TieredFlowInspector) — a flow table of small per-flow Contexts,
// the paper's (q, m) pairs — and a bounded SPSC packet queue. The dispatcher hashes each packet's FlowKey to a shard, so every
// flow is pinned to exactly one worker: flow tables need no locks, and the
// only cross-thread traffic is the queues themselves. The hot path is
// batched end to end (DESIGN.md Sec. 7): submit() buffers per shard and
// flushes bursts with one queue release-store, workers pop bursts and run
// them through the inspector's packet_batch, which takes a burst's packets
// in order, each on its own flow's sequential walk. Matches accumulate
// shard-locally and are merged after finish().
//
// Each shard keeps exactly one counter record, an obs::ShardMetrics block
// written once per event by the thread that owns the event: registry slot i
// when an obs::MetricsRegistry is attached (Options::metrics), a block the
// shard owns otherwise. stats() is the blocks' snapshot after finish(); the
// exporters read the same blocks mid-run, and /healthz reads them too. A
// registry adds only telemetry on top: histograms, latency spans, per-id
// match counts and trace events.
//
// Robustness layer (DESIGN.md Sec. 9): the pipeline is built to survive
// hostile traffic and its own workers failing.
//  - Overload: the degradation ladder (Options::slo, DESIGN.md Sec. 14)
//    trades fidelity for latency; under it, Options::shed_policy is the
//    floor for a full queue — backpressure, or drop the newest packet with
//    hysteresis around high/low watermarks.
//  - Supervision: Options::watchdog runs a monitor thread that restarts
//    crashed workers (the crash journal resets only the flows of the burst
//    in flight; every other flow keeps its context) and detects stalled
//    ones via heartbeats; a shard that keeps crashing is failed over to
//    shedding.
//  - Per-flow CPU budgets: Options::flow_cpu_budget_ns quarantines flows
//    that monopolize scan time (the inspector evicts them; later packets of
//    a quarantined flow are shed, never scanned).
//  - Exact accounting: every submitted packet is either scanned or counted
//    in exactly one shed bucket, so totals() always satisfies
//    submitted == scanned + shed_total(), even across crashes, failovers
//    and bounded shutdown.
//  - Bounded shutdown: finish(timeout) drains what it can by the deadline,
//    sheds the rest with accounting, and never hangs on a wedged worker
//    (worst case it abandons the thread and leaks its shard).
//
// Thread-safety contract (see DESIGN.md "Engine/Context split & pipeline"):
//  - Engines are immutable after construction and shareable across threads.
//  - Contexts (and the inspectors holding them) are confined to one
//    shard's worker thread; the watchdog touches an inspector only after
//    joining its dead worker.
//  - submit() must be called from a single producer thread; packet payload
//    pointers must stay valid until finish() returns (Trace owns them).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "flow/flow.h"
#include "flow/tiered.h"
#include "obs/export.h"
#include "pipeline/degrade.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "pipeline/spsc_queue.h"
#include "util/faultpoint.h"
#include "util/match.h"

namespace mfa::pipeline {

/// What submit() does when a shard's queue backlog passes the high
/// watermark. Graceful degradation belongs to the ladder (DESIGN.md
/// Sec. 14); this is only the floor under it for a full queue.
enum class ShedPolicy : std::uint8_t {
  kBackpressure,  ///< never shed: spin the producer until the queue drains
  kDropNewest,    ///< drop the arriving packet (counted as shed_admission)
};

/// Why a packet was shed instead of scanned. Each shed packet is counted in
/// exactly one bucket; Options::shed_sink receives (packet, reason).
enum class ShedReason : std::uint8_t {
  kAdmission,   ///< dropped at submit() by the shed policy
  kBypass,      ///< admitted to the counts but never scanned (ladder L3)
  kCorrupt,     ///< injected corrupt packet rejected before delivery
  kCrash,       ///< burst abandoned because the worker crashed mid-scan
  kQuarantine,  ///< its flow exceeded the per-flow CPU budget
  kFailover,    ///< drained without scanning (failed shard or shutdown deadline)
};

[[nodiscard]] inline const char* to_string(ShedReason r) {
  switch (r) {
    case ShedReason::kAdmission: return "admission";
    case ShedReason::kBypass: return "bypass";
    case ShedReason::kCorrupt: return "corrupt";
    case ShedReason::kCrash: return "crash";
    case ShedReason::kQuarantine: return "quarantine";
    case ShedReason::kFailover: return "failover";
  }
  return "?";
}

/// A match with the flow it occurred on; collected when
/// Options::collect_flow_matches is set (parity harnesses need to compare
/// per-flow match streams while excluding shed flows).
struct FlowMatch {
  flow::FlowKey key;
  Match match;
  /// Engine generation whose context produced the match (0 before any
  /// swap_ruleset); across a hot swap this attributes every match to the
  /// ruleset that actually scanned the flow.
  std::uint64_t generation = 0;
};

/// Per-shard accounting: the snapshot of the shard's counter record (see
/// the file comment). Accounting invariant: submitted == scanned +
/// shed_total(). `packets`, `bytes` and `matches` count what the shard's
/// flow inspector was handed or emitted, packets of quarantined flows
/// included; packets shed before delivery (admission, bypass, corrupt,
/// crash, failover) never reach it. `scanned` is the delivered packets less
/// the quarantine-dropped ones.
using ShardStats = obs::ShardSnapshot;

struct Options {
  std::size_t shards = 1;
  std::size_t queue_capacity = 4096;  ///< per-shard SPSC ring slots
  std::size_t max_flows_per_shard = 0;  ///< 0 = unbounded flow tables
  std::size_t max_pending_per_flow = flow::kDefaultMaxPendingBytes;
  /// Packet batching (DESIGN.md Sec. 7): submit() buffers up to this many
  /// packets per shard before flushing them into the SPSC queue in one
  /// burst, and each worker pops/processes bursts of the same size through
  /// the inspector's packet_batch. 1 disables batching (per-packet push/pop).
  std::size_t batch_size = 32;
  bool collect_matches = false;  ///< keep full Match records (else count only)
  /// Keep (flow_key, match) records too — heavier than collect_matches;
  /// meant for parity/soak harnesses, not production.
  bool collect_flow_matches = false;
  /// Optional telemetry root (externally owned, must outlive the inspector).
  /// Shard i keeps its counter record in metrics->shard(i), so the registry
  /// and stats() read the same record; a registry with fewer slots than
  /// shards throws std::invalid_argument. start() zeroes the per-run part:
  /// the shard blocks and the per-id and per-generation match counts (the
  /// rings and ruleset gauges keep their history), and throws
  /// std::logic_error if a bounded finish() abandoned a worker that may
  /// still write the registry. When null, each shard owns its record and
  /// no histogram, span or trace event is recorded.
  obs::MetricsRegistry* metrics = nullptr;
  /// What happens to flows mid-stream when swap_ruleset() publishes a new
  /// engine generation (DESIGN.md Sec. 10). kDrainOld preserves per-flow
  /// match parity for flows that predate the swap; kResetOnNextPacket
  /// releases the old generation fastest.
  flow::SwapPolicy swap_policy = flow::SwapPolicy::kDrainOld;

  // --- Tracing, profiling & live endpoint (DESIGN.md Sec. 12) ---
  /// Latency spans: 1-in-2^trace_sample_shift submitted packets carry a
  /// submit TSC stamp; the shard worker adds dequeue/scan-start/scan-end
  /// and records queue-wait, scan and end-to-end latency histograms plus a
  /// SpanTraceRing event. Only effective with `metrics` attached. Default
  /// 6 = 1 in 64 packets.
  std::uint32_t trace_sample_shift = 6;
  /// Optional sampled cost profiler (externally owned, must outlive the
  /// inspector): per-rule scan ns/bytes attribution and automaton
  /// state-visit sampling inside every shard's flow inspector. Requires
  /// `metrics` — profiling rides the instrumented path.
  obs::Profiler* profiler = nullptr;
  /// Serve GET /metrics, /telemetry.json, /profile.json and /healthz on
  /// 127.0.0.1:<http_port> between start() and finish(). -1 = disabled
  /// (the default); 0 = kernel-assigned, read back via http_port().
  /// Requires `metrics`.
  int http_port = -1;
  /// /healthz thresholds: the overload verdict flips to 503 when any
  /// signal crosses its line (or a shard has failed over).
  struct HealthThresholds {
    /// Shed packets / submitted packets above this is unhealthy.
    double max_shed_ratio = 0.05;
    /// Live queue depth above this is unhealthy. 0 = 7/8 of queue_capacity.
    std::uint64_t max_queue_depth = 0;
    /// Cumulative watchdog restarts above this are unhealthy.
    /// 0 = shards * max_worker_restarts (the failover budget).
    std::uint64_t max_worker_restarts = 0;
    /// Quarantined flows above this are unhealthy.
    std::uint64_t max_quarantined_flows = 1024;
  } health;

  // --- Adaptive degradation (DESIGN.md Sec. 14) ---
  /// Service-level objective the per-shard degradation controller defends.
  /// slo.p99_ns == 0 (the default) disables the closed loop entirely: no
  /// clock reads, no controller polls, identical hot path to earlier
  /// versions. With a target set, each shard worker walks the fidelity
  /// ladder L0 full -> L1 sampled -> L2 prefilter-only -> L3 bypass, one
  /// rung per dwell period, to keep estimated p99 under the objective.
  Slo slo;
  /// Controller dwell; degrade.force_level >= 0 pins the ladder for bench
  /// sweeps.
  DegradeKnobs degrade;

  // --- Overload & robustness (DESIGN.md Sec. 9) ---
  ShedPolicy shed_policy = ShedPolicy::kBackpressure;
  /// Queue backlog (ring + producer buffer) at which shedding engages.
  /// 0 = 3/4 of the (rounded) queue capacity.
  std::size_t shed_high_water = 0;
  /// Backlog at which shedding disengages (hysteresis). 0 = high/2.
  std::size_t shed_low_water = 0;
  /// Per-flow scan-CPU budget: a flow whose cumulative scan time exceeds
  /// this is quarantined (evicted; its later packets shed). 0 = disabled.
  std::uint64_t flow_cpu_budget_ns = 0;
  /// Supervise the workers: restart crashed ones, resetting only the flows
  /// of the burst in flight (up to max_worker_restarts, then fail the shard
  /// over to shedding), and flag stalled ones via heartbeat age. Off by
  /// default: without a watchdog a dead worker surfaces as
  /// std::runtime_error from submit(), as before.
  bool watchdog = false;
  std::uint32_t watchdog_interval_ms = 5;
  std::uint32_t stall_timeout_ms = 250;  ///< heartbeat age that counts as a stall
  std::uint32_t max_worker_restarts = 3;  ///< per shard, then failover
  /// Invoked once per shed packet with the reason — from the producer
  /// thread, a worker thread, or the watchdog, possibly concurrently; must
  /// be thread-safe. On a worker crash the burst's packets may additionally
  /// be reported kCrash after an earlier kQuarantine report (at-least-once;
  /// the numeric shed counters never double-count).
  std::function<void(const flow::Packet&, ShedReason)> shed_sink;
};

/// Hash-sharded multi-threaded inspector over any Engine/Context engine.
template <typename EngineT>
class ShardedInspector {
 public:
  using FlowKey = flow::FlowKey;

  explicit ShardedInspector(const EngineT& engine, Options options = {})
      : engine_(&engine), options_(options) {
    if (options_.shards == 0) options_.shards = 1;
    if (options_.batch_size == 0) options_.batch_size = 1;
    if (options_.watchdog_interval_ms == 0) options_.watchdog_interval_ms = 1;
    if (options_.metrics != nullptr && options_.metrics->shard_count() < options_.shards)
      throw std::invalid_argument(
          "ShardedInspector: Options::metrics needs a registry slot per shard");
  }

  ~ShardedInspector() { finish(); }

  ShardedInspector(const ShardedInspector&) = delete;
  ShardedInspector& operator=(const ShardedInspector&) = delete;

  /// Spawn the worker threads (and the watchdog, when enabled). Must be
  /// called before submit().
  void start() {
    if (running_) return;
    if (options_.metrics != nullptr) {
      if (options_.metrics->has_abandoned_writer())
        throw std::logic_error(
            "ShardedInspector::start: the registry still has a worker "
            "abandoned by a bounded finish() writing it");
      options_.metrics->reset_match_counts();
    }
    shards_.clear();
    stats_.clear();
    matches_by_generation_.clear();
    matches_.clear();
    flow_matches_.clear();
    stop_.store(false, std::memory_order_relaxed);
    health_primed_ = false;  // fresh run, fresh health smoothing
    for (std::size_t i = 0; i < options_.shards; ++i)
      shards_.push_back(std::make_unique<Shard>(*engine_, options_, i));
    shed_high_ = options_.shed_high_water != 0
                     ? options_.shed_high_water
                     : shards_.front()->queue.capacity() * 3 / 4;
    if (shed_high_ == 0) shed_high_ = 1;
    shed_low_ = options_.shed_low_water != 0 ? options_.shed_low_water
                                             : shed_high_ / 2;
    {
      // A swap published before this start() (or between runs): stage it so
      // every fresh worker adopts the generation on its first iteration.
      std::lock_guard<std::mutex> lock(swap_mu_);
      if (engine_pin_ != nullptr)
        for (auto& shard : shards_)
          shard->stage_swap(engine_pin_, current_generation_);
    }
    // All-ones disables spans: (tick & mask) == 0 then never fires (shift 0
    // = mask 0 = every packet, so 0 can't double as the off value).
    span_mask_ = ~std::uint64_t{0};
    if (options_.metrics != nullptr && options_.trace_sample_shift < 64)
      span_mask_ = (std::uint64_t{1} << options_.trace_sample_shift) - 1;
    for (auto& shard : shards_) {
      shard->alive.store(true, std::memory_order_release);
      shard->thread = std::thread([s = shard.get()] { s->run(); });
    }
    if (options_.watchdog)
      watchdog_thread_ = std::thread([this] { watchdog_run(); });
    running_ = true;
    if (options_.http_port >= 0 && options_.metrics != nullptr) {
      obs::HttpServer::Handlers h;
      obs::MetricsRegistry* reg = options_.metrics;
      h.metrics = [reg] { return obs::to_prometheus(reg->snapshot()); };
      h.telemetry = [reg] { return obs::to_json(reg->snapshot()); };
      if (options_.profiler != nullptr) {
        obs::Profiler* prof = options_.profiler;
        h.profile = [prof] { return obs::to_profile_json(prof->snapshot()); };
      }
      h.health = [this] { return health(); };
      http_.start(static_cast<std::uint16_t>(options_.http_port), std::move(h));
    }
  }

  /// Port the observability endpoint is bound to (0 when not running).
  /// With Options::http_port = 0 this is the kernel-assigned port.
  [[nodiscard]] std::uint16_t http_port() const { return http_.port(); }

  /// True while the observability HTTP endpoint is serving.
  [[nodiscard]] bool http_running() const { return http_.running(); }

  /// The /healthz verdict: 200-ok unless a shard failed over or a signal
  /// (shed ratio, live queue depth, watchdog restarts, quarantined flows)
  /// crosses its Options::health threshold. Safe from any thread while the
  /// pipeline is running; the body names every signal either way.
  ///
  /// Shed ratio and queue depth are EWMA-smoothed across polls (tau ~2 s):
  /// one probe landing inside a short burst can no longer flap the verdict
  /// 200<->503 — the smoothed signal has to stay over the line for a
  /// sustained window. Bypass sheds come only from the ladder's L3 rung and
  /// are excluded from the ratio (degrading by design is the controller
  /// doing its job, not the pipeline failing); the body reports the worst
  /// shard's ladder rung as degraded-but-alive state.
  [[nodiscard]] obs::HttpServer::Health health() const {
    obs::HttpServer::Health out;
    // Everything comes from the shards' counter records, so health is
    // meaningful even without a MetricsRegistry attached.
    std::uint64_t scanned = 0, shed = 0, bypass = 0, restarts = 0, quar = 0;
    std::uint64_t depth = 0, level = 0;
    std::size_t failed = 0;
    for (const auto& shard : shards_) {
      const ShardStats st = shard->stats.snapshot();
      shed += st.shed_total();
      bypass += st.shed_bypass;
      scanned += st.scanned;
      restarts += st.worker_restarts;
      quar += st.flows_quarantined;
      depth = std::max<std::uint64_t>(depth, shard->queue.depth());
      level = std::max(level, st.degrade_level);
      if (shard->failed.load(std::memory_order_acquire)) ++failed;
    }
    // submitted == scanned + shed_total(): popped packets would count the
    // sheds that happen after dequeue twice, and packets still queued are
    // neither yet.
    const std::uint64_t submitted = scanned + shed;
    const double raw_ratio =
        submitted == 0 ? 0.0
                       : static_cast<double>(shed - bypass) /
                             static_cast<double>(submitted);
    double shed_ratio = raw_ratio;
    double depth_smoothed = static_cast<double>(depth);
    {
      // EWMA across polls. alpha = 1 - exp(-dt/tau) makes the smoothing
      // poll-rate independent: back-to-back probes barely move the state,
      // a probe after a long gap mostly adopts the fresh sample.
      std::lock_guard<std::mutex> lock(health_mu_);
      const auto now = std::chrono::steady_clock::now();
      if (!health_primed_) {
        health_primed_ = true;
        health_shed_ewma_ = raw_ratio;
        health_depth_ewma_ = static_cast<double>(depth);
      } else {
        const double dt =
            std::chrono::duration<double>(now - health_last_).count();
        const double alpha = 1.0 - std::exp(-std::max(dt, 0.0) / kHealthTauSec);
        health_shed_ewma_ += alpha * (raw_ratio - health_shed_ewma_);
        health_depth_ewma_ +=
            alpha * (static_cast<double>(depth) - health_depth_ewma_);
      }
      health_last_ = now;
      shed_ratio = health_shed_ewma_;
      depth_smoothed = health_depth_ewma_;
    }
    const std::uint64_t depth_limit =
        options_.health.max_queue_depth != 0
            ? options_.health.max_queue_depth
            : options_.queue_capacity * 7 / 8;
    const std::uint64_t restart_limit =
        options_.health.max_worker_restarts != 0
            ? options_.health.max_worker_restarts
            : static_cast<std::uint64_t>(options_.shards) *
                  options_.max_worker_restarts;
    const bool shed_ok = shed_ratio <= options_.health.max_shed_ratio;
    const bool depth_ok = depth_smoothed <= static_cast<double>(depth_limit);
    const bool restarts_ok = restarts <= restart_limit;
    const bool quarantine_ok = quar <= options_.health.max_quarantined_flows;
    out.ok = failed == 0 && shed_ok && depth_ok && restarts_ok && quarantine_ok;
    char buf[768];
    std::snprintf(buf, sizeof buf,
                  "{\"ok\":%s,\"failed_shards\":%zu,"
                  "\"degraded\":%s,\"degrade_level\":%llu,"
                  "\"shed_ratio\":{\"value\":%.6f,\"limit\":%.6f,\"ok\":%s},"
                  "\"queue_depth\":{\"value\":%.1f,\"limit\":%llu,\"ok\":%s},"
                  "\"worker_restarts\":{\"value\":%llu,\"limit\":%llu,\"ok\":%s},"
                  "\"quarantined_flows\":{\"value\":%llu,\"limit\":%llu,\"ok\":%s}}",
                  out.ok ? "true" : "false", failed,
                  level != 0 ? "true" : "false",
                  static_cast<unsigned long long>(level), shed_ratio,
                  options_.health.max_shed_ratio, shed_ok ? "true" : "false",
                  depth_smoothed,
                  static_cast<unsigned long long>(depth_limit),
                  depth_ok ? "true" : "false",
                  static_cast<unsigned long long>(restarts),
                  static_cast<unsigned long long>(restart_limit),
                  restarts_ok ? "true" : "false",
                  static_cast<unsigned long long>(quar),
                  static_cast<unsigned long long>(
                      options_.health.max_quarantined_flows),
                  quarantine_ok ? "true" : "false");
    out.body = buf;
    return out;
  }

  /// Atomically publish a new engine generation to the running pipeline
  /// (the ruleset hot swap, DESIGN.md Sec. 10). `engine` is typically an
  /// aliased pointer into a reload::EngineSet — the shared_ptr refcount is
  /// what keeps the set alive while any shard still references it.
  /// `generation` must be unique and increasing (reload::RulesetRegistry
  /// hands these out).
  ///
  /// Each worker notices the staged generation at its next batch boundary
  /// (one acquire load per loop iteration) and adopts it there, so no
  /// packet is ever lost or torn mid-burst by a swap; per-flow contexts
  /// follow Options::swap_policy. Callable from any thread — including a
  /// background compile thread — concurrently with submit(), but not
  /// concurrently with start()/finish().
  void swap_ruleset(std::shared_ptr<const EngineT> engine, std::uint64_t generation) {
    if (engine == nullptr) return;
    std::lock_guard<std::mutex> lock(swap_mu_);
    engine_ = engine.get();
    engine_pin_ = engine;
    current_generation_ = generation;
    for (auto& shard : shards_) shard->stage_swap(engine, generation);
  }

  /// Newest generation published via swap_ruleset (0 initially).
  [[nodiscard]] std::uint64_t current_generation() const {
    std::lock_guard<std::mutex> lock(swap_mu_);
    return current_generation_;
  }

  /// Lowest generation adopted across the live shards — once this reaches
  /// the value passed to swap_ruleset, every worker is scanning new flows
  /// with the new ruleset. 0 before start() or before any swap.
  [[nodiscard]] std::uint64_t adopted_generation() const {
    if (shards_.empty()) return 0;
    std::uint64_t lowest = ~std::uint64_t{0};
    for (const auto& shard : shards_) {
      const std::uint64_t g =
          shard->adopted_generation.load(std::memory_order_acquire);
      lowest = g < lowest ? g : lowest;
    }
    return lowest;
  }

  /// Enqueue one packet to its flow's shard (single producer thread).
  /// Packets buffer per shard and flush into the SPSC queue in bursts of
  /// Options::batch_size. Under ShedPolicy::kBackpressure a full queue
  /// spins (yielding) — backpressure instead of drops, so match results
  /// stay deterministic; full-spins are counted, and a sustained non-zero
  /// rate means the shard cannot keep up. ShedPolicy::kDropNewest sheds at
  /// admission once the backlog crosses the high watermark (with hysteresis
  /// down to the low watermark), keeping the producer wait-free under
  /// overload.
  /// The backpressure spin periodically verifies the shard's worker is
  /// still alive: if it died and no watchdog is supervising, submit()
  /// throws std::runtime_error instead of deadlocking the producer; with a
  /// watchdog it keeps spinning until the worker is restarted or the shard
  /// is failed over (then the packet is shed as kFailover).
  ///
  /// Only legal between start() and finish(): anything else is a contract
  /// violation (the shards do not exist) and throws std::logic_error.
  void submit(const flow::Packet& p) {
    if (!running_)
      throw std::logic_error(
          "ShardedInspector::submit() outside start()/finish() — no shards exist");
    Shard& s = *shards_[shard_of(p.key)];
    s.stats.submitted.store(s.stats.submitted.load(std::memory_order_relaxed) + 1,
                            std::memory_order_relaxed);
    if (s.failed.load(std::memory_order_acquire)) {
      s.shed_one(p, ShedReason::kFailover);
      return;
    }
    if (options_.shed_policy == ShedPolicy::kDropNewest && try_shed(s, p))
      return;
    s.pending.push_back(p);
    // Latency-span sampling (DESIGN.md Sec. 12): 1-in-2^trace_sample_shift
    // admitted packets get the submit stamp; the shard worker completes the
    // span at dequeue/scan time. Detached telemetry costs one branch.
    if (s.registry != nullptr && (++s.producer_span_tick & span_mask_) == 0)
      s.pending.back().submit_tsc = util::rdtsc_now();
    if (s.pending.size() >= options_.batch_size) flush_shard(s);
    const std::size_t depth = s.queue.depth();
    if (depth > s.stats.max_queue_depth.load(std::memory_order_relaxed))
      s.stats.max_queue_depth.store(depth, std::memory_order_relaxed);
    if (s.registry != nullptr) s.stats.queue_depth.record(depth);
  }

  /// Drain all queues, join the workers, and merge stats/matches. Waits as
  /// long as the drain takes (a truly wedged worker blocks forever — use
  /// the deadline overload when that must not happen).
  void finish() { finish_until(false, std::chrono::milliseconds::zero()); }

  /// Bounded-deadline shutdown: drain for up to `timeout`; past the
  /// deadline, injected stalls are aborted and workers flip to
  /// drain-and-shed (every undelivered packet counted as kFailover), with a
  /// second `timeout` of grace. A worker wedged beyond both windows is
  /// abandoned: its thread is detached and its shard leaked for the process
  /// lifetime (its stats still read from its counter record). Returns true
  /// when everything drained cleanly within the deadline; false when
  /// anything was shed on the way out or a worker had to be abandoned. The
  /// accounting invariant holds either way.
  bool finish(std::chrono::milliseconds timeout) {
    return finish_until(true, timeout);
  }

  /// True when an obs::MetricsRegistry is attached via Options::metrics.
  [[nodiscard]] bool telemetry_enabled() const { return options_.metrics != nullptr; }

  /// Live read of the attached registry — safe at any time, including while
  /// all workers are scanning (everything is relaxed atomics). Returns an
  /// empty snapshot when no registry is attached.
  [[nodiscard]] obs::RegistrySnapshot snapshot() const {
    return options_.metrics != nullptr ? options_.metrics->snapshot()
                                       : obs::RegistrySnapshot{};
  }

  [[nodiscard]] std::size_t shard_count() const { return options_.shards; }

  /// Per-shard stats: each shard's counter record as finish() left it.
  [[nodiscard]] const std::vector<ShardStats>& stats() const { return stats_; }

  /// Aggregate stats across shards; valid after finish().
  [[nodiscard]] ShardStats totals() const {
    ShardStats t;
    for (const auto& s : stats_) t += s;
    return t;
  }

  /// Matches keyed by the engine generation that produced them (generation
  /// 0 before any swap_ruleset), merged over the joined workers; valid
  /// after finish(). Sums to totals().matches unless a worker was abandoned.
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& matches_by_generation()
      const {
    return matches_by_generation_;
  }

  /// All shards' matches merged into (end, id) order; valid after finish()
  /// and only populated when Options::collect_matches is set.
  [[nodiscard]] MatchVec merged_matches() const {
    MatchVec all = matches_;
    std::sort(all.begin(), all.end());
    return all;
  }

  /// All shards' flow-attributed matches (unordered across shards); valid
  /// after finish(), populated when Options::collect_flow_matches is set.
  [[nodiscard]] const std::vector<FlowMatch>& flow_matches() const {
    return flow_matches_;
  }

  [[nodiscard]] std::size_t shard_of(const FlowKey& key) const {
    return flow::FlowKeyHash{}(key) % options_.shards;
  }

 private:
  struct Shard;

  /// Producer-side admission control. Returns true when `p` was shed as
  /// kAdmission. Engages once the backlog (queue + producer buffer) crosses
  /// the high watermark — or the "pipeline.queue.full" fault fires — and
  /// disengages only once the backlog falls to the low watermark
  /// (hysteresis, no flapping).
  bool try_shed(Shard& s, const flow::Packet& p) {
    const std::size_t depth = s.queue.depth() + s.pending.size();
    const bool over =
        depth >= shed_high_ || util::fault_fire("pipeline.queue.full");
    if (!s.shed_engaged) {
      if (!over) return false;
      s.shed_engaged = true;
    } else if (!over && depth <= shed_low_) {
      s.shed_engaged = false;
      return false;
    }
    s.shed_one(p, ShedReason::kAdmission);
    return true;
  }

  /// Push a shard's buffered packets into its queue, spinning under
  /// backpressure. Every kLivenessCheckSpins spins the worker's liveness
  /// flag is consulted: a dead worker can never drain the queue, so unless
  /// a watchdog is about to restart it the producer sheds the remainder
  /// (kFailover, exact accounting) and — outside finish(), without a
  /// watchdog — throws, so the failure surfaces instead of deadlocking.
  void flush_shard(Shard& s, bool from_finish = false) {
    static constexpr std::uint64_t kLivenessCheckSpins = 1024;
    std::size_t done = 0;
    std::uint64_t spins = 0;
    while (done < s.pending.size()) {
      if (!util::fault_fire("pipeline.queue.full"))
        done += s.queue.try_push_batch(s.pending.data() + done,
                                       s.pending.size() - done);
      if (done == s.pending.size()) break;
      ++spins;
      if (spins % kLivenessCheckSpins == 0 &&
          !s.alive.load(std::memory_order_acquire)) {
        const bool recovery_coming =
            options_.watchdog && !s.failed.load(std::memory_order_acquire);
        if (!recovery_coming) {
          s.producer_pushed += done;
          for (std::size_t i = done; i < s.pending.size(); ++i)
            s.shed_one(s.pending[i], ShedReason::kFailover);
          s.pending.clear();
          s.record_spins(spins);
          if (from_finish || options_.watchdog) return;
          throw std::runtime_error(
              "ShardedInspector: shard worker died while its queue was full");
        }
      }
      std::this_thread::yield();
    }
    s.producer_pushed += done;
    s.pending.clear();
    s.record_spins(spins);
  }

  bool finish_until(bool bounded, std::chrono::milliseconds timeout) {
    if (!running_) return true;
    // The endpoint's handlers read the live shards; stop serving before the
    // shard vector is torn down.
    http_.stop();
    bool clean = true;
    for (auto& shard : shards_) flush_shard(*shard, true);
    // Drain before stopping: while the watchdog is still running it can
    // restart a just-crashed worker, so a backlog behind a crash gets
    // scanned instead of being written off as failover sheds. Give up on a
    // shard only when recovery is impossible (failed over, or dead with no
    // watchdog) or the deadline passes.
    const auto drain_deadline =
        bounded ? std::chrono::steady_clock::now() + timeout
                : std::chrono::steady_clock::time_point::max();
    for (auto& shard : shards_) {
      Shard& s = *shard;
      while (s.queue.depth() != 0) {
        if (s.failed.load(std::memory_order_acquire)) break;
        if (!s.alive.load(std::memory_order_acquire) && !options_.watchdog)
          break;
        if (std::chrono::steady_clock::now() >= drain_deadline) {
          clean = false;
          break;
        }
        std::this_thread::yield();
      }
    }
    stop_.store(true, std::memory_order_release);
    if (watchdog_thread_.joinable()) watchdog_thread_.join();
    for (auto& shard : shards_) {
      shard->stop.store(true, std::memory_order_release);
      shard->queue.close();
    }
    if (!bounded) {
      for (auto& shard : shards_)
        if (shard->thread.joinable()) shard->thread.join();
    } else {
      const auto all_dead = [this] {
        for (const auto& sh : shards_)
          if (sh->alive.load(std::memory_order_acquire)) return false;
        return true;
      };
      const auto wait_until = [&all_dead](std::chrono::steady_clock::time_point d) {
        while (!all_dead() && std::chrono::steady_clock::now() < d)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      };
      wait_until(std::chrono::steady_clock::now() + timeout);
      if (!all_dead()) {
        // Deadline passed with workers still running: stop being polite.
        // Injected stalls abort, and remaining queue contents become
        // failover sheds instead of scans (drain-and-shed is O(pop)).
        clean = false;
        util::FaultRegistry::instance().abort_stalls();
        for (auto& sh : shards_)
          sh->abort_drain.store(true, std::memory_order_release);
        wait_until(std::chrono::steady_clock::now() +
                   std::max(timeout, std::chrono::milliseconds(20)));
      }
      for (auto& sh : shards_) {
        if (!sh->alive.load(std::memory_order_acquire)) {
          if (sh->thread.joinable()) sh->thread.join();
        } else {
          // Wedged beyond both windows (e.g. an engine scan that never
          // returns). Joining would hang forever, so abandon the thread;
          // the shard object must outlive it, so it is leaked into a
          // process-lifetime graveyard. Its stats below come from its
          // counter record, which the wedged worker can no longer be
          // trusted to advance.
          clean = false;
          sh->failed.store(true, std::memory_order_release);
          sh->thread.detach();
          if (sh->registry != nullptr) sh->registry->note_abandoned_writer();
        }
      }
    }
    for (auto& shard : shards_) {
      if (shard->alive.load(std::memory_order_acquire)) continue;  // abandoned
      // Worker joined; the producer is now the sole consumer. Anything left
      // in the ring (crash without watchdog, abort-drain races) is shed
      // with full accounting rather than silently dropped.
      flow::Packet leftovers[64];
      std::size_t n;
      while ((n = shard->queue.try_pop_batch(leftovers, 64)) != 0) {
        clean = false;
        for (std::size_t j = 0; j < n; ++j)
          shard->shed_one(leftovers[j], ShedReason::kFailover);
      }
    }
    for (auto& shard : shards_) {
      Shard& s = *shard;
      if (s.alive.load(std::memory_order_acquire)) {
        // Abandoned: packets the wedged worker never popped can no longer
        // be read out of its ring; count them shed so the invariant still
        // holds. (Their bytes are unknown — shed_bytes is best-effort here.)
        const std::uint64_t popped = s.popped.load(std::memory_order_relaxed);
        if (s.producer_pushed > popped)
          s.stats.shed_failover.fetch_add(s.producer_pushed - popped,
                                          std::memory_order_relaxed);
      } else {
        // Worker-owned plain memory: only merged after a join (an abandoned
        // worker's vectors and map cannot be read safely).
        matches_.insert(matches_.end(), s.matches.begin(), s.matches.end());
        flow_matches_.insert(flow_matches_.end(), s.flow_matches.begin(),
                             s.flow_matches.end());
        for (const auto& [generation, count] : s.gen_matches)
          matches_by_generation_[generation] += count;
      }
      stats_.push_back(s.stats.snapshot());
    }
    for (auto& shard : shards_)
      if (shard->alive.load(std::memory_order_acquire))
        graveyard_push(std::move(shard));
    shards_.clear();
    running_ = false;
    return clean;
  }

  /// Supervision loop: per-shard heartbeat aging for stall detection,
  /// join+recover+respawn for crashed workers, failover past the restart
  /// budget. Runs every watchdog_interval_ms until finish() joins it.
  ///
  /// Stall detection ages the worker's own steady_clock heartbeat stamp —
  /// the worker writes "when" it last made progress, the watchdog compares
  /// against the same clock. (An earlier version aged a heartbeat counter
  /// by the watchdog's observation times, which charged the watchdog's own
  /// scheduling delay to the worker: an oversleeping watchdog under load
  /// flagged healthy workers as stalled.)
  void watchdog_run() {
    const auto interval = std::chrono::milliseconds(options_.watchdog_interval_ms);
    const std::int64_t stall_timeout_ns =
        std::int64_t{options_.stall_timeout_ms} * 1'000'000;
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(interval);
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& s = *shards_[i];
        if (s.failed.load(std::memory_order_acquire)) {
          drain_failed(s);
          continue;
        }
        if (!s.alive.load(std::memory_order_acquire)) {
          if (stop_.load(std::memory_order_acquire)) return;  // normal exit
          // Crash recovery. The worker is dead: join it, recover from the
          // shard journal, and respawn. Past the restart budget the shard
          // fails over: its queue is drained-and-shed here and all later
          // submits shed at admission.
          if (s.thread.joinable()) s.thread.join();
          if (s.stats.worker_restarts.load(std::memory_order_relaxed) >=
              options_.max_worker_restarts) {
            s.failed.store(true, std::memory_order_release);
            drain_failed(s);
            continue;
          }
          s.recover_from_journal();
          s.stats.worker_restarts.fetch_add(1, std::memory_order_relaxed);
          // Fresh heartbeat before `alive` flips: the respawned worker must
          // not inherit the dead one's stamp age.
          s.heartbeat_ns.store(Shard::steady_now_ns(), std::memory_order_relaxed);
          s.alive.store(true, std::memory_order_release);
          s.thread = std::thread([sp = &s] { sp->run(); });
          continue;
        }
        const std::int64_t age =
            Shard::steady_now_ns() -
            s.heartbeat_ns.load(std::memory_order_relaxed);
        if (age < stall_timeout_ns) {
          s.stalled.store(false, std::memory_order_relaxed);
        } else {
          // Count each stall episode once; the flag clears on recovery.
          if (!s.stalled.exchange(true, std::memory_order_relaxed))
            s.stats.worker_stalls.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }

  /// Drain a failed-over shard's queue as sheds. Only called after the
  /// shard's worker has been joined, so the caller is the sole consumer.
  void drain_failed(Shard& s) {
    flow::Packet leftovers[64];
    std::size_t n;
    while ((n = s.queue.try_pop_batch(leftovers, 64)) != 0)
      for (std::size_t j = 0; j < n; ++j)
        s.shed_one(leftovers[j], ShedReason::kFailover);
  }

  /// Shards abandoned by bounded shutdown: their detached worker threads
  /// may still reference them, so they live for the process lifetime.
  static void graveyard_push(std::unique_ptr<Shard> shard) {
    static std::mutex mu;
    static std::vector<std::unique_ptr<Shard>>* leaked =
        new std::vector<std::unique_ptr<Shard>>;  // never destroyed, on purpose
    std::lock_guard<std::mutex> lock(mu);
    leaked->push_back(std::move(shard));
  }

  struct Shard {
    Shard(const EngineT& engine, const Options& o, std::size_t index)
        : owned_stats(o.metrics == nullptr ? std::make_unique<obs::ShardMetrics>()
                                           : nullptr),
          stats(o.metrics != nullptr ? o.metrics->shard(index) : *owned_stats),
          registry(o.metrics),
          shard_slot(static_cast<std::uint32_t>(index)),
          queue(o.queue_capacity),
          inspector(engine, o.max_flows_per_shard, o.max_pending_per_flow),
          batch_size(o.batch_size),
          collect(o.collect_matches),
          collect_flows(o.collect_flow_matches),
          swap_policy(o.swap_policy),
          shed_sink(o.shed_sink),
          degrade(o.slo, o.degrade),
          journal_on(o.watchdog) {
      if (o.flow_cpu_budget_ns != 0)
        inspector.set_cpu_budget_ns(o.flow_cpu_budget_ns);
      pending.reserve(batch_size);
      burst.resize(batch_size);
      journal_keys.reserve(batch_size);
      heartbeat_ns.store(steady_now_ns(), std::memory_order_relaxed);
      stats.reset();  // a registry slot still holds the previous run's record
      if (registry != nullptr) {
        ns_per_tick = 1e9 / util::tsc_ticks_per_second();
        inspector.set_metrics(registry, index);
        if (o.profiler != nullptr) inspector.set_profiler(o.profiler);
      } else {
        inspector.set_counters(&stats);
      }
      // A pinned ladder (bench sweeps) starts at its forced rung; the gauge
      // reflects it but no transition is recorded — nothing "moved".
      if (degrade.enabled()) apply_level(degrade.level(), false);
    }

    /// The shard's one counter record (see the file comment): registry
    /// slot `shard_slot`, or `owned_stats` when no registry is attached.
    std::unique_ptr<obs::ShardMetrics> owned_stats;
    obs::ShardMetrics& stats;
    obs::MetricsRegistry* registry;  ///< telemetry; null = untraced
    std::uint32_t shard_slot;        ///< this shard's index (span attribution)

    SpscQueue<flow::Packet> queue;
    flow::TieredFlowInspector<EngineT> inspector;
    std::size_t batch_size;
    bool collect;
    bool collect_flows;
    flow::SwapPolicy swap_policy;
    std::function<void(const flow::Packet&, ShedReason)> shed_sink;

    // Degradation controller (DESIGN.md Sec. 14). Worker-owned: the worker
    // polls it per burst (and periodically while idle, so an empty queue
    // still walks the ladder back to L0); only the level gauge below is
    // shared. ewma/window fields are worker-owned plain state.
    DegradeController degrade;
    double scan_ns_ewma = 0.0;      ///< EWMA scan cost per kept packet
    double shed_ratio_ewma = 0.0;   ///< EWMA of per-poll shed-delta ratio
    std::uint64_t dg_last_shed = 0; ///< baseline for the shed-ratio window
    std::uint64_t dg_last_total = 0;

    // Crash-consistency journal (DESIGN.md Sec. 14). The worker records the
    // burst's flow keys and opens the journal (seq -> odd) before handing
    // the burst to the inspector, then commits (seq -> even) after it
    // returns. A crash mid-burst leaves seq odd; the watchdog — after
    // joining the dead worker, so it is the sole accessor — resets exactly
    // the journaled flows (their contexts may be torn) and keeps every
    // other flow's state, then re-commits. Only active under a watchdog:
    // without one there is no restart to recover for.
    bool journal_on;
    std::atomic<std::uint64_t> journal_seq{0};  ///< odd = burst in flight
    std::vector<flow::FlowKey> journal_keys;    ///< worker-owned; read after join

    // Ruleset hot-swap staging: the swapper thread writes the staged fields
    // under swap_mu and bumps swap_seq; the worker notices the bump at a
    // batch boundary and adopts under the same mutex (cold path — one
    // acquire load per loop iteration when no swap is pending).
    std::mutex swap_mu;
    std::shared_ptr<const EngineT> staged_pin;  // guarded by swap_mu
    std::uint64_t staged_generation = 0;        // guarded by swap_mu
    std::atomic<std::uint64_t> swap_seq{0};
    std::atomic<std::uint64_t> adopted_generation{0};

    void stage_swap(std::shared_ptr<const EngineT> engine, std::uint64_t generation) {
      std::lock_guard<std::mutex> lock(swap_mu);
      staged_pin = std::move(engine);
      staged_generation = generation;
      swap_seq.fetch_add(1, std::memory_order_release);
    }

    /// Worker-side: adopt whatever is currently staged. adopt_engine is a
    /// no-op when the staged generation is already current (restart replay,
    /// or two seq bumps observed after one read).
    void adopt_staged() {
      std::shared_ptr<const EngineT> pin;
      std::uint64_t generation;
      {
        std::lock_guard<std::mutex> lock(swap_mu);
        pin = staged_pin;
        generation = staged_generation;
      }
      if (pin == nullptr) return;
      const EngineT& engine = *pin;
      inspector.adopt_engine(engine, generation, swap_policy, std::move(pin));
      adopted_generation.store(generation, std::memory_order_release);
    }

    // Control plane. The shard is self-contained (no pointers back into the
    // ShardedInspector) so an abandoned shard in the graveyard stays valid
    // for its detached worker.
    std::atomic<bool> stop{false};         ///< set by finish()
    std::atomic<bool> alive{false};        ///< set by start(), cleared at run() exit
    std::atomic<bool> abort_drain{false};  ///< bounded shutdown: shed, don't scan
    std::atomic<bool> failed{false};       ///< failed over: shed at admission
    std::atomic<bool> stalled{false};      ///< heartbeat stale (watchdog view)
    /// Worker-progress stamp: steady_clock nanoseconds written by the
    /// worker each loop iteration, aged by the watchdog against the SAME
    /// clock. One timebase end to end — no counter aged by somebody else's
    /// observation schedule, no TSC/wall-clock mixing.
    std::atomic<std::int64_t> heartbeat_ns{0};

    [[nodiscard]] static std::int64_t steady_now_ns() {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    }

    /// Packets the worker popped, written once per burst by the worker
    /// with a relaxed load and store. Private to the shard, for two uses:
    /// finish() counts an abandoned shard's unpopped packets as failover
    /// sheds, and the controller's shed-ratio window divides by it.
    std::atomic<std::uint64_t> popped{0};

    double ns_per_tick = 0.0;              // for span tick→ns conversion
    std::uint64_t producer_span_tick = 0;  // producer-owned sampling counter
    std::uint64_t span_scan_start = 0;     // worker-owned scan-start stamp
    MatchVec matches;                      // worker-owned until join
    std::vector<FlowMatch> flow_matches;   // worker-owned until join
    std::map<std::uint64_t, std::uint64_t> gen_matches;  // worker-owned until join
    std::vector<flow::Packet> pending;     // producer-owned submit buffer
    std::vector<flow::Packet> burst;       // worker-owned pop buffer
    std::uint64_t producer_pushed = 0;     // producer-owned

    bool shed_engaged = false;             // producer-owned (try_shed)

    std::thread thread;

    /// Count one shed packet (exactly one reason bucket) and notify the
    /// sink. Callable from the producer, the worker, or the watchdog, so
    /// the shed counters are read-modify-writes.
    void shed_one(const flow::Packet& p, ShedReason reason) {
      shed_counter(reason).fetch_add(1, std::memory_order_relaxed);
      stats.shed_bytes.fetch_add(p.length, std::memory_order_relaxed);
      if (shed_sink) shed_sink(p, reason);
    }

    std::atomic<std::uint64_t>& shed_counter(ShedReason reason) {
      switch (reason) {
        case ShedReason::kAdmission: return stats.shed_admission;
        case ShedReason::kBypass: return stats.shed_bypass;
        case ShedReason::kCorrupt: return stats.shed_corrupt;
        case ShedReason::kCrash: return stats.shed_crash;
        case ShedReason::kQuarantine: return stats.shed_quarantine;
        case ShedReason::kFailover: return stats.shed_failover;
      }
      return stats.shed_failover;  // unreachable
    }

    /// Producer-side: the producer is the only writer of queue_full_spins.
    void record_spins(std::uint64_t spins) {
      if (spins == 0) return;
      stats.queue_full_spins.store(
          stats.queue_full_spins.load(std::memory_order_relaxed) + spins,
          std::memory_order_relaxed);
    }

    void run() {
      // Liveness contract: `alive` goes false on ANY exit (including an
      // engine exception) so the producer/watchdog can detect a dead
      // worker. The heartbeat ticks every loop iteration; a heartbeat that
      // stops advancing while `alive` is the watchdog's stall signal.
      struct AliveGuard {
        std::atomic<bool>* flag;
        ~AliveGuard() { flag->store(false, std::memory_order_release); }
      } guard{&alive};
      try {
        std::uint64_t iter = 0;
        std::uint64_t adopted_seq = 0;
        for (;;) {
          heartbeat_ns.store(steady_now_ns(), std::memory_order_relaxed);
          if constexpr (util::faultpoints_enabled()) {
            if ((iter & 63) == 0) util::fault_stall("pipeline.worker.stall");
          }
          // Idle controller poll: with no bursts arriving the ladder must
          // still walk back toward L0 once pressure is gone (every 64
          // iterations ~ a few microseconds of idle spinning).
          if ((iter++ & 63) == 0) poll_degrade();
          // Batch boundary: adopt a staged ruleset generation before the
          // next burst. One acquire load when nothing is staged.
          const std::uint64_t seq = swap_seq.load(std::memory_order_acquire);
          if (seq != adopted_seq) {
            adopt_staged();
            adopted_seq = seq;
          }
          const std::size_t n = queue.try_pop_batch(burst.data(), burst.size());
          if (n != 0) {
            process_burst(n);
            continue;
          }
          if (stop.load(std::memory_order_acquire) || queue.closed()) {
            // The producer stopped pushing before setting stop/closing; one
            // final drain pass catches anything published just before.
            std::size_t m;
            while ((m = queue.try_pop_batch(burst.data(), burst.size())) != 0)
              process_burst(m);
            break;
          }
          std::this_thread::yield();
        }
      } catch (...) {
        // A worker must never crash the process; `alive` drops and either
        // the watchdog restarts this shard or the producer reports the
        // death on its own thread.
      }
    }

    void process_burst(std::size_t n) {
      popped.store(popped.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
      bool any_span = false;
      if (registry != nullptr)
        for (std::size_t i = 0; i < n; ++i) any_span |= burst[i].submit_tsc != 0;
      const std::uint64_t dequeue_tsc = any_span ? util::rdtsc_now() : 0;
      if (abort_drain.load(std::memory_order_relaxed)) {
        // Bounded shutdown passed its deadline: drain without scanning.
        for (std::size_t i = 0; i < n; ++i)
          shed_one(burst[i], ShedReason::kFailover);
        return;
      }
      // Injected corrupt packets are rejected before delivery (a real
      // deployment would fail checksum/sanity checks here).
      std::size_t kept = n;
      if constexpr (util::faultpoints_enabled()) {
        if (util::FaultRegistry::instance().any_armed()) {
          kept = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (util::fault_fire("pipeline.packet.corrupt"))
              shed_one(burst[i], ShedReason::kCorrupt);
            else
              burst[kept++] = burst[i];
          }
        }
      }
      // L3 count-and-bypass: the deepest ladder rung. Each packet is
      // counted as a kBypass shed, with its bytes in shed_bytes, and never
      // reaches the inspector, so the accounting invariant holds exactly.
      // The controller still polls below — that is what walks the shard
      // back up once the queue drains.
      if (degrade.level() == DegradeLevel::kL3Bypass) {
        for (std::size_t i = 0; i < kept; ++i)
          shed_one(burst[i], ShedReason::kBypass);
        poll_degrade();
        return;
      }
      std::uint64_t burst_qdrops = 0;
      std::uint64_t burst_qbytes = 0;
      const bool timed = degrade.enabled();
      std::chrono::steady_clock::time_point scan_t0{};
      if (timed) scan_t0 = std::chrono::steady_clock::now();
      try {
        if (journal_on) {
          // Journal open (seq -> odd): record which flows this burst may
          // touch BEFORE the inspector can tear them. Commit follows the
          // inspector call; a crash between the two leaves seq odd and the
          // watchdog resets exactly these flows on restart.
          journal_keys.clear();
          for (std::size_t i = 0; i < kept; ++i)
            journal_keys.push_back(burst[i].key);
          journal_seq.fetch_add(1, std::memory_order_release);
        }
        if (util::fault_fire("pipeline.worker.crash"))
          throw std::runtime_error("injected worker crash");
        // Batched delivery: the inspector takes the burst's packets in
        // order, exactly as one packet() call each. The drop sink fires
        // for packets of quarantined flows.
        if (dequeue_tsc != 0) span_scan_start = util::rdtsc_now();
        inspector.packet_batch_attributed(
            burst.data(), kept,
            [this](const flow::FlowKey& key, std::uint64_t generation,
                   std::uint32_t id, std::uint64_t end) {
              ++gen_matches[generation];
              if (collect) matches.push_back(Match{id, end});
              if (collect_flows)
                flow_matches.push_back(FlowMatch{key, Match{id, end}, generation});
            },
            [&](const flow::Packet& p) {
              ++burst_qdrops;
              burst_qbytes += p.length;
              shed_one(p, ShedReason::kQuarantine);
            });
        if (journal_on)
          journal_seq.fetch_add(1, std::memory_order_release);  // commit
      } catch (...) {
        // Crash mid-burst (injected, allocation fault, or engine bug): the
        // rest of the burst can't be trusted as scanned. Count everything
        // not already quarantine-shed as crash-shed so the invariant holds,
        // then die; matches already emitted for the scanned prefix stand,
        // and the inspector publishes what it counted for them.
        std::uint64_t kept_bytes = 0;
        for (std::size_t i = 0; i < kept; ++i) kept_bytes += burst[i].length;
        stats.shed_crash.fetch_add(kept - burst_qdrops, std::memory_order_relaxed);
        stats.shed_bytes.fetch_add(kept_bytes - burst_qbytes, std::memory_order_relaxed);
        if (shed_sink)
          for (std::size_t i = 0; i < kept; ++i)
            shed_sink(burst[i], ShedReason::kCrash);
        inspector.publish(stats);
        throw;
      }
      stats.scanned.store(
          stats.scanned.load(std::memory_order_relaxed) + (kept - burst_qdrops),
          std::memory_order_relaxed);
      if (timed && kept > burst_qdrops) {
        // EWMA per-packet scan cost feeds the controller's latency
        // estimate. steady_clock (not TSC) so the controller and the
        // watchdog share one timebase; only read when the controller is
        // enabled, so a disabled controller costs no clock calls.
        const double ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - scan_t0)
                .count() /
            static_cast<double>(kept - burst_qdrops);
        scan_ns_ewma =
            scan_ns_ewma == 0.0 ? ns : scan_ns_ewma + 0.2 * (ns - scan_ns_ewma);
      }
      if (dequeue_tsc != 0) record_spans(kept, dequeue_tsc);
      poll_degrade();
    }

    /// Recover the inspector after a worker crash (watchdog-side, after the
    /// dead worker is joined — the join makes this the sole accessor). An
    /// odd journal_seq means the crash interrupted a burst: the journaled
    /// flows' contexts cannot be trusted (reset-on-next-packet, counted
    /// flows_recovered); every other flow keeps its state, preserving
    /// match continuity across the restart. An even seq means the crash
    /// happened between bursts and the whole table is consistent as-is.
    void recover_from_journal() {
      const std::uint64_t seq = journal_seq.load(std::memory_order_acquire);
      if ((seq & 1) == 0) return;
      std::uint64_t recovered = 0;
      for (const flow::FlowKey& key : journal_keys)
        if (inspector.reset_flow(key)) ++recovered;
      stats.flows_recovered.fetch_add(recovered, std::memory_order_relaxed);
      inspector.publish(stats);  // the reset flows leave the flows gauge now
      journal_seq.store(seq + 1, std::memory_order_release);  // re-commit
    }

    /// Close the degradation loop once: assemble signals the worker already
    /// owns (queue depth, EWMA scan cost, shed-delta ratio), update the
    /// controller, and re-program the inspector's scan mode on a
    /// transition. No-op (one branch) when disabled.
    void poll_degrade() {
      if (!degrade.enabled()) return;
      DegradeSignals sig;
      sig.queue_depth = queue.depth();
      sig.batch_size = batch_size;
      sig.ns_per_packet = scan_ns_ewma;
      // Windowed shed ratio from deltas of the shard's own counters, over
      // popped packets: bypass sheds are the controller's OWN action (L3)
      // and deliberately excluded — feeding them back, or dividing by the
      // delivered packets (none at L3), would latch the ladder at L3.
      const std::uint64_t shed_now =
          stats.shed_admission.load(std::memory_order_relaxed) +
          stats.shed_failover.load(std::memory_order_relaxed);
      const std::uint64_t total_now =
          popped.load(std::memory_order_relaxed) + shed_now;
      if (total_now > dg_last_total) {
        const double r = static_cast<double>(shed_now - dg_last_shed) /
                         static_cast<double>(total_now - dg_last_total);
        shed_ratio_ewma += 0.1 * (r - shed_ratio_ewma);
        dg_last_shed = shed_now;
        dg_last_total = total_now;
      } else {
        // Idle poll, no new packets: pressure from shedding decays, and so
        // does the scan-cost estimate — an empty queue costs nothing to
        // drain, and a shard whose last burst was expensive must not keep
        // forecasting that burst's latency forever.
        shed_ratio_ewma *= 0.98;
        scan_ns_ewma *= 0.98;
      }
      sig.shed_ratio = shed_ratio_ewma;
      if (degrade.update(sig, std::chrono::steady_clock::now()))
        apply_level(degrade.level(), true);
    }

    /// Program the inspector for a ladder rung and publish it. Transitions
    /// (not the initial pinned level) bump the counters and drop a
    /// kDegradeTransitionEventId event in the trace ring: src_ip carries
    /// the shard slot, offset the new level.
    void apply_level(DegradeLevel level, bool is_transition) {
      switch (level) {
        case DegradeLevel::kL0Full:
          inspector.set_scan_mode(flow::ScanMode::kFull);
          break;
        case DegradeLevel::kL1Sampled:
          inspector.set_scan_mode(flow::ScanMode::kSampled, kL1SampleShift);
          break;
        case DegradeLevel::kL2PrefilterOnly:
        case DegradeLevel::kL3Bypass:
          // L3 bursts never reach the inspector; prefilter-only is the
          // right mode for any straggler packets mid-transition.
          inspector.set_scan_mode(flow::ScanMode::kPrefilterOnly);
          break;
      }
      stats.degrade_level.store(static_cast<std::uint64_t>(level),
                                std::memory_order_relaxed);
      if (!is_transition) return;
      stats.degrade_transitions.fetch_add(1, std::memory_order_relaxed);
      if (registry != nullptr)
        registry->trace().record(shard_slot, 0, 0, 0, 0,
                                 obs::kDegradeTransitionEventId,
                                 static_cast<std::uint64_t>(level),
                                 util::rdtsc_now());
    }

    /// Publish latency spans for the sampled packets of a scanned burst.
    /// Scan latency is burst-granular: the whole burst shares one
    /// scan-start/scan-end window, which is exactly the latency a packet
    /// in that burst observed.
    /// Corrupt-filtered packets were compacted out of burst[0..kept) and
    /// carry no span; TSC skew across cores clamps to zero, never wraps.
    void record_spans(std::size_t kept, std::uint64_t dequeue_tsc) {
      const std::uint64_t scan_end_tsc = util::rdtsc_now();
      const auto to_ns = [&](std::uint64_t from, std::uint64_t to) {
        if (to <= from) return std::uint64_t{0};
        return static_cast<std::uint64_t>(
            static_cast<double>(to - from) * ns_per_tick);
      };
      for (std::size_t i = 0; i < kept; ++i) {
        const flow::Packet& p = burst[i];
        if (p.submit_tsc == 0) continue;
        stats.spans_sampled.fetch_add(1, std::memory_order_relaxed);
        stats.queue_wait_ns.record(to_ns(p.submit_tsc, dequeue_tsc));
        stats.span_scan_ns.record(to_ns(span_scan_start, scan_end_tsc));
        stats.e2e_ns.record(to_ns(p.submit_tsc, scan_end_tsc));
        registry->spans().record(p.key.src_ip, p.key.dst_ip, p.key.src_port,
                                 p.key.dst_port, p.key.proto, shard_slot,
                                 p.submit_tsc, dequeue_tsc, span_scan_start,
                                 scan_end_tsc);
      }
    }
  };

  const EngineT* engine_;
  Options options_;
  mutable std::mutex swap_mu_;  ///< serializes swap_ruleset vs. itself/start
  std::shared_ptr<const EngineT> engine_pin_;  ///< owner of a swapped engine
  std::uint64_t current_generation_ = 0;       ///< guarded by swap_mu_
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::size_t shed_high_ = 0;
  std::size_t shed_low_ = 0;
  // /healthz EWMA state (satellite of DESIGN.md Sec. 14): smoothing lives
  // with the poller, not the workers, so the hot path never touches it.
  static constexpr double kHealthTauSec = 2.0;
  mutable std::mutex health_mu_;
  mutable bool health_primed_ = false;
  mutable std::chrono::steady_clock::time_point health_last_{};
  mutable double health_shed_ewma_ = 0.0;
  mutable double health_depth_ewma_ = 0.0;
  std::uint64_t span_mask_ = ~std::uint64_t{0};  ///< span sampling mask (all-ones = off)
  obs::HttpServer http_;         ///< live endpoint; idle unless http_port >= 0
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardStats> stats_;
  std::map<std::uint64_t, std::uint64_t> matches_by_generation_;
  MatchVec matches_;
  std::vector<FlowMatch> flow_matches_;
  std::thread watchdog_thread_;
};

}  // namespace mfa::pipeline
