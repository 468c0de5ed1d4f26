// Shared declarations of the sensor benchmark (README.md in this directory
// describes the workloads, metrics and how to run it).
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/flow.h"
#include "flow/tiered.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "pipeline/pipeline.h"

namespace sensorbench {

using mfa::flow::FlowKey;
using mfa::flow::Packet;

/// Burst size of the pipeline (Options::batch_size) and of the service-time
/// and flow-layer stages, which replay one shard's stack burst by burst.
inline constexpr std::size_t kBurst = 32;
/// Shard workers of the end-to-end pipeline: one producer thread plus three
/// shards fill a 4-thread host.
inline constexpr std::size_t kShards = 3;

/// Heap bytes allocated minus freed by the calling thread. heap.cpp replaces
/// global operator new/delete and accounts malloc_usable_size, so allocator
/// slack is included (the bench_flows method).
std::int64_t thread_live_heap_bytes();

/// Pins the calling thread to one CPU while in scope. Single-thread timings
/// rotate over the CPUs this way: on a shared host one CPU can run slow for
/// a whole run (another tenant on its core), and a burst replayed on
/// several CPUs cannot all be slowed by it.
class PinnedTo {
 public:
  /// Pin to the (i mod n)-th CPU of the process's original affinity mask.
  explicit PinnedTo(std::size_t i);
  ~PinnedTo();
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_;
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  /// Engine source: Snort-dialect rule text (parsed during set-up) or, when
  /// empty, pattern texts of a built-in set.
  std::string rule_text;
  std::vector<std::string> pattern_sources;
  mfa::core::BuildOptions build;
  /// Parsed once at load; the reference NFA is built from these.
  std::vector<mfa::nfa::PatternInput> patterns;

  std::vector<FlowKey> flow_keys;      ///< index = flow id
  std::vector<std::string> streams;    ///< per-flow in-order bytes
  std::vector<Packet> in_order;        ///< in-order delivery; payloads point into streams
  std::vector<std::uint32_t> in_order_flow;  ///< flow id of each in_order packet
  std::vector<Packet> delivered;       ///< the packets the pipeline receives
  /// Flows whose alerts the NFA checks, by stream bytes (0 = every flow);
  /// the rest are checked against a single-context Mfa::feed.
  std::size_t nfa_budget_bytes = 0;

  [[nodiscard]] std::uint64_t stream_bytes() const;
  [[nodiscard]] std::uint64_t delivered_bytes() const;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build a workload's rules and traffic from `seed` (same seed, same
/// packets). `smoke` shrinks traffic and rules so every workload runs in
/// seconds.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

/// Set-up phase one: rule text or pattern texts -> engine inputs.
std::vector<mfa::nfa::PatternInput> parse_inputs(const Workload& w);

/// Print the fingerprint of the delivered packets (hash over keys, seqs and
/// payloads) and their measured properties.
void print_traffic_profile(const Workload& w);

// ---------------------------------------------------------------- reference

/// One alert attributed to a flow id.
struct FlowAlert {
  std::uint32_t flow = 0;
  mfa::Match match;

  friend bool operator<(const FlowAlert& a, const FlowAlert& b) {
    return a.flow != b.flow ? a.flow < b.flow : a.match < b.match;
  }
};

/// Expected per-flow alert sets: the NFA run over each flow's reassembled
/// bytes. Where the NFA is too slow for every flow (nfa_budget_bytes), a
/// single-context Mfa::feed over each whole stream gives the expectation,
/// and the NFA re-checks, within its budget, first the flows that alert and
/// then a fixed seeded sample; any disagreement fails the run.
class AlertReference {
 public:
  AlertReference(const Workload& w, const mfa::core::Mfa& mfa);

  [[nodiscard]] std::uint32_t flow_of(const FlowKey& key) const;
  /// Delivered packets of the flows whose alerts differ from the reference
  /// (alerts on an unknown flow count one packet each). Sorts `got`.
  [[nodiscard]] std::uint64_t mismatched_packets(std::vector<FlowAlert>& got) const;

  [[nodiscard]] std::size_t nfa_flows() const { return nfa_flows_; }
  [[nodiscard]] std::size_t mfa_flows() const { return expected_.size() - nfa_flows_; }
  [[nodiscard]] std::uint64_t alerts() const { return alerts_; }
  /// Sampled flows where the single-context Mfa::feed disagreed with the
  /// NFA: a non-zero value means the fallback reference is itself wrong.
  [[nodiscard]] std::size_t fallback_disagreements() const { return disagreements_; }

 private:
  std::unordered_map<FlowKey, std::uint32_t, mfa::flow::FlowKeyHash> index_;
  std::vector<std::vector<mfa::Match>> expected_;  ///< sorted, per flow id
  std::vector<std::uint64_t> packets_;             ///< delivered packets per flow
  std::size_t nfa_flows_ = 0;
  std::size_t disagreements_ = 0;
  std::uint64_t alerts_ = 0;
};

/// Packets attempted and failed (shed, or on a flow whose alerts differ
/// from the reference), summed over every checked pass of a run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// ---------------------------------------------------------------- tracing

/// Spans recorded by the benchmark around its calls into each module. Kept
/// in memory and written once when the run ends. Single-threaded: only the
/// benchmark's main thread records.
class Tracer {
 public:
  Tracer(bool enabled, std::string workload, std::uint64_t run_id);

  /// Open a span under the innermost open one; returns its id (-1 when off).
  int begin(const char* name);
  void end(int id);
  /// Write every span as JSON lines, the first line carrying `header`.
  bool write(const std::string& path, const std::string& header) const;

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  bool enabled_;
  std::string workload_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------- pipeline

struct PipelinePass {
  double seconds = 0.0;         ///< first submit -> finish() returned
  std::uint64_t cycles = 0;     ///< same interval in TSC ticks
  std::vector<mfa::pipeline::ShardStats> shards;
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;     ///< shed + packets of mismatched flows
};

/// One closed-loop pass: a started ShardedInspector<Mfa> under
/// kBackpressure, every delivered packet submitted by this thread, then
/// finish(). start() is outside the timed interval. With `spans` set, each
/// burst of kBurst submits is recorded as a span (the traced mode).
PipelinePass pipeline_pass(const mfa::core::Mfa& mfa, const Workload& w,
                           const AlertReference& ref, std::size_t shards,
                           Tracer* spans = nullptr);

mfa::pipeline::Options pipeline_options(std::size_t shards);

using Inspector = mfa::flow::TieredFlowInspector<mfa::core::Mfa>;

/// Feed the delivered packets through one shard's stack in kBurst bursts,
/// appending each packet_batch call's TSC ticks to `ticks` (when non-null).
/// Returns the packets of flows whose alerts differ from the reference.
std::uint64_t inspector_pass(Inspector& insp, const Workload& w, const AlertReference& ref,
                             std::vector<double>* ticks);

// ---------------------------------------------------------------- ledger

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The traced run: build phases, then the layer stack (DFA walk -> Mfa::feed
/// -> feed_gated -> packet_batch -> 1-shard -> 3-shard pipeline), each layer
/// measured as the difference between successive entry points.
std::vector<Metric> run_ledger(const Workload& w, const mfa::core::Mfa& mfa,
                               double build_mfa_s, const AlertReference& ref,
                               Tracer& tracer, double seconds, Outcome& outcome);

// ---------------------------------------------------------------- helpers

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);

}  // namespace sensorbench
