#include "obs/export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <thread>

namespace mfa::obs {
namespace {

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n < 0) return;
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  // Rare slow path: the formatted row outgrew the stack buffer (long rule
  // names, wide format strings). Redo at exact size — truncating instead
  // would corrupt the surrounding JSON/Prometheus document.
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

// --- Prometheus ---

/// `field` is a ShardSnapshot counter or a getter such as
/// &ShardSnapshot::shed_total.
template <typename Field>
void prom_counter(std::string& out, const char* name, const char* help,
                  const RegistrySnapshot& snap, Field field, const char* type) {
  if (!prom_metric_name_valid(name)) return;
  append(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
  for (std::size_t i = 0; i < snap.shards.size(); ++i)
    append(out, "%s{shard=\"%zu\"} %" PRIu64 "\n", name, i,
           std::invoke(field, snap.shards[i]));
}

void prom_histogram(std::string& out, const char* name, const char* help,
                    const RegistrySnapshot& snap,
                    HistogramSnapshot ShardSnapshot::*field) {
  if (!prom_metric_name_valid(name)) return;
  append(out, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name);
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    const HistogramSnapshot& h = snap.shards[i].*field;
    std::uint64_t cumulative = 0;
    const std::size_t hi = h.max_bucket();
    for (std::size_t b = 0; b <= hi && b + 1 < kHistogramBuckets; ++b) {
      cumulative += h.counts[b];
      append(out, "%s_bucket{shard=\"%zu\",le=\"%" PRIu64 "\"} %" PRIu64 "\n", name,
             i, Histogram::bucket_upper_bound(b), cumulative);
    }
    append(out, "%s_bucket{shard=\"%zu\",le=\"+Inf\"} %" PRIu64 "\n", name, i,
           h.count);
    append(out, "%s_sum{shard=\"%zu\"} %" PRIu64 "\n", name, i, h.sum);
    append(out, "%s_count{shard=\"%zu\"} %" PRIu64 "\n", name, i, h.count);
  }
}

// --- JSON ---

void json_histogram(std::string& out, const char* key, const HistogramSnapshot& h) {
  append(out, "\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"buckets\":[",
         key, h.count, h.sum);
  bool first = true;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    append(out, "%s[%" PRIu64 ",%" PRIu64 "]", first ? "" : ",",
           Histogram::bucket_upper_bound(b), h.counts[b]);
    first = false;
  }
  out += "]}";
}

void json_shard(std::string& out, const ShardSnapshot& s) {
  append(out,
         "{\"packets\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"matches\":%" PRIu64
         ",\"flows\":%" PRIu64 ",\"evictions\":%" PRIu64
         ",\"reassembly_drops\":%" PRIu64 ",\"reassembly_pending_bytes\":%" PRIu64
         ",\"queue_full_spins\":%" PRIu64 ",\"max_queue_depth\":%" PRIu64
         ",\"shed_packets\":%" PRIu64 ",\"shed_bytes\":%" PRIu64
         ",\"flows_quarantined\":%" PRIu64 ",\"worker_restarts\":%" PRIu64
         ",\"worker_stalls\":%" PRIu64 ",\"flow_hot_slots\":%" PRIu64
         ",\"flow_cold_bytes\":%" PRIu64 ",\"flows_spilled\":%" PRIu64
         ",\"prefilter_pass\":%" PRIu64
         ",\"prefilter_skip\":%" PRIu64 ",\"degraded_hits\":%" PRIu64
         ",\"degrade_level\":%" PRIu64 ",\"degrade_transitions\":%" PRIu64
         ",\"flows_recovered\":%" PRIu64 ",",
         s.packets, s.bytes, s.matches, s.flows, s.evictions, s.reassembly_drops,
         s.reassembly_pending_bytes, s.queue_full_spins, s.max_queue_depth,
         s.shed_total(), s.shed_bytes, s.flows_quarantined, s.worker_restarts,
         s.worker_stalls, s.flow_hot_slots, s.flow_cold_bytes, s.flows_spilled,
         s.prefilter_pass,
         s.prefilter_skip, s.degraded_hits, s.degrade_level,
         s.degrade_transitions, s.flows_recovered);
  append(out,
         "\"submitted\":%" PRIu64 ",\"scanned\":%" PRIu64
         ",\"shed_admission\":%" PRIu64 ",\"shed_bypass\":%" PRIu64
         ",\"shed_corrupt\":%" PRIu64 ",\"shed_crash\":%" PRIu64
         ",\"shed_quarantine\":%" PRIu64 ",\"shed_failover\":%" PRIu64 ",",
         s.submitted, s.scanned, s.shed_admission, s.shed_bypass, s.shed_corrupt,
         s.shed_crash, s.shed_quarantine, s.shed_failover);
  append(out, "\"spans_sampled\":%" PRIu64 ",", s.spans_sampled);
  json_histogram(out, "scan_ns", s.scan_ns);
  out += ",";
  json_histogram(out, "packet_bytes", s.packet_bytes);
  out += ",";
  json_histogram(out, "bytes_per_flow", s.bytes_per_flow);
  out += ",";
  json_histogram(out, "queue_depth", s.queue_depth);
  out += ",";
  json_histogram(out, "queue_wait_ns", s.queue_wait_ns);
  out += ",";
  json_histogram(out, "span_scan_ns", s.span_scan_ns);
  out += ",";
  json_histogram(out, "e2e_ns", s.e2e_ns);
  out += "}";
}

std::string snapshot_json(const RegistrySnapshot& snap) {
  std::string out = "{\"schema\":\"mfa.telemetry.v1\",\"shards\":[";
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    if (i != 0) out += ",";
    json_shard(out, snap.shards[i]);
  }
  out += "],\"totals\":";
  json_shard(out, snap.totals());
  out += ",\"match_counts\":[";
  for (std::size_t i = 0; i < snap.match_counts.size(); ++i)
    append(out, "%s[%" PRIu32 ",%" PRIu64 "]", i != 0 ? "," : "",
           snap.match_counts[i].first, snap.match_counts[i].second);
  append(out, "],\"match_id_overflow\":%" PRIu64
              ",\"trace\":{\"recorded\":%" PRIu64 ",\"events\":[",
         snap.match_id_overflow, snap.trace_recorded);
  for (std::size_t i = 0; i < snap.trace_events.size(); ++i) {
    const auto& e = snap.trace_events[i];
    append(out,
           "%s{\"src_ip\":%" PRIu32 ",\"dst_ip\":%" PRIu32
           ",\"src_port\":%u,\"dst_port\":%u,\"proto\":%u,\"id\":%" PRIu32
           ",\"offset\":%" PRIu64 ",\"tsc\":%" PRIu64 "}",
           i != 0 ? "," : "", e.src_ip, e.dst_ip, e.src_port, e.dst_port, e.proto,
           e.match_id, e.offset, e.tsc);
  }
  append(out, "]},\"spans\":{\"recorded\":%" PRIu64 ",\"events\":[",
         snap.span_recorded);
  for (std::size_t i = 0; i < snap.span_events.size(); ++i) {
    const auto& e = snap.span_events[i];
    append(out,
           "%s{\"src_ip\":%" PRIu32 ",\"dst_ip\":%" PRIu32
           ",\"src_port\":%u,\"dst_port\":%u,\"proto\":%u,\"shard\":%" PRIu32
           ",\"submit_tsc\":%" PRIu64 ",\"dequeue_tsc\":%" PRIu64
           ",\"scan_start_tsc\":%" PRIu64 ",\"scan_end_tsc\":%" PRIu64 "}",
           i != 0 ? "," : "", e.src_ip, e.dst_ip, e.src_port, e.dst_port, e.proto,
           e.shard, e.submit_tsc, e.dequeue_tsc, e.scan_start_tsc, e.scan_end_tsc);
  }
  out += "]},\"ruleset\":{";
  append(out, "\"generation\":%" PRIu64 ",\"swaps\":%" PRIu64 ",",
         snap.ruleset_generation, snap.ruleset_swaps);
  json_histogram(out, "swap_ns", snap.ruleset_swap_ns);
  out += ",\"generation_matches\":[";
  for (std::size_t i = 0; i < snap.generation_matches.size(); ++i)
    append(out, "%s[%" PRIu64 ",%" PRIu64 "]", i != 0 ? "," : "",
           snap.generation_matches[i].first, snap.generation_matches[i].second);
  append(out, "],\"generation_match_overflow\":%" PRIu64 "}",
         snap.generation_match_overflow);
  out += "}";
  return out;
}

}  // namespace

std::string prom_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

bool prom_metric_name_valid(std::string_view name) {
  if (name.empty()) return false;
  const auto ok = [](char c, bool first) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':' || (!first && c >= '0' && c <= '9');
  };
  if (!ok(name[0], true)) return false;
  for (std::size_t i = 1; i < name.size(); ++i)
    if (!ok(name[i], false)) return false;
  return true;
}

std::string json_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          append(out, "\\u%04x", static_cast<unsigned>(c) & 0xff);
        else
          out += c;
        break;
    }
  }
  return out;
}

std::string to_prometheus(const RegistrySnapshot& snap,
                          const std::vector<std::string>* rule_names) {
  std::string out;
  prom_counter(out, "mfa_submitted_total", "Packets handed to the pipeline", snap,
               &ShardSnapshot::submitted, "counter");
  prom_counter(out, "mfa_scanned_total",
               "Packets delivered to the flow inspector and not shed", snap,
               &ShardSnapshot::scanned, "counter");
  prom_counter(out, "mfa_packets_total", "Packets handed to the flow inspector",
               snap, &ShardSnapshot::packets, "counter");
  prom_counter(out, "mfa_bytes_total", "Payload bytes handed to the flow inspector",
               snap, &ShardSnapshot::bytes, "counter");
  prom_counter(out, "mfa_matches_total", "Confirmed pattern matches", snap,
               &ShardSnapshot::matches, "counter");
  prom_counter(out, "mfa_flows", "Flows resident in the flow table", snap,
               &ShardSnapshot::flows, "gauge");
  prom_counter(out, "mfa_flow_evictions_total",
               "Flows evicted to stay under the flow-table cap", snap,
               &ShardSnapshot::evictions, "counter");
  prom_counter(out, "mfa_reassembly_drops_total",
               "Out-of-order segments dropped by the pending cap", snap,
               &ShardSnapshot::reassembly_drops, "counter");
  prom_counter(out, "mfa_reassembly_pending_bytes",
               "Buffered out-of-order bytes awaiting gaps", snap,
               &ShardSnapshot::reassembly_pending_bytes, "gauge");
  prom_counter(out, "mfa_flow_hot_slots",
               "Hot-tier flow-table slot capacity (tiered inspector)", snap,
               &ShardSnapshot::flow_hot_slots, "gauge");
  prom_counter(out, "mfa_flow_cold_bytes",
               "Cold-tier slab bytes for reordering/big-state flows", snap,
               &ShardSnapshot::flow_cold_bytes, "gauge");
  prom_counter(out, "mfa_flow_spills_total",
               "Flows whose inline state spilled to the cold tier (filter memory "
               "outgrew the hot slot)", snap, &ShardSnapshot::flows_spilled, "counter");
  prom_counter(out, "mfa_queue_full_spins_total",
               "Producer spins while a shard queue was full", snap,
               &ShardSnapshot::queue_full_spins, "counter");
  prom_counter(out, "mfa_queue_max_depth", "High-water mark of the shard queue",
               snap, &ShardSnapshot::max_queue_depth, "gauge");
  prom_counter(out, "mfa_shed_packets_total",
               "Packets shed instead of scanned, over every reason", snap,
               &ShardSnapshot::shed_total, "counter");
  prom_counter(out, "mfa_shed_admission_total",
               "Packets dropped at submit by the shed policy", snap,
               &ShardSnapshot::shed_admission, "counter");
  prom_counter(out, "mfa_shed_bypass_total",
               "Packets counted but never scanned (degradation ladder L3)", snap,
               &ShardSnapshot::shed_bypass, "counter");
  prom_counter(out, "mfa_shed_corrupt_total",
               "Corrupt packets rejected before delivery", snap,
               &ShardSnapshot::shed_corrupt, "counter");
  prom_counter(out, "mfa_shed_crash_total",
               "Packets of bursts abandoned by a crashed worker", snap,
               &ShardSnapshot::shed_crash, "counter");
  prom_counter(out, "mfa_shed_quarantine_total",
               "Packets of flows quarantined for their CPU budget", snap,
               &ShardSnapshot::shed_quarantine, "counter");
  prom_counter(out, "mfa_shed_failover_total",
               "Packets drained unscanned by a failed shard or the shutdown deadline",
               snap, &ShardSnapshot::shed_failover, "counter");
  prom_counter(out, "mfa_shed_bytes_total", "Payload bytes of shed packets",
               snap, &ShardSnapshot::shed_bytes, "counter");
  prom_counter(out, "mfa_flows_quarantined_total",
               "Flows evicted for exceeding their per-flow CPU budget", snap,
               &ShardSnapshot::flows_quarantined, "counter");
  prom_counter(out, "mfa_prefilter_pass_total",
               "Gate-eligible chunks with a literal candidate (scanned in full)",
               snap, &ShardSnapshot::prefilter_pass, "counter");
  prom_counter(out, "mfa_prefilter_skip_total",
               "Chunks the literal prefilter proved clean (scan skipped)", snap,
               &ShardSnapshot::prefilter_skip, "counter");
  prom_counter(out, "mfa_degraded_hits_total",
               "Prefilter-positive chunks recorded (not scanned) while the "
               "shard ran a degraded ladder level", snap,
               &ShardSnapshot::degraded_hits, "counter");
  prom_counter(out, "mfa_degrade_level",
               "Current degradation ladder level (0=full ... 3=bypass)", snap,
               &ShardSnapshot::degrade_level, "gauge");
  prom_counter(out, "mfa_degrade_transitions_total",
               "Degradation ladder level changes made by the controller", snap,
               &ShardSnapshot::degrade_transitions, "counter");
  prom_counter(out, "mfa_flows_recovered_total",
               "Flows reset from the shard journal after a worker crash", snap,
               &ShardSnapshot::flows_recovered, "counter");
  prom_counter(out, "mfa_worker_restarts_total",
               "Crashed shard workers restarted by the watchdog", snap,
               &ShardSnapshot::worker_restarts, "counter");
  prom_counter(out, "mfa_worker_stalls_total",
               "Stalled shard workers detected by the watchdog", snap,
               &ShardSnapshot::worker_stalls, "counter");
  prom_histogram(out, "mfa_scan_ns", "Per-packet scan latency in nanoseconds",
                 snap, &ShardSnapshot::scan_ns);
  prom_histogram(out, "mfa_packet_bytes", "Per-packet payload size in bytes", snap,
                 &ShardSnapshot::packet_bytes);
  prom_histogram(out, "mfa_bytes_per_flow",
                 "Flow-table bytes per resident flow", snap,
                 &ShardSnapshot::bytes_per_flow);
  prom_histogram(out, "mfa_queue_depth", "Shard queue depth at submit", snap,
                 &ShardSnapshot::queue_depth);
  prom_counter(out, "mfa_spans_sampled_total",
               "Sampled latency spans recorded by the shard worker", snap,
               &ShardSnapshot::spans_sampled, "counter");
  prom_histogram(out, "mfa_queue_wait_ns",
                 "Sampled submit-to-dequeue queue wait in nanoseconds", snap,
                 &ShardSnapshot::queue_wait_ns);
  prom_histogram(out, "mfa_span_scan_ns",
                 "Sampled burst scan latency in nanoseconds", snap,
                 &ShardSnapshot::span_scan_ns);
  prom_histogram(out, "mfa_e2e_ns",
                 "Sampled submit-to-scan-end latency in nanoseconds", snap,
                 &ShardSnapshot::e2e_ns);
  append(out, "# HELP mfa_span_events_total Latency spans recorded to the span ring\n"
              "# TYPE mfa_span_events_total counter\n"
              "mfa_span_events_total %" PRIu64 "\n",
         snap.span_recorded);
  append(out, "# HELP mfa_match_hits_total Confirmed matches per pattern id\n"
              "# TYPE mfa_match_hits_total counter\n");
  for (const auto& [id, count] : snap.match_counts) {
    if (rule_names != nullptr && id < rule_names->size()) {
      // Label values are escaped, so hostile rule names (quotes, newlines,
      // backslashes) cannot corrupt the exposition format.
      out += "mfa_match_hits_total{id=\"" + std::to_string(id) + "\",rule=\"" +
             prom_escape_label((*rule_names)[id]) + "\"}";
      append(out, " %" PRIu64 "\n", count);
    } else {
      append(out, "mfa_match_hits_total{id=\"%" PRIu32 "\"} %" PRIu64 "\n", id,
             count);
    }
  }
  append(out, "# HELP mfa_match_id_overflow_total Matches beyond the id counter table\n"
              "# TYPE mfa_match_id_overflow_total counter\n"
              "mfa_match_id_overflow_total %" PRIu64 "\n",
         snap.match_id_overflow);
  append(out, "# HELP mfa_trace_events_total Match events recorded to the trace ring\n"
              "# TYPE mfa_trace_events_total counter\n"
              "mfa_trace_events_total %" PRIu64 "\n",
         snap.trace_recorded);
  append(out, "# HELP mfa_ruleset_generation Newest published ruleset generation\n"
              "# TYPE mfa_ruleset_generation gauge\n"
              "mfa_ruleset_generation %" PRIu64 "\n",
         snap.ruleset_generation);
  append(out, "# HELP mfa_ruleset_swaps_total Completed ruleset hot swaps\n"
              "# TYPE mfa_ruleset_swaps_total counter\n"
              "mfa_ruleset_swaps_total %" PRIu64 "\n",
         snap.ruleset_swaps);
  // Swap prepare latency is registry-level (one background compiler, not
  // per shard), so it is emitted by hand rather than via prom_histogram.
  append(out, "# HELP mfa_ruleset_swap_ns Ruleset swap prepare latency in nanoseconds\n"
              "# TYPE mfa_ruleset_swap_ns histogram\n");
  {
    const HistogramSnapshot& h = snap.ruleset_swap_ns;
    std::uint64_t cumulative = 0;
    const std::size_t hi = h.max_bucket();
    for (std::size_t b = 0; b <= hi && b + 1 < kHistogramBuckets; ++b) {
      cumulative += h.counts[b];
      append(out, "mfa_ruleset_swap_ns_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
             Histogram::bucket_upper_bound(b), cumulative);
    }
    append(out, "mfa_ruleset_swap_ns_bucket{le=\"+Inf\"} %" PRIu64 "\n", h.count);
    append(out, "mfa_ruleset_swap_ns_sum %" PRIu64 "\n", h.sum);
    append(out, "mfa_ruleset_swap_ns_count %" PRIu64 "\n", h.count);
  }
  append(out, "# HELP mfa_generation_matches_total Confirmed matches per ruleset generation\n"
              "# TYPE mfa_generation_matches_total counter\n");
  for (const auto& [gen, count] : snap.generation_matches)
    append(out, "mfa_generation_matches_total{generation=\"%" PRIu64 "\"} %" PRIu64 "\n",
           gen, count);
  append(out, "# HELP mfa_generation_match_overflow_total Matches the generation slot table could not place\n"
              "# TYPE mfa_generation_match_overflow_total counter\n"
              "mfa_generation_match_overflow_total %" PRIu64 "\n",
         snap.generation_match_overflow);
  return out;
}

std::string to_json(const RegistrySnapshot& snap) { return snapshot_json(snap); }

std::string BenchReport::to_json() const {
  std::string out =
      "{\"schema\":\"mfa.bench.v1\",\"bench\":\"" + json_escape(bench_) + "\",";
  append(out, "\"hardware_threads\":%u,\"results\":[",
         std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    append(out, "%s{\"set\":\"%s\",\"trace\":\"%s\",\"engine\":\"%s\","
                "\"shards\":%zu,\"cycles_per_byte\":%.6g,\"matches\":%" PRIu64 "}",
           i != 0 ? "," : "", json_escape(r.set).c_str(),
           json_escape(r.trace).c_str(), json_escape(r.engine).c_str(),
           r.shards, r.cycles_per_byte, r.matches);
  }
  out += "]";
  if (telemetry_.has_value()) {
    out += ",\"telemetry\":";
    out += snapshot_json(*telemetry_);
  }
  out += "}";
  return out;
}

bool BenchReport::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace mfa::obs
