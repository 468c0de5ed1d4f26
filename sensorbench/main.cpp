// Sensor benchmark: one workload through a warmed
// pipeline::ShardedInspector<core::Mfa>, alerts checked against a reference.
//
//   sensorbench --workload NAME --seed N --seconds S --trace 0|1
//               [--smoke] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the per-layer
// ledger and keeps spans (written to --spans FILE). The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exit 0 when
// every alert matched the reference and nothing was shed, 1 on a mismatch
// (after printing the result), 2 on bad usage or a non-Release build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "flow/tiered.h"
#include "pipeline/pipeline.h"
#include "sensorbench.h"
#include "simd/dispatch.h"
#include "util/timing.h"

namespace sensorbench {

namespace {

std::vector<int> original_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

}  // namespace

PinnedTo::PinnedTo(std::size_t i) {
  static const std::vector<int> cpus = original_cpus();
  CPU_ZERO(&saved_);
  if (cpus.empty() || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[i % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

PinnedTo::~PinnedTo() {
  if (CPU_COUNT(&saved_) != 0) (void)sched_setaffinity(0, sizeof saved_, &saved_);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[rank < v.size() ? rank : v.size() - 1];
}

}  // namespace sensorbench

namespace {

using namespace sensorbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sensorbench: %s\nusage: sensorbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans FILE]\nworkloads:",
               why);
  for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) usage("--trace takes 0 or 1");
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& n : workload_names()) known |= n == a.workload;
  if (!known) usage(("unknown workload " + a.workload).c_str());
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    return colon == std::string::npos ? line : line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string env_stamp(const Args& a) {
  const char* simd_env = std::getenv("MFA_SIMD");
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
    << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"smoke\": " << (a.smoke ? 1 : 0)
    << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
    << ", \"shards\": " << kShards << ", \"tsc_hz\": " << mfa::util::tsc_ticks_per_second()
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"simd_level\": \""
    << mfa::simd::level_name() << "\", \"MFA_SIMD\": \""
    << json_escape(simd_env != nullptr ? simd_env : "") << "\", \"build_type\": \""
    << SENSORBENCH_BUILD_TYPE << "\"}";
  return o.str();
}

void print_result(bool correct, const Outcome& o, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("failed_ratio %.6g (%llu of %llu packets)\n",
              o.attempted == 0 ? 0.0
                               : static_cast<double>(o.failed) / static_cast<double>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Time the set-up (rule text or patterns -> engine -> started pipeline) at
/// least `min_count` times and until `budget_s` has passed (at most 41
/// times); keeps the first engine and its build_mfa() seconds. Returns the
/// set-up seconds of every repetition.
std::vector<double> time_setups(const Workload& w, std::size_t min_count, double budget_s,
                                std::optional<mfa::core::Mfa>& engine, double& build_mfa_s) {
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < min_count || (now_s() - start < budget_s && samples.size() < 41)) {
    const double t0 = now_s();
    double b0 = 0.0, b1 = 0.0;
    std::optional<mfa::core::Mfa> built;
    {
      const PinnedTo cpu(samples.size());
      const auto inputs = parse_inputs(w);
      b0 = now_s();
      built = mfa::core::build_mfa(inputs, w.build);
      b1 = now_s();
    }
    if (!built) throw std::runtime_error("MFA construction failed");
    mfa::pipeline::ShardedInspector<mfa::core::Mfa> pipe(*built, pipeline_options(kShards));
    pipe.start();
    samples.push_back(now_s() - t0);
    pipe.finish();
    if (!engine) {
      build_mfa_s = b1 - b0;
      engine = std::move(built);
    }
  }
  return samples;
}

std::vector<Metric> end_to_end(const Workload& w, const mfa::core::Mfa& mfa,
                               const AlertReference& ref, double seconds,
                               const std::vector<double>& setups, Outcome& out) {
  const auto check = [&](std::uint64_t submitted, std::uint64_t failed) {
    out.attempted += submitted;
    out.failed += failed;
  };
  const double bits = static_cast<double>(w.delivered_bytes()) * 8.0;

  // Warm-up: back-to-back passes speed up over the first few (heap, caches,
  // clock), so at least three passes and 15% of the budget go untimed.
  const double warm_end = now_s() + 0.15 * seconds;
  for (int i = 0; i < 3 || now_s() < warm_end; ++i) {
    const PipelinePass p = pipeline_pass(mfa, w, ref, kShards);
    check(p.submitted, p.failed);
  }
  {
    Inspector warm(mfa);
    check(w.delivered.size(), inspector_pass(warm, w, ref, nullptr));
  }
  // Throughput passes alternate with service-time passes, each kind getting
  // half of the time, so both see the same stretches of a shared host's
  // noise.
  std::vector<double> gbps;
  std::vector<std::vector<double>> replays;  // per pass: TSC ticks of each burst
  double pipeline_s = 0.0, service_s = 0.0;
  const double end = now_s() + 0.8 * seconds;
  while (gbps.size() < 5 || replays.size() < 5 || now_s() < end) {
    const double t0 = now_s();
    if (pipeline_s <= service_s) {
      const PipelinePass p = pipeline_pass(mfa, w, ref, kShards);
      check(p.submitted, p.failed);
      gbps.push_back(bits / p.seconds / 1e9);
      pipeline_s += now_s() - t0;
    } else {
      // Service time: one shard's stack on one burst at an empty queue.
      // kShards replays run at once, one per CPU, as the shards of a busy
      // pipeline do; each has a fresh inspector, so every replay sees the
      // identical burst sequence.
      std::vector<std::vector<double>> ticks(kShards);
      std::vector<std::uint64_t> failed(kShards, 0);
      std::vector<std::thread> replayers;
      for (std::size_t k = 0; k < kShards; ++k)
        replayers.emplace_back([&, k, cpu_index = replays.size() + k] {
          const PinnedTo cpu(cpu_index);
          Inspector insp(mfa);
          failed[k] = inspector_pass(insp, w, ref, &ticks[k]);
        });
      for (std::thread& t : replayers) t.join();
      for (std::size_t k = 0; k < kShards; ++k) {
        check(w.delivered.size(), failed[k]);
        replays.push_back(std::move(ticks[k]));
      }
      service_s += now_s() - t0;
    }
  }
  // A burst's service time is the fastest of its replays, which rotate over
  // the CPUs: interference from other tenants only ever adds time, while
  // the burst's own work (same packets, same flow state) repeats exactly.
  const std::size_t bursts = replays.front().size();
  std::vector<double> service(bursts, 0.0);
  for (std::size_t b = 0; b < bursts; ++b) {
    service[b] = replays.front()[b];
    for (const auto& r : replays) service[b] = std::min(service[b], r[b]);
  }
  const double us_per_tick = 1e6 / mfa::util::tsc_ticks_per_second();

  // Live heap per resident flow. The hot table is reserved for the
  // workload's flows plus 25% headroom, as a sensor sizes for its expected
  // flow count; sized exactly, a two-choice bucket overflow doubles the
  // table on some seeds and not on others.
  double bytes_per_flow = 0.0;
  {
    const std::int64_t before = thread_live_heap_bytes();
    auto insp = std::make_unique<Inspector>(mfa);
    insp->reserve_flows(w.flow_keys.size() + w.flow_keys.size() / 4);
    const std::uint64_t failed = inspector_pass(*insp, w, ref, nullptr);
    const std::int64_t after = thread_live_heap_bytes();
    check(w.delivered.size(), failed);
    bytes_per_flow = static_cast<double>(after - before) /
                     static_cast<double>(std::max<std::size_t>(insp->flow_count(), 1));
  }

  std::printf("throughput: median of %zu passes of %zu packets, %zu shards; "
              "service: %zu bursts of %zu packets, best of %zu replays each\n",
              gbps.size(), w.delivered.size(), kShards, bursts, kBurst, replays.size());
  return {
      {"throughput_gbps", median(gbps), "Gbit/s"},
      {"service_p50_us", quantile(service, 0.50) * us_per_tick, "us"},
      {"service_p99_us", quantile(service, 0.99) * us_per_tick, "us"},
      {"setup_s", median(setups), "s"},
      {"bytes_per_flow", bytes_per_flow, "B"},
      {"engine_bytes", static_cast<double>(mfa.memory_image_bytes()), "B"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (std::strcmp(SENSORBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "sensorbench: refusing a timed run from a %s build (need Release)\n",
                 SENSORBENCH_BUILD_TYPE);
    return 2;
  }
  const std::string env = env_stamp(args);
  std::printf("env: %s\n", env.c_str());
  try {
    Tracer tracer(args.trace, args.workload, args.seed);
    const double g0 = now_s();
    Workload w = [&] {
      Tracer::Scope s(tracer, "workload.generate");
      return make_workload(args.workload, args.seed, args.smoke);
    }();
    std::printf("workload: %s generated in %.2f s\n", w.name.c_str(), now_s() - g0);
    print_traffic_profile(w);

    std::optional<mfa::core::Mfa> engine;
    double build_mfa_s = 0.0;
    std::vector<double> setups;
    {
      Tracer::Scope s(tracer, "setup");
      setups = time_setups(w, args.trace ? 1 : 3, args.trace ? 0.0 : 1.0, engine, build_mfa_s);
    }
    const mfa::core::Mfa& mfa = *engine;
    std::printf("engine: %u DFA states, %s table, %u filter bits, gate %s, %zu set-ups\n",
                mfa.state_count(), mfa.delta_mode() ? "D2FA" : "dense",
                mfa.program().memory_bits, mfa.prefilter().status(), setups.size());

    const double r0 = now_s();
    const AlertReference ref = [&] {
      Tracer::Scope s(tracer, "reference");
      return AlertReference(w, mfa);
    }();
    std::printf("reference: %llu alerts; %zu flows by NFA, %zu by single-context Mfa::feed, "
                "%zu sampled flows where the two disagree (%.2f s)\n",
                static_cast<unsigned long long>(ref.alerts()), ref.nfa_flows(), ref.mfa_flows(),
                ref.fallback_disagreements(), now_s() - r0);

    Outcome outcome;
    const std::vector<Metric> metrics =
        args.trace ? run_ledger(w, mfa, build_mfa_s, ref, tracer, args.seconds, outcome)
                   : end_to_end(w, mfa, ref, args.seconds, setups, outcome);
    if (!args.spans.empty() && !tracer.write(args.spans, env))
      std::fprintf(stderr, "sensorbench: cannot write spans to %s\n", args.spans.c_str());
    const bool correct = outcome.failed == 0 && ref.fallback_disagreements() == 0;
    print_result(correct, outcome, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sensorbench: %s\n", e.what());
    return 2;
  }
}
