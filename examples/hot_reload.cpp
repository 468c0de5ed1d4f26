// Live ruleset hot reload (DESIGN.md Sec. 10): a sharded inspector keeps
// scanning traffic while SIGHUP swaps in a recompiled rules file or a
// rebuilt MFAC artifact — the classic "kill -HUP the sensor after a rules
// push" workflow, with zero dropped packets across the swap.
//
//   $ ./hot_reload --rules local.rules          # reload source: rules file
//   $ ./hot_reload --artifact rules.mfac        # reload source: artifact
//   ... edit/rebuild the file, then: kill -HUP <pid>
//
//   $ ./hot_reload --demo                       # non-interactive self-test:
// writes a starter rules file, raises SIGHUP on itself mid-traffic with a
// grown ruleset in place, and reports per-generation match attribution.
// Old flows drain on their original generation (kDrainOld); flows opened
// after the swap match the new rules.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "pipeline/reload.h"

namespace {

volatile std::sig_atomic_t g_reload = 0;
volatile std::sig_atomic_t g_stop = 0;

void on_sighup(int) { g_reload = 1; }
void on_sigint(int) { g_stop = 1; }

constexpr const char* kRulesV1 =
    "alert tcp any any -> any any (msg:\"worm propagation\"; pcre:\"/.*worm77/\"; sid:1001;)\n";
constexpr const char* kRulesV2 =
    "alert tcp any any -> any any (msg:\"worm propagation\"; pcre:\"/.*worm77/\"; sid:1001;)\n"
    "alert tcp any any -> any any (msg:\"exfil beacon\"; pcre:\"/.*exfil9/\"; sid:1002;)\n";

bool write_file(const std::string& path, const char* text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfa;

  std::string rules_path, artifact_path;
  std::size_t shards = 2;
  int passes = 0;  // 0 = run until SIGINT
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--rules" && i + 1 < argc) rules_path = argv[++i];
    else if (a == "--artifact" && i + 1 < argc) artifact_path = argv[++i];
    else if (a == "--shards" && i + 1 < argc) shards = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--passes" && i + 1 < argc) passes = std::atoi(argv[++i]);
    else if (a == "--demo") demo = true;
    else {
      std::printf("usage: hot_reload (--rules F | --artifact F | --demo)"
                  " [--shards N] [--passes N]\n");
      return 2;
    }
  }
  if (demo) {
    rules_path = "hot_reload_demo.rules";
    artifact_path.clear();
    if (passes == 0) passes = 6;
    if (!write_file(rules_path, kRulesV1)) {
      std::fprintf(stderr, "cannot write %s\n", rules_path.c_str());
      return 1;
    }
  }
  if (rules_path.empty() == artifact_path.empty()) {
    std::fprintf(stderr, "need exactly one of --rules / --artifact (or --demo)\n");
    return 2;
  }

  // One Source, reused by startup and by every SIGHUP: re-reads the file so
  // whatever was pushed since the last swap is what gets compiled/loaded.
  const pipeline::reload::HotSwapper<core::Mfa>::Source source =
      [&]() -> pipeline::reload::SourceResult<core::Mfa> {
    if (!rules_path.empty()) return pipeline::reload::compile_rules_file(rules_path);
    return pipeline::reload::load_artifact(artifact_path);
  };
  const std::string origin = rules_path.empty() ? artifact_path : rules_path;

  auto initial = source();
  if (!initial.first.has_value()) {
    std::fprintf(stderr, "%s\n", initial.second.c_str());
    return 1;
  }
  std::printf("loaded %s: %u DFA states, pid %d\n", origin.c_str(),
              initial.first->character_dfa().state_count(),
              static_cast<int>(getpid()));

  obs::MetricsRegistry metrics({.shards = shards});
  pipeline::Options opt;
  opt.shards = shards;
  opt.metrics = &metrics;
  opt.swap_policy = flow::SwapPolicy::kDrainOld;
  pipeline::ShardedInspector<core::Mfa> pipe(*initial.first, opt);
  pipeline::reload::RulesetRegistry<core::Mfa> registry;
  pipeline::reload::HotSwapper<core::Mfa> swapper(registry, pipe, &metrics);

  std::signal(SIGHUP, on_sighup);
  std::signal(SIGINT, on_sigint);
  pipe.start();
  if (!demo) std::printf("scanning; kill -HUP %d to reload %s, Ctrl-C to stop\n",
                         static_cast<int>(getpid()), origin.c_str());

  // Synthetic traffic: every pass opens fresh flows (so post-swap flows
  // adopt the newest generation) carrying both demo attack strings plus
  // clean filler.
  // Payloads outlive the loop: submit() queues pointers into them, and the
  // shard workers may scan a packet several passes after it was submitted.
  const std::string filler(512, '.');
  const std::string payloads[3] = {filler + "worm77" + filler,
                                   filler + "exfil9" + filler,
                                   filler + "eicar?" + filler};
  std::uint64_t reported_gen = 0;
  for (int pass = 0; (passes == 0 || pass < passes) && !g_stop; ++pass) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      const std::string& payload = payloads[i % 3];
      const flow::FlowKey key{static_cast<std::uint32_t>(pass) << 8 | i, 80,
                              static_cast<std::uint16_t>(1000 + i), 80, 6};
      pipe.submit(flow::Packet{key, 0,
                               reinterpret_cast<const std::uint8_t*>(payload.data()),
                               static_cast<std::uint32_t>(payload.size())});
    }
    if (demo && pass == passes / 2) {
      std::printf("pass %d: pushing grown ruleset and raising SIGHUP\n", pass);
      if (!write_file(rules_path, kRulesV2))
        std::fprintf(stderr, "cannot rewrite %s\n", rules_path.c_str());
      std::raise(SIGHUP);
    }
    if (g_reload) {
      g_reload = 0;
      if (!swapper.swap_async(source, origin))
        std::printf("reload requested while one is in flight; ignored\n");
    }
    // Surface completed swaps (async: the report lands between passes).
    if (const auto report = swapper.last_report(); report && !swapper.busy()) {
      if (report->ok && report->generation > reported_gen) {
        reported_gen = report->generation;
        std::printf("pass %d: generation %llu live (%s, prepared in %.3fs)\n", pass,
                    static_cast<unsigned long long>(report->generation),
                    report->origin.c_str(), report->prepare_seconds);
      } else if (!report->ok && report->generation == 0 && reported_gen == 0) {
        std::printf("reload failed, keeping old rules: %s\n", report->error.c_str());
      }
    }
    if (demo) {
      // Let the workers drain so the demo's generation boundary is crisp.
      while (swapper.busy()) std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  swapper.join();
  pipe.finish();

  const auto totals = pipe.totals();
  std::printf("\nsubmitted %llu packets, scanned %llu, shed %llu, %llu matches\n",
              static_cast<unsigned long long>(totals.submitted),
              static_cast<unsigned long long>(totals.scanned),
              static_cast<unsigned long long>(totals.shed_total()),
              static_cast<unsigned long long>(totals.matches));
  for (const auto& [gen, n] : pipe.matches_by_generation())
    std::printf("  generation %llu: %llu matches\n",
                static_cast<unsigned long long>(gen),
                static_cast<unsigned long long>(n));
  const auto snap = metrics.snapshot();
  std::printf("telemetry: generation gauge %llu, %llu swaps\n",
              static_cast<unsigned long long>(snap.ruleset_generation),
              static_cast<unsigned long long>(snap.ruleset_swaps));
  if (demo) std::remove(rules_path.c_str());
  return 0;
}
