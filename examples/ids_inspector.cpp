// IDS inspector: the paper's deployment scenario end to end — a Snort-style
// rule set compiled to an MFA, inspecting a multiplexed packet trace with
// per-flow (q, m) contexts and reporting alerts.
//
//   $ ./ids_inspector [--set S24] [--bytes 4194304] [--save trace.mftr]
//   $ ./ids_inspector --load trace.mftr
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "eval/harness.h"

int main(int argc, char** argv) {
  using namespace mfa;

  std::string set_name = "S24";
  std::size_t bytes = 4 << 20;
  std::string save_path, load_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--set" && i + 1 < argc) set_name = argv[++i];
    else if (a == "--bytes" && i + 1 < argc) bytes = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--save" && i + 1 < argc) save_path = argv[++i];
    else if (a == "--load" && i + 1 < argc) load_path = argv[++i];
    else {
      std::printf("usage: ids_inspector [--set NAME] [--bytes N] [--save F | --load F]\n");
      return 2;
    }
  }

  const patterns::PatternSet set = patterns::set_by_name(set_name);
  std::printf("rule set %s: %zu patterns\n", set.name.c_str(), set.patterns.size());

  core::BuildStats stats;
  auto mfa = core::build_mfa(set.patterns, {}, &stats);
  if (!mfa) {
    std::fprintf(stderr, "MFA construction failed\n");
    return 1;
  }
  std::printf("MFA: %u states, %.2f MB image, %u filter bits, built in %.3fs\n",
              mfa->character_dfa().state_count(),
              static_cast<double>(mfa->memory_image_bytes()) / (1024 * 1024),
              mfa->program().memory_bits, stats.seconds);

  trace::Trace t;
  if (!load_path.empty()) {
    if (!trace::Trace::load(load_path, t)) {
      std::fprintf(stderr, "cannot load trace %s\n", load_path.c_str());
      return 1;
    }
  } else {
    const auto exemplars = eval::attack_exemplars(set, 2, 4242);
    t = trace::make_real_life(trace::RealLifeProfile::kCyberDefense, bytes, 4242,
                              exemplars);
    if (!save_path.empty() && !t.save(save_path))
      std::fprintf(stderr, "warning: could not save trace to %s\n", save_path.c_str());
  }
  std::printf("trace \"%s\": %zu packets, %.2f MB payload\n", t.name().c_str(),
              t.packet_count(), static_cast<double>(t.payload_bytes()) / (1024 * 1024));

  // Inspect: one shared engine, one (q, m) context per flow, alerts
  // aggregated per rule.
  flow::TieredFlowInspector<core::Mfa> inspector{*mfa};
  std::map<std::uint32_t, std::uint64_t> alerts;
  util::CycleTimer timer;
  t.for_each_packet([&](const flow::Packet& p) {
    inspector.packet(p, [&](std::uint32_t id, std::uint64_t) { ++alerts[id]; });
  });
  const double cpb =
      static_cast<double>(timer.elapsed_cycles()) / static_cast<double>(t.payload_bytes());

  std::printf("\ninspected %zu flows at %.1f cycles/byte\n", inspector.flow_count(), cpb);
  std::uint64_t total = 0;
  for (const auto& [id, count] : alerts) total += count;
  std::printf("%llu alerts across %zu distinct rules:\n",
              static_cast<unsigned long long>(total), alerts.size());
  for (const auto& [id, count] : alerts)
    std::printf("  rule %3u  x%-6llu  %s\n", id, static_cast<unsigned long long>(count),
                set.sources[id - 1].c_str());
  if (alerts.empty()) std::printf("  (none — trace was clean)\n");
  return 0;
}
