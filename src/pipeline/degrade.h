// Adaptive graceful-degradation controller (DESIGN.md §14).
//
// Each shard worker owns one DegradeController. The controller closes a loop
// between the shard's observed load signals and a four-rung fidelity ladder:
//
//   L0 full      — every chunk through the exact MFA scan (normal operation)
//   L1 sampled   — 1-in-2^kL1SampleShift flows keep the exact scan; the
//                  rest scan only chunks the literal prefilter flags as
//                  suspicious
//   L2 prefilter — detection-only: probe-positive chunks are *recorded*
//                  (mfa_degraded_hits_total) but no automaton advances
//   L3 bypass    — whole bursts shed with ShedReason::kBypass (count-only)
//
// The loop is PI-shaped: a scalar "pressure" (the worse of estimated p99
// versus slo.p99_ns and shed ratio versus slo.max_shed_ratio) drives
// proportional + clamped-integral output; the ladder moves ONE rung at a
// time, gated by a dwell timer and an escalate/de-escalate hysteresis band
// so a single bursty poll can never flap the level. The gains, the clamp
// and the band are fixed constants in degrade.cpp; only the dwell and a
// pinned rung are settable. Time is injected (steady_clock time_points) so
// unit tests drive the loop with a fake clock.
//
// This ladder is the pipeline's only graceful-degradation path. The shed
// policy under it (pipeline.h) is just the floor for a full queue.
//
// A disabled controller (slo.p99_ns == 0 and no forced level) costs nothing
// on the hot path: the worker skips the clock reads and never calls update().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace mfa::pipeline {

/// Fidelity ladder rung. Numeric order is severity order; the controller
/// only ever moves to an adjacent rung.
enum class DegradeLevel : std::uint8_t {
  kL0Full = 0,
  kL1Sampled = 1,
  kL2PrefilterOnly = 2,
  kL3Bypass = 3,
};

[[nodiscard]] const char* to_string(DegradeLevel level);

/// Service-level objective the controller defends. p99_ns == 0 disables the
/// closed loop entirely (the ladder stays wherever force_level pins it, or
/// at L0).
struct Slo {
  std::uint64_t p99_ns = 0;     ///< end-to-end p99 target; 0 = controller off
  double max_shed_ratio = 0.05; ///< tolerated shed fraction before escalating
};

/// L1 keeps the exact scan for 1-in-2^kL1SampleShift flows.
inline constexpr std::uint32_t kL1SampleShift = 3;

/// Controller settings. Every move waits out a dwell period so transitions
/// are observable, not oscillatory.
struct DegradeKnobs {
  std::uint32_t dwell_ms = 50;  ///< minimum time between ladder moves
  int force_level = -1;  ///< >= 0 pins the ladder (bench sweeps); loop bypassed
};

/// One poll of the shard's load signals, assembled by the worker from state
/// it already owns — no extra synchronization.
struct DegradeSignals {
  std::size_t queue_depth = 0;       ///< shard SPSC occupancy at poll time
  std::size_t batch_size = 1;        ///< burst size (adds to in-flight depth)
  double ns_per_packet = 0.0;        ///< EWMA scan cost per kept packet
  double shed_ratio = 0.0;           ///< windowed shed / submitted fraction
};

class DegradeController {
 public:
  using Clock = std::chrono::steady_clock;

  DegradeController() = default;
  DegradeController(Slo slo, DegradeKnobs knobs) : slo_(slo), knobs_(knobs) {
    if (knobs_.force_level >= 0)
      level_ = static_cast<DegradeLevel>(
          std::min(knobs_.force_level, 3));
  }

  /// True when update() should be called at all. A pinned ladder counts as
  /// enabled so bench sweeps still publish the level gauge.
  [[nodiscard]] bool enabled() const {
    return slo_.p99_ns != 0 || knobs_.force_level >= 0;
  }

  [[nodiscard]] DegradeLevel level() const { return level_; }
  [[nodiscard]] const Slo& slo() const { return slo_; }

  /// Introspection for tests: last computed pressure / PI output.
  [[nodiscard]] double pressure() const { return pressure_; }
  [[nodiscard]] double output() const { return output_; }

  /// Close the loop once. Returns true when the ladder moved (the caller
  /// re-programs the inspector's scan mode and records the transition).
  /// `now` is injected so tests can drive dwell with a fake clock; the
  /// "pipeline.overload.spike" fault site forces pressure high (param =
  /// pressure x100, default 400 => pressure 4.0) for deterministic ladder
  /// walks under test.
  bool update(const DegradeSignals& signals, Clock::time_point now);

 private:
  Slo slo_{};
  DegradeKnobs knobs_{};
  DegradeLevel level_ = DegradeLevel::kL0Full;
  double integral_ = 0.0;
  double pressure_ = 0.0;
  double output_ = 0.0;
  bool primed_ = false;                ///< first update seeds the clock only
  Clock::time_point last_update_{};
  Clock::time_point last_transition_{};
};

}  // namespace mfa::pipeline
