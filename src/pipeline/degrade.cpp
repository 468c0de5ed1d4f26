#include "pipeline/degrade.h"

#include "util/faultpoint.h"

namespace mfa::pipeline {

namespace {

// Controller constants. Conservative on purpose: escalation needs sustained
// pressure ~25% over target.
constexpr double kProportionalGain = 0.6;  ///< on (pressure - 1)
constexpr double kIntegralGain = 0.15;     ///< per second
constexpr double kIntegralBound = 2.0;     ///< anti-windup clamp on the integral
constexpr double kEscalateAbove = 0.25;    ///< output above this → down a rung
constexpr double kDeescalateBelow = -0.20; ///< output below this → back up

}  // namespace

const char* to_string(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kL0Full: return "L0-full";
    case DegradeLevel::kL1Sampled: return "L1-sampled";
    case DegradeLevel::kL2PrefilterOnly: return "L2-prefilter";
    case DegradeLevel::kL3Bypass: return "L3-bypass";
  }
  return "?";
}

bool DegradeController::update(const DegradeSignals& signals,
                               Clock::time_point now) {
  if (knobs_.force_level >= 0) return false;  // pinned: loop bypassed
  if (slo_.p99_ns == 0) return false;

  // Pressure = worst constraint, each normalized so 1.0 means "exactly at
  // the limit". Latency uses a queueing estimate rather than the measured
  // histogram: depth packets ahead of a new arrival plus one burst in
  // flight, each costing the EWMA scan time. This leads the measured p99
  // (it reacts within one burst of queue growth) which is what lets the
  // controller act before the SLO is already blown.
  const double est_ns =
      static_cast<double>(signals.queue_depth + signals.batch_size) *
      signals.ns_per_packet;
  double pressure = est_ns / static_cast<double>(slo_.p99_ns);
  if (slo_.max_shed_ratio > 0.0)
    pressure = std::max(pressure, signals.shed_ratio / slo_.max_shed_ratio);

  // Deterministic overload for tests: the spike site overrides whatever the
  // real signals say. param carries pressure x100 (so 400 => 4.0).
  if (util::fault_fire("pipeline.overload.spike")) {
    const std::uint64_t p =
        util::FaultRegistry::instance().param("pipeline.overload.spike");
    pressure = std::max(pressure, static_cast<double>(p == 0 ? 400 : p) / 100.0);
  }
  pressure_ = pressure;

  if (!primed_) {
    // First poll seeds the clocks; acting on a zero-length window would make
    // the integral term depend on process start jitter.
    primed_ = true;
    last_update_ = now;
    last_transition_ = now;
    output_ = 0.0;
    return false;
  }

  const double dt =
      std::chrono::duration<double>(now - last_update_).count();
  last_update_ = now;
  const double err = pressure - 1.0;
  integral_ += kIntegralGain * err * std::clamp(dt, 0.0, 1.0);
  integral_ = std::clamp(integral_, -kIntegralBound, kIntegralBound);
  output_ = kProportionalGain * err + integral_;

  const auto dwell = std::chrono::milliseconds(knobs_.dwell_ms);
  if (now - last_transition_ < dwell) return false;

  if (output_ > kEscalateAbove &&
      level_ != DegradeLevel::kL3Bypass) {
    level_ = static_cast<DegradeLevel>(static_cast<std::uint8_t>(level_) + 1);
    last_transition_ = now;
    // Fresh rung, fresh history: accumulated windup from the old operating
    // point would otherwise chain-escalate straight through the ladder.
    integral_ = 0.0;
    return true;
  }
  if (output_ < kDeescalateBelow &&
      level_ != DegradeLevel::kL0Full) {
    level_ = static_cast<DegradeLevel>(static_cast<std::uint8_t>(level_) - 1);
    last_transition_ = now;
    integral_ = 0.0;
    return true;
  }
  return false;
}

}  // namespace mfa::pipeline
