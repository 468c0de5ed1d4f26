#include "filter/action.h"

#include <sstream>

namespace mfa::filter {

std::string Action::to_pseudocode() const {
  std::ostringstream out;
  const bool have_guard = test != kNone;
  if (have_guard) out << "Test " << test;
  std::vector<std::string> effects;
  if (clear != kNone) effects.push_back("Clear " + std::to_string(clear));
  if (set != kNone) effects.push_back("Set " + std::to_string(set));
  if (report != kNone) effects.push_back("Match " + std::to_string(report));
  if (effects.empty()) effects.push_back("Nop");
  if (have_guard) out << " to ";
  for (std::size_t i = 0; i < effects.size(); ++i) {
    if (i > 0) out << (i + 1 == effects.size() ? " and " : ", ");
    out << effects[i];
  }
  return out.str();
}

bool Program::validate(std::string* error) const {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (memory_bits > kMaxMemoryBits)
    return fail("program declares " + std::to_string(memory_bits) +
                " memory bits; the per-flow Memory caps at " +
                std::to_string(kMaxMemoryBits) +
                " (reduce the pattern set or shard it across engines)");
  const auto bit_ok = [&](std::int32_t b) {
    return b == kNone || (b >= 0 && static_cast<std::uint32_t>(b) < memory_bits);
  };
  const auto slot_ok = [&](std::int32_t s) {
    return s == kNone || (s >= 0 && static_cast<std::uint32_t>(s) < position_slots);
  };
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const Action& a = actions[i];
    if (!bit_ok(a.test) || !bit_ok(a.set) || !bit_ok(a.clear))
      return fail("action " + std::to_string(i) + " references a bit outside [0, " +
                  std::to_string(memory_bits) + ")");
    if (!slot_ok(a.set_slot) || !slot_ok(a.test_slot))
      return fail("action " + std::to_string(i) +
                  " references a position slot outside [0, " +
                  std::to_string(position_slots) + ")");
    if (a.min_gap > 0 && (a.test == kNone || a.test_slot == kNone))
      return fail("action " + std::to_string(i) +
                  " requires a gap but names no tested bit and slot");
  }
  return true;
}

}  // namespace mfa::filter
