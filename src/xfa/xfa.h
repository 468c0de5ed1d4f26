// XFA-like baseline (Smith et al. [24]; paper Sec. II-A and V).
//
// An XFA attaches small instruction programs to automaton *states*; the
// program of a state runs every time the state is entered. The paper could
// not construct true XFAs (their construction "is byzantine") and reported
// estimated throughput; we instead build a real executable XFA over the
// same decomposition: guard bits become scratch memory, per-state programs
// are sequences of bit/report instructions run through a general opcode
// interpreter. This is strictly more faithful than an estimate while
// keeping the defining cost: a per-state-entry program dispatch with an
// interpreted instruction stream (vs. MFA's single-compare accept test and
// specialized 4-field actions).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dfa/dfa.h"
#include "filter/engine.h"
#include "split/splitter.h"

namespace mfa::xfa {

enum class Op : std::uint8_t {
  kBitSet,       ///< set bit a
  kBitClear,     ///< clear bit a
  kSetIfBit,     ///< if bit a then set bit b
  kClearIfBit,   ///< if bit a then clear bit b
  kReport,       ///< report match id a
  kReportIfBit,  ///< if bit a then report match id b
  kExecAction,   ///< delegate filter action a (offset-tracking gap actions)
};

struct Instruction {
  Op op = Op::kReport;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

struct BuildOptions {
  split::Options split;
  dfa::BuildOptions dfa;
};

struct BuildStats {
  dfa::BuildStats dfa;
  double seconds = 0.0;
};

class Xfa {
 public:
  /// Stable engine label used by telemetry exporters and bench reports.
  static constexpr const char* kEngineName = "xfa";

  [[nodiscard]] const dfa::Dfa& character_dfa() const { return dfa_; }
  [[nodiscard]] const filter::Program& program() const { return program_; }
  [[nodiscard]] std::uint32_t memory_bits() const { return program_.memory_bits; }

  /// Program of state s, empty for states without instructions.
  [[nodiscard]] std::pair<const Instruction*, const Instruction*> program(
      std::uint32_t state) const {
    return {instructions_.data() + program_offsets_[state],
            instructions_.data() + program_offsets_[state + 1]};
  }

  [[nodiscard]] std::size_t memory_image_bytes() const {
    return dfa_.memory_image_bytes(/*full_alphabet=*/false) +
           program_offsets_.size() * sizeof(std::uint32_t) +
           instructions_.size() * sizeof(Instruction);
  }

  [[nodiscard]] std::size_t context_bytes() const {
    return sizeof(std::uint32_t) +
           filter::Memory::context_bytes(program_.memory_bits, program_.position_slots);
  }

  // --- Engine/Context split (uniform API across all six engines) ---
  // No InlineContext API: the instruction interpreter runs against a full
  // filter::Memory only, so the tiered flow table keeps XFA contexts in its
  // cold tier (see flow/tiered.h).

  using Context = filter::ScanContext;

  [[nodiscard]] Context make_context() const {
    return Context{dfa_.start(),
                   filter::Memory(program_.position_slots, program_.memory_bits)};
  }

  void reset(Context& ctx) const {
    ctx.state = dfa_.start();
    ctx.memory.reset();
  }

  /// The flow's current automaton state (profiler state-visit sampling).
  [[nodiscard]] std::uint32_t context_state(const Context& ctx) const {
    return ctx.state;
  }

  /// States of the underlying character DFA (the space context_state()
  /// indexes into).
  [[nodiscard]] std::uint32_t state_count() const { return dfa_.state_count(); }

  /// Feed a chunk through `ctx`. Thread-safe with distinct contexts.
  template <typename Sink>
  void feed(Context& ctx, const std::uint8_t* data, std::size_t size, std::uint64_t base,
            Sink&& sink) const {
    std::uint32_t s = dfa_.row_offset(ctx.state);
    for (std::size_t i = 0; i < size; ++i) {
      s = dfa_.step(s, data[i]);
      // The defining XFA cost: consult the per-state program on every entry
      // (its raw id is off the step chain, which continues from `s`).
      const auto [ip, end] = program(dfa_.state_of(s));
      for (const auto* in = ip; in != end; ++in) execute(*in, base + i, ctx.memory, sink);
    }
    ctx.state = dfa_.state_of(s);
  }

 private:
  template <typename Sink>
  void execute(const Instruction& in, std::uint64_t pos, filter::Memory& memory,
               Sink&& sink) const {
    switch (in.op) {
      case Op::kBitSet:
        memory.set_bit(in.a);
        break;
      case Op::kBitClear:
        memory.clear_bit(in.a);
        break;
      case Op::kSetIfBit:
        if (memory.test_bit(in.a)) memory.set_bit(in.b);
        break;
      case Op::kClearIfBit:
        if (memory.test_bit(in.a)) memory.clear_bit(in.b);
        break;
      case Op::kReport:
        sink(static_cast<std::uint32_t>(in.a), pos);
        break;
      case Op::kReportIfBit:
        if (memory.test_bit(in.a)) sink(static_cast<std::uint32_t>(in.b), pos);
        break;
      case Op::kExecAction:
        filter::Engine(program_).on_match(static_cast<std::uint32_t>(in.a), pos, memory,
                                          sink);
        break;
    }
  }

  friend std::optional<Xfa> build_xfa(const std::vector<nfa::PatternInput>&,
                                      const BuildOptions&, BuildStats*);
  dfa::Dfa dfa_;
  filter::Program program_;  ///< kept for geometry and kExecAction delegates
  std::vector<std::uint32_t> program_offsets_;  // state_count + 1
  std::vector<Instruction> instructions_;
};

std::optional<Xfa> build_xfa(const std::vector<nfa::PatternInput>& patterns,
                             const BuildOptions& options = {}, BuildStats* stats = nullptr);

}  // namespace mfa::xfa
