// Match event types shared by every engine, the ScanEngine concept every
// engine satisfies, and Scanner, the one-stream scan surface over it.
//
// The contract (DESIGN.md Sec. 3): an engine emits one Match{id, end} per
// pattern id and end offset at which some substring ending there matches.
// All six engines (NFA, DFA, D2FA, MFA, HFA, XFA) produce identical Match
// sets; the equivalence property tests compare these vectors directly.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace mfa {

struct Match {
  std::uint32_t id = 0;   ///< pattern (match) id
  std::uint64_t end = 0;  ///< offset of the last byte of the match, 0-based

  friend bool operator==(const Match&, const Match&) = default;
  friend bool operator<(const Match& a, const Match& b) {
    return std::tie(a.end, a.id) < std::tie(b.end, b.id);
  }
};

using MatchVec = std::vector<Match>;

/// Sink that only counts matches; used on the benchmark hot path so that
/// match storage does not distort cycles-per-byte measurements.
struct CountingSink {
  std::uint64_t count = 0;
  void operator()(std::uint32_t /*id*/, std::uint64_t /*end*/) { ++count; }
};

/// Sink that records every match; used by tests and examples.
struct CollectingSink {
  MatchVec matches;
  void operator()(std::uint32_t id, std::uint64_t end) {
    matches.push_back(Match{id, end});
  }
};

/// An immutable, shareable compiled automaton with a cheap per-flow
/// Context (the paper's (q, m)) and a context-threaded feed. Every engine
/// (Nfa, Dfa, D2fa, Hfa, Xfa, Mfa) satisfies this; the flow inspector
/// (flow/tiered.h) and Scanner below are written against it.
template <typename EngineT>
concept ScanEngine = requires(const EngineT& e, typename EngineT::Context& ctx,
                              const std::uint8_t* data) {
  { e.make_context() } -> std::same_as<typename EngineT::Context>;
  { e.context_bytes() } -> std::convertible_to<std::size_t>;
  e.reset(ctx);
  e.feed(ctx, data, std::size_t{0}, std::uint64_t{0},
         [](std::uint32_t, std::uint64_t) {});
};

/// One engine plus one owned Context: a single stream scanned from offset
/// 0. Class template argument deduction picks the engine, so a call site
/// writes `Scanner s(engine)`.
template <ScanEngine Engine>
class Scanner {
 public:
  explicit Scanner(const Engine& engine) : engine_(&engine), ctx_(engine.make_context()) {}

  void reset() { engine_->reset(ctx_); }

  /// Feed a chunk; `base` is the stream offset of data[0]. Emits
  /// sink(id, end_offset) once per (id, position).
  template <typename Sink>
  void feed(const std::uint8_t* data, std::size_t size, std::uint64_t base, Sink&& sink) {
    engine_->feed(ctx_, data, size, base, sink);
  }

  /// Scan a whole buffer from offset 0 after reset().
  MatchVec scan(const std::uint8_t* data, std::size_t size) {
    reset();
    CollectingSink sink;
    feed(data, size, 0, sink);
    return std::move(sink.matches);
  }
  MatchVec scan(const std::string& data) {
    return scan(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  /// The engine's per-flow context footprint.
  [[nodiscard]] std::size_t context_bytes() const { return engine_->context_bytes(); }

 private:
  const Engine* engine_;
  typename Engine::Context ctx_;
};

}  // namespace mfa
