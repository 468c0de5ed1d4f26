#include "nfa/nfa.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace mfa::nfa {

using regex::CharClass;
using regex::Node;
using regex::NodeKind;
using regex::NodePtr;

namespace {

/// Thompson construction workspace with epsilon moves; eliminated before
/// the Nfa is published.
class ThompsonBuilder {
 public:
  std::uint32_t new_state() {
    eps_.emplace_back();
    trans_.emplace_back();
    accept_marks_.emplace_back();
    return static_cast<std::uint32_t>(eps_.size() - 1);
  }

  void add_eps(std::uint32_t from, std::uint32_t to) { eps_[from].push_back(to); }
  void add_trans(std::uint32_t from, const CharClass& cc, std::uint32_t to) {
    trans_[from].push_back(Transition{cc, to});
  }
  void mark_accept(std::uint32_t state, std::uint32_t id) {
    accept_marks_[state].push_back(id);
  }

  /// Build `node` starting from `entry`; returns the exit state.
  std::uint32_t build(const Node& node, std::uint32_t entry) {
    switch (node.kind) {
      case NodeKind::Empty:
        return entry;
      case NodeKind::CharSet: {
        const std::uint32_t exit = new_state();
        add_trans(entry, node.cc, exit);
        return exit;
      }
      case NodeKind::Concat: {
        std::uint32_t cur = entry;
        for (const auto& c : node.children) cur = build(*c, cur);
        return cur;
      }
      case NodeKind::Alternate: {
        const std::uint32_t join = new_state();
        for (const auto& c : node.children) {
          const std::uint32_t exit = build(*c, entry);
          add_eps(exit, join);
        }
        return join;
      }
      case NodeKind::Star: {
        const std::uint32_t hub = new_state();
        add_eps(entry, hub);
        const std::uint32_t exit = build(*node.children.front(), hub);
        add_eps(exit, hub);
        return hub;
      }
      case NodeKind::Plus: {
        const std::uint32_t in = new_state();
        add_eps(entry, in);
        const std::uint32_t body_exit = build(*node.children.front(), in);
        const std::uint32_t out = new_state();
        add_eps(body_exit, out);
        add_eps(out, in);
        return out;
      }
      case NodeKind::Optional: {
        const std::uint32_t exit = build(*node.children.front(), entry);
        const std::uint32_t join = new_state();
        add_eps(entry, join);
        add_eps(exit, join);
        return join;
      }
      case NodeKind::Repeat: {
        const Node& child = *node.children.front();
        std::uint32_t cur = entry;
        for (int i = 0; i < node.rep_min; ++i) cur = build(child, cur);
        if (node.rep_max < 0) {
          // Trailing unbounded tail: child*
          const std::uint32_t hub = new_state();
          add_eps(cur, hub);
          const std::uint32_t exit = build(child, hub);
          add_eps(exit, hub);
          return hub;
        }
        // (child?){max-min}: collect all intermediate exits into a join.
        std::vector<std::uint32_t> exits{cur};
        for (int i = node.rep_min; i < node.rep_max; ++i) {
          cur = build(child, cur);
          exits.push_back(cur);
        }
        const std::uint32_t join = new_state();
        for (const std::uint32_t e : exits) add_eps(e, join);
        return join;
      }
    }
    return entry;
  }

  /// Compute transitive epsilon closure of every state (includes self).
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> closures() const {
    const std::size_t n = eps_.size();
    std::vector<std::vector<std::uint32_t>> out(n);
    std::vector<std::uint32_t> stack;
    std::vector<bool> seen(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      std::fill(seen.begin(), seen.end(), false);
      stack.assign(1, s);
      seen[s] = true;
      while (!stack.empty()) {
        const std::uint32_t t = stack.back();
        stack.pop_back();
        out[s].push_back(t);
        for (const std::uint32_t u : eps_[t]) {
          if (!seen[u]) {
            seen[u] = true;
            stack.push_back(u);
          }
        }
      }
      std::sort(out[s].begin(), out[s].end());
    }
    return out;
  }

  std::vector<std::vector<std::uint32_t>> eps_;
  std::vector<std::vector<Transition>> trans_;
  std::vector<std::vector<std::uint32_t>> accept_marks_;
};

/// Merge transitions that share a target by unioning their labels.
void coalesce(std::vector<Transition>& ts) {
  std::sort(ts.begin(), ts.end(),
            [](const Transition& a, const Transition& b) { return a.target < b.target; });
  std::vector<Transition> merged;
  for (const auto& t : ts) {
    if (!merged.empty() && merged.back().target == t.target) {
      merged.back().cc |= t.cc;
    } else {
      merged.push_back(t);
    }
  }
  ts = std::move(merged);
}

}  // namespace

Nfa build_nfa(const std::vector<PatternInput>& patterns) {
  ThompsonBuilder tb;
  const std::uint32_t start = tb.new_state();
  std::uint32_t max_id = 0;

  // One shared any-byte prefix hub serves every unanchored pattern: matches
  // may begin anywhere in the stream, and sharing the hub keeps it a single
  // always-active state instead of one per pattern (which would bloat every
  // subset during DFA construction).
  std::uint32_t shared_hub = UINT32_MAX;
  for (const auto& p : patterns) {
    max_id = std::max(max_id, p.id);
    std::uint32_t entry = start;
    if (!p.regex.anchored) {
      if (shared_hub == UINT32_MAX) {
        shared_hub = tb.new_state();
        tb.add_eps(start, shared_hub);
        tb.add_trans(shared_hub, CharClass::all(), shared_hub);
      }
      entry = shared_hub;
    }
    const std::uint32_t exit = tb.build(*p.regex.root, entry);
    tb.mark_accept(exit, p.id);
  }

  // Epsilon elimination: the eps-free transition/accept sets of a state are
  // the unions over its closure.
  const auto closures = tb.closures();
  const std::size_t n = closures.size();
  std::vector<std::vector<Transition>> free_trans(n);
  std::vector<std::vector<std::uint32_t>> free_accepts(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const std::uint32_t t : closures[s]) {
      for (const auto& tr : tb.trans_[t]) {
        // The transition target itself must absorb its own closure's
        // transitions later; targets here point at Thompson states whose
        // closure is applied when *their* row is built, so redirecting is
        // unnecessary — but accepts reached by epsilon from the target must
        // be credited to the target's row, which the loop below handles.
        free_trans[s].push_back(tr);
      }
      for (const std::uint32_t id : tb.accept_marks_[t]) free_accepts[s].push_back(id);
    }
    coalesce(free_trans[s]);
    std::sort(free_accepts[s].begin(), free_accepts[s].end());
    free_accepts[s].erase(std::unique(free_accepts[s].begin(), free_accepts[s].end()),
                          free_accepts[s].end());
  }

  // Prune states unreachable from the start (epsilon-only intermediates).
  std::vector<std::uint32_t> remap(n, UINT32_MAX);
  std::vector<std::uint32_t> order;
  order.push_back(start);
  remap[start] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const auto& tr : free_trans[order[i]]) {
      if (remap[tr.target] == UINT32_MAX) {
        remap[tr.target] = static_cast<std::uint32_t>(order.size());
        order.push_back(tr.target);
      }
    }
  }

  Nfa nfa;
  nfa.start_ = 0;
  nfa.max_match_id_ = max_id;
  nfa.transitions_.resize(order.size());
  nfa.accepts_.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t old = order[i];
    auto& row = nfa.transitions_[i];
    row = std::move(free_trans[old]);
    for (auto& tr : row) tr.target = remap[tr.target];
    coalesce(row);
    nfa.accepts_[i] = std::move(free_accepts[old]);
  }
  return nfa;
}

std::size_t Nfa::memory_image_bytes() const {
  // Compact on-disk-style encoding: per state an 8-byte header, per
  // transition one (lo, hi, target) triple per contiguous byte range, and
  // 4 bytes per accept id.
  std::size_t bytes = 0;
  for (std::uint32_t s = 0; s < state_count(); ++s) {
    bytes += 8;
    for (const auto& t : transitions_[s]) {
      std::size_t ranges = 0;
      int prev = -2;
      t.cc.for_each([&](unsigned char c) {
        if (static_cast<int>(c) != prev + 1) ++ranges;
        prev = c;
      });
      bytes += ranges * 6;
    }
    bytes += accepts_[s].size() * 4;
  }
  return bytes;
}

std::vector<regex::CharClass> Nfa::distinct_labels() const {
  std::vector<regex::CharClass> labels;
  std::unordered_set<std::uint64_t> seen;
  for (const auto& row : transitions_) {
    for (const auto& t : row) {
      if (seen.insert(t.cc.hash()).second) labels.push_back(t.cc);
    }
  }
  return labels;
}

Nfa::Context Nfa::make_context() const {
  Context ctx;
  const std::size_t words = (state_count() + 63) / 64;
  ctx.current.resize(words);
  ctx.next.resize(words);
  ctx.seen_stamp.assign(max_match_id() + 1, 0);
  reset(ctx);
  return ctx;
}

void Nfa::reset(Context& ctx) const {
  std::fill(ctx.current.begin(), ctx.current.end(), 0);
  std::fill(ctx.next.begin(), ctx.next.end(), 0);
  std::fill(ctx.seen_stamp.begin(), ctx.seen_stamp.end(), 0);
  ctx.current[start_ >> 6] |= 1ULL << (start_ & 63);
}

}  // namespace mfa::nfa
