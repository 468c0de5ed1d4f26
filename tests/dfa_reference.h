// Test-only textbook subset construction: full-subset keys, one thread, no
// sticky-state factoring. dfa::build_dfa() must produce exactly this
// automaton (same numbering, table and accept lists) at every thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "dfa/dfa.h"
#include "nfa/nfa.h"

namespace mfa::testing {

struct ReferenceDfa {
  bool failed = false;
  std::uint32_t discovered = 0;  ///< subsets interned (== cap on failure)
  std::uint32_t start = 0;
  std::uint32_t accepting = 0;   ///< accepting states are numbered first
  std::vector<std::uint32_t> table;                 ///< states x classes
  std::vector<std::vector<std::uint32_t>> accepts;  ///< per state, ascending
};

inline ReferenceDfa reference_dfa(const nfa::Nfa& nfa, std::uint32_t max_states) {
  const auto [cls, ncls] = dfa::compute_byte_classes(nfa);
  std::vector<unsigned char> rep(ncls);
  for (int b = 255; b >= 0; --b) rep[cls[b]] = static_cast<unsigned char>(b);

  ReferenceDfa out;
  std::map<std::vector<std::uint32_t>, std::uint32_t> ids;
  std::vector<std::vector<std::uint32_t>> subsets;
  std::vector<std::uint32_t> table;
  const auto intern = [&](std::vector<std::uint32_t> subset) -> std::uint32_t {
    const auto it = ids.find(subset);
    if (it != ids.end()) return it->second;
    if (subsets.size() >= max_states) {
      out.failed = true;
      return 0;
    }
    const auto id = static_cast<std::uint32_t>(subsets.size());
    ids.emplace(subset, id);
    subsets.push_back(std::move(subset));
    return id;
  };
  // delta[m]: every (class, target) move of NFA state m.
  std::vector<std::vector<std::pair<std::uint16_t, std::uint32_t>>> delta(nfa.state_count());
  for (std::uint32_t m = 0; m < nfa.state_count(); ++m)
    for (const auto& t : nfa.transitions_from(m))
      for (std::uint16_t c = 0; c < ncls; ++c)
        if (t.cc.test(rep[c])) delta[m].emplace_back(c, t.target);

  // Breadth first from {start}, successors in class order.
  intern({nfa.start()});
  for (std::size_t ds = 0; ds < subsets.size() && !out.failed; ++ds) {
    std::vector<std::vector<std::uint32_t>> next(ncls);
    for (const std::uint32_t m : subsets[ds])
      for (const auto& [c, target] : delta[m]) next[c].push_back(target);
    for (std::uint16_t c = 0; c < ncls && !out.failed; ++c) {
      std::sort(next[c].begin(), next[c].end());
      next[c].erase(std::unique(next[c].begin(), next[c].end()), next[c].end());
      table.push_back(intern(std::move(next[c])));
    }
  }
  out.discovered = static_cast<std::uint32_t>(subsets.size());
  if (out.failed) return out;

  // Accepting states first, each group in discovery order.
  const std::size_t n = subsets.size();
  std::vector<std::vector<std::uint32_t>> acc(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const std::uint32_t m : subsets[s])
      acc[s].insert(acc[s].end(), nfa.accepts(m).begin(), nfa.accepts(m).end());
    std::sort(acc[s].begin(), acc[s].end());
    acc[s].erase(std::unique(acc[s].begin(), acc[s].end()), acc[s].end());
  }
  std::vector<std::uint32_t> remap(n);
  for (std::size_t s = 0; s < n; ++s)
    if (!acc[s].empty()) remap[s] = out.accepting++;
  std::uint32_t plain = out.accepting;
  for (std::size_t s = 0; s < n; ++s)
    if (acc[s].empty()) remap[s] = plain++;
  out.start = remap[0];
  out.table.resize(table.size());
  out.accepts.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint16_t c = 0; c < ncls; ++c)
      out.table[remap[s] * ncls + c] = remap[table[s * ncls + c]];
    out.accepts[remap[s]] = std::move(acc[s]);
  }
  return out;
}

}  // namespace mfa::testing
