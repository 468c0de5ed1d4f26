#include "dfa/dfa.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>
#include <unordered_map>

#include "util/timing.h"

namespace mfa::dfa {

std::pair<std::array<std::uint8_t, 256>, std::uint16_t> compute_byte_classes(
    const nfa::Nfa& nfa) {
  // Partition refinement: start with one class holding all bytes and split
  // by every distinct transition label. Exact (no hashing).
  std::array<std::uint16_t, 256> cls{};
  std::uint16_t class_count = 1;
  // Temporary ids during one split round can reach 2 * class_count <= 512.
  std::array<std::uint16_t, 512> split_map{};  // old class -> in-label class
  std::array<std::uint16_t, 512> renumber{};
  for (const auto& label : nfa.distinct_labels()) {
    std::fill(split_map.begin(), split_map.end(), std::uint16_t{0xffff});
    std::uint16_t next_id = class_count;
    for (unsigned b = 0; b < 256; ++b) {
      if (!label.test(static_cast<unsigned char>(b))) continue;
      const std::uint16_t old = cls[b];
      if (split_map[old] == 0xffff) split_map[old] = next_id++;
      cls[b] = split_map[old];
    }
    // Renumber densely in first-byte order. When an entire class was inside
    // the label the old id simply disappears, which keeps the partition
    // correct and the count minimal.
    std::fill(renumber.begin(), renumber.end(), std::uint16_t{0xffff});
    std::uint16_t dense = 0;
    for (unsigned b = 0; b < 256; ++b) {
      if (renumber[cls[b]] == 0xffff) renumber[cls[b]] = dense++;
      cls[b] = renumber[cls[b]];
    }
    class_count = dense;
  }
  std::array<std::uint8_t, 256> out{};
  for (unsigned b = 0; b < 256; ++b) out[b] = static_cast<std::uint8_t>(cls[b]);
  return {out, class_count};
}

namespace {

struct VecHash {
  std::size_t operator()(const std::vector<std::uint32_t>& v) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint32_t x : v) {
      h ^= x;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Per-NFA-state transition rows pre-resolved to byte classes:
/// CSR of (class, target) pairs sorted by class.
struct ClassifiedNfa {
  std::vector<std::uint32_t> row_offsets;  // per state
  std::vector<std::pair<std::uint16_t, std::uint32_t>> entries;
};

ClassifiedNfa classify(const nfa::Nfa& nfa, const std::array<std::uint8_t, 256>& cls,
                       std::uint16_t ncls) {
  // Representative byte per class.
  std::vector<unsigned char> rep(ncls);
  for (int b = 255; b >= 0; --b) rep[cls[static_cast<unsigned>(b)]] = static_cast<unsigned char>(b);

  ClassifiedNfa out;
  out.row_offsets.assign(nfa.state_count() + 1, 0);
  for (std::uint32_t s = 0; s < nfa.state_count(); ++s) {
    out.row_offsets[s] = static_cast<std::uint32_t>(out.entries.size());
    for (const auto& t : nfa.transitions_from(s)) {
      for (std::uint16_t c = 0; c < ncls; ++c) {
        if (t.cc.test(rep[c])) out.entries.emplace_back(c, t.target);
      }
    }
    std::sort(out.entries.begin() + out.row_offsets[s], out.entries.end());
  }
  out.row_offsets[nfa.state_count()] = static_cast<std::uint32_t>(out.entries.size());
  return out;
}

/// Moore partition refinement; returns the new state id of every old state
/// and the new state count.
std::pair<std::vector<std::uint32_t>, std::uint32_t> minimize_partition(
    const std::vector<std::uint32_t>& table, std::uint16_t ncols,
    const std::vector<std::vector<std::uint32_t>>& accept_sets) {
  const std::size_t n = accept_sets.size();
  std::vector<std::uint32_t> block(n);
  // Initial partition: by accept id set.
  {
    std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, VecHash> sig_to_block;
    for (std::size_t s = 0; s < n; ++s) {
      const auto [it, inserted] = sig_to_block.try_emplace(
          accept_sets[s], static_cast<std::uint32_t>(sig_to_block.size()));
      block[s] = it->second;
    }
  }
  std::uint32_t block_count = 0;
  for (const auto b : block) block_count = std::max(block_count, b + 1);

  std::vector<std::uint32_t> key(ncols + 1);
  while (true) {
    std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, VecHash> sig_to_block;
    std::vector<std::uint32_t> next_block(n);
    for (std::size_t s = 0; s < n; ++s) {
      key[0] = block[s];
      for (std::uint16_t c = 0; c < ncols; ++c) key[c + 1] = block[table[s * ncols + c]];
      const auto [it, inserted] =
          sig_to_block.try_emplace(key, static_cast<std::uint32_t>(sig_to_block.size()));
      next_block[s] = it->second;
    }
    const auto new_count = static_cast<std::uint32_t>(sig_to_block.size());
    block.swap(next_block);
    if (new_count == block_count) break;
    block_count = new_count;
  }
  return {std::move(block), block_count};
}

// --- Sticky-state factoring (DESIGN.md §6 #12) ---
//
// A sticky NFA state self-loops on every byte class: the shared `.*` prefix
// loop and any internal `.*` loop. Once in a subset it is in every successor,
// and at Snort scale the prefix loop's row is nearly all of a subset's
// expansion work. So the explorer never stores or expands a subset X whole:
//  - T0 is the union of the sticky rows' targets; X is keyed by the pair
//    (X ∩ T0, X \ T0) = (head, residual). The split is unique for every X,
//    so two subsets share a key exactly when they are equal, and states are
//    numbered as whole-subset keys would number them.
//  - Heads are few (31 at 5k generated rules) and interned once, in a
//    HeadTable. Residuals are short (3.4 NFA states on average at 5k).
//  - Per DFA state, only the head's non-sticky members and the residual are
//    expanded. The sticky members' per-class successors (all inside T0) are
//    built once per distinct sticky set Σ and reused, with their head ids.

/// Sticky states and T0 membership, per NFA state.
struct StickySplit {
  std::vector<std::uint8_t> sticky;
  std::vector<std::uint8_t> in_t0;
};

StickySplit find_sticky(const ClassifiedNfa& cn, std::uint16_t ncls) {
  const auto nstates = static_cast<std::uint32_t>(cn.row_offsets.size() - 1);
  StickySplit out{std::vector<std::uint8_t>(nstates, 0),
                  std::vector<std::uint8_t>(nstates, 0)};
  for (std::uint32_t s = 0; s < nstates; ++s) {
    // Rows are sorted by (class, target), so a repeated (c, s) is adjacent.
    std::uint32_t loops = 0;
    std::uint32_t last = UINT32_MAX;
    for (std::uint32_t e = cn.row_offsets[s]; e < cn.row_offsets[s + 1]; ++e) {
      const auto [c, target] = cn.entries[e];
      if (target == s && c != last) {
        ++loops;
        last = c;
      }
    }
    if (loops != ncls) continue;
    out.sticky[s] = 1;
    for (std::uint32_t e = cn.row_offsets[s]; e < cn.row_offsets[s + 1]; ++e)
      out.in_t0[cn.entries[e].second] = 1;
  }
  return out;
}

/// Interned heads, numbered in interning order.
class HeadTable {
 public:
  std::uint32_t intern(const std::vector<std::uint32_t>& members) {
    const auto [it, fresh] = ids_.try_emplace(members, size());
    if (fresh) by_id_.push_back(&it->first);
    return it->second;
  }
  /// Members of head `id`. Map keys never move, so the reference stays valid.
  [[nodiscard]] const std::vector<std::uint32_t>& members(std::uint32_t id) const {
    return *by_id_[id];
  }
  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(by_id_.size()); }

 private:
  std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, VecHash> ids_;
  std::vector<const std::vector<std::uint32_t>*> by_id_;
};

std::uint32_t key_hash(std::uint32_t head, const std::vector<std::uint32_t>& residual) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ head;
  for (const std::uint32_t x : residual) {
    h ^= x;
    h *= 0x100000001b3ULL;
  }
  // FNV's low bits depend only on the inputs' low bits; mix before probing.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

/// Open-addressing map from subset key to state id; ids are dense, in
/// insertion order. Each state's key record {head, residual length,
/// residual...} sits in one word vector. A lookup hashes and compares in
/// place; only add() stores anything.
class SubsetMap {
 public:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  [[nodiscard]] std::uint32_t find(std::uint32_t hash, std::uint32_t head,
                                   const std::vector<std::uint32_t>& residual) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kAbsent) return kAbsent;
      if (slot.hash != hash) continue;
      const std::uint32_t* rec = words_.data() + slot.start;
      if (rec[0] == head && rec[1] == residual.size() &&
          std::equal(residual.begin(), residual.end(), rec + 2))
        return slot.id;
    }
  }

  /// Add a key find() reported absent; returns its id. Out of line, like
  /// SubsetStep's cold paths: see SubsetStep.
  [[gnu::noinline]] std::uint32_t add(std::uint32_t hash, std::uint32_t head,
                                      const std::vector<std::uint32_t>& residual) {
    const std::uint32_t id = size();
    const std::size_t start = words_.size();
    starts_.push_back(start);
    words_.push_back(head);
    words_.push_back(static_cast<std::uint32_t>(residual.size()));
    words_.insert(words_.end(), residual.begin(), residual.end());

    if (2 * starts_.size() > slots_.size()) grow();
    place(Slot{start, hash, id});
    return id;
  }

  [[nodiscard]] std::uint32_t size() const { return static_cast<std::uint32_t>(starts_.size()); }
  /// Key record of state `id`; valid until the next add().
  [[nodiscard]] const std::uint32_t* record(std::uint32_t id) const {
    return words_.data() + starts_[id];
  }

 private:
  struct Slot {
    std::size_t start = 0;  ///< of the key record in words_
    std::uint32_t hash = 0;
    std::uint32_t id = kAbsent;
  };

  void place(const Slot& s) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = s.hash & mask;
    while (slots_[i].id != kAbsent) i = (i + 1) & mask;
    slots_[i] = s;
  }
  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.id != kAbsent) place(s);
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);  // power of two
  std::vector<std::uint32_t> words_;
  std::vector<std::size_t> starts_;  // per state, into words_
};

/// The successor step: its caches (heads split into Σ and loose members,
/// Σ rows, extended heads) sit over the HeadTable. The cache-filling paths
/// (head_info, extended_head) and SubsetMap::add stay out of line: inlined
/// into the explorer loop, they made GCC 12 move the per-class SubsetMap
/// lookup out of line instead, and subset construction at 5k rules ran
/// ~10% slower.
class SubsetStep {
 public:
  SubsetStep(const ClassifiedNfa& cn, const StickySplit& sp, HeadTable& heads,
             std::uint16_t ncls)
      : cn_(cn), sp_(sp), heads_(heads), ncls_(ncls), buckets_(ncls) {}

  /// Key of the subset {s}.
  std::pair<std::uint32_t, std::vector<std::uint32_t>> singleton(std::uint32_t s) {
    if (sp_.in_t0[s] != 0) return {heads_.intern({s}), {}};
    return {heads_.intern({}), {s}};
  }

  /// Successors of the subset keyed by `rec`, in class order:
  /// emit(c, head, residual) returns false to stop (cap overflow). `rec` is
  /// read before the first emit, so emit may add keys to its SubsetMap.
  template <typename Emit>
  bool expand(const std::uint32_t* rec, Emit&& emit) {
    const Head& head = head_info(rec[0]);
    const Sigma& sigma = sigmas_[head.sigma];
    for (const std::uint16_t c : dirty_) buckets_[c].clear();
    dirty_.clear();
    const auto spill = [&](std::uint32_t m) {
      for (std::uint32_t e = cn_.row_offsets[m]; e < cn_.row_offsets[m + 1]; ++e) {
        const auto [c, target] = cn_.entries[e];
        if (buckets_[c].empty()) dirty_.push_back(c);
        buckets_[c].push_back(target);
      }
    };
    for (const std::uint32_t m : head.loose) spill(m);
    for (std::uint32_t i = 0; i < rec[1]; ++i) spill(rec[2 + i]);

    for (std::uint16_t c = 0; c < ncls_; ++c) {
      auto& b = buckets_[c];
      std::sort(b.begin(), b.end());
      b.erase(std::unique(b.begin(), b.end()), b.end());
      const std::uint32_t* row_first = sigma.ids.data() + sigma.offsets[c];
      const std::uint32_t* row_last = sigma.ids.data() + sigma.offsets[c + 1];
      extra_.clear();
      residual_.clear();
      for (const std::uint32_t t : b) {
        if (sp_.in_t0[t] == 0) residual_.push_back(t);
        else if (!std::binary_search(row_first, row_last, t)) extra_.push_back(t);
      }
      const std::uint32_t next_head =
          extra_.empty() ? sigma.row_head[c]
                         : extended_head(sigma.row_head[c], row_first, row_last);
      if (!emit(c, next_head, residual_)) return false;
    }
    return true;
  }

 private:
  struct Head {
    std::uint32_t sigma = UINT32_MAX;  ///< UINT32_MAX = not cached yet
    std::vector<std::uint32_t> loose;  ///< non-sticky head members
  };
  /// Per-class successors of a sticky set, as a CSR, and their head ids.
  struct Sigma {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> ids;
    std::vector<std::uint32_t> row_head;
  };

  [[gnu::noinline]] const Head& head_info(std::uint32_t id) {
    if (id >= local_heads_.size()) local_heads_.resize(id + 1);
    if (local_heads_[id].sigma != UINT32_MAX) return local_heads_[id];
    std::vector<std::uint32_t> sticky;
    Head info;
    for (const std::uint32_t m : heads_.members(id))
      (sp_.sticky[m] != 0 ? sticky : info.loose).push_back(m);
    info.sigma = sigma_of(sticky);
    local_heads_[id] = std::move(info);
    return local_heads_[id];
  }

  std::uint32_t sigma_of(const std::vector<std::uint32_t>& sticky) {
    const auto [it, fresh] =
        sigma_ids_.try_emplace(sticky, static_cast<std::uint32_t>(sigmas_.size()));
    if (!fresh) return it->second;
    std::vector<std::vector<std::uint32_t>> rows(ncls_);
    for (const std::uint32_t s : sticky)
      for (std::uint32_t e = cn_.row_offsets[s]; e < cn_.row_offsets[s + 1]; ++e)
        rows[cn_.entries[e].first].push_back(cn_.entries[e].second);
    Sigma sigma;
    sigma.offsets.push_back(0);
    for (auto& row : rows) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      sigma.ids.insert(sigma.ids.end(), row.begin(), row.end());
      sigma.offsets.push_back(static_cast<std::uint32_t>(sigma.ids.size()));
      sigma.row_head.push_back(heads_.intern(row));
    }
    sigmas_.push_back(std::move(sigma));
    return it->second;
  }

  /// Head of a Σ row plus the T0 members in extra_ that the row lacks.
  [[gnu::noinline]] std::uint32_t extended_head(std::uint32_t row_head,
                                                const std::uint32_t* row_first,
                                                const std::uint32_t* row_last) {
    extended_key_.assign(1, row_head);
    extended_key_.insert(extended_key_.end(), extra_.begin(), extra_.end());
    if (const auto it = extended_.find(extended_key_); it != extended_.end())
      return it->second;
    std::vector<std::uint32_t> merged;
    merged.reserve(static_cast<std::size_t>(row_last - row_first) + extra_.size());
    std::merge(row_first, row_last, extra_.begin(), extra_.end(), std::back_inserter(merged));
    const std::uint32_t id = heads_.intern(merged);
    extended_.emplace(extended_key_, id);
    return id;
  }

  const ClassifiedNfa& cn_;
  const StickySplit& sp_;
  HeadTable& heads_;
  std::uint16_t ncls_;
  std::vector<Head> local_heads_;
  std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, VecHash> sigma_ids_;
  std::vector<Sigma> sigmas_;
  std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, VecHash> extended_;
  // Scratch, reused across states.
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint16_t> dirty_;
  std::vector<std::uint32_t> extra_;
  std::vector<std::uint32_t> residual_;
  std::vector<std::uint32_t> extended_key_;
};

/// Output of the reachable-subset exploration: state 0 is the start
/// subset, successors numbered in discovery order walking byte classes
/// 0..ncls-1.
struct Explored {
  HeadTable heads;
  SubsetMap map;  ///< state id -> key record
  std::vector<std::uint32_t> table;  // state_count * ncls
  bool failed = false;
};

/// Breadth-first exploration. The cap is enforced exactly at insertion:
/// interning a subset that would make the count exceed max_states aborts
/// right there instead of one processed state later.
Explored explore(const nfa::Nfa& nfa, const ClassifiedNfa& cn, const StickySplit& sp,
                 std::uint16_t ncls, std::uint32_t max_states) {
  Explored out;
  SubsetStep step(cn, sp, out.heads, ncls);
  SubsetMap& map = out.map;
  auto& table = out.table;

  bool overflow = false;
  const auto intern = [&](std::uint32_t head,
                          const std::vector<std::uint32_t>& residual) -> std::uint32_t {
    const std::uint32_t hash = key_hash(head, residual);
    const std::uint32_t found = map.find(hash, head, residual);
    if (found != SubsetMap::kAbsent) return found;
    if (map.size() >= max_states) {
      overflow = true;
      return UINT32_MAX;
    }
    return map.add(hash, head, residual);
  };

  const auto [start_head, start_residual] = step.singleton(nfa.start());
  intern(start_head, start_residual);
  if (overflow) {  // max_states == 0
    out.failed = true;
    return out;
  }

  // Classes with no outgoing transition go to the dead subset {}; an NFA
  // with unanchored dot-star prefixes keeps its sticky prefix loop, so the
  // empty subset only appears for fully-anchored pattern sets, where it
  // acts as a plain sink state.
  for (std::uint32_t ds = 0; ds < map.size() && !overflow; ++ds) {
    table.resize(static_cast<std::size_t>(ds + 1) * ncls, UINT32_MAX);
    step.expand(map.record(ds), [&](std::uint16_t c, std::uint32_t head,
                                    const std::vector<std::uint32_t>& residual) {
      const std::uint32_t id = intern(head, residual);
      if (overflow) return false;
      table[static_cast<std::size_t>(ds) * ncls + c] = id;
      return true;
    });
  }

  out.failed = overflow;
  return out;
}

/// Accept id set of every explored state: the head's ids (computed once per
/// head) merged with the residual members' ids, sorted and unique.
std::vector<std::vector<std::uint32_t>> accept_sets_of(const nfa::Nfa& nfa,
                                                       const Explored& explored) {
  const HeadTable& heads = explored.heads;
  std::vector<std::vector<std::uint32_t>> head_ids(heads.size());
  std::vector<std::uint8_t> head_done(heads.size(), 0);
  std::vector<std::vector<std::uint32_t>> out(explored.map.size());
  for (std::uint32_t ds = 0; ds < explored.map.size(); ++ds) {
    const std::uint32_t* rec = explored.map.record(ds);
    auto& hid = head_ids[rec[0]];
    if (head_done[rec[0]] == 0) {
      head_done[rec[0]] = 1;
      for (const std::uint32_t m : heads.members(rec[0])) {
        const auto& ids = nfa.accepts(m);
        hid.insert(hid.end(), ids.begin(), ids.end());
      }
      std::sort(hid.begin(), hid.end());
      hid.erase(std::unique(hid.begin(), hid.end()), hid.end());
    }
    std::vector<std::uint32_t>& ids = out[ds];
    ids = hid;
    for (std::uint32_t i = 0; i < rec[1]; ++i) {
      const auto& more = nfa.accepts(rec[2 + i]);
      ids.insert(ids.end(), more.begin(), more.end());
    }
    if (rec[1] != 0) {
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
  }
  return out;
}

}  // namespace

std::optional<Dfa> build_dfa(const nfa::Nfa& nfa, const BuildOptions& options,
                             BuildStats* stats) {
  util::WallTimer timer;
  BuildStats local_stats;
  BuildStats& st = stats != nullptr ? *stats : local_stats;

  const auto [byte_to_col, ncls] = compute_byte_classes(nfa);
  const ClassifiedNfa cn = classify(nfa, byte_to_col, ncls);
  const StickySplit sp = find_sticky(cn, ncls);

  // The premultiplied table must stay below util::kMaxRowOffsets entries;
  // capping the explorer keeps a build past it a clean, early failure.
  const auto max_states = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      options.max_states, (util::kMaxRowOffsets - 1) / ncls));
  Explored explored = explore(nfa, cn, sp, ncls, max_states);
  const std::uint32_t n = explored.map.size();
  if (explored.failed) {
    st.failed = true;
    st.seconds = timer.seconds();
    st.states = n;
    return std::nullopt;
  }
  std::vector<std::vector<std::uint32_t>> accept_sets = accept_sets_of(nfa, explored);
  std::vector<std::uint32_t>& table = explored.table;

  st.states = n;
  st.minimized = n;

  // Optional minimization.
  std::vector<std::uint32_t> state_map(n);
  std::uint32_t final_n = n;
  std::vector<std::uint32_t> min_table;
  std::vector<std::vector<std::uint32_t>> min_accepts;
  if (options.minimize) {
    const util::WallTimer minimize_timer;
    auto [block, block_count] = minimize_partition(table, ncls, accept_sets);
    final_n = block_count;
    min_table.assign(static_cast<std::size_t>(final_n) * ncls, 0);
    min_accepts.resize(final_n);
    std::vector<bool> done(final_n, false);
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::uint32_t b = block[s];
      if (!done[b]) {
        done[b] = true;
        for (std::uint16_t c = 0; c < ncls; ++c)
          min_table[static_cast<std::size_t>(b) * ncls + c] = block[table[s * ncls + c]];
        min_accepts[b] = accept_sets[s];
      }
    }
    state_map = std::move(block);
    st.minimized = final_n;
    st.minimize_seconds = minimize_timer.seconds();
  } else {
    for (std::uint32_t s = 0; s < n; ++s) state_map[s] = s;
    min_table = std::move(table);
    min_accepts = std::move(accept_sets);
  }

  // Remap so accepting states occupy [0, accept_count): the scanner's
  // accept test becomes a single compare.
  std::vector<std::uint32_t> remap(final_n);
  std::uint32_t next_accepting = 0;
  std::uint32_t accept_count = 0;
  for (std::uint32_t s = 0; s < final_n; ++s)
    if (!min_accepts[s].empty()) ++accept_count;
  std::uint32_t next_plain = accept_count;
  for (std::uint32_t s = 0; s < final_n; ++s)
    remap[s] = min_accepts[s].empty() ? next_plain++ : next_accepting++;

  Dfa dfa;
  dfa.state_count_ = final_n;
  dfa.accept_states_ = accept_count;
  dfa.max_match_id_ = nfa.max_match_id();
  dfa.rows_ = util::RowStride(ncls);
  dfa.byte_to_col_ = byte_to_col;
  dfa.start_ = remap[state_map[0]];
  dfa.table_.assign(static_cast<std::size_t>(final_n) * ncls, 0);
  for (std::uint32_t s = 0; s < final_n; ++s) {
    for (std::uint16_t c = 0; c < ncls; ++c)
      dfa.table_[static_cast<std::size_t>(remap[s]) * ncls + c] =
          dfa.row_offset(remap[min_table[static_cast<std::size_t>(s) * ncls + c]]);
  }
  dfa.accept_offsets_.assign(accept_count + 1, 0);
  for (std::uint32_t s = 0; s < final_n; ++s) {
    if (!min_accepts[s].empty())
      dfa.accept_offsets_[remap[s] + 1] = static_cast<std::uint32_t>(min_accepts[s].size());
  }
  for (std::uint32_t i = 1; i <= accept_count; ++i)
    dfa.accept_offsets_[i] += dfa.accept_offsets_[i - 1];
  dfa.accept_ids_.resize(dfa.accept_offsets_[accept_count]);
  for (std::uint32_t s = 0; s < final_n; ++s) {
    if (min_accepts[s].empty()) continue;
    std::copy(min_accepts[s].begin(), min_accepts[s].end(),
              dfa.accept_ids_.begin() + dfa.accept_offsets_[remap[s]]);
  }

  st.seconds = timer.seconds();
  return dfa;
}

std::size_t Dfa::memory_image_bytes(bool full_alphabet) const {
  const std::size_t cols = full_alphabet ? 256 : column_count();
  std::size_t bytes = static_cast<std::size_t>(state_count_) * cols * sizeof(std::uint32_t);
  if (!full_alphabet) bytes += 256;  // byte -> column map
  bytes += accept_offsets_.size() * sizeof(std::uint32_t);
  bytes += accept_ids_.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace mfa::dfa

namespace mfa::dfa {

void Dfa::serialize(util::BinWriter& w) const {
  w.u32(state_count_);
  w.u32(start_);
  w.u32(accept_states_);
  w.u32(max_match_id_);
  w.u16(column_count());
  w.bytes(byte_to_col_.data(), byte_to_col_.size());
  // The image stores raw ids; row offsets are an in-memory scan form.
  std::vector<std::uint32_t> raw(table_.size());
  for (std::size_t i = 0; i < table_.size(); ++i) raw[i] = state_of(table_[i]);
  w.pod_vec(raw);
  w.pod_vec(accept_offsets_);
  w.pod_vec(accept_ids_);
}

bool Dfa::deserialize(util::BinReader& r, Dfa& out, bool allow_empty_table) {
  out.state_count_ = r.u32();
  out.start_ = r.u32();
  out.accept_states_ = r.u32();
  out.max_match_id_ = r.u32();
  const std::uint16_t ncols = r.u16();
  r.bytes(out.byte_to_col_.data(), out.byte_to_col_.size());
  // Geometry first, so an oversized table is rejected before allocation.
  if (!r.ok() || ncols == 0 || ncols > 256 || !util::RowStride::fits(out.state_count_, ncols))
    return false;
  out.rows_ = util::RowStride(ncols);
  out.table_ = r.pod_vec<std::uint32_t>();
  out.accept_offsets_ = r.pod_vec<std::uint32_t>();
  out.accept_ids_ = r.pod_vec<std::uint32_t>();
  if (!r.ok()) return false;

  // Structural validation: a corrupt file must fail here, not crash later
  // in the scanning hot loop.
  if (out.state_count_ == 0 || out.start_ >= out.state_count_) return false;
  if (out.accept_states_ > out.state_count_) return false;
  const bool headless = allow_empty_table && out.table_.empty();
  if (!headless && out.table_.size() !=
                       static_cast<std::size_t>(out.state_count_) * ncols)
    return false;
  for (const std::uint8_t col : out.byte_to_col_)
    if (col >= ncols) return false;
  for (const std::uint32_t target : out.table_)
    if (target >= out.state_count_) return false;
  if (out.accept_offsets_.size() != out.accept_states_ + 1u) return false;
  if (!out.accept_offsets_.empty() && out.accept_offsets_.front() != 0) return false;
  for (std::size_t i = 1; i < out.accept_offsets_.size(); ++i) {
    if (out.accept_offsets_[i] < out.accept_offsets_[i - 1]) return false;
  }
  if (!out.accept_offsets_.empty() && out.accept_offsets_.back() != out.accept_ids_.size())
    return false;
  for (const std::uint32_t id : out.accept_ids_)
    if (id > out.max_match_id_) return false;
  for (std::uint32_t s = 0; s < out.accept_states_; ++s)
    if (out.accept_offsets_[s] == out.accept_offsets_[s + 1]) return false;
  if (!accept_ids_unique(out.accept_offsets_, out.accept_ids_)) return false;
  for (std::uint32_t& t : out.table_) t = out.row_offset(t);
  return true;
}

void Dfa::renumber_accepting(const std::vector<std::uint32_t>& new_id) {
  assert(new_id.size() == accept_states_);
  const auto rename = [&](std::uint32_t s) { return s < accept_states_ ? new_id[s] : s; };
  if (!table_.empty()) {
    const std::size_t row = column_count();
    const std::vector<std::uint32_t> rows(table_.begin(), table_.begin() + accept_states_ * row);
    for (std::uint32_t s = 0; s < accept_states_; ++s)
      std::copy(rows.begin() + s * row, rows.begin() + (s + 1) * row,
                table_.begin() + new_id[s] * row);
    for (std::uint32_t& t : table_) t = row_offset(rename(state_of(t)));
  }
  permute_accept_lists(accept_offsets_, accept_ids_, new_id);
  start_ = rename(start_);
}

void permute_accept_lists(std::vector<std::uint32_t>& offsets,
                          std::vector<std::uint32_t>& ids,
                          const std::vector<std::uint32_t>& new_id) {
  const auto n = static_cast<std::uint32_t>(new_id.size());
  std::vector<std::uint32_t> old_id(n);
  for (std::uint32_t s = 0; s < n; ++s) old_id[new_id[s]] = s;
  std::vector<std::uint32_t> out_offsets(n + 1, 0);
  std::vector<std::uint32_t> out_ids;
  out_ids.reserve(ids.size());
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t s = old_id[t];
    out_ids.insert(out_ids.end(), ids.begin() + offsets[s], ids.begin() + offsets[s + 1]);
    out_offsets[t + 1] = static_cast<std::uint32_t>(out_ids.size());
  }
  offsets = std::move(out_offsets);
  ids = std::move(out_ids);
}

bool accept_ids_unique(const std::vector<std::uint32_t>& offsets,
                       const std::vector<std::uint32_t>& ids) {
  std::vector<std::uint32_t> list;
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    list.assign(ids.begin() + offsets[s], ids.begin() + offsets[s + 1]);
    std::sort(list.begin(), list.end());
    if (std::adjacent_find(list.begin(), list.end()) != list.end()) return false;
  }
  return true;
}

}  // namespace mfa::dfa
