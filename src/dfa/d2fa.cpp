#include "dfa/d2fa.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "util/timing.h"

namespace mfa::dfa {

namespace {

/// Delta width code for a zigzagged delta: 0 -> 1 byte, 1 -> 2, 2 -> 4.
std::uint8_t width_code(std::uint32_t z) {
  if (z <= 0xffu) return 0;
  if (z <= 0xffffu) return 1;
  return 2;
}

void store_le(std::vector<std::uint8_t>& out, std::uint32_t v, std::uint32_t w) {
  out.push_back(static_cast<std::uint8_t>(v));
  if (w >= 2) out.push_back(static_cast<std::uint8_t>(v >> 8));
  if (w == 4) {
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
  }
}

}  // namespace

D2fa::D2fa(const Dfa& dfa, const D2faOptions& options, D2faStats* stats) {
  util::WallTimer timer;
  D2faStats local_stats;
  D2faStats& st = stats != nullptr ? *stats : local_stats;

  // Rows are compared on the Dfa's premultiplied targets (equal exactly
  // when the raw ids are); raw ids go through dfa.state_of().
  const std::uint32_t n = dfa.state_count();
  const std::uint16_t ncols = dfa.column_count();
  const std::uint32_t* table = dfa.table_data();

  state_count_ = n;
  start_ = dfa.start();
  accept_states_ = dfa.accepting_state_count();
  max_match_id_ = dfa.max_match_id();
  rows_ = util::RowStride(ncols);
  std::memcpy(byte_to_col_.data(), dfa.byte_columns(), 256);
  accept_offsets_.assign(accept_states_ + 1, 0);
  for (std::uint32_t s = 0; s < accept_states_; ++s) {
    const auto [first, last] = dfa.accepts(s);
    accept_offsets_[s + 1] =
        accept_offsets_[s] + static_cast<std::uint32_t>(last - first);
    accept_ids_.insert(accept_ids_.end(), first, last);
  }

  // BFS depth from the start state. Processing states shallow-first makes
  // every state's likely parents (the "restart-ish" targets its row points
  // back to) available as already-resolved candidates, so chain lengths
  // are known exactly when the parent is chosen — the diameter bound needs
  // no later fixup pass.
  std::vector<std::uint32_t> depth(n, UINT32_MAX);
  {
    std::deque<std::uint32_t> queue;
    depth[start_] = 0;
    queue.push_back(start_);
    while (!queue.empty()) {
      const std::uint32_t s = queue.front();
      queue.pop_front();
      for (std::uint16_t c = 0; c < ncols; ++c) {
        const std::uint32_t t = dfa.target(s, c);
        if (depth[t] == UINT32_MAX) {
          depth[t] = depth[s] + 1;
          queue.push_back(t);
        }
      }
    }
  }
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t s = 0; s < n; ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return depth[a] < depth[b];
  });

  // Choose each state's default parent: among the most frequent targets in
  // its own row (plus the start state), pick the already-processed state
  // with the highest row similarity whose chain is still under the bound.
  constexpr std::uint32_t kNoParent = UINT32_MAX;
  std::vector<std::uint32_t> parent(n, kNoParent);
  std::vector<std::uint32_t> chain(n, 0);
  std::vector<char> processed(n, 0);
  std::vector<std::uint32_t> row_copy;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> freq;  // (count, target)
  for (const std::uint32_t s : order) {
    // Hot-neighborhood states stay dense (see D2faOptions::root_depth);
    // leaving parent unset makes the emit loop below write a root row.
    if (depth[s] < options.root_depth) {
      processed[s] = 1;
      continue;
    }
    const std::uint32_t* row = table + static_cast<std::size_t>(s) * ncols;
    row_copy.assign(row, row + ncols);
    std::sort(row_copy.begin(), row_copy.end());
    freq.clear();
    for (std::size_t i = 0; i < row_copy.size();) {
      std::size_t j = i;
      while (j < row_copy.size() && row_copy[j] == row_copy[i]) ++j;
      freq.emplace_back(static_cast<std::uint32_t>(j - i), dfa.state_of(row_copy[i]));
      i = j;
    }
    // Count desc, id asc: deterministic candidate order.
    std::sort(freq.begin(), freq.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first : a.second < b.second;
              });
    if (freq.size() > options.candidates) freq.resize(options.candidates);
    bool start_listed = false;
    for (const auto& [count, cand] : freq) start_listed |= cand == start_;
    if (!start_listed) freq.emplace_back(0, start_);

    std::uint32_t best = kNoParent;
    std::uint32_t best_weight = 0;
    for (const auto& [count, cand] : freq) {
      if (cand == s || processed[cand] == 0) continue;
      if (chain[cand] >= options.max_chain) continue;
      std::uint32_t weight = 0;
      const std::uint32_t* crow = table + static_cast<std::size_t>(cand) * ncols;
      for (std::uint16_t c = 0; c < ncols; ++c) weight += row[c] == crow[c];
      if (weight > best_weight || (weight == best_weight && cand < best)) {
        best = cand;
        best_weight = weight;
      }
    }
    // A weak default is worse than a dense row: keep the row when the
    // exception count would exceed the threshold fraction of columns.
    const std::uint32_t exceptions = ncols - best_weight;
    if (best != kNoParent &&
        exceptions * 100 <= static_cast<std::uint64_t>(options.dense_threshold_pct) * ncols) {
      parent[s] = best;
      chain[s] = chain[best] + 1;
    }
    processed[s] = 1;
  }

  // Emit storage in state-id order (so artifacts are independent of the
  // BFS processing order).
  defaults_.resize(n);
  row_offsets_.assign(n + 1, 0);
  std::uint64_t chain_sum = 0;
  std::vector<Exception> exceptions;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t* row = table + static_cast<std::size_t>(s) * ncols;
    if (parent[s] == kNoParent) {
      defaults_[s] = kRootFlag | static_cast<std::uint32_t>(dense_rows_.size());
      for (std::uint16_t c = 0; c < ncols; ++c) dense_rows_.push_back(dfa.state_of(row[c]));
      root_raw_.push_back(s);
      ++st.roots;
    } else {
      const std::uint32_t p = parent[s];
      defaults_[s] = p;
      const std::uint32_t* prow = table + static_cast<std::size_t>(p) * ncols;
      exceptions.clear();
      for (std::uint16_t c = 0; c < ncols; ++c)
        if (row[c] != prow[c])
          exceptions.emplace_back(static_cast<std::uint8_t>(c), dfa.state_of(row[c]));
      encode_row(exc_, p, exceptions);
      exception_entries_ += exceptions.size();
      max_chain_ = std::max(max_chain_, chain[s]);
      chain_sum += chain[s];
    }
    row_offsets_[s + 1] = static_cast<std::uint32_t>(exc_.size());
  }

  // Tag the dense-row targets in place (kTagNonRoot/kTagAccept; see d2fa.h).
  // Must run after the emit loop: tag_state reads the target's defaults_
  // entry, which is only final once every state has been emitted.
  for (std::uint32_t& t : dense_rows_) t = tag_state(t);

  st.max_chain = max_chain_;
  st.avg_chain = n > 0 ? static_cast<double>(chain_sum) / n : 0.0;
  st.exception_entries = exception_entries_;
  st.seconds = timer.seconds();
}

void D2fa::encode_row(std::vector<std::uint8_t>& out, std::uint32_t parent,
                      const std::vector<Exception>& row) {
  if (row.empty()) return;
  std::uint8_t code = 0;
  for (const auto& [col, target] : row)
    code = std::max(code, width_code(zigzag(static_cast<std::int32_t>(target - parent))));
  out.push_back(code);
  const std::uint32_t w = 1u << code;
  for (const auto& [col, target] : row) {
    out.push_back(col);
    store_le(out, zigzag(static_cast<std::int32_t>(target - parent)), w);
  }
}

void D2fa::renumber_accepting(const std::vector<std::uint32_t>& new_id) {
  const std::uint32_t n = state_count_;
  const auto rename = [&](std::uint32_t s) { return s < accept_states_ ? new_id[s] : s; };
  // Root rows back to raw ids (read through the old root_raw_), renamed;
  // they are tagged again once defaults_ is final.
  for (std::uint32_t& t : dense_rows_) t = rename(untag(t));
  for (std::uint32_t& s : root_raw_) s = rename(s);
  std::vector<std::uint32_t> old_id(n);
  for (std::uint32_t s = 0; s < n; ++s) old_id[rename(s)] = s;

  // Defaults and exception rows in the new state order, each row decoded
  // against its old parent and re-encoded against the renamed one.
  std::vector<std::uint32_t> defaults(n);
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<std::uint8_t> exc;
  exc.reserve(exc_.size());
  std::vector<Exception> row;
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t s = old_id[t];
    const std::uint32_t d = defaults_[s];
    defaults[t] = (d & kRootFlag) != 0 ? d : rename(d);
    row.clear();
    const std::uint32_t lo = row_offsets_[s];
    const std::uint32_t hi = row_offsets_[s + 1];
    if (lo < hi) {
      const std::uint32_t w = 1u << exc_[lo];
      for (std::uint32_t p = lo + 1; p < hi; p += 1 + w)
        row.emplace_back(exc_[p], rename(d + unzigzag(load_le(&exc_[p + 1], w))));
    }
    encode_row(exc, defaults[t], row);
    offsets[t + 1] = static_cast<std::uint32_t>(exc.size());
  }
  defaults_ = std::move(defaults);
  row_offsets_ = std::move(offsets);
  exc_ = std::move(exc);
  for (std::uint32_t& t : dense_rows_) t = tag_state(t);
  permute_accept_lists(accept_offsets_, accept_ids_, new_id);
  start_ = rename(start_);
}

std::vector<std::uint32_t> D2fa::expand_table() const {
  const std::uint32_t n = state_count_;
  const std::uint16_t ncols = column_count();
  std::vector<std::uint32_t> out(static_cast<std::size_t>(n) * ncols);
  // Expand in chain-length order so a parent's row is always materialized
  // before its children copy it.
  std::vector<std::uint32_t> chain(n, 0);
  for (std::uint32_t s = 0; s < n; ++s) {
    std::uint32_t len = 0;
    std::uint32_t cur = s;
    while ((defaults_[cur] & kRootFlag) == 0) {
      cur = defaults_[cur];
      ++len;
    }
    chain[s] = len;
  }
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t s = 0; s < n; ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return chain[a] < chain[b];
  });
  for (const std::uint32_t s : order) {
    std::uint32_t* row = out.data() + static_cast<std::size_t>(s) * ncols;
    const std::uint32_t d = defaults_[s];
    if ((d & kRootFlag) != 0) {
      const std::uint32_t* src = dense_rows_.data() + (d & ~kRootFlag);
      for (std::uint16_t c = 0; c < ncols; ++c) row[c] = untag(src[c]);
      continue;
    }
    const std::uint32_t* prow = out.data() + static_cast<std::size_t>(d) * ncols;
    std::copy(prow, prow + ncols, row);
    const std::uint32_t lo = row_offsets_[s];
    const std::uint32_t hi = row_offsets_[s + 1];
    if (lo < hi) {
      const std::uint32_t w = 1u << exc_[lo];
      for (std::uint32_t p = lo + 1; p < hi; p += 1 + w)
        row[exc_[p]] = d + unzigzag(load_le(&exc_[p + 1], w));
    }
  }
  return out;
}

void D2fa::serialize(util::BinWriter& w) const {
  w.u32(state_count_);
  w.u32(start_);
  w.u32(accept_states_);
  w.u32(max_match_id_);
  w.u16(column_count());
  w.u32(max_chain_);
  w.u64(exception_entries_);
  w.bytes(byte_to_col_.data(), byte_to_col_.size());
  // The artifact stores root row indices and raw state ids; the in-memory
  // row offsets, tag bits (and the root_raw_ map they need) are a
  // load-time scan optimization, not format.
  std::vector<std::uint32_t> defaults = defaults_;
  for (std::uint32_t& d : defaults)
    if ((d & kRootFlag) != 0) d = kRootFlag | rows_.id(d & ~kRootFlag);
  w.pod_vec(defaults);
  w.pod_vec(row_offsets_);
  w.pod_vec(exc_);
  std::vector<std::uint32_t> raw_rows(dense_rows_.size());
  for (std::size_t i = 0; i < dense_rows_.size(); ++i)
    raw_rows[i] = untag(dense_rows_[i]);
  w.pod_vec(raw_rows);
  w.pod_vec(accept_offsets_);
  w.pod_vec(accept_ids_);
}

bool D2fa::deserialize(util::BinReader& r, D2fa& out) {
  out.state_count_ = r.u32();
  out.start_ = r.u32();
  out.accept_states_ = r.u32();
  out.max_match_id_ = r.u32();
  const std::uint16_t ncols = r.u16();
  out.max_chain_ = r.u32();
  out.exception_entries_ = r.u64();
  r.bytes(out.byte_to_col_.data(), out.byte_to_col_.size());
  // Geometry first: the premultiplied cap (which also keeps tagged ids
  // within their 30 bits) is checked before any table is allocated.
  if (!r.ok() || ncols == 0 || ncols > 256 || !util::RowStride::fits(out.state_count_, ncols))
    return false;
  out.rows_ = util::RowStride(ncols);
  out.defaults_ = r.pod_vec<std::uint32_t>();
  out.row_offsets_ = r.pod_vec<std::uint32_t>();
  out.exc_ = r.pod_vec<std::uint8_t>();
  out.dense_rows_ = r.pod_vec<std::uint32_t>();
  out.accept_offsets_ = r.pod_vec<std::uint32_t>();
  out.accept_ids_ = r.pod_vec<std::uint32_t>();
  if (!r.ok()) return false;

  // Structural validation: a corrupt delta table must fail here, never in
  // the bounded-chain scan loop.
  const std::uint32_t n = out.state_count_;
  if (n == 0 || out.start_ >= n) return false;
  if (out.accept_states_ > n) return false;
  if (out.max_chain_ > 255) return false;
  for (const std::uint8_t col : out.byte_to_col_)
    if (col >= ncols) return false;
  if (out.defaults_.size() != n) return false;
  if (out.row_offsets_.size() != n + 1u) return false;
  if (out.row_offsets_.front() != 0 || out.row_offsets_.back() != out.exc_.size())
    return false;
  if (out.dense_rows_.size() % ncols != 0) return false;
  const auto roots = static_cast<std::uint32_t>(out.dense_rows_.size() / ncols);
  for (const std::uint32_t t : out.dense_rows_)
    if (t >= n) return false;

  std::uint64_t entries = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t lo = out.row_offsets_[s];
    const std::uint32_t hi = out.row_offsets_[s + 1];
    if (hi < lo || hi > out.exc_.size()) return false;
    const std::uint32_t d = out.defaults_[s];
    if ((d & kRootFlag) != 0) {
      // Roots carry their whole row densely; an exception row would be
      // unreachable dead weight, so reject it as corruption.
      if ((d & ~kRootFlag) >= roots || lo != hi) return false;
      continue;
    }
    if (d >= n) return false;
    if (lo == hi) continue;
    const std::uint8_t code = out.exc_[lo];
    if (code > 2) return false;
    const std::uint32_t w = 1u << code;
    if ((hi - lo - 1) % (1 + w) != 0) return false;
    std::int32_t prev_col = -1;
    for (std::uint32_t p = lo + 1; p < hi; p += 1 + w) {
      const std::uint8_t col = out.exc_[p];
      if (col >= ncols || static_cast<std::int32_t>(col) <= prev_col)
        return false;
      prev_col = col;
      if (d + unzigzag(load_le(&out.exc_[p + 1], w)) >= n) return false;
      ++entries;
    }
  }
  if (entries != out.exception_entries_) return false;

  // Every default chain must terminate at a root within the recorded
  // bound; memoized walk so the whole check is O(n).
  std::vector<std::uint32_t> chain(n, UINT32_MAX);
  std::vector<std::uint32_t> path;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (chain[s] != UINT32_MAX) continue;
    path.clear();
    std::uint32_t cur = s;
    while (chain[cur] == UINT32_MAX && (out.defaults_[cur] & kRootFlag) == 0) {
      if (path.size() > out.max_chain_) return false;  // too long or cyclic
      path.push_back(cur);
      chain[cur] = 0;  // on-path marker; real value assigned below
      cur = out.defaults_[cur];
      if (std::find(path.begin(), path.end(), cur) != path.end()) return false;
    }
    std::uint32_t base = (out.defaults_[cur] & kRootFlag) != 0 ? 0 : chain[cur];
    for (auto it = path.rbegin(); it != path.rend(); ++it) chain[*it] = ++base;
    if (base > out.max_chain_) return false;
  }

  if (out.accept_offsets_.size() != out.accept_states_ + 1u) return false;
  if (out.accept_offsets_.front() != 0 ||
      out.accept_offsets_.back() != out.accept_ids_.size())
    return false;
  for (std::size_t i = 1; i < out.accept_offsets_.size(); ++i)
    if (out.accept_offsets_[i] < out.accept_offsets_[i - 1]) return false;
  for (const std::uint32_t id : out.accept_ids_)
    if (id > out.max_match_id_) return false;
  for (std::uint32_t s = 0; s < out.accept_states_; ++s)
    if (out.accept_offsets_[s] == out.accept_offsets_[s + 1]) return false;
  if (!accept_ids_unique(out.accept_offsets_, out.accept_ids_)) return false;

  // Rebuild the in-memory scan form: the root row -> raw id map (each row
  // must be claimed by exactly one state — untag() depends on it), root
  // defaults as row offsets, then tag the raw dense-row targets (see
  // d2fa.h).
  out.root_raw_.assign(roots, UINT32_MAX);
  for (std::uint32_t s = 0; s < n; ++s) {
    std::uint32_t& d = out.defaults_[s];
    if ((d & kRootFlag) == 0) continue;
    if (out.root_raw_[d & ~kRootFlag] != UINT32_MAX) return false;
    out.root_raw_[d & ~kRootFlag] = s;
    d = kRootFlag | out.rows_.offset(d & ~kRootFlag);
  }
  for (const std::uint32_t s : out.root_raw_)
    if (s == UINT32_MAX) return false;
  for (std::uint32_t& t : out.dense_rows_) t = out.tag_state(t);
  return true;
}

}  // namespace mfa::dfa
