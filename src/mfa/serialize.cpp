// Compiled-automaton persistence ("MFAC" format).
//
// A compiled MFA is exactly the artifact a deployment wants to ship to
// sensors: construction (Sec. IV) happens once on a build host; sensors
// mmap/load the table+program and start scanning. The format stores the
// character DFA, the filter program and the decomposed piece sources (for
// operator display).
//
// v4 layout, written for dense and delta automata alike (little-endian;
// pod_vec = u64 count + raw elements):
//
//   "MFAC"  u32 version = 4
//   u8 icase  u8 dotall  i32 max_counted_repeat  i32 max_nesting_depth
//   u8 table kind (0 dense, 1 delta)
//   Dfa section (headless — zero-length transition table — when delta)
//   D2fa section (delta only)
//   pod_vec<ActionRecord>  u32 memory_bits  u32 counters  u32 position_slots
//   u64 piece count, then per piece: u32 length + regex source
//   u64 FNV-1a digest of every byte above
//
// The table sections' accept lists are stored in filter order and their
// accepting states loud first, but load() derives both again and never
// trusts the file for either; the clear fold and the prefilter are derived
// data and are not stored.
//
// Older versions still load. v1 has no parse options, table kind or
// digest; v2 adds the parse options and the digest; v3 adds the table-kind
// byte and was written only for delta automata. v1-v3 also carried a
// re-sorted second copy of the accept lists (offsets, then ids) after the
// program geometry, which load() reads and discards.
//
// Every version stores an action as an 11 x int32 ActionRecord, which
// keeps three fields of a retired counter extension. save() writes them,
// and `counters`, empty; load() refuses any artifact that declares a
// counter or sets one of those fields.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>

#include "mfa/mfa.h"
#include "regex/parser.h"
#include "util/binio.h"

namespace mfa::core {

namespace {
constexpr char kMagic[4] = {'M', 'F', 'A', 'C'};
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;
constexpr std::uint32_t kVersionV3 = 3;
constexpr std::uint32_t kVersion = 4;
constexpr std::uint8_t kTableDense = 0;
constexpr std::uint8_t kTableDelta = 1;

/// One filter action as the file stores it, independent of filter::Action's
/// in-memory layout.
struct ActionRecord {
  std::int32_t test;
  std::int32_t set;
  std::int32_t clear;
  std::int32_t report;
  std::int32_t counter_test;       ///< retired: always kNone
  std::int32_t counter_threshold;  ///< retired: always 0
  std::int32_t counter_incr;       ///< retired: always kNone
  std::int32_t set_slot;
  std::int32_t test_slot;
  std::int32_t min_gap;
  std::int32_t order;
};
static_assert(sizeof(ActionRecord) == 44 && std::is_trivially_copyable_v<ActionRecord>,
              "the MFAC action record is 11 little-endian int32s");

ActionRecord to_record(const filter::Action& a) {
  return {a.test,        a.set,      a.clear,       a.report,
          filter::kNone, 0,          filter::kNone,
          a.set_slot,    a.test_slot, a.min_gap,    a.order};
}

/// The action `r` stores, or nullopt when it uses a retired counter field.
std::optional<filter::Action> from_record(const ActionRecord& r) {
  if (r.counter_test != filter::kNone || r.counter_threshold != 0 ||
      r.counter_incr != filter::kNone)
    return std::nullopt;
  return filter::Action{.test = r.test,
                        .set = r.set,
                        .clear = r.clear,
                        .report = r.report,
                        .set_slot = r.set_slot,
                        .test_slot = r.test_slot,
                        .min_gap = r.min_gap,
                        .order = r.order};
}
}  // namespace

bool Mfa::save(const std::string& path) const {
  // Write to a sibling temp file and rename into place so a crash mid-save
  // (or a hot-reload load() racing a push) never observes a torn artifact;
  // rename() within a directory is atomic on POSIX.
  const std::string tmp = path + ".tmp";
  std::FILE* raw = std::fopen(tmp.c_str(), "wb");
  if (raw == nullptr) return false;
  util::BinWriter w(raw);
  w.bytes(kMagic, 4);
  w.u32(kVersion);
  // Parse dialect the piece sources round-trip under.
  w.u8(parse_options_.icase ? 1 : 0);
  w.u8(parse_options_.dotall ? 1 : 0);
  w.i32(parse_options_.max_counted_repeat);
  w.i32(parse_options_.max_nesting_depth);
  w.u8(delta_ ? kTableDelta : kTableDense);
  dfa_.serialize(w);  // headless in delta mode (table dropped at build)
  if (delta_) delta_->serialize(w);
  // Filter program: one ActionRecord per action, then the geometry with no
  // counters.
  std::vector<ActionRecord> records;
  records.reserve(program_.actions.size());
  for (const auto& action : program_.actions) records.push_back(to_record(action));
  w.pod_vec(records);
  w.u32(program_.memory_bits);
  w.u32(0);
  w.u32(program_.position_slots);
  // Piece regex sources; engine ids are their indices.
  w.u64(pieces_.size());
  for (const auto& piece : pieces_) w.str(piece.regex.source);
  // Trailing checksum over everything above (snapshot before writing it).
  w.u64(w.digest());
  bool ok = w.ok();
  if (std::fclose(raw) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

std::optional<Mfa> Mfa::load(const std::string& path) {
  util::FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return std::nullopt;
  util::BinReader r(f.get());
  char magic[4];
  r.bytes(magic, 4);
  if (!r.ok() || std::memcmp(magic, kMagic, 4) != 0) return std::nullopt;
  const std::uint32_t version = r.u32();
  if (version < kVersionV1 || version > kVersion) return std::nullopt;

  Mfa mfa;
  if (version >= kVersionV2) {
    mfa.parse_options_.icase = r.u8() != 0;
    mfa.parse_options_.dotall = r.u8() != 0;
    mfa.parse_options_.max_counted_repeat = r.i32();
    mfa.parse_options_.max_nesting_depth = r.i32();
    if (!r.ok() || mfa.parse_options_.max_counted_repeat < 0 ||
        mfa.parse_options_.max_nesting_depth < 0)
      return std::nullopt;
  }
  std::uint8_t table_kind = kTableDense;
  if (version >= kVersionV3) {
    table_kind = r.u8();
    if (!r.ok() || (table_kind != kTableDense && table_kind != kTableDelta))
      return std::nullopt;
  }
  const bool delta = table_kind == kTableDelta;
  if (!dfa::Dfa::deserialize(r, mfa.dfa_, /*allow_empty_table=*/delta))
    return std::nullopt;
  if (delta) {
    // The dense table must actually be absent in a delta artifact — a
    // file carrying both would leave the two free to disagree.
    if (mfa.dfa_.has_table()) return std::nullopt;
    dfa::D2fa loaded;
    if (!dfa::D2fa::deserialize(r, loaded)) return std::nullopt;
    // The delta table must describe the same automaton as the headless
    // DFA metadata it travels with.
    if (loaded.state_count() != mfa.dfa_.state_count() ||
        loaded.start() != mfa.dfa_.start() ||
        loaded.column_count() != mfa.dfa_.column_count() ||
        loaded.accepting_state_count() != mfa.dfa_.accepting_state_count() ||
        loaded.max_match_id() != mfa.dfa_.max_match_id())
      return std::nullopt;
    mfa.delta_ = std::move(loaded);
  }
  const std::vector<ActionRecord> records = r.pod_vec<ActionRecord>();
  mfa.program_.memory_bits = r.u32();
  const std::uint32_t counters = r.u32();
  mfa.program_.position_slots = r.u32();
  if (!r.ok() || counters != 0) return std::nullopt;
  mfa.program_.actions.reserve(records.size());
  for (const ActionRecord& record : records) {
    const std::optional<filter::Action> action = from_record(record);
    if (!action) return std::nullopt;
    mfa.program_.actions.push_back(*action);
  }
  if (version < kVersion) {
    // The pre-v4 re-sorted accept-list copy: read so the digest covers it,
    // then dropped — filter order is derived below.
    (void)r.pod_vec<std::uint32_t>();
    (void)r.pod_vec<std::uint32_t>();
  }
  const std::uint64_t piece_count = r.u64();
  if (!r.ok() || piece_count > (1u << 24)) return std::nullopt;
  for (std::uint64_t i = 0; i < piece_count; ++i) {
    const std::string source = r.str();
    if (!r.ok()) return std::nullopt;
    regex::ParseResult parsed = regex::parse(source, mfa.parse_options_);
    if (!parsed.ok()) return std::nullopt;
    mfa.pieces_.push_back(
        split::Piece{*std::move(parsed.regex), static_cast<std::uint32_t>(i)});
  }
  if (!r.ok()) return std::nullopt;
  if (version >= kVersionV2) {
    // Verify the trailing digest (computed over everything before it) and
    // insist the file ends there: any stomped or truncated or appended byte
    // fails deterministically instead of depending on which field it hit.
    const std::uint64_t expect = r.digest();
    if (r.u64() != expect || !r.ok()) return std::nullopt;
    if (std::fgetc(f.get()) != EOF) return std::nullopt;
  }

  // Cross-structure validation: every id the DFA can report must have an
  // action, and the program must pass the same checks build_mfa() applies.
  if (piece_count != mfa.program_.actions.size()) return std::nullopt;
  if (mfa.dfa_.max_match_id() >= mfa.program_.actions.size()) return std::nullopt;
  if (!mfa.program_.validate()) return std::nullopt;

  // Filter order is derived, never read: sort the tables' own accept lists
  // (the deserializers already rejected repeated ids) exactly as
  // build_mfa() does. In delta mode the D2fa's lists are the ones the scan
  // runs, so they must hold the DFA's accept sets, not merely be
  // well-formed.
  mfa.order_accepts();
  if (mfa.delta_) {
    for (std::uint32_t s = 0; s < mfa.dfa_.accepting_state_count(); ++s) {
      const auto [df, dl] = mfa.dfa_.accepts(s);
      const auto [ef, el] = mfa.delta_->accepts(s);
      if (!std::equal(df, dl, ef, el)) return std::nullopt;
    }
  }
  // The loud-first numbering is derived too (the identity on an artifact
  // build_mfa() wrote; older files may number their states otherwise).
  BuildStats derived;
  mfa.number_loud_first(derived);

  // The prefilter is derived data (Teddy masks + the DFA-verified gate):
  // rebuild it from the validated pieces exactly as build_mfa() does, so an
  // artifact round-trip scans identically to a fresh compile. The gate
  // proof walks the dense table, so in delta mode the table is expanded
  // from the delta encoding transiently and dropped again after the build —
  // steady-state memory stays at the compressed size.
  if (mfa.delta_) {
    if (!mfa.dfa_.restore_table(mfa.delta_->expand_table())) return std::nullopt;
    mfa.prefilter_ =
        simd::Prefilter::build(mfa.dfa_, mfa.pieces_, mfa.parse_options_.icase);
    mfa.dfa_.drop_table();
  } else {
    mfa.prefilter_ =
        simd::Prefilter::build(mfa.dfa_, mfa.pieces_, mfa.parse_options_.icase);
  }
  mfa.fold_clears(derived);
  return mfa;
}

}  // namespace mfa::core
