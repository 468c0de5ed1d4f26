// Compiled-automaton persistence: save/load round trips, corruption
// rejection, and scan-equivalence of reloaded automata.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "engine_test_util.h"
#include "mfa/mfa.h"
#include "regex/sample.h"
#include "rules/rules.h"
#include "rules/ruleset_gen.h"
#include "trace/trace.h"
#include "util/binio.h"
#include "util/rng.h"

namespace {
// Largest single heap request made while g_track_alloc is set: lets a test
// prove a loader rejects a crafted geometry before allocating for it.
std::atomic<bool> g_track_alloc{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

namespace {
void* tracked_malloc(std::size_t n) noexcept {
  if (g_track_alloc.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_alloc.compare_exchange_weak(seen, n)) {
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Every single-object form is replaced, so each new pairs with a delete of
// this set (a sanitizer runtime supplies whichever form is left out). The
// deletes stay out of line, so callers pair operator new with operator
// delete rather than with an inlined free().
void* operator new(std::size_t n) {
  if (void* p = tracked_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return tracked_malloc(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mfa::core {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

const std::vector<std::string> kPats = {".*atk1.*vec2", ".*hd3[^\\n]*vl4",
                                        ".*gp5.{3,}gp6", "^anch7.*tail8", ".*solo9"};

TEST(Serialize, RoundTripPreservesEverything) {
  auto built = build_mfa(compile_patterns(kPats));
  ASSERT_TRUE(built.has_value());
  const std::string path = temp_path("roundtrip.mfac");
  ASSERT_TRUE(built->save(path));

  auto loaded = Mfa::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->character_dfa().state_count(), built->character_dfa().state_count());
  EXPECT_EQ(loaded->character_dfa().start(), built->character_dfa().start());
  EXPECT_EQ(loaded->program().memory_bits, built->program().memory_bits);
  EXPECT_EQ(loaded->program().position_slots, built->program().position_slots);
  EXPECT_EQ(loaded->program().actions.size(), built->program().actions.size());
  for (std::size_t i = 0; i < built->program().actions.size(); ++i)
    EXPECT_EQ(loaded->program().actions[i], built->program().actions[i]) << i;
  ASSERT_EQ(loaded->pieces().size(), built->pieces().size());
  for (std::size_t i = 0; i < built->pieces().size(); ++i)
    EXPECT_EQ(loaded->pieces()[i].regex.source, built->pieces()[i].regex.source);
  EXPECT_EQ(loaded->memory_image_bytes(), built->memory_image_bytes());
  std::remove(path.c_str());
}

TEST(Serialize, LoadedAutomatonScansIdentically) {
  auto built = build_mfa(compile_patterns(kPats));
  ASSERT_TRUE(built.has_value());
  const std::string path = temp_path("scan.mfac");
  ASSERT_TRUE(built->save(path));
  auto loaded = Mfa::load(path);
  ASSERT_TRUE(loaded.has_value());
  for (const std::string input :
       {"atk1 then vec2", "hd3 vl4", "hd3\nvl4", "gp5...gp6", "gp5gp6",
        "anch7 tail8", "x anch7 tail8", "solo9 solo9", "nothing"}) {
    Scanner a(*built);
    Scanner b(*loaded);
    EXPECT_EQ(sorted(a.scan(input)), sorted(b.scan(input))) << input;
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_FALSE(Mfa::load(temp_path("does_not_exist.mfac")).has_value());
}

TEST(Serialize, RejectsWrongMagic) {
  const std::string path = temp_path("wrong_magic.mfac");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("MFTRgarbage-that-is-not-an-automaton", f);
  std::fclose(f);
  EXPECT_FALSE(Mfa::load(path).has_value());
  std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncation) {
  auto built = build_mfa(compile_patterns(kPats));
  ASSERT_TRUE(built.has_value());
  const std::string path = temp_path("trunc.mfac");
  ASSERT_TRUE(built->save(path));
  // Truncate at several byte positions; every prefix must be rejected,
  // never crash.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  for (const double frac : {0.1, 0.3, 0.5, 0.8, 0.95, 0.999}) {
    const std::string tpath = temp_path("trunc_cut.mfac");
    std::FILE* out = std::fopen(tpath.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    const auto cut = static_cast<std::size_t>(static_cast<double>(size) * frac);
    std::fwrite(bytes.data(), 1, cut, out);
    std::fclose(out);
    EXPECT_FALSE(Mfa::load(tpath).has_value()) << "fraction " << frac;
    std::remove(tpath.c_str());
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBitFlipsInHeaderRegion) {
  // Flipping bytes in the structural header must not produce a loadable
  // automaton with out-of-range tables (either a clean failure or a load
  // whose invariants still hold is acceptable; crashes are not).
  auto built = build_mfa(compile_patterns({".*abc.*xyz"}));
  ASSERT_TRUE(built.has_value());
  const std::string path = temp_path("flip.mfac");
  ASSERT_TRUE(built->save(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  for (std::size_t pos = 8; pos < std::min<std::size_t>(bytes.size(), 64); ++pos) {
    std::vector<char> mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    const std::string mpath = temp_path("flip_mut.mfac");
    std::FILE* out = std::fopen(mpath.c_str(), "wb");
    std::fwrite(mutated.data(), 1, mutated.size(), out);
    std::fclose(out);
    auto loaded = Mfa::load(mpath);
    if (loaded) {
      // If it loaded, its tables must still be internally consistent
      // enough to scan without faulting.
      Scanner s(*loaded);
      s.scan(std::string("abc xyz abc"));
    }
    std::remove(mpath.c_str());
  }
  std::remove(path.c_str());
}

TEST(BinIo, PodVecCraftedHugeCountFailsCleanly) {
  // Regression: a 16-byte crafted header whose count makes `count *
  // sizeof(T)` wrap to ~0 (2^61 * 8 == 2^64) used to slip past the
  // pre-allocation size check and drive std::vector into length_error /
  // OOM. The divide-based guard must reject it before allocating.
  const std::string path = temp_path("huge_count.bin");
  {
    util::FilePtr f(std::fopen(path.c_str(), "wb"));
    util::BinWriter w(f.get());
    w.u64(0x2000000000000000ull);  // * sizeof(u64) wraps to exactly 0
    w.u64(0xdeadbeefull);          // "payload" the wrap would have trusted
    ASSERT_TRUE(w.ok());
  }
  {
    util::FilePtr f(std::fopen(path.c_str(), "rb"));
    util::BinReader r(f.get());
    const std::vector<std::uint64_t> v = r.pod_vec<std::uint64_t>();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(v.empty());
  }
  {
    // Same wrap through a narrower element type (2^62 * 4 == 2^64).
    util::FilePtr f(std::fopen(path.c_str(), "rb"));
    util::BinReader r(f.get());
    r.u32();  // misalign so the count reads as a different huge value
    const std::vector<std::uint32_t> v = r.pod_vec<std::uint32_t>();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(v.empty());
  }
  std::remove(path.c_str());
}

TEST(Serialize, SaveIsAtomicAndLeavesNoTempFile) {
  auto built = build_mfa(compile_patterns({".*ab.*cd"}));
  ASSERT_TRUE(built.has_value());
  const std::string path = temp_path("atomic.mfac");

  // Plant garbage at the destination: a failed save must not clobber it,
  // a successful save must replace it wholesale.
  std::FILE* g = std::fopen(path.c_str(), "wb");
  ASSERT_NE(g, nullptr);
  std::fputs("stale garbage, not an automaton", g);
  std::fclose(g);

  ASSERT_TRUE(built->save(path));
  EXPECT_TRUE(Mfa::load(path).has_value());

  // The staging file must be gone after a successful rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  // A save into a nonexistent directory fails cleanly and leaves the
  // previously published artifact untouched.
  EXPECT_FALSE(built->save(::testing::TempDir() + "/no_such_dir/x.mfac"));
  EXPECT_TRUE(Mfa::load(path).has_value());
  std::remove(path.c_str());
}

TEST(Serialize, PersistsParseOptionsAcrossRoundTrip) {
  // A pattern nested beyond the default max_nesting_depth only parses with
  // relaxed options; load() re-parses the stored piece sources, so the
  // format must carry the options or reload fails at exactly this
  // boundary.
  std::string deep = ".*";
  for (int i = 0; i < 150; ++i) deep += '(';
  deep += "needle";
  for (int i = 0; i < 150; ++i) deep += ')';

  ASSERT_FALSE(regex::parse(deep).ok());  // default cap (100) rejects it

  regex::ParseOptions popt;
  popt.max_nesting_depth = 200;
  popt.max_counted_repeat = 512;  // non-default, must round-trip too
  regex::ParseResult parsed = regex::parse(deep, popt);
  ASSERT_TRUE(parsed.ok());

  BuildOptions bopt;
  bopt.parse = popt;
  auto built = build_mfa({nfa::PatternInput{*parsed.regex, 7}}, bopt);
  ASSERT_TRUE(built.has_value());

  const std::string path = temp_path("options.mfac");
  ASSERT_TRUE(built->save(path));
  auto loaded = Mfa::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->parse_options().icase, popt.icase);
  EXPECT_EQ(loaded->parse_options().dotall, popt.dotall);
  EXPECT_EQ(loaded->parse_options().max_counted_repeat, popt.max_counted_repeat);
  EXPECT_EQ(loaded->parse_options().max_nesting_depth, popt.max_nesting_depth);

  Scanner a(*built);
  Scanner b(*loaded);
  for (const std::string input : {"xx needle yy", "need le", "needleneedle"})
    EXPECT_EQ(sorted(a.scan(input)), sorted(b.scan(input))) << input;
  std::remove(path.c_str());
}

TEST(Serialize, StompCorpusEveryMutationLoadsAsNullopt) {
  // The v2 format ends with an FNV-1a digest of the whole payload plus an
  // EOF check, so ANY single-byte corruption, truncation, or trailing
  // garbage must come back std::nullopt — never a half-valid automaton,
  // never a crash (the ASan job runs this file).
  auto built = build_mfa(compile_patterns({".*ab.*cd", "^ef.{2,5}gh"}));
  ASSERT_TRUE(built.has_value());
  const std::string path = temp_path("stomp.mfac");
  ASSERT_TRUE(built->save(path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  std::remove(path.c_str());

  const std::string mpath = temp_path("stomp_mut.mfac");
  const auto write_mutant = [&](const char* data, std::size_t n) {
    std::FILE* out = std::fopen(mpath.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    if (n > 0) {
      ASSERT_EQ(std::fwrite(data, 1, n, out), n);
    }
    std::fclose(out);
  };

  // Every truncation prefix.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_mutant(bytes.data(), cut);
    EXPECT_FALSE(Mfa::load(mpath).has_value()) << "truncated at " << cut;
  }
  // Every single-byte stomp.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<char> mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    write_mutant(mutated.data(), mutated.size());
    EXPECT_FALSE(Mfa::load(mpath).has_value()) << "stomped byte " << pos;
  }
  // Trailing garbage after a byte-perfect payload.
  {
    std::vector<char> padded = bytes;
    padded.push_back('\x00');
    write_mutant(padded.data(), padded.size());
    EXPECT_FALSE(Mfa::load(mpath).has_value()) << "trailing garbage";
  }
  std::remove(mpath.c_str());
}

std::vector<char> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

TEST(Serialize, GeneratedRulesetArtifactIsPinned) {
  // Deployments diff artifacts to decide whether sensors need a push, so a
  // compile of the same ruleset must serialize to the same bytes every time.
  // The trailing FNV-1a digest covers the whole artifact: a change to state
  // numbering, the split or the program layout changes it, and has to
  // update these pins on purpose.
  const auto loaded = rules::parse_rules(rules::generate_ruleset({100, 42}));
  ASSERT_TRUE(loaded.ok());
  const auto inputs = rules::to_pattern_inputs(loaded.rules);
  const std::string path = temp_path("pinned.mfac");
  for (const auto& [delta, pinned] :
       {std::pair{false, 0x6498922e11822680ull}, std::pair{true, 0x89e71f3c7ed78016ull}}) {
    SCOPED_TRACE(delta ? "delta" : "dense");
    BuildOptions opts;
    opts.delta = delta;
    const auto m = build_mfa(inputs, opts);
    ASSERT_TRUE(m.has_value());
    ASSERT_TRUE(m->save(path));
    const std::vector<char> bytes = read_file_bytes(path);
    ASSERT_GE(bytes.size(), 8u);
    std::uint64_t digest = 0;
    std::memcpy(&digest, bytes.data() + bytes.size() - 8, 8);
    EXPECT_EQ(digest, pinned);
  }
  std::remove(path.c_str());
}

TEST(Serialize, DeltaArtifactRoundTripScansIdentically) {
  // v3 (delta-table) artifacts: the loaded automaton must stay in delta
  // mode (no dense table resurrected), report the same compressed footprint,
  // and scan byte-identically — including through the prefilter gate, which
  // load() re-proves against a transiently expanded table.
  BuildOptions del;
  del.delta = true;
  auto built = build_mfa(compile_patterns(kPats), del);
  ASSERT_TRUE(built.has_value());
  ASSERT_TRUE(built->delta_mode());
  const std::string path = temp_path("delta_roundtrip.mfac");
  ASSERT_TRUE(built->save(path));

  auto loaded = Mfa::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->delta_mode());
  EXPECT_EQ(loaded->memory_image_bytes(), built->memory_image_bytes());

  auto dense = build_mfa(compile_patterns(kPats));
  ASSERT_TRUE(dense.has_value());
  for (const std::string input :
       {"atk1 then vec2", "hd3 vl4", "hd3\nvl4", "gp5...gp6", "gp5gp6",
        "anch7 tail8", "x anch7 tail8", "solo9 solo9", "nothing"}) {
    Scanner a(*dense);
    Scanner b(*loaded);
    EXPECT_EQ(sorted(a.scan(input)), sorted(b.scan(input))) << input;
  }
  std::remove(path.c_str());
}

/// Every match of `engine` over `trace`'s packets fed in capture order as
/// the chunks of one stream, in report order, and the state it ends in.
std::pair<MatchVec, std::uint32_t> stream_matches(const Mfa& engine,
                                                  const trace::Trace& trace) {
  Mfa::Context ctx = engine.make_context();
  CollectingSink sink;
  std::uint64_t base = 0;
  trace.for_each_packet([&](const flow::Packet& p) {
    engine.feed(ctx, p.payload, p.length, base, sink);
    base += p.length;
  });
  return {std::move(sink.matches), ctx.state};
}

TEST(Serialize, DepthTwoDeltaArtifactScansLikeDepthThreeAndDense) {
  // Delta artifacts built at the old root_depth 2 hold fewer roots, and
  // their scan tags are rebuilt at load: such a file must scan exactly as
  // today's depth-3 build and the dense table do, match for match.
  const auto rules_loaded = rules::parse_rules(rules::generate_ruleset({1000, 42}));
  ASSERT_TRUE(rules_loaded.ok());
  const auto inputs = rules::to_pattern_inputs(rules_loaded.rules);
  BuildOptions depth3;
  depth3.delta = true;
  BuildOptions depth2 = depth3;
  depth2.d2fa.root_depth = 2;
  const auto dense = build_mfa(inputs);
  const auto built3 = build_mfa(inputs, depth3);
  const auto built2 = build_mfa(inputs, depth2);
  ASSERT_TRUE(dense.has_value() && built3.has_value() && built2.has_value());
  const std::string path = temp_path("depth2_delta.mfac");
  ASSERT_TRUE(built2->save(path));
  const auto loaded = Mfa::load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->delta_mode());
  EXPECT_LT(loaded->delta_table()->root_count(), built3->delta_table()->root_count());

  util::Rng rng(404);
  std::vector<std::string> exemplars;
  for (std::size_t i = 0; i < inputs.size(); i += 7)
    exemplars.push_back(regex::sample_match(inputs[i].regex, rng));
  const trace::Trace tr =
      trace::make_real_life(trace::RealLifeProfile::kDarpa, 1 << 18, 201, exemplars);
  const auto want = stream_matches(*dense, tr);
  EXPECT_GT(want.first.size(), 0u);
  EXPECT_EQ(stream_matches(*loaded, tr), want);
  EXPECT_EQ(stream_matches(*built3, tr), want);
}

TEST(Serialize, DeltaStompCorpusEveryMutationLoadsAsNullopt) {
  // The v3 layout adds the table-kind byte and the whole D2fa section ahead
  // of the digest; the corruption guarantee must hold there too (truncation
  // inside the exception stream, stomped defaults, flipped kind byte, ...).
  BuildOptions del;
  del.delta = true;
  auto built = build_mfa(compile_patterns({".*ab.*cd", "^ef.{2,5}gh"}), del);
  ASSERT_TRUE(built.has_value());
  ASSERT_TRUE(built->delta_mode());
  const std::string path = temp_path("delta_stomp.mfac");
  ASSERT_TRUE(built->save(path));
  const std::vector<char> bytes = read_file_bytes(path);
  std::remove(path.c_str());

  const std::string mpath = temp_path("delta_stomp_mut.mfac");
  const auto write_mutant = [&](const char* data, std::size_t n) {
    std::FILE* out = std::fopen(mpath.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    if (n > 0) {
      ASSERT_EQ(std::fwrite(data, 1, n, out), n);
    }
    std::fclose(out);
  };
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_mutant(bytes.data(), cut);
    EXPECT_FALSE(Mfa::load(mpath).has_value()) << "truncated at " << cut;
  }
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<char> mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    write_mutant(mutated.data(), mutated.size());
    EXPECT_FALSE(Mfa::load(mpath).has_value()) << "stomped byte " << pos;
  }
  std::remove(mpath.c_str());
}

TEST(Serialize, DfaValidationCatchesBadTargets) {
  // Hand-craft a DFA blob with an out-of-range transition target.
  const std::string path = temp_path("bad_dfa.bin");
  {
    util::FilePtr f(std::fopen(path.c_str(), "wb"));
    util::BinWriter w(f.get());
    w.u32(2);   // state_count
    w.u32(0);   // start
    w.u32(1);   // accept_states
    w.u32(1);   // max_match_id
    w.u16(1);   // ncols
    std::vector<std::uint8_t> cols(256, 0);
    w.bytes(cols.data(), cols.size());
    w.pod_vec(std::vector<std::uint32_t>{1, 99});  // target 99 out of range
    w.pod_vec(std::vector<std::uint32_t>{0, 1});   // accept offsets
    w.pod_vec(std::vector<std::uint32_t>{1});      // accept ids
  }
  util::FilePtr f(std::fopen(path.c_str(), "rb"));
  util::BinReader r(f.get());
  dfa::Dfa out;
  EXPECT_FALSE(dfa::Dfa::deserialize(r, out));
  std::remove(path.c_str());
}

void write_file_bytes(const std::string& path, const std::vector<char>& bytes) {
  util::FilePtr f(std::fopen(path.c_str(), "wb"));
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f.get()), bytes.size());
}

/// `table` must have exactly one accepting state, holding ids {1, 2}: both
/// table formats end with that accept-id list, so the last 8 bytes are it.
template <typename Table>
void expect_repeated_accept_ids_rejected(const Table& table, const char* name) {
  const std::string path = temp_path(name);
  {
    util::FilePtr f(std::fopen(path.c_str(), "wb"));
    util::BinWriter w(f.get());
    table.serialize(w);
    ASSERT_TRUE(w.ok());
  }
  const std::vector<char> bytes = read_file_bytes(path);
  const auto loads_with_ids = [&](std::uint32_t a, std::uint32_t b) {
    std::vector<char> mutated = bytes;
    std::memcpy(mutated.data() + mutated.size() - 8, &a, 4);
    std::memcpy(mutated.data() + mutated.size() - 4, &b, 4);
    write_file_bytes(path, mutated);
    util::FilePtr f(std::fopen(path.c_str(), "rb"));
    util::BinReader r(f.get());
    Table out;
    return Table::deserialize(r, out);
  };
  EXPECT_TRUE(loads_with_ids(1, 2)) << name;
  EXPECT_TRUE(loads_with_ids(2, 1)) << name;  // any order: MFA artifacts store filter order
  EXPECT_FALSE(loads_with_ids(1, 1)) << name;
  EXPECT_FALSE(loads_with_ids(2, 2)) << name;
  std::remove(path.c_str());
}

TEST(Serialize, ProgramSectionIsElevenInt32sPerAction) {
  // The on-disk action record keeps its 44-byte v4 layout whatever
  // filter::Action looks like in memory: the paper's four integers, the
  // three retired counter fields (written as kNone, 0, kNone), then
  // set_slot, test_slot, min_gap and order. The section ends with
  // memory_bits, a zero counter count and position_slots.
  const auto built = build_mfa(compile_patterns(kPats));
  ASSERT_TRUE(built.has_value());
  const filter::Program& program = built->program();
  const std::string path = temp_path("program_section.mfac");
  ASSERT_TRUE(built->save(path));
  const std::vector<char> bytes = read_file_bytes(path);
  std::remove(path.c_str());
  std::size_t pieces = 8;
  for (const auto& piece : built->pieces()) pieces += 4 + piece.regex.source.size();
  const std::size_t records = program.actions.size() * 44;
  ASSERT_GT(bytes.size(), 8 + pieces + 12 + records + 8);
  const char* at = bytes.data() + bytes.size() - 8 - pieces - 12 - records - 8;
  std::uint64_t count = 0;
  std::memcpy(&count, at, 8);
  EXPECT_EQ(count, program.actions.size());
  for (std::size_t i = 0; i < program.actions.size(); ++i) {
    std::int32_t f[11];
    std::memcpy(f, at + 8 + 44 * i, 44);
    const filter::Action& a = program.actions[i];
    EXPECT_EQ((std::vector<std::int32_t>(f, f + 11)),
              (std::vector<std::int32_t>{a.test, a.set, a.clear, a.report, filter::kNone, 0,
                                         filter::kNone, a.set_slot, a.test_slot, a.min_gap,
                                         a.order}))
        << i;
  }
  std::uint32_t geometry[3];
  std::memcpy(geometry, at + 8 + records, 12);
  EXPECT_EQ(geometry[0], program.memory_bits);
  EXPECT_EQ(geometry[1], 0u);
  EXPECT_EQ(geometry[2], program.position_slots);
}

TEST(Serialize, OversizedTableGeometryIsRejectedBeforeAllocating) {
  // Row offsets (state x ncols) must stay below 2^30. A crafted artifact
  // claiming states x ncols >= 2^30, with a table count the reader's 1 GiB
  // cap would still admit (2^24 words = 64 MiB), must load as nullopt
  // without that allocation: the geometry is checked first. The digest is
  // recomputed, so only the geometry check can refuse the file in time.
  const auto built = build_mfa(compile_patterns({".*ab.*cd", "ef[0-9]+gh"}));
  ASSERT_TRUE(built.has_value());
  const std::uint16_t ncols = built->character_dfa().column_count();
  const std::string path = temp_path("oversized.mfac");
  ASSERT_TRUE(built->save(path));
  const std::vector<char> bytes = read_file_bytes(path);
  constexpr std::size_t kDfaAt = 4 + 4 + 1 + 1 + 4 + 4 + 1;  // v4 header
  constexpr std::size_t kTableCountAt = kDfaAt + 4 * 4 + 2 + 256;
  const auto peak_while = [](const auto& fn) {
    g_largest_alloc = 0;
    g_track_alloc = true;
    const bool ok = fn();
    g_track_alloc = false;
    EXPECT_FALSE(ok);
    return g_largest_alloc.load();
  };
  const std::uint64_t claimed = std::uint64_t{1} << 24;

  const auto at_cap = static_cast<std::uint32_t>(((1u << 30) + ncols - 1) / ncols);
  for (const std::uint32_t states : {at_cap, at_cap + 1, 0xffffffffu}) {
    std::vector<char> mutated = bytes;
    std::memcpy(mutated.data() + kDfaAt, &states, 4);
    std::memcpy(mutated.data() + kTableCountAt, &claimed, 8);
    const std::uint64_t digest = util::detail::fnv1a(util::detail::kFnvOffset,
                                                     mutated.data(), mutated.size() - 8);
    std::memcpy(mutated.data() + mutated.size() - 8, &digest, 8);
    write_file_bytes(path, mutated);
    EXPECT_LT(peak_while([&] { return Mfa::load(path).has_value(); }), 1u << 20)
        << "states " << states;
  }

  // The delta table's loader checks the same geometry before its first
  // vector (defaults_, one word per state).
  const dfa::D2fa delta(built->character_dfa());
  {
    util::FilePtr f(std::fopen(path.c_str(), "wb"));
    util::BinWriter w(f.get());
    delta.serialize(w);
    ASSERT_TRUE(w.ok());
  }
  std::vector<char> blob = read_file_bytes(path);
  constexpr std::size_t kDefaultsCountAt = 4 * 4 + 2 + 4 + 8 + 256;
  std::memcpy(blob.data(), &at_cap, 4);
  std::memcpy(blob.data() + kDefaultsCountAt, &claimed, 8);
  write_file_bytes(path, blob);
  EXPECT_LT(peak_while([&] {
              util::FilePtr f(std::fopen(path.c_str(), "rb"));
              util::BinReader r(f.get());
              dfa::D2fa out;
              return dfa::D2fa::deserialize(r, out);
            }),
            1u << 20);
  std::remove(path.c_str());
}

TEST(Serialize, TableValidationRejectsRepeatedAcceptIds) {
  // A repeated id in one accept list would run its filter action twice — a
  // duplicate alert or a double counter bump. Two identical patterns give
  // one accepting state with ids {1, 2} to stomp on.
  const auto d = dfa::build_dfa(nfa::build_nfa(compile_patterns({"ab", "ab"})));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->accepting_state_count(), 1u);
  ASSERT_EQ(d->accepts(0).second - d->accepts(0).first, 2);
  expect_repeated_accept_ids_rejected(*d, "dup_ids_dfa.bin");
  expect_repeated_accept_ids_rejected(dfa::D2fa(*d), "dup_ids_d2fa.bin");
}

TEST(Serialize, FilterOrderIsDerivedOnLoadEvenUnderARecomputedDigest) {
  // The digest catches corruption, not crafting: an edited artifact can
  // carry a recomputed digest. So load() trusts no stored order: ids swapped
  // inside an accept list load back into filter order, and a repeated id
  // is refused. Two identical rules give one accepting state with two ids.
  const auto built = build_mfa(compile_patterns({".*ab", ".*ab"}));
  ASSERT_TRUE(built.has_value());
  const dfa::Dfa& d = built->character_dfa();
  ASSERT_EQ(d.accepting_state_count(), 1u);
  const auto [first, last] = built->ordered_actions(0);
  ASSERT_EQ(last - first, 2);
  const std::uint32_t id0 = first[0];
  const std::uint32_t id1 = first[1];

  const std::string path = temp_path("crafted.mfac");
  ASSERT_TRUE(built->save(path));
  const std::vector<char> bytes = read_file_bytes(path);
  // v4 header, then the Dfa section up to its accept-id payload.
  const std::size_t ids_at =
      4 + 4 + 1 + 1 + 4 + 4 + 1 +                                       // header
      4 * 4 + 2 + 256 +                                                 // Dfa scalars
      8 + 4 * static_cast<std::size_t>(d.state_count()) * d.column_count() +  // table
      8 + 4 * (static_cast<std::size_t>(d.accepting_state_count()) + 1) +     // offsets
      8;                                                                // id count
  const auto load_with_ids = [&](std::uint32_t a, std::uint32_t b) {
    std::vector<char> mutated = bytes;
    std::memcpy(mutated.data() + ids_at, &a, 4);
    std::memcpy(mutated.data() + ids_at + 4, &b, 4);
    const std::uint64_t digest = util::detail::fnv1a(util::detail::kFnvOffset,
                                                     mutated.data(), mutated.size() - 8);
    std::memcpy(mutated.data() + mutated.size() - 8, &digest, 8);
    write_file_bytes(path, mutated);
    return Mfa::load(path);
  };
  ASSERT_TRUE(load_with_ids(id0, id1).has_value());  // the offset is right

  const auto swapped = load_with_ids(id1, id0);
  ASSERT_TRUE(swapped.has_value());
  const auto [sf, sl] = swapped->ordered_actions(0);
  EXPECT_TRUE(std::equal(first, last, sf, sl));
  Scanner a(*built);
  Scanner b(*swapped);
  EXPECT_EQ(sorted(a.scan("xxab yy ab")), sorted(b.scan("xxab yy ab")));

  EXPECT_FALSE(load_with_ids(id0, id0).has_value());
  std::remove(path.c_str());
}

// Artifacts written by the pre-v4 writer (tests/fixtures/README.md), the
// versions that still carried a re-sorted copy of the accept lists.
std::string fixture_path(const char* name) {
  return std::string(MFA_TEST_FIXTURE_DIR) + "/" + name;
}

/// A legacy artifact must load into exactly the automaton a fresh build
/// gives: same image size, byte-identical once both are re-saved as v4, and
/// the same matches on `traffic` (which must produce some).
void expect_loads_like_fresh_build(const std::string& fixture, const Mfa& fresh,
                                   const std::vector<std::string>& traffic) {
  const auto loaded = Mfa::load(fixture);
  ASSERT_TRUE(loaded.has_value()) << fixture;
  EXPECT_EQ(loaded->delta_mode(), fresh.delta_mode());
  EXPECT_EQ(loaded->memory_image_bytes(), fresh.memory_image_bytes());
  const std::string resaved = temp_path("legacy_resaved.mfac");
  const std::string saved = temp_path("fresh_saved.mfac");
  ASSERT_TRUE(loaded->save(resaved));
  ASSERT_TRUE(fresh.save(saved));
  EXPECT_EQ(read_file_bytes(resaved), read_file_bytes(saved));
  std::remove(resaved.c_str());
  std::remove(saved.c_str());
  std::size_t matches = 0;
  for (const std::string& input : traffic) {
    Scanner a(fresh);
    Scanner b(*loaded);
    const MatchVec want = sorted(a.scan(input));
    EXPECT_EQ(sorted(b.scan(input)), want) << input;
    matches += want.size();
  }
  EXPECT_GT(matches, 0u);
}

TEST(Serialize, LoadsLegacyDenseV2Artifact) {
  const auto fresh = build_mfa(compile_patterns(kPats));
  ASSERT_TRUE(fresh.has_value());
  expect_loads_like_fresh_build(
      fixture_path("kpats_dense_v2.mfac"), *fresh,
      {"atk1 then vec2", "hd3 vl4", "hd3\nvl4", "gp5...gp6", "gp5gp6", "anch7 tail8",
       "x anch7 tail8", "solo9 solo9", "nothing"});
}

TEST(Serialize, LoadsLegacyDeltaV3Artifact) {
  const auto rules_loaded = rules::parse_rules(rules::generate_ruleset({300, 42}));
  ASSERT_TRUE(rules_loaded.ok());
  const auto inputs = rules::to_pattern_inputs(rules_loaded.rules);
  // The fixture was written when D2faOptions::root_depth defaulted to 2.
  BuildOptions del;
  del.delta = true;
  del.d2fa.root_depth = 2;
  const auto fresh = build_mfa(inputs, del);
  ASSERT_TRUE(fresh.has_value());
  // A sampled match of every seventh rule, framed by header-like lines.
  util::Rng rng(303);
  std::vector<std::string> traffic;
  for (std::size_t i = 0; i < inputs.size(); i += 7)
    traffic.push_back("GET /x HTTP/1.1\r\n" + regex::sample_match(inputs[i].regex, rng) +
                      "\r\nHost: y\r\n");
  expect_loads_like_fresh_build(fixture_path("ruleset300_delta_v3.mfac"), *fresh, traffic);
}

}  // namespace
}  // namespace mfa::core
