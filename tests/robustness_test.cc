// Parser robustness: every fallible front end (XML, term notation, XMAS,
// path expressions, mini-SQL, CSV) must return a Status on arbitrary
// garbage and survive adversarial shapes (deep nesting, truncations,
// binary noise) without crashing.
#include <gtest/gtest.h>

#include <string>

#include "pathexpr/path_expr.h"
#include "rdb/sql.h"
#include "wrappers/csv_wrapper.h"
#include "xmas/parser.h"
#include "xml/parser.h"

namespace mix {
namespace {

/// Deterministic pseudo-random byte strings.
std::string NoiseString(uint64_t seed, size_t length) {
  std::string out;
  out.reserve(length);
  uint64_t state = seed;
  for (size_t i = 0; i < length; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // Printable-ish mix plus the structural characters the parsers react to.
    const char* alphabet =
        "<>/=\"'{}$%.|*()_,abAB012 \n\t&;:!-#@?+[]";
    out.push_back(alphabet[state % 39]);
  }
  return out;
}

TEST(RobustnessTest, RandomNoiseNeverCrashesAnyParser) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::string noise = NoiseString(seed, 40 + seed * 7);
    (void)xml::Parse(noise);
    (void)xml::ParseTerm(noise);
    (void)xmas::ParseQuery(noise);
    (void)pathexpr::PathExpr::Parse(noise);
    (void)rdb::ParseSelect(noise);
    (void)wrappers::ParseCsv(noise);
  }
  SUCCEED();
}

TEST(RobustnessTest, TruncationsOfValidInputsFailCleanly) {
  const std::string xml = "<homes><home><zip>91220</zip></home></homes>";
  for (size_t cut = 0; cut < xml.size(); ++cut) {
    auto r = xml::Parse(xml.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix length " << cut;
  }
  const std::string query =
      "CONSTRUCT <a> $X {$X} </a> {} WHERE s p.q $X AND $X r $Y";
  for (size_t cut = 1; cut < query.size(); cut += 3) {
    (void)xmas::ParseQuery(query.substr(0, cut));  // must not crash
  }
  const std::string sql = "SELECT a, b FROM t WHERE c = 'x' LIMIT 3";
  for (size_t cut = 1; cut < sql.size(); cut += 2) {
    (void)rdb::ParseSelect(sql.substr(0, cut));
  }
}

TEST(RobustnessTest, DeeplyNestedXml) {
  constexpr int kDepth = 2000;
  std::string deep;
  for (int i = 0; i < kDepth; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < kDepth; ++i) deep += "</a>";
  auto doc = xml::Parse(deep);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->node_count(), kDepth + 1);
}

// The parsers keep open elements on an explicit stack, so even 100000
// levels parse without the nesting depth of the input setting the depth of
// the call stack (this holds under ASan with the default 8 MiB stack).
TEST(RobustnessTest, HundredThousandLevelsParseWithoutRecursion) {
  constexpr int kDepth = 100000;
  std::string deep;
  for (int i = 0; i < kDepth; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < kDepth; ++i) deep += "</a>";
  auto doc = xml::Parse(deep);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value()->node_count(), kDepth + 1);

  // An unterminated deep document is a typed error, not a crash.
  deep.resize(deep.size() - 4 * (kDepth / 2));
  auto cut = xml::Parse(deep);
  EXPECT_FALSE(cut.ok());

  std::string term;
  for (int i = 0; i < kDepth; ++i) term += "a[";
  term += "x";
  for (int i = 0; i < kDepth; ++i) term += "]";
  auto parsed = xml::ParseTerm(term);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value()->node_count(), kDepth + 1);
}

TEST(RobustnessTest, DeeplyNestedTermAndPattern) {
  std::string term;
  for (int i = 0; i < 2000; ++i) term += "a[";
  term += "x";
  for (int i = 0; i < 2000; ++i) term += "]";
  EXPECT_TRUE(xml::ParseTerm(term).ok());

  std::string path;
  for (int i = 0; i < 500; ++i) path += "(";
  path += "a";
  for (int i = 0; i < 500; ++i) path += ")*";
  EXPECT_TRUE(pathexpr::PathExpr::Parse(path).ok());
}

TEST(RobustnessTest, PathologicalPathExpressionStillMatches) {
  // Heavily nested closure: the NFA must stay finite and usable.
  auto p = pathexpr::PathExpr::Parse("((a|b)*.(c|_)?)+.d");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().Matches({"a", "b", "c", "d"}));
  EXPECT_TRUE(p.value().Matches({"d"}));
  EXPECT_FALSE(p.value().Matches({"a"}));
}

TEST(RobustnessTest, HugeAttributeAndTextContent) {
  std::string big(200000, 'x');
  auto doc = xml::Parse("<a k=\"" + big + "\">" + big + "</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->root()->children.size(), 2u);  // @k + text
}

TEST(RobustnessTest, XmasCommentBombsAndWeirdWhitespace) {
  std::string text = "CONSTRUCT";
  for (int i = 0; i < 100; ++i) text += "\n% comment line with <tags> $vars";
  text += "\n<a> $X {$X} </a> {}\nWHERE\n\t\ts  p\n$X";
  auto q = xmas::ParseQuery(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().conditions.size(), 1u);
}

}  // namespace
}  // namespace mix
