// Parser robustness fuzzing: random token soups and random mutations of
// valid queries must never crash, hang, or return anything but a clean
// ParseError / a valid AST.

#include <gtest/gtest.h>

#include "common/random.h"
#include "sql/parser.h"

namespace acquire {
namespace {

std::string RandomToken(Rng* rng) {
  static const char* const kTokens[] = {
      "SELECT", "FROM",  "WHERE",   "CONSTRAINT", "NOREFINE", "AND",
      "BETWEEN", "IN",   "COUNT",   "SUM",        "AVG",      "users",
      "age",     "t.x",  "*",       "(",          ")",        ",",
      "<",       "<=",   ">",       ">=",         "=",        "!=",
      "10",      "1.5",  "1M",      "'abc'",      ";",        "+",
      "-",       "/",    ".",       "0.1K",       "income"};
  return kTokens[rng->NextBounded(std::size(kTokens))];
}

TEST(ParserFuzzTest, RandomTokenSoupsNeverCrash) {
  Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    std::string sql;
    size_t len = 1 + rng.NextBounded(25);
    for (size_t i = 0; i < len; ++i) {
      sql += RandomToken(&rng);
      sql += ' ';
    }
    auto result = ParseAcqSql(sql);  // must return, never crash
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsParseError()) << sql;
    }
  }
}

TEST(ParserFuzzTest, MutatedValidQueriesNeverCrash) {
  const std::string valid =
      "SELECT * FROM users CONSTRAINT COUNT(*) = 1K "
      "WHERE age >= 25 AND income < 50000 NOREFINE AND "
      "city IN ('Boston', 'Austin')";
  Rng rng(405);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:  // delete a character
          mutated.erase(pos, 1);
          break;
        case 1:  // replace with random printable
          mutated[pos] = static_cast<char>(' ' + rng.NextBounded(95));
          break;
        default:  // duplicate a slice
          mutated.insert(pos, mutated.substr(pos, rng.NextBounded(8)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    auto result = ParseAcqSql(mutated);
    (void)result;  // any Status is fine; crashing is not
  }
}

TEST(ParserFuzzTest, DeeplyNestedParensAreHandled) {
  // Bounded recursion: deep nesting must parse or fail cleanly, not
  // overflow the stack.
  std::string sql = "SELECT * FROM t WHERE ";
  for (int i = 0; i < 200; ++i) sql += '(';
  sql += "a";
  for (int i = 0; i < 200; ++i) sql += ')';
  sql += " < 10";
  auto result = ParseAcqSql(sql);
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsParseError());
  }

  // Past the depth bound, parentheses, unary minus signs and a '+' chain
  // (a left-deep tree as tall as the chain is long) all fail cleanly.
  const std::string where = "SELECT * FROM t WHERE a < ";
  std::string parens =
      where + std::string(100000, '(') + "1" + std::string(100000, ')');
  std::string minus = where;
  for (int i = 0; i < 100000; ++i) minus += "- ";
  minus += "a";
  std::string chain = where + "30";
  for (int i = 1; i < 400000; ++i) chain += "+0";
  for (const std::string* deep : {&parens, &minus, &chain}) {
    auto deep_result = ParseAcqSql(*deep);
    ASSERT_FALSE(deep_result.ok()) << deep->substr(0, 40);
    EXPECT_TRUE(deep_result.status().IsParseError())
        << deep_result.status().ToString();
  }
}

}  // namespace
}  // namespace acquire
