#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "test_util.h"

namespace acquire {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TrimTest, StripsAsciiWhitespace) {
  EXPECT_EQ(Trim("  abc\t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(CaseTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("NoReFiNe", "NOREFINE"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "SELEC"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(CaseTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("AbC1"), "ABC1");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("lineitem", "line"));
  EXPECT_FALSE(StartsWith("line", "lineitem"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(ParseNumberWithSuffixTest, PlainNumbers) {
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix("42").value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix("-1.5").value(), -1.5);
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix("1e3").value(), 1000.0);
}

TEST(ParseNumberWithSuffixTest, MagnitudeSuffixes) {
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix("1K").value(), 1e3);
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix("0.1M").value(), 1e5);
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix("1m").value(), 1e6);
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix("2B").value(), 2e9);
  EXPECT_DOUBLE_EQ(ParseNumberWithSuffix(" 1M ").value(), 1e6);
}

TEST(ParseNumberWithSuffixTest, Rejections) {
  EXPECT_FALSE(ParseNumberWithSuffix("").ok());
  EXPECT_FALSE(ParseNumberWithSuffix("abc").ok());
  EXPECT_FALSE(ParseNumberWithSuffix("1X").ok());
  EXPECT_FALSE(ParseNumberWithSuffix("1MM").ok());
}

TEST(ParseInt64Test, ValidAndInvalid) {
  EXPECT_EQ(ParseInt64("123").value(), 123);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64(" 5 ").value(), 5);
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.5e2").value(), -50.0);
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.0.0").ok());
}

TEST(StringFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StringFormat("plain"), "plain");
}

// AppendG writes the bytes snprintf("%g") writes, specials included.
TEST(AppendGTest, MatchesPrintfG) {
  std::vector<double> values = test_util::NumberProbes(/*seed=*/29, 1000000);
  for (double special :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0}) {
    values.push_back(special);
  }
  size_t mismatches = 0;
  std::string got;
  char want[32];
  for (double v : values) {
    got.clear();
    AppendG(v, &got);
    std::snprintf(want, sizeof(want), "%g", v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "AppendG(" << want << ") wrote " << got;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(AppendGTest, AppendsToExistingText) {
  std::string out = "x <= ";
  AppendG(12.25, &out);
  EXPECT_EQ(out, "x <= 12.25");
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({}, ", "), "");
}

}  // namespace
}  // namespace acquire
