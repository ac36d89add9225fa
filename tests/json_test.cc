// The server's minimal RFC 8259 JSON layer: strict parsing, exact double
// round-trips (the wire format must preserve bit-identical aggregates),
// escaping, and the protocol-facing convenience accessors.

#include "server/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace acquire {
namespace {

JsonValue MustParse(const std::string& text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  return parsed.ok() ? *parsed : JsonValue::Null();
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool());
  EXPECT_DOUBLE_EQ(MustParse("-12.5e2").AsDouble(), -1250.0);
  EXPECT_EQ(MustParse("\"hi\\n\\\"there\\\"\"").AsString(), "hi\n\"there\"");
}

TEST(JsonTest, ParsesNestedStructures) {
  JsonValue v = MustParse(
      "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":false},\"e\":\"x\"}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsDouble(), 2.0);
  EXPECT_TRUE(a->AsArray()[2].Get("b")->is_null());
  EXPECT_EQ(v.GetString("e"), "x");
  EXPECT_EQ(v.Get("missing"), nullptr);
}

TEST(JsonTest, UnicodeEscapes) {
  // \u00e9 is U+00E9 (two UTF-8 bytes); the pair is a surrogate for U+1F600.
  EXPECT_EQ(MustParse("\"caf\\u00e9\"").AsString(), "caf\xC3\xA9");
  EXPECT_EQ(MustParse("\"\\ud83d\\ude00\"").AsString(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",        "{",       "[1,]",      "{\"a\":}",   "\"unterminated",
      "01",      "1.",      "+1",        "nul",        "truex",
      "{\"a\":1} extra",    "[1 2]",     "{\"a\" 1}",  "\"\\ud83d\"",
      "\"\x01\"",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << text;
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, DoublesRoundTripExactly) {
  const double values[] = {0.0,       -0.0,     1.0 / 3.0,    6.02214076e23,
                           1e-300,    123456789.123456789,    -2.5,
                           3.14159265358979312,  1e15 - 1.0,  1e15 + 1.0};
  for (double v : values) {
    JsonValue wrapped = JsonValue::Number(v);
    JsonValue back = MustParse(wrapped.Dump());
    EXPECT_EQ(back.AsDouble(), v) << wrapped.Dump();
  }
}

// The snprintf/strtod number printer that std::to_chars replaced: %.0f for
// integral values below 1e15, else the first of %.15g and %.16g that reads
// back exactly, else %.17g.
std::string SnprintfNumber(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[32];
  double integral;
  if (std::modf(d, &integral) == 0.0 && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  if (std::strtod(buf, nullptr) == d) {
    char shorter[32];
    for (int prec = 15; prec <= 16; ++prec) {
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, d);
      if (std::strtod(shorter, nullptr) == d) return shorter;
    }
  }
  return buf;
}

// Dump of every probe from `seed` equals the snprintf printer's text. The
// reference printer costs about 2 us a value, so the 1M probes are split
// over two seeds to keep each case short.
void ExpectPrintsAsSnprintf(uint64_t seed) {
  const std::vector<double> values = test_util::NumberProbes(seed, 500000);
  size_t mismatches = 0;
  for (double v : values) {
    const std::string got = JsonValue::Number(v).Dump();
    const std::string want = SnprintfNumber(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "Dump wrote " << got << ", the old printer " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

TEST(JsonTest, NumbersPrintAsTheSnprintfPrinterDid) {
  ExpectPrintsAsSnprintf(/*seed=*/26);
}

TEST(JsonTest, MoreNumbersPrintAsTheSnprintfPrinterDid) {
  ExpectPrintsAsSnprintf(/*seed=*/28);
}

// Parse reads every number token to the bits strtod gives, out-of-range
// tokens included: the gamma and timeout_ms checks rely on 1e999 -> inf.
TEST(JsonTest, NumbersParseAsStrtodDoes) {
  std::vector<std::string> tokens = {
      "1e999", "-1e999", "1e-400", "-1e-400", "-0", "0", "4.9e-324",
      "2.2250738585072011e-308", "123456789012345678901234567890",
      "-123456789012345678901234567890.5e-3", "1E5", "0.1e+2"};
  for (double v : test_util::NumberProbes(/*seed=*/27, 1000000)) {
    if (std::isfinite(v)) tokens.push_back(JsonValue::Number(v).Dump());
  }
  size_t mismatches = 0;
  for (const std::string& token : tokens) {
    const Result<JsonValue> parsed = JsonValue::Parse(token);
    const double want = std::strtod(token.c_str(), nullptr);
    const double got = parsed.ok() ? parsed->AsDouble() : std::nan("");
    if (std::memcmp(&got, &want, sizeof(double)) != 0 && ++mismatches <= 5) {
      ADD_FAILURE() << token << " parsed to " << got << ", strtod " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << tokens.size();
}

TEST(JsonTest, IntegralDoublesPrintWithoutFraction) {
  EXPECT_EQ(JsonValue::Number(42.0).Dump(), "42");
  EXPECT_EQ(JsonValue::Number(-7.0).Dump(), "-7");
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(JsonValue::Number(std::nan("")).Dump(), "null");
}

TEST(JsonTest, DumpEscapesControlCharactersAndStaysOneLine) {
  JsonValue v = JsonValue::Object();
  v.Set("s", JsonValue::Str("line1\nline2\ttab\x01"));
  const std::string dumped = v.Dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_EQ(dumped, "{\"s\":\"line1\\nline2\\ttab\\u0001\"}");
  EXPECT_EQ(MustParse(dumped).GetString("s"), "line1\nline2\ttab\x01");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndOverwrites) {
  JsonValue v = JsonValue::Object();
  v.Set("z", JsonValue::Number(1.0));
  v.Set("a", JsonValue::Number(2.0));
  v.Set("z", JsonValue::Number(3.0));  // overwrite keeps position
  EXPECT_EQ(v.Dump(), "{\"z\":3,\"a\":2}");
}

TEST(JsonTest, ConvenienceAccessorsFallBack) {
  JsonValue v = MustParse("{\"n\":5,\"s\":\"text\",\"b\":true}");
  EXPECT_DOUBLE_EQ(v.GetNumber("n", -1.0), 5.0);
  EXPECT_DOUBLE_EQ(v.GetNumber("s", -1.0), -1.0);  // type mismatch
  EXPECT_DOUBLE_EQ(v.GetNumber("missing", -1.0), -1.0);
  EXPECT_EQ(v.GetString("s"), "text");
  EXPECT_EQ(v.GetString("n", "fb"), "fb");
  EXPECT_TRUE(v.GetBool("b", false));
  EXPECT_TRUE(v.GetBool("missing", true));
}

TEST(JsonTest, RoundTripThroughDump) {
  const std::string text =
      "{\"id\":\"s-1\",\"ok\":true,\"vals\":[1.5,null,\"x\"],"
      "\"nested\":{\"deep\":[{}]}}";
  JsonValue v = MustParse(text);
  EXPECT_EQ(MustParse(v.Dump()).Dump(), v.Dump());
}

// A Raw value is an already-dumped line that Dump splices in verbatim, so a
// reply that splices a stored report carries the bytes the report tree
// itself dumps to.
TEST(JsonTest, RawValuesDumpVerbatim) {
  JsonValue object = JsonValue::Object();
  object.Set("a", JsonValue::Number(1.0));
  object.Set("r", JsonValue::Raw("{\"x\":[1,2.5,\"y\"]}"));
  EXPECT_EQ(object.Dump(), "{\"a\":1,\"r\":{\"x\":[1,2.5,\"y\"]}}");
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Raw("null"));
  array.Append(JsonValue::Str("s"));
  array.Append(JsonValue::Raw("[true]"));
  EXPECT_EQ(array.Dump(), "[null,\"s\",[true]]");

  const JsonValue tree = MustParse(
      "{\"mode\":\"expanded\",\"best\":{\"sql\":\"a <= \\\"b\\\"\\n\","
      "\"qscore\":0.1,\"error\":1e-300},\"answers\":[{},[]],\"n\":null}");
  JsonValue with_tree = JsonValue::Object();
  with_tree.Set("ok", JsonValue::Bool(true));
  with_tree.Set("report", tree);
  JsonValue with_raw = JsonValue::Object();
  with_raw.Set("ok", JsonValue::Bool(true));
  with_raw.Set("report", JsonValue::Raw(tree.Dump()));
  EXPECT_EQ(with_raw.Dump(), with_tree.Dump());
}

// A representative PROGRESS frame — the streaming protocol's second line
// kind — survives Parse(Dump) with every field intact, including the
// exact doubles a client keys its early-stop rules on.
TEST(JsonTest, ProgressFrameSchemaRoundTrips) {
  const std::string frame_line =
      "{\"progress\":true,\"id\":\"s-7\",\"tenant\":\"default\","
      "\"layers_drained\":12,\"queries_explored\":345,\"cell_queries\":345,"
      "\"elapsed_ms\":1.25,"
      "\"best\":{\"qscore\":6.5,\"aggregate\":1203,\"error\":0.0033,"
      "\"refined\":\"age <= 30 AND income >= 52000\"},"
      "\"eval_queries\":345,\"tuples_scanned\":98765,\"prepare_ms\":0.5,"
      "\"delta_rows\":0,\"delta_merges\":0,"
      "\"governor\":{\"active_slots\":1,\"slot_limit\":2,"
      "\"memory_share_bytes\":1048576,\"running\":1,\"queued\":0}}";
  JsonValue frame = MustParse(frame_line);
  EXPECT_EQ(frame.Dump(), frame_line);
  EXPECT_EQ(MustParse(frame.Dump()).Dump(), frame_line);
  // The marker that separates frames from terminal replies.
  EXPECT_TRUE(frame.GetBool("progress", false));
  EXPECT_EQ(frame.Get("ok"), nullptr);
  const JsonValue* best = frame.Get("best");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->GetNumber("error", -1.0), 0.0033);
  const JsonValue* governor = frame.Get("governor");
  ASSERT_NE(governor, nullptr);
  EXPECT_EQ(governor->GetNumber("memory_share_bytes", -1.0), 1048576.0);
  // A frame with no candidate yet carries best:null, still distinct from
  // "field absent".
  JsonValue no_best = MustParse("{\"progress\":true,\"best\":null}");
  ASSERT_NE(no_best.Get("best"), nullptr);
  EXPECT_TRUE(no_best.Get("best")->is_null());
}

}  // namespace
}  // namespace acquire
