#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace {

using namespace rrf;

TEST(Json, DumpsScalars) {
  EXPECT_EQ(json::Value(nullptr).dump(), "null");
  EXPECT_EQ(json::Value(true).dump(), "true");
  EXPECT_EQ(json::Value(false).dump(), "false");
  EXPECT_EQ(json::Value(3).dump(), "3");
  EXPECT_EQ(json::Value(2.5).dump(), "2.5");
  EXPECT_EQ(json::Value("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(json::Value(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json::escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  const json::Value v = json::Object{{"z", 1}, {"a", 2}};
  EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2}");
}

TEST(Json, PrettyPrints) {
  const json::Value v = json::Object{{"xs", json::Array{1, 2}}};
  EXPECT_EQ(v.dump(2), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}\n");
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double d : {0.0, -1.5, 1.0 / 3.0, 1e-300, 12345678901234567.0,
                         0.1, 6.02214076e23}) {
    const json::Value parsed = json::Value::parse(json::Value(d).dump());
    EXPECT_EQ(parsed.as_number(), d);
  }
}

TEST(Json, IntegralValuesDumpAsPlainIntegers) {
  // The %g fast path used to render small integral doubles in scientific
  // notation ("windows": 3e+01); integral values within the exact double
  // range must print like the integers they are.
  EXPECT_EQ(json::Value(30.0).dump(), "30");
  EXPECT_EQ(json::Value(-30.0).dump(), "-30");
  EXPECT_EQ(json::Value(40.0).dump(), "40");
  EXPECT_EQ(json::Value(1e15).dump(), "1000000000000000");
  EXPECT_EQ(json::Value(9007199254740992.0).dump(), "9007199254740992");
  EXPECT_EQ(json::Value(0.0).dump(), "0");
  // Above 2^53 integers are not exactly representable; the shortest
  // round-trip path takes over.  Non-integral and signed-zero values take
  // it too.
  EXPECT_EQ(json::Value(1e16).dump(), "1e+16");
  EXPECT_EQ(json::Value(0.5).dump(), "0.5");
  EXPECT_EQ(json::Value(-0.0).dump(), "-0");
  for (const double d : {30.0, 1e15, -7.0, 9007199254740992.0, -0.0}) {
    const json::Value parsed = json::Value::parse(json::Value(d).dump());
    EXPECT_EQ(parsed.as_number(), d);
    EXPECT_EQ(std::signbit(parsed.as_number()), std::signbit(d));
  }
}

TEST(Json, ParsesNestedDocument) {
  const json::Value v = json::Value::parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}, "e": -3e2})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_array().size(), 3u);
  EXPECT_EQ(v.find("a")->as_array()[2].as_string(), "x");
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());
  EXPECT_TRUE(v.find("b")->find("d")->is_null());
  EXPECT_EQ(v.find("e")->as_number(), -300.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParseRoundTripsDump) {
  const json::Value original = json::Object{
      {"name", "rrf"},
      {"values", json::Array{1, 2, 3}},
      {"nested", json::Object{{"ok", true}}},
  };
  const json::Value reparsed = json::Value::parse(original.dump(2));
  EXPECT_EQ(reparsed.dump(), original.dump());
}

TEST(Json, ParsesStringEscapes) {
  const json::Value v =
      json::Value::parse(R"("line\n\ttab \"q\" \u0041\u00e9")");
  EXPECT_EQ(v.as_string(), "line\n\ttab \"q\" A\xC3\xA9");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "nul", "01", "1.", "--1", "\"unterm",
        "[1] garbage", "{\"a\":1,\"a\":2}", "\"\x01\""}) {
    EXPECT_THROW(json::Value::parse(bad), DomainError) << bad;
  }
}

TEST(Json, RejectsOutOfRangeNumbers) {
  // A number no double can hold is a load error, not inf or 0.
  for (const char* bad : {"1e999", "-1e999", "1e-400", "[1, 1e999]"}) {
    try {
      json::Value::parse(bad);
      FAIL() << bad << " was accepted";
    } catch (const DomainError& e) {
      EXPECT_NE(std::string(e.what()).find("number out of range"),
                std::string::npos)
          << e.what();
    }
  }
  // The extremes that do fit still parse, subnormals included.
  EXPECT_EQ(json::Value::parse("1.7976931348623157e308").as_number(),
            std::numeric_limits<double>::max());
  EXPECT_EQ(json::Value::parse("4.9406564584124654e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
}

TEST(Json, TypedAccessorsCheckTypes) {
  const json::Value v = json::Value::parse("[1]");
  EXPECT_THROW(v.as_object(), DomainError);
  EXPECT_THROW(v.as_array()[0].as_string(), DomainError);
  EXPECT_EQ(v.as_array()[0].as_number(), 1.0);
}

[[noreturn]] void loader_fail(const std::string& message) {
  throw DomainError("loader: " + message);
}

TEST(Json, FieldReadersCheckPresenceTypeAndRange) {
  const json::Value v = json::Value::parse(
      R"({"n": 7, "neg": -1, "frac": 2.5, "huge": 1e300, "big": 3e9,)"
      R"( "s": "x", "b": true, "a": [1]})");
  EXPECT_EQ(json::size_field(v, "n", loader_fail), 7u);
  EXPECT_EQ(json::int_field(v, "neg", loader_fail), -1);
  EXPECT_EQ(json::str_field(v, "s", loader_fail), "x");
  EXPECT_TRUE(json::bool_field(v, "b", loader_fail));
  EXPECT_EQ(json::array_field(v, "a", loader_fail).size(), 1u);
  // Counts that are negative, fractional or past 2^53, and int32 fields
  // outside its range, are refused instead of cast.
  for (const char* key : {"neg", "frac", "huge"}) {
    EXPECT_THROW(json::size_field(v, key, loader_fail), DomainError) << key;
  }
  EXPECT_THROW(json::int_field(v, "big", loader_fail), DomainError);
  EXPECT_THROW(json::num_field(v, "s", loader_fail), DomainError);
  try {
    json::field(v, "missing", loader_fail);
    FAIL() << "no throw";
  } catch (const DomainError& e) {
    EXPECT_STREQ(e.what(), "loader: missing field 'missing'");
  }
}

TEST(Json, WriteLineWritesOneRecordAndFailsOnABadStream) {
  std::ostringstream out;
  const json::Value record = json::Object{{"a", 1}};
  EXPECT_EQ(json::write_line(out, record, loader_fail), 8u);
  EXPECT_EQ(out.str(), "{\"a\":1}\n");

  out.setstate(std::ios::badbit);
  try {
    json::write_line(out, record, loader_fail);
    FAIL() << "a write to a bad stream was reported as done";
  } catch (const DomainError& e) {
    EXPECT_STREQ(e.what(), "loader: write failed");
  }
}

TEST(Json, ReadLinesSkipsOnlyACutLastLine) {
  const auto read = [](const std::string& text,
                       std::vector<std::size_t>* line_nos) {
    std::istringstream in(text);
    return json::read_lines(
        in, loader_fail, [&](const json::Value&) { line_nos->push_back(1); },
        [&](std::size_t line_no, const json::Value&) {
          line_nos->push_back(line_no);
          return false;
        });
  };
  std::vector<std::size_t> seen;
  EXPECT_FALSE(read("{}\n\n[1]\n", &seen));
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 3}));

  seen.clear();
  EXPECT_TRUE(read("{}\n{\"cut", &seen));
  EXPECT_EQ(seen, (std::vector<std::size_t>{1}));

  // A bad line before the last one always is an error, and so are a bad
  // last line that ends in a newline (no kill leaves one) and a cut header.
  for (const auto& [text, line] :
       {std::pair<std::string, int>{"{}\n{\"cut\n{}\n", 2},
        std::pair<std::string, int>{"{}\n{\"cut\n", 2},
        std::pair<std::string, int>{"{\"cut", 1}}) {
    try {
      read(text, &seen);
      FAIL() << text;
    } catch (const DomainError& e) {
      const std::string expected =
          "loader: line " + std::to_string(line) + ": json parse error";
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
