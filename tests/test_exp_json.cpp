// JSON document model used by the sweep artifacts: parse/dump round
// trips, deterministic number rendering, strict error reporting.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "exp/json.hpp"

using latdiv::exp::JsonValue;
using latdiv::exp::json_escape;
using latdiv::exp::json_number;

TEST(ExpJson, ScalarKinds) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).as_bool());
  EXPECT_DOUBLE_EQ(JsonValue(2.5).as_number(), 2.5);
  EXPECT_EQ(JsonValue("hi").as_string(), "hi");
  EXPECT_THROW((void)JsonValue(2.5).as_string(), std::runtime_error);
  EXPECT_THROW((void)JsonValue("hi").as_number(), std::runtime_error);
}

TEST(ExpJson, ObjectPreservesInsertionOrder) {
  JsonValue obj{JsonValue::Object{}};
  obj.set("zebra", 1.0);
  obj.set("apple", 2.0);
  obj.set("mango", 3.0);
  const std::string text = obj.dump();
  EXPECT_LT(text.find("zebra"), text.find("apple"));
  EXPECT_LT(text.find("apple"), text.find("mango"));

  // And parsing preserves the document's order too.
  const JsonValue back = JsonValue::parse(text);
  ASSERT_EQ(back.as_object().size(), 3u);
  EXPECT_EQ(back.as_object()[0].first, "zebra");
  EXPECT_EQ(back.as_object()[2].first, "mango");
}

TEST(ExpJson, FindAndAt) {
  JsonValue obj{JsonValue::Object{}};
  obj.set("ipc", 1.25);
  ASSERT_NE(obj.find("ipc"), nullptr);
  EXPECT_DOUBLE_EQ(obj.at("ipc").as_number(), 1.25);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW((void)obj.at("missing"), std::runtime_error);
  EXPECT_EQ(JsonValue(1.0).find("x"), nullptr);  // non-object
}

TEST(ExpJson, DumpParseRoundTripIsByteStable) {
  JsonValue doc{JsonValue::Object{}};
  doc.set("name", "fig8");
  doc.set("ok", true);
  doc.set("nothing", JsonValue());
  JsonValue arr{JsonValue::Array{}};
  arr.push_back(1.0);
  arr.push_back(0.30000000000000004);  // classic non-representable sum
  arr.push_back("x\"y\\z\n");
  doc.set("vals", std::move(arr));

  const std::string once = doc.dump();
  const std::string twice = JsonValue::parse(once).dump();
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.back(), '\n');
}

TEST(ExpJson, NumberRenderingShortestRoundTrip) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.5), "1.5");
  // Non-finite values are not representable in JSON.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");

  // Shortest form must strtod back to the identical double.
  for (const double v : {1.0 / 3.0, 0.30000000000000004, 6.02214076e23,
                         1e-300, 123456789.123456789}) {
    const std::string s = json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(ExpJson, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(ExpJson, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{} extra"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), std::runtime_error);
}

// Nesting is capped so hostile input cannot exhaust the stack: 256
// levels parse, the 257th opening bracket is rejected at its byte offset,
// and two million brackets fail the same way instead of crashing.
TEST(ExpJson, ParseCapsNestingDepth) {
  const std::string ok = std::string(256, '[') + std::string(256, ']');
  EXPECT_NO_THROW((void)JsonValue::parse(ok));

  const auto error_of = [](const std::string& text) {
    try {
      (void)JsonValue::parse(text);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error_of(std::string(257, '[') + std::string(257, ']')),
            "json: nesting too deep at byte 256");
  std::string objects;
  for (int i = 0; i < 300; ++i) objects += "{\"a\":";
  EXPECT_EQ(error_of(objects), "json: nesting too deep at byte 1280");
  EXPECT_EQ(error_of(std::string(2'000'000, '[')),
            "json: nesting too deep at byte 256");
}

TEST(ExpJson, ParseAcceptsNestedDocument) {
  const JsonValue doc = JsonValue::parse(
      R"({"cells": [{"row": "bfs", "metrics": {"ipc": {"mean": 1.5}}}],
          "n": 3, "neg": -2.5e-3})");
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("neg").as_number(), -2.5e-3);
  const JsonValue& cell = doc.at("cells").as_array()[0];
  EXPECT_EQ(cell.at("row").as_string(), "bfs");
  EXPECT_DOUBLE_EQ(
      cell.at("metrics").at("ipc").at("mean").as_number(), 1.5);
}
