#include "support/json.hpp"

#include <gtest/gtest.h>

namespace feam::support {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5")->as_number(), 3.5);
  EXPECT_EQ(Json::parse("-42")->as_int(), -42);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, NestedStructure) {
  const auto v = Json::parse(R"({"libs": ["libc.so.6", "libmpi.so.0"],
                                 "bits": 64, "ok": true})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)["libs"].as_array().size(), 2u);
  EXPECT_EQ((*v)["libs"].as_array()[1].as_string(), "libmpi.so.0");
  EXPECT_EQ(v->get_int("bits"), 64);
  EXPECT_TRUE(v->get_bool("ok"));
}

TEST(JsonParse, StringEscapes) {
  const auto v = Json::parse(R"("a\nb\t\"q\"\\A")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\nb\t\"q\"\\A");
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("tru").has_value());
  EXPECT_FALSE(Json::parse("1 2").has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
}

TEST(JsonAccess, MissingKeysAreNull) {
  const Json v = *Json::parse("{\"a\": 1}");
  EXPECT_TRUE(v["missing"].is_null());
  EXPECT_EQ(v.get_string("missing", "fallback"), "fallback");
  EXPECT_EQ(v.get_int("missing", 7), 7);
}

TEST(JsonDump, RoundTrip) {
  Json obj;
  obj.set("name", "libmpich.so.1.2");
  obj.set("size", std::int64_t{2621440});
  obj.set("versions", Json(Json::Array{Json("GLIBC_2.3"), Json("GLIBC_2.4")}));
  Json nested;
  nested.set("deep", true);
  obj.set("meta", nested);

  for (const int indent : {0, 2}) {
    const auto reparsed = Json::parse(obj.dump(indent));
    ASSERT_TRUE(reparsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(reparsed->get_string("name"), "libmpich.so.1.2");
    EXPECT_EQ(reparsed->get_int("size"), 2621440);
    EXPECT_EQ((*reparsed)["versions"].as_array().size(), 2u);
    EXPECT_TRUE((*reparsed)["meta"].get_bool("deep"));
  }
}

TEST(JsonDump, DeterministicKeyOrder) {
  Json a;
  a.set("zeta", 1);
  a.set("alpha", 2);
  Json b;
  b.set("alpha", 2);
  b.set("zeta", 1);
  EXPECT_EQ(a.dump(), b.dump());  // std::map ordering, insertion-order free
}

TEST(JsonDump, EscapesControlCharacters) {
  const Json v{std::string("a\x01z")};
  const auto reparsed = Json::parse(v.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), "a\x01z");
}

TEST(JsonDump, PlainRunsEndAtEveryEscapeBoundary) {
  // The writer copies plain ASCII runs in bulk; each run below ends at a
  // byte that needs attention (or is the last plain one), then resumes.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"plain run\"tail", R"("plain run\"tail")"},
      {"plain run\\tail", R"("plain run\\tail")"},
      {"plain run\x1ftail", R"("plain run\u001ftail")"},
      {"plain run\x7ftail", "\"plain run\x7ftail\""},  // DEL stays raw
      {"plain run\x80tail", R"("plain run\u0080tail")"},
      {"plain run to the end", R"("plain run to the end")"},
      {"", R"("")"},
      {"\"", R"("\"")"},
      {"\x1f\x1f", R"("\u001f\u001f")"},
      {"ok\xc3\xa9ok\xf0\x9d\x84\x9e", "\"ok\xc3\xa9ok\\ud834\\udd1e\""},
  };
  for (const auto& [raw, expected] : cases) {
    EXPECT_EQ(Json(raw).dump(), expected);
    std::string appended = "x";
    append_json_string(appended, raw);
    EXPECT_EQ(appended, "x" + expected);
    const auto reparsed = Json::parse(expected);
    ASSERT_TRUE(reparsed.has_value()) << expected;
  }
}

TEST(JsonDump, NumbersMatchTheTreeFormatter) {
  const std::vector<std::pair<double, std::string>> cases = {
      {0.0, "0"},
      {-0.0, "0"},
      {-42.0, "-42"},
      {999999999999999.0, "999999999999999"},  // last integer below 1e15
      {1e15, "1000000000000000"},              // %.17g from here on
      {9007199254740993.0, "9007199254740992"},  // 2^53 + 1 rounds
      {0.5, "0.5"},
      {0.1, "0.10000000000000001"},
  };
  for (const auto& [value, expected] : cases) {
    EXPECT_EQ(Json(value).dump(), expected);
    std::string appended;
    append_json_number(appended, value);
    EXPECT_EQ(appended, expected);
  }
}

TEST(JsonDump, QuotesAndBackslashesRoundTrip) {
  const std::string nasty = "say \"hi\" c:\\path\\to\nend\tok\r.";
  const auto reparsed = Json::parse(Json(nasty).dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), nasty);
}

TEST(JsonDump, ValidUtf8RoundTrips) {
  // 2-, 3-, and 4-byte UTF-8 sequences (é, €, 𝄞). BMP sequences pass
  // through raw; the non-BMP one writes as a surrogate pair but decodes
  // back to the identical bytes.
  const std::string text = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e";
  const std::string dumped = Json(text).dump();
  EXPECT_NE(dumped.find("caf\xc3\xa9"), std::string::npos);
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), text);
}

TEST(JsonDump, NonBmpWritesAsSurrogatePairAndRoundTrips) {
  // U+1D11E MUSICAL SYMBOL G CLEF and U+10FFFF, the last codepoint.
  const std::string clef = "\xf0\x9d\x84\x9e";
  const std::string last = "\xf4\x8f\xbf\xbf";
  const std::string dumped = Json(clef + last).dump();
  EXPECT_EQ(dumped, "\"\\ud834\\udd1e\\udbff\\udfff\"");
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), clef + last);
  // And the re-dump is byte-stable.
  EXPECT_EQ(reparsed->dump(), dumped);
}

TEST(JsonParse, SurrogatePairEscapesDecodeToUtf8) {
  const auto parsed = Json::parse("\"\\uD834\\uDD1E\"");  // uppercase hex too
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "\xf0\x9d\x84\x9e");
}

TEST(JsonParse, RejectsLoneAndMismatchedSurrogates) {
  EXPECT_FALSE(Json::parse("\"\\ud834\"").has_value());        // lone high
  EXPECT_FALSE(Json::parse("\"\\udd1e\"").has_value());        // lone low
  EXPECT_FALSE(Json::parse("\"\\ud834\\u0041\"").has_value()); // high + BMP
  EXPECT_FALSE(Json::parse("\"\\ud834x\"").has_value());       // high + raw
  EXPECT_FALSE(Json::parse("\"\\ud834\\ud835\"").has_value()); // high + high
}

TEST(JsonDump, InvalidUtf8BytesAreEscapedToValidJson) {
  // The shapes a synthetic ELF .comment section can smuggle in: a stray
  // continuation byte, an overlong lead, a truncated sequence, 0xff.
  const std::vector<std::string> cases = {
      std::string("GCC: (GNU) 4.1.2 \x93 oops"),   // stray continuation
      std::string("\xc0\xaf" "bad overlong"),      // 0xc0 never valid
      std::string("truncated \xe2\x82"),           // 3-byte seq cut short
      std::string("\xff\xfe byte-order mark-ish"), // never-valid bytes
      std::string("ed surrogate \xed\xa0\x80"),    // encoded surrogate
  };
  for (const auto& raw : cases) {
    const std::string dumped = Json(raw).dump();
    const auto reparsed = Json::parse(dumped);
    ASSERT_TRUE(reparsed.has_value()) << dumped;
    // Every escaped invalid byte decodes to its Latin-1 codepoint, so no
    // information is silently dropped.
    EXPECT_FALSE(reparsed->as_string().empty());
  }
}

TEST(JsonDump, InvalidByteSurvivesAsLatin1Codepoint) {
  const std::string raw = "a\x93z";
  const std::string dumped = Json(raw).dump();
  EXPECT_NE(dumped.find("\\u0093"), std::string::npos);
  const auto reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  // \u0093 decodes as UTF-8 for U+0093 (0xc2 0x93).
  EXPECT_EQ(reparsed->as_string(), "a\xc2\x93z");
}

}  // namespace
}  // namespace feam::support
