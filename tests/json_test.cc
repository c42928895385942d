// JsonWriter, JsonReader, JsonValue and outcome-space export tests.
#include <gtest/gtest.h>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "util/json.h"

namespace gdlog {
namespace {

TEST(JsonWriter, ObjectsAndArrays) {
  JsonWriter json;
  json.BeginObject()
      .KV("a", 1.5)
      .KV("b", std::string_view("x"))
      .Key("c")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .KV("d", true)
      .Key("e")
      .Null()
      .EndObject();
  EXPECT_EQ(json.str(), R"({"a":1.5,"b":"x","c":[1,2],"d":true,"e":null})");
}

TEST(JsonWriter, EscapesSpecials) {
  JsonWriter json;
  json.BeginArray().String("a\"b\\c\nd\te").EndArray();
  EXPECT_EQ(json.str(), "[\"a\\\"b\\\\c\\nd\\te\"]");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter json;
  json.BeginArray();
  for (int i = 0; i < 2; ++i) {
    json.BeginObject().KV("i", static_cast<long long>(i)).EndObject();
  }
  json.EndArray();
  EXPECT_EQ(json.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter a;
  a.BeginObject().EndObject();
  EXPECT_EQ(a.str(), "{}");
  JsonWriter b;
  b.BeginArray().EndArray();
  EXPECT_EQ(b.str(), "[]");
  JsonWriter c;
  c.BeginObject().Key("x").BeginArray().EndArray().EndObject();
  EXPECT_EQ(c.str(), R"({"x":[]})");
}

TEST(JsonParse, Scalars) {
  auto t = JsonValue::Parse("true");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->is_bool());
  EXPECT_TRUE(t->bool_value());
  auto n = JsonValue::Parse(" null ");
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n->is_null());
  auto s = JsonValue::Parse(R"("a\"b\nA")");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->string_value(), "a\"b\nA");
  auto num = JsonValue::Parse("-1.5e3");
  ASSERT_TRUE(num.ok());
  EXPECT_EQ(num->number_text(), "-1.5e3");
  EXPECT_DOUBLE_EQ(num->NumberAsDouble(), -1500.0);
}

TEST(JsonParse, IntegersAreExact) {
  auto big = JsonValue::Parse("9223372036854775807");
  ASSERT_TRUE(big.ok());
  auto value = big->NumberAsInt();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, INT64_MAX);
  // Fractions and overflow are rejected, not silently rounded.
  auto frac = JsonValue::Parse("1.5");
  ASSERT_TRUE(frac.ok());
  EXPECT_FALSE(frac->NumberAsInt().ok());
  auto over = JsonValue::Parse("9223372036854775808");
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->NumberAsInt().ok());
}

TEST(JsonParse, ObjectsArraysAndFind) {
  auto doc = JsonValue::Parse(
      R"({"a":[1,2,{"b":"x"}],"c":{"d":false},"e":null})");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[2].Find("b")->string_value(), "x");
  EXPECT_FALSE(doc->Find("c")->Find("d")->bool_value());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter json;
  json.BeginObject()
      .KV("s", "tricky \"\\\n\t chars")
      .KV("n", 0.1)
      .KV("i", static_cast<long long>(-42))
      .KV("b", false)
      .Key("a")
      .BeginArray()
      .Null()
      .EndArray()
      .EndObject();
  auto doc = JsonValue::Parse(json.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string_value(), "tricky \"\\\n\t chars");
  EXPECT_DOUBLE_EQ(doc->Find("n")->NumberAsDouble(), 0.1);
  EXPECT_EQ(*doc->Find("i")->NumberAsInt(), -42);
  EXPECT_TRUE(doc->Find("a")->array()[0].is_null());
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", R"({"a")", R"({"a":})", "tru", "01x", "[1] extra",
        R"("unterminated)", R"({"a":1,})", "[,]", "nan",
        // RFC 8259 number grammar: no leading '+', no leading zeros, no
        // bare or trailing decimal point, no hex.
        "[+1]", "[01]", "[.5]", "[1.]", "[1e]", "[0x1p3]"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << "input: " << bad;
  }
}

// ---------------------------------------------------------------------------
// Wire hardening: server request bodies are untrusted, so the parser
// enforces RFC 8259 strings in full — escaped control characters only,
// paired surrogates, shortest-form UTF-8.
// ---------------------------------------------------------------------------

TEST(JsonParse, RejectsUnescapedControlCharacters) {
  std::string ctrl = "\"a";
  ctrl += '\x01';
  ctrl += "b\"";
  EXPECT_FALSE(JsonValue::Parse(ctrl).ok());
  std::string nul = "\"a";
  nul += '\0';
  nul += "b\"";
  EXPECT_FALSE(JsonValue::Parse(nul).ok());
  EXPECT_FALSE(JsonValue::Parse("\"line\nbreak\"").ok());
  // The escaped forms of the same characters are fine.
  auto ok = JsonValue::Parse(R"("a\u0001b\nc\u0000")");
  ASSERT_TRUE(ok.ok());
  std::string expected = "a";
  expected += '\x01';
  expected += "b\nc";
  expected += '\0';
  EXPECT_EQ(ok->string_value(), expected);
}

TEST(JsonParse, RejectsInvalidUtf8) {
  for (const char* bad : {
           "\"\x80\"",          // lone continuation byte
           "\"\xC3(\"",         // 2-byte lead without continuation
           "\"\xC0\xAF\"",      // overlong '/' (2 bytes)
           "\"\xC1\x81\"",      // overlong 'A'-range lead
           "\"\xE0\x80\xAF\"",  // overlong (3 bytes)
           "\"\xF0\x80\x80\xAF\"",  // overlong (4 bytes)
           "\"\xED\xA0\x80\"",  // UTF-8-encoded surrogate U+D800
           "\"\xF4\x90\x80\x80\"",  // > U+10FFFF
           "\"\xF5\x80\x80\x80\"",  // invalid lead byte
           "\"\xE2\x82\"",      // truncated at end of string
       }) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << "input: " << bad;
  }
}

TEST(JsonParse, AcceptsValidUtf8Verbatim) {
  // 2-, 3- and 4-byte sequences pass through untouched.
  std::string s = "\"\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80\"";
  auto doc = JsonValue::Parse(s);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), s.substr(1, s.size() - 2));
}

TEST(JsonParse, SurrogatePairEscapes) {
  // \uD83D\uDE00 is the surrogate-pair escape of U+1F600, which must
  // come back combined, as 4-byte UTF-8.
  auto pair = JsonValue::Parse(R"("\uD83D\uDE00")");
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->string_value(), "\xF0\x9F\x98\x80");
  // Lone or mispaired surrogate escapes are rejected.
  EXPECT_FALSE(JsonValue::Parse(R"("\uD83D")").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\uDE00")").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\uD83Dx")").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\uD83DA")").ok());
}

TEST(JsonWriter, EscapesAllControlCharacters) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw += static_cast<char>(c);
  JsonWriter json;
  json.String(raw);
  // Nothing below 0x20 may appear raw in the output...
  for (char c : json.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  // ...and the hardened parser round-trips it back byte-for-byte.
  auto parsed = JsonValue::Parse(json.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), raw);
}

TEST(JsonParse, LenientModeRoundTripsArbitraryWriterBytes) {
  // Program string constants may hold arbitrary bytes (the surface lexer
  // does not restrict them); JsonWriter emits them verbatim, and the
  // shard partial-space import must read back exactly what was written —
  // that is what strict_strings=false exists for.
  std::string raw = "caf";
  raw += '\xE9';  // Latin-1 é: invalid as UTF-8
  raw += '\x80';  // lone continuation byte
  JsonWriter writer;
  writer.BeginObject().KV("s", raw).EndObject();
  EXPECT_FALSE(JsonValue::Parse(writer.str()).ok());  // strict: rejected
  JsonParseOptions lenient;
  lenient.strict_strings = false;
  auto doc = JsonValue::Parse(writer.str(), lenient);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string_value(), raw);
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  std::string shallow(20, '[');
  shallow += std::string(20, ']');
  EXPECT_TRUE(JsonValue::Parse(shallow).ok());
}

// ---------------------------------------------------------------------------
// JsonReader: the pull reader JsonValue::Parse and the partial decoder
// share.
// ---------------------------------------------------------------------------

TEST(JsonReader, WalksADocumentWithoutATree) {
  const std::string text =
      R"( {"name":"plain","k\u0065y":"esc\"aped","n":-1.5e3,)"
      R"("list":[true,null,false],"empty":{}} )";
  JsonReader reader(text);
  ASSERT_TRUE(reader.BeginObject().ok());
  std::string_view key, value;

  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "name");
  ASSERT_TRUE(reader.ReadString(&value).ok());
  EXPECT_EQ(value, "plain");
  // Unescaped strings are views into the input itself.
  EXPECT_GE(value.data(), text.data());
  EXPECT_LT(value.data(), text.data() + text.size());

  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "key");  // decoded from its \u escape
  ASSERT_TRUE(reader.ReadString(&value).ok());
  EXPECT_EQ(value, "esc\"aped");

  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(*reader.Peek(), JsonValue::Kind::kNumber);
  ASSERT_TRUE(reader.ReadNumber(&value).ok());
  EXPECT_EQ(value, "-1.5e3");

  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "list");
  ASSERT_TRUE(reader.BeginArray().ok());
  bool b = false;
  ASSERT_TRUE(*reader.NextElement());
  ASSERT_TRUE(reader.ReadBool(&b).ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(*reader.NextElement());
  ASSERT_TRUE(reader.ReadNull().ok());
  ASSERT_TRUE(*reader.NextElement());
  ASSERT_TRUE(reader.ReadBool(&b).ok());
  EXPECT_FALSE(b);
  EXPECT_FALSE(*reader.NextElement());

  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "empty");
  ASSERT_TRUE(reader.BeginObject().ok());
  EXPECT_FALSE(*reader.NextMember(&key));
  EXPECT_FALSE(*reader.NextMember(&key));
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(JsonReader, KindMismatchesAndTrailingContentAreErrors) {
  JsonReader reader(R"("text")");
  std::string_view number;
  EXPECT_FALSE(reader.ReadNumber(&number).ok());
  EXPECT_FALSE(reader.BeginObject().ok());

  JsonReader trailing("[] []");
  ASSERT_TRUE(trailing.BeginArray().ok());
  EXPECT_FALSE(*trailing.NextElement());
  Status status = trailing.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("trailing content"), std::string::npos);
}

TEST(JsonReader, SkipValueSkipsNestedUnknownMembers) {
  JsonReader reader(
      R"({"keep":1,"skip":{"a":[1,{"b":"x\"}]"},[[]],-0.5e-2],"c":{},)"
      R"("d":[{"e":[null,true,"é"]}]},"also":"z"})");
  ASSERT_TRUE(reader.BeginObject().ok());
  std::string_view key, value;
  ASSERT_TRUE(*reader.NextMember(&key));
  ASSERT_TRUE(reader.ReadNumber(&value).ok());
  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "skip");
  ASSERT_TRUE(reader.SkipValue().ok());
  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "also");
  ASSERT_TRUE(reader.ReadString(&value).ok());
  EXPECT_EQ(value, "z");
  EXPECT_FALSE(*reader.NextMember(&key));
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(JsonReader, SkipValueValidatesWhatItSkips) {
  for (const char* bad : {R"({"skip":[1,]})", R"({"skip":{"a"}})",
                          R"({"skip":[01]})", R"({"skip":tru})",
                          R"({"skip":"\x"})", R"({"skip":[1})"}) {
    JsonReader reader(bad);
    ASSERT_TRUE(reader.BeginObject().ok()) << bad;
    std::string_view key;
    ASSERT_TRUE(*reader.NextMember(&key)) << bad;
    EXPECT_FALSE(reader.SkipValue().ok()) << bad;
  }
  // Strict strings stay strict when skipped.
  std::string ctrl = "[\"a";
  ctrl += '\x01';
  ctrl += "\"]";
  EXPECT_FALSE(JsonReader(ctrl).SkipValue().ok());
  JsonParseOptions lenient;
  lenient.strict_strings = false;
  EXPECT_TRUE(JsonReader(ctrl, lenient).SkipValue().ok());
}

std::string NestedArrays(size_t levels, const char* inner) {
  return std::string(levels, '[') + inner + std::string(levels, ']');
}

TEST(JsonReader, DepthLimitIsExact) {
  // n arrays put the innermost array at depth n-1 and a scalar inside it
  // at depth n; values deeper than kMaxDepth are rejected.
  constexpr size_t kMax = JsonReader::kMaxDepth;
  EXPECT_TRUE(JsonValue::Parse(NestedArrays(kMax + 1, "")).ok());
  EXPECT_FALSE(JsonValue::Parse(NestedArrays(kMax + 2, "")).ok());
  EXPECT_TRUE(JsonValue::Parse(NestedArrays(kMax, "1")).ok());
  EXPECT_FALSE(JsonValue::Parse(NestedArrays(kMax + 1, "1")).ok());
  // SkipValue draws the line in the same place.
  EXPECT_TRUE(JsonReader(NestedArrays(kMax + 1, "")).SkipValue().ok());
  EXPECT_FALSE(JsonReader(NestedArrays(kMax + 2, "")).SkipValue().ok());
  EXPECT_TRUE(JsonReader(NestedArrays(kMax, "1")).SkipValue().ok());
  EXPECT_FALSE(JsonReader(NestedArrays(kMax + 1, "1")).SkipValue().ok());
}

TEST(JsonReader, SkippedValueDeeperThanTheLimitIsRejectedNotRecursed) {
  // Far deeper than any stack would survive if skipping recursed: the
  // reader stops at kMaxDepth with an error instead.
  std::string deep = R"({"unknown":)" + std::string(1 << 20, '[');
  JsonReader reader(deep);
  ASSERT_TRUE(reader.BeginObject().ok());
  std::string_view key;
  ASSERT_TRUE(*reader.NextMember(&key));
  Status status = reader.SkipValue();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nesting too deep"), std::string::npos);
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonExport, CoinOutcomeSpace) {
  auto engine = GDatalog::Create(
      "coin(flip<0.5>). :- coin(0).\n"
      "aux1 :- coin(1), not aux2. aux2 :- coin(1), not aux1.",
      "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());

  JsonExportOptions options;
  options.include_models = true;
  std::string json = OutcomeSpaceToJson(*space, engine->translated(),
                                        engine->program().interner(), options);
  // Structural spot checks (kept robust to field ordering of maps).
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
  EXPECT_NE(json.find("\"num_outcomes\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rational\":\"1/2\""), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("coin(1)"), std::string::npos);
  // Auxiliary Active/Result atoms are stripped from exported models.
  EXPECT_EQ(json.find("\"models\":[[\"__"), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(JsonExport, OptionsControlSections) {
  auto engine = GDatalog::Create("c(flip<0.5>).", "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());

  JsonExportOptions no_outcomes;
  no_outcomes.include_outcomes = false;
  no_outcomes.include_events = false;
  std::string json = OutcomeSpaceToJson(*space, engine->translated(),
                                        engine->program().interner(),
                                        no_outcomes);
  EXPECT_EQ(json.find("\"outcomes\""), std::string::npos);
  EXPECT_EQ(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"prob_consistent\""), std::string::npos);
}

TEST(JsonExport, InexactMassesExportNullRational) {
  // Poisson masses are irrational: rational field must be null.
  auto engine = GDatalog::Create("n(poisson<2.0>).", "");
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.support_limit = 4;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  std::string json = OutcomeSpaceToJson(*space, engine->translated(),
                                        engine->program().interner());
  EXPECT_NE(json.find("\"rational\":null"), std::string::npos);
  EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
}

}  // namespace
}  // namespace gdlog
