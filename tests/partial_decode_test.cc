// Differential fuzz suite for PartialSpaceFromJson, the single-pass
// decoder of serialized shard partials. The reference is the DOM-walk
// decoder it replaced, kept verbatim below: parse the whole line into a
// JsonValue tree, then look members up by name. Three properties:
//
//  - Valid partials from real chases (E1 clique-4, E3 dime/quarter, symbol
//    names with escaped and raw non-ASCII bytes, inexact masses) at
//    {1, 4, 64} shards decode to exactly the partial that was serialized
//    and re-serialize to identical bytes.
//  - Rewrites that keep a document's meaning — members reordered, unknown
//    members added, duplicate keys after the first, strings re-escaped —
//    still decode to the source partial.
//  - Seeded mutations (truncation, byte flips, reordered, unknown and
//    duplicate keys, nesting past the depth limit, out-of-range masses,
//    unknown symbols, type confusion) and float literals in every
//    spelling strtod takes or refuses are accepted or rejected exactly
//    when the reference accepts or rejects them, with the same decoded
//    value when accepted.
//
// Fixed seeds and no dependencies beyond gtest, so the suite runs as-is
// under the sanitizer jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/shard.h"
#include "util/json.h"

namespace gdlog {
namespace {

// ---------------------------------------------------------------------------
// Reference: the DOM-walk decoder, verbatim.
// ---------------------------------------------------------------------------

namespace reference {

constexpr const char* kPartialFormat = "gdlog.partial.v1";

Status FieldError(const std::string& what) {
  return Status::InvalidArgument("partial space: " + what);
}

Result<size_t> ReadSize(const JsonValue& obj, std::string_view key) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr || !field->is_number()) {
    return FieldError("missing numeric field '" + std::string(key) + "'");
  }
  GDLOG_ASSIGN_OR_RETURN(long long value, field->NumberAsInt());
  if (value < 0) return FieldError("negative '" + std::string(key) + "'");
  return static_cast<size_t>(value);
}

/// Parses a full hex-float (or decimal) double; rejects trailing garbage.
Result<double> ParseDouble(const std::string& text) {
  if (text.empty()) return FieldError("empty floating-point literal");
  char* end = nullptr;
  double d = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return FieldError("malformed floating-point literal '" + text + "'");
  }
  return d;
}

Result<Prob> ReadProb(const JsonValue& value) {
  if (!value.is_object()) return FieldError("malformed probability");
  if (const JsonValue* hex = value.Find("x"); hex != nullptr) {
    if (!hex->is_string()) return FieldError("malformed inexact mass");
    GDLOG_ASSIGN_OR_RETURN(double d, ParseDouble(hex->string_value()));
    // A corrupt partial must not smuggle in an out-of-range "probability"
    // that silently skews the merged masses.
    if (!(d >= 0.0) || !(d <= 1.0)) {
      return FieldError("mass outside [0, 1]: " + hex->string_value());
    }
    return Prob(Rational::Approx(d));
  }
  const JsonValue* num = value.Find("n");
  const JsonValue* den = value.Find("d");
  if (num == nullptr || den == nullptr || !num->is_number() ||
      !den->is_number()) {
    return FieldError("malformed rational mass");
  }
  GDLOG_ASSIGN_OR_RETURN(long long n, num->NumberAsInt());
  GDLOG_ASSIGN_OR_RETURN(long long d, den->NumberAsInt());
  if (d <= 0) return FieldError("non-positive denominator");
  if (n < 0 || n > d) return FieldError("rational mass outside [0, 1]");
  return Prob(Rational(n, d));
}

Result<Value> ReadValue(const JsonValue& value, const Interner& interner) {
  const JsonValue* tag = value.is_object() ? value.Find("t") : nullptr;
  const JsonValue* payload = value.is_object() ? value.Find("v") : nullptr;
  if (tag == nullptr || payload == nullptr || !tag->is_string()) {
    return FieldError("malformed constant");
  }
  const std::string& t = tag->string_value();
  if (t == "b") {
    if (!payload->is_bool()) return FieldError("malformed bool constant");
    return Value::Bool(payload->bool_value());
  }
  if (t == "i") {
    if (!payload->is_number()) return FieldError("malformed int constant");
    GDLOG_ASSIGN_OR_RETURN(long long i, payload->NumberAsInt());
    return Value::Int(i);
  }
  if (t == "d") {
    if (!payload->is_string()) return FieldError("malformed double constant");
    GDLOG_ASSIGN_OR_RETURN(double d, ParseDouble(payload->string_value()));
    return Value::Double(d);
  }
  if (t == "s") {
    if (!payload->is_string()) return FieldError("malformed symbol constant");
    uint32_t id = interner.Lookup(payload->string_value());
    if (id == Interner::kNotFound) {
      return FieldError("unknown symbol '" + payload->string_value() +
                        "' (partial produced by a different program?)");
    }
    return Value::Symbol(id);
  }
  return FieldError("unknown constant tag '" + t + "'");
}

Result<GroundAtom> ReadAtom(const JsonValue& value,
                            const Interner& interner) {
  const JsonValue* pred = value.is_object() ? value.Find("p") : nullptr;
  const JsonValue* args = value.is_object() ? value.Find("a") : nullptr;
  if (pred == nullptr || args == nullptr || !pred->is_string() ||
      !args->is_array()) {
    return FieldError("malformed atom");
  }
  GroundAtom atom;
  atom.predicate = interner.Lookup(pred->string_value());
  if (atom.predicate == Interner::kNotFound) {
    return FieldError("unknown predicate '" + pred->string_value() +
                      "' (partial produced by a different program?)");
  }
  atom.args.reserve(args->array().size());
  for (const JsonValue& arg : args->array()) {
    GDLOG_ASSIGN_OR_RETURN(Value v, ReadValue(arg, interner));
    atom.args.push_back(v);
  }
  return atom;
}

Result<ChoiceSet> ReadChoices(const JsonValue& value,
                              const Interner& interner) {
  if (!value.is_array()) return FieldError("malformed choice set");
  ChoiceSet choices;
  for (const JsonValue& entry : value.array()) {
    const JsonValue* active = entry.is_object() ? entry.Find("active")
                                                : nullptr;
    const JsonValue* outcome = entry.is_object() ? entry.Find("outcome")
                                                 : nullptr;
    if (active == nullptr || outcome == nullptr) {
      return FieldError("malformed choice entry");
    }
    GDLOG_ASSIGN_OR_RETURN(GroundAtom atom, ReadAtom(*active, interner));
    GDLOG_ASSIGN_OR_RETURN(Value v, ReadValue(*outcome, interner));
    if (!choices.Assign(atom, v)) {
      return FieldError("functionally inconsistent serialized choice set");
    }
  }
  return choices;
}


Result<PartialSpace> PartialSpaceFromJson(std::string_view json_text,
                                          const Interner& interner,
                                          ShardPartialMeta* meta) {
  // Partials come from a JsonWriter in a sibling worker process, which
  // copies symbol-name bytes verbatim — and the surface lexer admits
  // arbitrary bytes in string constants — so strings here must read back
  // exactly as written rather than pass the untrusted-wire UTF-8 checks.
  JsonParseOptions parse_options;
  parse_options.strict_strings = false;
  GDLOG_ASSIGN_OR_RETURN(JsonValue doc,
                         JsonValue::Parse(json_text, parse_options));
  if (!doc.is_object()) return FieldError("document is not an object");
  const JsonValue* format = doc.Find("format");
  if (format == nullptr || !format->is_string() ||
      format->string_value() != kPartialFormat) {
    return FieldError(std::string("expected format '") + kPartialFormat +
                      "'");
  }
  GDLOG_ASSIGN_OR_RETURN(meta->num_shards, ReadSize(doc, "num_shards"));
  GDLOG_ASSIGN_OR_RETURN(meta->shard_index, ReadSize(doc, "shard_index"));
  GDLOG_ASSIGN_OR_RETURN(meta->prefix_depth, ReadSize(doc, "prefix_depth"));
  // Mergers size per-shard bookkeeping by num_shards; an absurd value from
  // a corrupt file must fail here, not as an allocation crash downstream.
  constexpr size_t kMaxShards = size_t{1} << 20;
  if (meta->num_shards < 1 || meta->num_shards > kMaxShards ||
      meta->shard_index >= meta->num_shards) {
    return FieldError("shard coordinates out of range");
  }
  const JsonValue* assignment = doc.Find("assignment");
  if (assignment == nullptr || !assignment->is_string()) {
    return FieldError("missing 'assignment'");
  }
  {
    auto parsed = ParseShardAssignment(assignment->string_value());
    if (!parsed.ok()) return FieldError("malformed 'assignment'");
    meta->assignment = *parsed;
  }
  GDLOG_ASSIGN_OR_RETURN(meta->max_outcomes, ReadSize(doc, "max_outcomes"));
  GDLOG_ASSIGN_OR_RETURN(meta->max_depth, ReadSize(doc, "max_depth"));
  GDLOG_ASSIGN_OR_RETURN(meta->support_limit, ReadSize(doc, "support_limit"));
  const JsonValue* seed = doc.Find("trigger_shuffle_seed");
  if (seed == nullptr || !seed->is_string()) {
    return FieldError("missing 'trigger_shuffle_seed'");
  }
  {
    const std::string& text = seed->string_value();
    errno = 0;
    char* end = nullptr;
    meta->trigger_shuffle_seed = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || text.empty() ||
        end != text.c_str() + text.size()) {
      return FieldError("malformed 'trigger_shuffle_seed'");
    }
  }
  const JsonValue* min_prob = doc.Find("min_path_prob");
  if (min_prob == nullptr || !min_prob->is_string()) {
    return FieldError("missing 'min_path_prob'");
  }
  GDLOG_ASSIGN_OR_RETURN(meta->min_path_prob,
                         ParseDouble(min_prob->string_value()));

  PartialSpace partial;
  const JsonValue* budget = doc.Find("budget_hit");
  if (budget == nullptr || !budget->is_bool()) {
    return FieldError("missing 'budget_hit'");
  }
  partial.budget_hit = budget->bool_value();
  GDLOG_ASSIGN_OR_RETURN(partial.depth_truncated_paths,
                         ReadSize(doc, "depth_truncated_paths"));
  GDLOG_ASSIGN_OR_RETURN(partial.pruned_paths, ReadSize(doc, "pruned_paths"));

  const JsonValue* outcomes = doc.Find("outcomes");
  if (outcomes == nullptr || !outcomes->is_array()) {
    return FieldError("missing 'outcomes'");
  }
  partial.outcomes.reserve(outcomes->array().size());
  for (const JsonValue& entry : outcomes->array()) {
    if (!entry.is_object()) return FieldError("malformed outcome");
    const JsonValue* prob = entry.Find("prob");
    const JsonValue* choices = entry.Find("choices");
    const JsonValue* models = entry.Find("models");
    if (prob == nullptr || choices == nullptr || models == nullptr ||
        !models->is_array()) {
      return FieldError("malformed outcome");
    }
    PossibleOutcome outcome;
    GDLOG_ASSIGN_OR_RETURN(outcome.prob, ReadProb(*prob));
    GDLOG_ASSIGN_OR_RETURN(outcome.choices, ReadChoices(*choices, interner));
    for (const JsonValue& model_entry : models->array()) {
      if (!model_entry.is_array()) return FieldError("malformed model");
      StableModel model;
      model.reserve(model_entry.array().size());
      for (const JsonValue& atom_entry : model_entry.array()) {
        GDLOG_ASSIGN_OR_RETURN(GroundAtom atom,
                               ReadAtom(atom_entry, interner));
        model.push_back(std::move(atom));
      }
      outcome.models.insert(std::move(model));
    }
    partial.outcomes.push_back(std::move(outcome));
  }

  const JsonValue* truncations = doc.Find("truncations");
  if (truncations == nullptr || !truncations->is_array()) {
    return FieldError("missing 'truncations'");
  }
  partial.truncations.reserve(truncations->array().size());
  for (const JsonValue& entry : truncations->array()) {
    if (!entry.is_object()) return FieldError("malformed truncation");
    const JsonValue* choices = entry.Find("choices");
    const JsonValue* mass = entry.Find("mass");
    if (choices == nullptr || mass == nullptr) {
      return FieldError("malformed truncation");
    }
    GDLOG_ASSIGN_OR_RETURN(ChoiceSet cs, ReadChoices(*choices, interner));
    GDLOG_ASSIGN_OR_RETURN(Prob tail, ReadProb(*mass));
    partial.truncations.emplace_back(std::move(cs), tail);
  }
  return partial;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Corpus: real partials from real chases.
// ---------------------------------------------------------------------------

constexpr const char* kNetworkProgram = R"(
  infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
  uninfected(X) :- router(X), not infected(X, 1).
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

std::string Clique(int n) {
  std::string db;
  for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + ", " + std::to_string(j) +
              ").\n";
      }
    }
  }
  db += "infected(1, 1).\n";
  return db;
}

constexpr const char* kDimeQuarterProgram = R"(
  dimetail(X, flip<0.5>[X]) :- dime(X).
  somedimetail :- dimetail(X, 1).
  quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.
)";
constexpr const char* kDimeQuarterDb = "dime(1). dime(2). quarter(3).";

// Symbol names the writer must escape (quote, backslash, control bytes)
// or copy raw (non-ASCII bytes, valid UTF-8 and not).
constexpr const char* kSymbolProgram = "pet(X, flip<0.5>[X]) :- name(X).";
constexpr const char* kSymbolDb =
    "name(\"caf\xE9\"). name(\"q\\\"uo\\\\te\\n\"). "
    "name(\"\xF0\x9F\x98\x80 tab\there\"). name(\"\x01\x1F\x7F\").";

// Inexact masses ("x" hex floats), double constants, support truncation.
constexpr const char* kInexactProgram =
    "v(discrete<0.5, 1, 1.25, 3>). n(poisson<2.0>).";

struct CorpusCase {
  const char* label;
  const char* program;
  std::string db;
  size_t support_limit;  ///< 0 keeps the default
  uint64_t trigger_shuffle_seed;
};

std::vector<CorpusCase> CorpusCases() {
  return {
      {"clique4", kNetworkProgram, Clique(4), 0, 0},
      {"dime_quarter", kDimeQuarterProgram, kDimeQuarterDb, 0,
       0xfedcba9876543210ull},
      {"symbols", kSymbolProgram, kSymbolDb, 0, 0},
      {"inexact", kInexactProgram, "", 3, 0},
  };
}

/// One serialized shard partial with what produced it.
struct Line {
  PartialSpace partial;
  ShardPartialMeta meta;
  std::string json;
};

std::vector<Line> ShardLines(const GDatalog& engine, const CorpusCase& c,
                             size_t shards) {
  ChaseOptions options;
  options.num_threads = 1;
  if (c.support_limit != 0) options.support_limit = c.support_limit;
  options.trigger_shuffle_seed = c.trigger_shuffle_seed;
  auto plan = engine.chase().PlanShards(options, shards);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<Line> lines;
  if (!plan.ok()) return lines;
  for (size_t shard = 0; shard < plan->num_shards; ++shard) {
    auto partial = engine.chase().ExploreShard(*plan, shard, options);
    EXPECT_TRUE(partial.ok()) << partial.status().ToString();
    if (!partial.ok()) return lines;
    Line line;
    line.meta = MakeShardPartialMeta(*plan, shard, options);
    line.json =
        PartialSpaceToJson(*partial, line.meta, engine.program().interner());
    line.partial = std::move(*partial);
    lines.push_back(std::move(line));
  }
  return lines;
}

constexpr size_t kShardCounts[] = {1, 4, 64};

/// One corpus case's engine (whose interner decodes its lines) and its
/// shard lines at each of kShardCounts.
struct Corpus {
  CorpusCase c;
  std::unique_ptr<GDatalog> engine;
  std::vector<std::vector<Line>> lines;  ///< [i] at kShardCounts[i]

  const Interner& interner() const { return *engine->program().interner(); }
};

/// Built once per process: chasing clique-4 dominates the suite's time.
const std::vector<Corpus>& Corpora() {
  static const std::vector<Corpus> corpora = [] {
    std::vector<Corpus> built;
    for (CorpusCase& c : CorpusCases()) {
      auto engine = GDatalog::Create(c.program, c.db);
      EXPECT_TRUE(engine.ok()) << c.label << ": "
                               << engine.status().ToString();
      if (!engine.ok()) continue;
      Corpus corpus;
      corpus.engine = std::make_unique<GDatalog>(std::move(*engine));
      for (size_t shards : kShardCounts) {
        corpus.lines.push_back(ShardLines(*corpus.engine, c, shards));
      }
      corpus.c = std::move(c);
      built.push_back(std::move(corpus));
    }
    return built;
  }();
  return corpora;
}

void ExpectSameMeta(const ShardPartialMeta& a, const ShardPartialMeta& b) {
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.shard_index, b.shard_index);
  EXPECT_TRUE(a.SamePlanAndBudgets(b));
}

void ExpectSamePartial(const PartialSpace& a, const PartialSpace& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_TRUE(a.outcomes[i].choices == b.outcomes[i].choices) << i;
    EXPECT_EQ(a.outcomes[i].prob, b.outcomes[i].prob) << i;
    EXPECT_EQ(a.outcomes[i].models, b.outcomes[i].models) << i;
  }
  ASSERT_EQ(a.truncations.size(), b.truncations.size());
  for (size_t i = 0; i < a.truncations.size(); ++i) {
    EXPECT_TRUE(a.truncations[i].first == b.truncations[i].first) << i;
    EXPECT_EQ(a.truncations[i].second, b.truncations[i].second) << i;
  }
  EXPECT_EQ(a.depth_truncated_paths, b.depth_truncated_paths);
  EXPECT_EQ(a.pruned_paths, b.pruned_paths);
  EXPECT_EQ(a.budget_hit, b.budget_hit);
}

TEST(PartialDecodeTest, ValidPartialsRoundTripExactly) {
  ASSERT_EQ(Corpora().size(), CorpusCases().size());
  for (const Corpus& corpus : Corpora()) {
    const Interner& interner = corpus.interner();
    for (size_t i = 0; i < std::size(kShardCounts); ++i) {
      SCOPED_TRACE(std::string(corpus.c.label) + " shards=" +
                   std::to_string(kShardCounts[i]));
      ASSERT_EQ(corpus.lines[i].size(), kShardCounts[i]);
      size_t outcomes = 0;
      for (const Line& line : corpus.lines[i]) {
        ShardPartialMeta meta;
        auto decoded = PartialSpaceFromJson(line.json, interner, &meta);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        ExpectSamePartial(line.partial, *decoded);
        ExpectSameMeta(line.meta, meta);
        EXPECT_EQ(line.json, PartialSpaceToJson(*decoded, meta, &interner));
        ShardPartialMeta ref_meta;
        auto ref =
            reference::PartialSpaceFromJson(line.json, interner, &ref_meta);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        ExpectSamePartial(*ref, *decoded);
        outcomes += decoded->outcomes.size();
      }
      EXPECT_GT(outcomes, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// A mutable document tree: JsonValue is read-only, and the mutators need
// to reorder, insert and replace members before writing the text back.
// ---------------------------------------------------------------------------

using Kind = JsonValue::Kind;

struct Node {
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string scalar;  ///< string contents or number text
  std::vector<Node> items;
  std::vector<std::pair<std::string, Node>> members;

  static Node Str(std::string s) {
    Node n;
    n.kind = Kind::kString;
    n.scalar = std::move(s);
    return n;
  }
  static Node Num(std::string text) {
    Node n;
    n.kind = Kind::kNumber;
    n.scalar = std::move(text);
    return n;
  }
  static Node Bool(bool b) {
    Node n;
    n.kind = Kind::kBool;
    n.boolean = b;
    return n;
  }
  static Node Obj(std::vector<std::pair<std::string, Node>> members) {
    Node n;
    n.kind = Kind::kObject;
    n.members = std::move(members);
    return n;
  }
  static Node Arr(std::vector<Node> items) {
    Node n;
    n.kind = Kind::kArray;
    n.items = std::move(items);
    return n;
  }

  const Node* Find(std::string_view key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

Node FromJson(const JsonValue& value) {
  Node n;
  n.kind = value.kind();
  switch (value.kind()) {
    case Kind::kBool: n.boolean = value.bool_value(); break;
    case Kind::kNumber: n.scalar = value.number_text(); break;
    case Kind::kString: n.scalar = value.string_value(); break;
    case Kind::kArray:
      for (const JsonValue& item : value.array()) {
        n.items.push_back(FromJson(item));
      }
      break;
    case Kind::kObject:
      for (const auto& [key, member] : value.members()) {
        n.members.emplace_back(key, FromJson(member));
      }
      break;
    case Kind::kNull: break;
  }
  return n;
}

Node ParseNode(const std::string& text) {
  JsonParseOptions lenient;
  lenient.strict_strings = false;
  auto doc = JsonValue::Parse(text, lenient);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? FromJson(*doc) : Node();
}

/// Writes `s` as a JSON string. With `rng`, printable ASCII bytes are
/// \u-escaped at random (and '/' as "\/"), so decoders see escapes in
/// keys, tags, names and numbers-as-strings alike.
void WriteString(const std::string& s, std::mt19937_64* rng,
                 std::string* out) {
  *out += '"';
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    char buf[8];
    if (c == '"') {
      *out += "\\\"";
    } else if (c == '\\') {
      *out += "\\\\";
    } else if (c < 0x20 || (rng != nullptr && c < 0x80 && (*rng)() % 3 == 0)) {
      if (c == '/' && (*rng)() % 2 == 0) {
        *out += "\\/";
      } else {
        std::snprintf(buf, sizeof(buf), "\\u%04X", c);
        *out += buf;
      }
    } else {
      *out += ch;
    }
  }
  *out += '"';
}

void Write(const Node& n, std::mt19937_64* rng, std::string* out) {
  switch (n.kind) {
    case Kind::kNull: *out += "null"; break;
    case Kind::kBool: *out += n.boolean ? "true" : "false"; break;
    case Kind::kNumber: *out += n.scalar; break;
    case Kind::kString: WriteString(n.scalar, rng, out); break;
    case Kind::kArray:
      *out += '[';
      for (size_t i = 0; i < n.items.size(); ++i) {
        if (i > 0) *out += ',';
        Write(n.items[i], rng, out);
      }
      *out += ']';
      break;
    case Kind::kObject:
      *out += '{';
      for (size_t i = 0; i < n.members.size(); ++i) {
        if (i > 0) *out += ',';
        WriteString(n.members[i].first, rng, out);
        *out += ':';
        Write(n.members[i].second, rng, out);
      }
      *out += '}';
      break;
  }
}

std::string ToText(const Node& n, std::mt19937_64* rng = nullptr) {
  std::string out;
  Write(n, rng, &out);
  return out;
}

/// Every node of the tree, parents before children.
void Collect(Node* n, std::vector<Node*>* out) {
  out->push_back(n);
  for (Node& item : n->items) Collect(&item, out);
  for (auto& member : n->members) Collect(&member.second, out);
}

std::vector<Node*> ObjectsWith(Node* root, std::string_view key) {
  std::vector<Node*> all, hits;
  Collect(root, &all);
  for (Node* n : all) {
    if (n->kind == Kind::kObject && n->Find(key) != nullptr) {
      hits.push_back(n);
    }
  }
  return hits;
}

/// `depth` nested arrays (an object every third level) around an
/// optional scalar.
Node Nested(size_t depth, bool scalar_inside) {
  Node inner = scalar_inside ? Node::Num("1") : Node::Arr({});
  for (size_t level = 1; level < depth; ++level) {
    inner = level % 3 == 0 ? Node::Obj({{"k", std::move(inner)}})
                           : Node::Arr({std::move(inner)});
  }
  return inner;
}

Node RandomValue(std::mt19937_64& rng, int depth) {
  switch (rng() % (depth > 0 ? 8 : 6)) {
    case 0: return Node();
    case 1: return Node::Bool(rng() % 2 == 0);
    case 2: {
      static const char* kNumbers[] = {"0",  "-0", "1",   "-1", "2", "1.5",
                                       "1e3", "9223372036854775807",
                                       "9223372036854775808", "4096"};
      return Node::Num(kNumbers[rng() % std::size(kNumbers)]);
    }
    case 3: {
      static const char* kStrings[] = {
          "",          "x",         "b",         "i",      "d",
          "s",         "0x1p-1",    "nan",       "weighted",
          "round_robin", "18446744073709551615", "gdlog.partial.v1",
          "infected",  "router",    "dime",      "no_such_name"};
      return Node::Str(kStrings[rng() % std::size(kStrings)]);
    }
    case 4: return Node::Arr({});
    case 5: return Node::Obj({});
    case 6: {
      std::vector<Node> items;
      for (size_t i = rng() % 3; i > 0; --i) {
        items.push_back(RandomValue(rng, depth - 1));
      }
      return Node::Arr(std::move(items));
    }
    default: {
      std::vector<std::pair<std::string, Node>> members;
      for (size_t i = rng() % 3; i > 0; --i) {
        members.emplace_back(rng() % 2 ? "t" : "unknown",
                             RandomValue(rng, depth - 1));
      }
      return Node::Obj(std::move(members));
    }
  }
}

/// Rewrites that must not change what the document means.
void MeaningPreservingRewrite(Node* root, std::mt19937_64& rng) {
  std::vector<Node*> all;
  Collect(root, &all);
  // Children first: editing an object's members moves its children, so
  // they must be done by then.
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    Node* n = *it;
    if (n->kind != Kind::kObject || n->members.empty()) continue;
    switch (rng() % 4) {
      case 0:
        std::shuffle(n->members.begin(), n->members.end(), rng);
        break;
      case 1: {
        size_t at = rng() % (n->members.size() + 1);
        n->members.insert(n->members.begin() + at,
                          {"unknown_" + std::to_string(rng() % 100),
                           RandomValue(rng, 3)});
        break;
      }
      case 2: {
        // A later duplicate of an existing key loses to the first.
        size_t of = rng() % n->members.size();
        std::string key = n->members[of].first;
        size_t at = of + 1 + rng() % (n->members.size() - of);
        n->members.insert(n->members.begin() + at,
                          {std::move(key), RandomValue(rng, 2)});
        break;
      }
      default: break;
    }
  }
}

TEST(PartialDecodeTest, MeaningPreservingRewritesDecodeToTheSource) {
  std::mt19937_64 rng(0x9a27141);
  size_t rewrites = 0;
  for (const Corpus& corpus : Corpora()) {
    const Interner& interner = corpus.interner();
    for (const Line& line : corpus.lines[1]) {  // 4 shards
      if (line.json.size() > (size_t{64} << 10)) continue;
      for (int round = 0; round < 4; ++round) {
        Node doc = ParseNode(line.json);
        MeaningPreservingRewrite(&doc, rng);
        std::string text = ToText(doc, round % 2 ? &rng : nullptr);
        SCOPED_TRACE(std::string(corpus.c.label) + ": " +
                     text.substr(0, 400));
        ShardPartialMeta meta;
        auto decoded = PartialSpaceFromJson(text, interner, &meta);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        ExpectSamePartial(line.partial, *decoded);
        ExpectSameMeta(line.meta, meta);
        EXPECT_EQ(line.json, PartialSpaceToJson(*decoded, meta, &interner));
        ++rewrites;
      }
    }
  }
  EXPECT_GT(rewrites, 40u);
}

// ---------------------------------------------------------------------------
// Differential fuzzing against the reference.
// ---------------------------------------------------------------------------

/// One semantic mutation of a parsed partial.
void MutateTree(Node* root, std::mt19937_64& rng) {
  std::vector<Node*> all;
  Collect(root, &all);
  std::vector<Node*> objects;
  for (Node* n : all) {
    if (n->kind == Kind::kObject) objects.push_back(n);
  }
  auto pick = [&](const std::vector<Node*>& nodes) -> Node* {
    return nodes.empty() ? root : nodes[rng() % nodes.size()];
  };
  switch (rng() % 12) {
    case 0: {  // reorder members
      Node* obj = pick(objects);
      std::shuffle(obj->members.begin(), obj->members.end(), rng);
      break;
    }
    case 1: {  // unknown member, anywhere
      Node* obj = pick(objects);
      size_t at = rng() % (obj->members.size() + 1);
      obj->members.insert(obj->members.begin() + at,
                          {rng() % 2 ? "zz" : "", RandomValue(rng, 3)});
      break;
    }
    case 2: {  // duplicate key, before or after the original
      Node* obj = pick(objects);
      if (obj->members.empty()) break;
      size_t of = rng() % obj->members.size();
      auto copy = obj->members[of];
      if (rng() % 2) copy.second = RandomValue(rng, 2);
      size_t at = rng() % (obj->members.size() + 1);
      obj->members.insert(obj->members.begin() + at, std::move(copy));
      break;
    }
    case 3: {  // drop a member
      Node* obj = pick(objects);
      if (obj->members.empty()) break;
      obj->members.erase(obj->members.begin() + rng() % obj->members.size());
      break;
    }
    case 4:  // type confusion
      *pick(all) = RandomValue(rng, 2);
      break;
    case 5: {  // nesting around the depth limit, inside an unknown member
      Node* obj = pick(objects);
      obj->members.emplace_back("deep",
                                Nested(90 + rng() % 12, rng() % 2 == 0));
      break;
    }
    case 6: {  // masses: out of range, malformed, or edge-valid
      static const char* kMasses[] = {
          R"({"n":3,"d":2})",       R"({"n":-1,"d":2})",
          R"({"n":1,"d":0})",       R"({"n":1,"d":-2})",
          R"({"n":1,"d":1})",       R"({"n":0,"d":5})",
          R"({"n":2,"d":4})",       R"({"n":"1","d":2})",
          R"({"n":1.0,"d":2})",     R"({"n":1,"d":9223372036854775808})",
          R"({"d":2})",             R"({"x":"0x1.8p+0"})",
          R"({"x":"-0x1p-1"})",     R"({"x":"nan"})",
          R"({"x":"inf"})",         R"({"x":" 0x1p-1"})",
          R"({"x":"0x1p-1z"})",     R"({"x":""})",
          R"({"x":"1"})",           R"({"x":"0"})",
          R"({"x":1})",             R"({"x":"0x1p-1","n":"bad"})",
          R"({"n":1,"d":2,"x":"0x1p-2"})", R"({"x":"5e-1"})",
          R"({"x":"0x1p-1\u0000"})", R"({"x":"0xinf"})",
          R"({"x":"0x1p"})",        R"({"x":"0X1P-1"})",
          R"({"x":"0x1.8P-1"})",    R"({"x":"0x1p-1075"})",
          R"({"x":"-0x0p+0"})",     R"({"x":"0x.8p0"})",
          R"({"x":"0x1.fffffffffffff8p-1"})", R"([])"};
      std::vector<Node*> masses = ObjectsWith(root, "n");
      for (Node* n : ObjectsWith(root, "x")) masses.push_back(n);
      if (masses.empty()) break;
      *pick(masses) = ParseNode(kMasses[rng() % std::size(kMasses)]);
      break;
    }
    case 7: {  // unknown or altered names
      std::vector<Node*> named = ObjectsWith(root, "p");
      for (Node* n : ObjectsWith(root, "v")) named.push_back(n);
      if (named.empty()) break;
      Node* obj = pick(named);
      for (auto& [key, value] : obj->members) {
        if ((key == "p" || key == "v") && value.kind == Kind::kString) {
          if (rng() % 2) {
            value.scalar = "no_such_name";
          } else if (!value.scalar.empty()) {
            value.scalar[rng() % value.scalar.size()] ^= 1;
          }
        }
      }
      break;
    }
    case 8: {  // a random constant, tag first or last
      std::vector<Node*> constants = ObjectsWith(root, "t");
      if (constants.empty()) break;
      static const char* kTags[] = {"b", "i", "d", "s", "x", ""};
      static const char* kPayloads[] = {
          "true",           "12",          "-3",          "1.5",
          "\"0x1p-2\"",     "\"nan\"",     "\"-0x1p+1024\"", "\"0x1p-1074\"",
          "\"0x1.8p1x\"",   "\"-inf\"",    "\"0xinf\"",     "\"-0xnan\"",
          "\"0x.8p0\"",     "\"0x1P-1\"",  "\"infected\"",  "\"router\"",
          "\"dime\"",       "\"caf\\u00e9\"", "null",     "[1]"};
      Node tag = Node::Str(kTags[rng() % std::size(kTags)]);
      Node payload = ParseNode(kPayloads[rng() % std::size(kPayloads)]);
      Node* constant = pick(constants);
      *constant = rng() % 2 ? Node::Obj({{"t", tag}, {"v", payload}})
                            : Node::Obj({{"v", payload}, {"t", tag}});
      break;
    }
    case 9: {  // meta fields at and past their edges
      static const std::pair<const char*, const char*> kMeta[] = {
          {"num_shards", "0"},
          {"num_shards", "1048576"},
          {"num_shards", "1048577"},
          {"num_shards", "-1"},
          {"shard_index", "4"},
          {"shard_index", "3"},
          {"prefix_depth", "1e2"},
          {"max_depth", "18446744073709551616"},
          {"trigger_shuffle_seed", "\"18446744073709551615\""},
          {"trigger_shuffle_seed", "\"18446744073709551616\""},
          {"trigger_shuffle_seed", "\"-1\""},
          {"trigger_shuffle_seed", "\" 7\""},
          {"trigger_shuffle_seed", "\"7 \""},
          {"trigger_shuffle_seed", "\"\""},
          {"trigger_shuffle_seed", "\"0x10\""},
          {"trigger_shuffle_seed", "7"},
          {"assignment", "\"round_robin\""},
          {"assignment", "\"rr\""},
          {"assignment", "3"},
          {"format", "\"gdlog.partial.v2\""},
          {"format", "\"gdlog.partial\\u002ev1\""},
          {"min_path_prob", "\"0x1p-20\""},
          {"min_path_prob", "\"junk\""},
          {"budget_hit", "1"},
          {"outcomes", "{}"},
          {"truncations", "null"},
      };
      const auto& [key, value] = kMeta[rng() % std::size(kMeta)];
      for (auto& member : root->members) {
        if (member.first == key) member.second = ParseNode(value);
      }
      break;
    }
    case 10: {  // repeat a choice entry: consistent or conflicting
      std::vector<Node*> lists;
      for (Node* n : all) {
        if (n->kind != Kind::kArray || n->items.empty()) continue;
        if (n->items[0].kind == Kind::kObject &&
            n->items[0].Find("active") != nullptr) {
          lists.push_back(n);
        }
      }
      if (lists.empty()) break;
      Node* list = pick(lists);
      Node copy = list->items[rng() % list->items.size()];
      if (rng() % 2) {
        for (auto& [key, value] : copy.members) {
          if (key == "outcome") {
            value = Node::Obj({{"t", Node::Str("i")}, {"v", Node::Num("7")}});
          }
        }
      }
      list->items.push_back(std::move(copy));
      break;
    }
    default: {  // drop or repeat an array element
      std::vector<Node*> arrays;
      for (Node* n : all) {
        if (n->kind == Kind::kArray && !n->items.empty()) arrays.push_back(n);
      }
      if (arrays.empty()) break;
      Node* arr = pick(arrays);
      size_t i = rng() % arr->items.size();
      if (rng() % 2) {
        arr->items.erase(arr->items.begin() + i);
      } else {
        arr->items.push_back(arr->items[i]);
      }
      break;
    }
  }
}

/// One byte-level mutation of the text.
void MutateBytes(std::string* text, std::mt19937_64& rng) {
  static const char kAlphabet[] = "{}[]\",:\\0123456789-+.eE tfnu\x80\xff";
  if (text->empty()) return;
  size_t at = rng() % text->size();
  char byte = rng() % 4 == 0 ? static_cast<char>(rng() % 256)
                             : kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
  static const char* kSuffixes[] = {" \r\n\t", "x", "}", "{}", ",", " 1"};
  switch (rng() % 5) {
    case 0: text->resize(at); break;
    case 1: (*text)[at] = byte; break;
    case 2: text->insert(text->begin() + at, byte); break;
    case 3: *text += kSuffixes[rng() % std::size(kSuffixes)]; break;
    default: text->erase(at, 1); break;
  }
}

/// Both decoders on `text`: same verdict, and when both accept, the same
/// decoded partial and meta (compared through the lossless encoding, which
/// also covers NaN constants that == cannot).
void ExpectAgreement(const std::string& text, const Interner& interner,
                     size_t* accepted, size_t* rejected) {
  ShardPartialMeta ref_meta, meta;
  auto ref = reference::PartialSpaceFromJson(text, interner, &ref_meta);
  auto decoded = PartialSpaceFromJson(text, interner, &meta);
  ASSERT_EQ(ref.ok(), decoded.ok())
      << "reference: " << ref.status().ToString()
      << "\nsingle-pass: " << decoded.status().ToString()
      << "\ninput: " << text.substr(0, 2000);
  if (!ref.ok()) {
    ++*rejected;
    return;
  }
  ++*accepted;
  EXPECT_EQ(PartialSpaceToJson(*ref, ref_meta, &interner),
            PartialSpaceToJson(*decoded, meta, &interner))
      << "input: " << text.substr(0, 2000);
  EXPECT_EQ(ref_meta.num_shards, meta.num_shards);
  EXPECT_EQ(ref_meta.shard_index, meta.shard_index);
}

TEST(PartialDecodeTest, MutatedPartialsAgreeWithTheReference) {
  std::mt19937_64 rng(0xdec0de);
  size_t accepted = 0, rejected = 0;
  for (const Corpus& corpus : Corpora()) {
    const Interner& interner = corpus.interner();
    // Small lines keep thousands of mutations cheap under the sanitizers.
    std::vector<std::string> bases;
    for (const std::vector<Line>& lines : corpus.lines) {
      for (const Line& line : lines) {
        if (line.json.size() <= 6000 && bases.size() < 6) {
          bases.push_back(line.json);
        }
      }
    }
    ASSERT_FALSE(bases.empty()) << corpus.c.label;
    for (int round = 0; round < 900; ++round) {
      const std::string& base = bases[rng() % bases.size()];
      std::string text;
      if (rng() % 3 == 0) {
        text = base;
        for (size_t flips = 1 + rng() % 3; flips > 0; --flips) {
          MutateBytes(&text, rng);
        }
      } else {
        Node doc = ParseNode(base);
        for (size_t edits = 1 + rng() % 2; edits > 0; --edits) {
          MutateTree(&doc, rng);
        }
        text = ToText(doc, rng() % 4 == 0 ? &rng : nullptr);
      }
      SCOPED_TRACE(std::string(corpus.c.label) + " round " +
                   std::to_string(round));
      ExpectAgreement(text, interner, &accepted, &rejected);
      if (HasFatalFailure()) return;
    }
  }
  // Both verdicts must be well exercised, or the agreement is vacuous.
  EXPECT_GT(accepted, 400u);
  EXPECT_GT(rejected, 400u);
}

TEST(PartialDecodeTest, FloatLiteralsAgreeWithTheReference) {
  // Every spelling, the writer's own %a form included, must get the
  // reference's strtod verdict and value. Each literal goes
  // where floats appear: a double constant, an inexact mass, and the
  // min_path_prob meta field.
  static const char* kLiterals[] = {
      "0x1p-1",   "-0x1.8p+1", "0x1.999999999999ap-4", "0X1P-1",
      "0x1P-1",   "0x.8p0",    "0x1",                  "0x1.8",
      "0x1p",     "0x1p+",     "0xinf",                "-0xnan",
      "0xp1",     "0x",        "-0x",                  "-",
      "0x1p+1024", "-0x1p+1024", "0x1p-1074",          "0x1p-1075",
      "0x0p+0",   "-0x0p+0",   "0x1.fffffffffffff8p-1", "0x1p-1 ",
      " 0x1p-1",  "+0x1p-1",   "0.5",                  "5e-1",
      "inf",      "nan",       "1e999",                "",
  };
  const Corpus& corpus = Corpora().at(3);  // inexact: "d" and "x" fields
  const Interner& interner = corpus.interner();
  ASSERT_FALSE(corpus.lines[0].empty());
  size_t accepted = 0, rejected = 0;
  for (const char* literal : kLiterals) {
    SCOPED_TRACE(literal);
    for (const char* site : {"t", "x", "min_path_prob"}) {
      Node doc = ParseNode(corpus.lines[0][0].json);
      if (std::string_view(site) == "min_path_prob") {
        for (auto& member : doc.members) {
          if (member.first == site) member.second = Node::Str(literal);
        }
      } else {
        std::vector<Node*> holders = ObjectsWith(&doc, site);
        ASSERT_FALSE(holders.empty()) << site;
        for (auto& [key, value] : holders[0]->members) {
          if (key == (*site == 't' ? "v" : "x")) value = Node::Str(literal);
        }
        if (*site == 't') {
          for (auto& [key, value] : holders[0]->members) {
            if (key == "t") value = Node::Str("d");
          }
        }
      }
      ExpectAgreement(ToText(doc), interner, &accepted, &rejected);
    }
  }
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(rejected, 20u);
}

TEST(PartialDecodeTest, DepthLimitIsSharedWithTheReference) {
  const Corpus& corpus = Corpora().at(1);  // dime/quarter
  const Interner& interner = corpus.interner();
  const std::vector<Line>& lines = corpus.lines[0];  // 1 shard
  ASSERT_EQ(lines.size(), 1u);
  size_t accepted = 0, rejected = 0;
  // An unknown top-level member sits at depth 1: nesting n levels below
  // it puts the innermost value at depth n (+1 for a scalar inside).
  for (size_t depth = 90; depth <= 100; ++depth) {
    for (bool scalar : {false, true}) {
      Node doc = ParseNode(lines[0].json);
      doc.members.emplace_back("deep", Nested(depth, scalar));
      ExpectAgreement(ToText(doc), interner, &accepted, &rejected);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  // Far past the limit: rejected without recursing (no stack blow-up).
  std::string deep = lines[0].json;
  deep.insert(deep.size() - 1, ",\"deep\":" + std::string(200000, '['));
  ShardPartialMeta meta;
  EXPECT_FALSE(PartialSpaceFromJson(deep, interner, &meta).ok());
}

}  // namespace
}  // namespace gdlog
