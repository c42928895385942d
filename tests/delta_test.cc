// The PR 7 incremental-serving path: fact-delta parsing and append-only
// application (FactStore::ApplyDelta), incremental summary maintenance,
// delta-vs-rebuild bit-identity of GDatalog::WithDatabaseDelta across both
// grounders and thread counts, the evaluator's semi-naive resume, removal
// rejection, and the serving layer's lineage chain with cache revalidation
// versus eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "ast/parser.h"
#include "datalog/evaluator.h"
#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "ground/fact_store.h"
#include "opt/ir.h"
#include "server/cache.h"
#include "server/http.h"
#include "server/registry.h"
#include "server/service.h"
#include "util/json.h"

namespace gdlog {
namespace {

constexpr const char* kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

constexpr const char* kDimeQuarterProgram =
    "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
    "somedimetail :- dimetail(X, 1).\n"
    "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.\n";

std::string Clique(int n) {
  std::string db;
  for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + "," + std::to_string(j) +
              ").\n";
      }
    }
  }
  db += "infected(1, 1).\n";
  return db;
}

Result<GDatalog> MakeEngine(const std::string& program, const std::string& db,
                            GrounderKind kind) {
  GDatalog::Options options;
  options.grounder = kind;
  return GDatalog::Create(program, db, std::move(options));
}

std::string SpaceJson(const GDatalog& engine, const OutcomeSpace& space) {
  JsonExportOptions options;
  options.include_outcomes = true;
  options.include_models = true;
  options.include_events = true;
  return OutcomeSpaceToJson(space, engine.translated(),
                            engine.program().interner(), options);
}

/// The core correctness gate: the delta-applied engine must produce the
/// byte-identical outcome-space JSON as an engine built from scratch on
/// the merged database — per grounder, per thread count.
void ExpectDeltaByteIdentity(const std::string& program,
                             const std::string& base_db,
                             const std::string& delta) {
  for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
    auto full = MakeEngine(program, base_db + "\n" + delta, kind);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    auto base = MakeEngine(program, base_db, kind);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    auto inc = GDatalog::WithDatabaseDelta(*base, delta);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_TRUE(inc->delta_stats().applied);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ChaseOptions chase;
      chase.num_threads = threads;
      auto want = full->Infer(chase);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      auto got = inc->Infer(chase);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(SpaceJson(*full, *want), SpaceJson(*inc, *got))
          << "grounder=" << (kind == GrounderKind::kSimple ? "simple"
                                                           : "perfect")
          << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// ParseFactDelta / FactStore::ApplyDelta
// ---------------------------------------------------------------------------

TEST(FactDelta, ParsesAdditionsAndRemovals) {
  Interner interner;
  auto delta = ParseFactDelta(
      "edge(1,2).\n"
      "  -edge(2,3).\n"
      "edge(3,4).\n",
      &interner);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->added.size(), 2u);
  EXPECT_EQ(delta->removed.size(), 1u);
  EXPECT_FALSE(delta->empty());
}

TEST(FactDelta, RejectsNonFactLines) {
  Interner interner;
  auto delta = ParseFactDelta("edge(X, Y) :- other(X, Y).\n", &interner);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
}

TEST(FactDelta, ApplyAppendsAndExtendsIndices) {
  Interner interner;
  auto store = ParseFacts("edge(1,2). edge(2,3).", &interner);
  ASSERT_TRUE(store.ok());
  uint32_t edge = interner.Lookup("edge");
  // Force the column index to exist before the delta, so the append path
  // must extend it in place rather than getting a fresh lazy build.
  const auto* pre = store->IndexLookup(edge, 0, Value::Int(1));
  ASSERT_NE(pre, nullptr);
  EXPECT_EQ(pre->size(), 1u);

  auto delta = ParseFactDelta("edge(1,4).\nedge(1,2).\n", &interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  ASSERT_TRUE(store->ApplyDelta(*delta, &ranges).ok());
  EXPECT_EQ(ranges.rows_appended, 1u);       // edge(1,4)
  EXPECT_EQ(ranges.duplicates_skipped, 1u);  // edge(1,2)
  ASSERT_EQ(ranges.ranges.count(edge), 1u);
  EXPECT_EQ(ranges.ranges.at(edge).begin, 2u);
  EXPECT_EQ(ranges.ranges.at(edge).end, 3u);

  const auto* post = store->IndexLookup(edge, 0, Value::Int(1));
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->size(), 2u);
  EXPECT_TRUE(store->Contains(edge, {Value::Int(1), Value::Int(4)}));
}

TEST(FactDelta, RemovalsAreRejectedAsUnsupported) {
  Interner interner;
  auto store = ParseFacts("edge(1,2).", &interner);
  ASSERT_TRUE(store.ok());
  auto delta = ParseFactDelta("-edge(1,2).\n", &interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  Status status = store->ApplyDelta(*delta, &ranges);
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
  EXPECT_NE(status.message().find("removal"), std::string::npos);
  // Nothing was applied.
  EXPECT_TRUE(store->Contains(interner.Lookup("edge"),
                              {Value::Int(1), Value::Int(2)}));
}

bool HasRemovalLine(std::string_view text) {
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : eol - pos);
    size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string_view::npos && line[first] == '-') return true;
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return false;
}

/// One structural or byte mutation of `text`.
std::string Mutate(std::string text, std::mt19937_64& rng) {
  auto pick = [&](size_t n) {
    return n == 0 ? size_t{0} : static_cast<size_t>(rng() % n);
  };
  switch (rng() % 8) {
    case 0:  // truncation
      text.resize(pick(text.size() + 1));
      break;
    case 1: {  // a '-' at the start of some line
      size_t at = text.rfind('\n', pick(text.size() + 1));
      text.insert(at == std::string::npos ? 0 : at + 1,
                  rng() % 2 ? "-" : "  -");
      break;
    }
    case 2: {  // nested parentheses
      size_t depth = 1 + pick(64);
      size_t at = pick(text.size() + 1);
      text.insert(at, std::string(depth, '('));
      if (rng() % 2) {
        text.insert(pick(text.size() + 1), std::string(depth, ')'));
      }
      break;
    }
    case 3: {  // a rule, a constraint, a variable or a Δ-term for a fact
      static const char* kNonFacts[] = {
          "p(X) :- q(X).", ":- p(1).", "p(X).", "p(flip<0.5>).",
          "p(1) :- not q(1).", "p(1) :- .", ":- .", "p(1)"};
      text.insert(pick(text.size() + 1),
                  std::string("\n") + kNonFacts[pick(8)] + "\n");
      break;
    }
    case 4: {  // a very long line
      static const char* kUnits[] = {"edge(1,2). ", "a", "9", "((", "\"x",
                                     "-"};
      std::string unit = kUnits[pick(6)];
      std::string line;
      while (line.size() < (16u << 10)) line += unit;
      text.insert(pick(text.size() + 1), line);
      break;
    }
    case 5:  // byte flips
      for (size_t n = 1 + pick(4); n > 0 && !text.empty(); --n) {
        text[pick(text.size())] = static_cast<char>(rng() & 0xff);
      }
      break;
    case 6:  // an inserted random byte
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     pick(text.size() + 1)),
                  static_cast<char>(rng() & 0xff));
      break;
    default:  // a duplicated slice
      if (!text.empty()) {
        size_t from = pick(text.size());
        text.insert(pick(text.size() + 1),
                    text.substr(from, 1 + pick(text.size() - from)));
      }
      break;
  }
  return text;
}

TEST(FactDelta, SeededFuzzReturnsStatusOrDeltaAndAgreesWithParseFacts) {
  // ParseFactDelta parses the untrusted PATCH body. Every mutation of a
  // valid delta must come back as a Status or a FactDelta (the sanitizer
  // jobs run this too), and every input without removal lines must parse
  // exactly when ParseFacts does, to the same atoms.
  const std::vector<std::string> seeds = {
      "edge(1,2).\nedge(2,3).\n",
      "router(1). router(2).\nconnected(1, 2).\n",
      "meta(\"a b\", -3, 2.5e1, true).\n% comment\nmeta(x, 0, -0.5, false).",
      "  -edge(1,2).\nedge(3,4).\n",
      "observed(1000,1001).\r\n\tobserved(1002,1003).\n\n",
  };
  std::mt19937_64 rng(20240517);
  size_t parsed = 0;
  size_t rejected = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::string text = seeds[rng() % seeds.size()];
    for (int rounds = 1 + static_cast<int>(rng() % 3); rounds > 0; --rounds) {
      text = Mutate(std::move(text), rng);
    }
    Interner interner;
    Result<FactDelta> delta = ParseFactDelta(text, &interner);
    delta.ok() ? ++parsed : ++rejected;
    if (HasRemovalLine(text)) continue;
    Result<FactStore> facts = ParseFacts(text, &interner);
    ASSERT_EQ(delta.ok(), facts.ok()) << "input: " << text;
    if (!delta.ok()) continue;
    EXPECT_TRUE(delta->removed.empty());
    std::vector<GroundAtom> added = delta->added;
    std::sort(added.begin(), added.end());
    added.erase(std::unique(added.begin(), added.end()), added.end());
    EXPECT_EQ(added.size(), facts->size()) << "input: " << text;
    for (const GroundAtom& atom : added) {
      EXPECT_TRUE(facts->Contains(atom)) << "input: " << text;
    }
  }
  // The mutations reach both outcomes.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
}

// ---------------------------------------------------------------------------
// Incremental DB-summary maintenance
// ---------------------------------------------------------------------------

void ExpectIncrementalSummaryMatches(const std::string& base_text,
                                     const std::string& delta_text) {
  Interner interner;
  auto store = ParseFacts(base_text, &interner);
  ASSERT_TRUE(store.ok());
  DbSummary summary = SummarizeDb(*store);
  auto delta = ParseFactDelta(delta_text, &interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  ASSERT_TRUE(store->ApplyDelta(*delta, &ranges).ok());
  UpdateSummaryForDelta(&summary, *store, ranges);
  EXPECT_TRUE(summary == SummarizeDb(*store))
      << "base: " << base_text << " delta: " << delta_text;
}

TEST(DeltaSummary, IncrementalUpdateEqualsFromScratch) {
  // New rows inside existing domains.
  ExpectIncrementalSummaryMatches("edge(1,2). edge(2,3).", "edge(2,1).\n");
  // Domain saturation crossing (4 -> 5 distinct values).
  ExpectIncrementalSummaryMatches(
      "n(1). n(2). n(3). n(4).", "n(5).\nn(6).\n");
  // A predicate the base never mentioned.
  ExpectIncrementalSummaryMatches("edge(1,2).", "meta(7).\n");
  // Duplicates only: the summary must be untouched.
  ExpectIncrementalSummaryMatches("edge(1,2).", "edge(1,2).\n");
  // Mixed batch across several predicates.
  ExpectIncrementalSummaryMatches(
      "edge(1,2). n(1). n(2).",
      "edge(3,4).\nn(3).\nn(4).\nn(5).\nmeta(1).\n");
}

// ---------------------------------------------------------------------------
// GDatalog::WithDatabaseDelta — bit-identity with a from-scratch rebuild
// ---------------------------------------------------------------------------

TEST(DeltaEngine, NetworkCliqueByteIdentity) {
  // E1: the clique-4 infection space; the delta carries rule-body
  // predicates (connected, infected), so the semi-naive resume has real
  // work to do.
  std::string full_db = Clique(4);
  std::string base_db =
      full_db.substr(0, full_db.find("connected(4,2)."));
  std::string delta = full_db.substr(full_db.find("connected(4,2)."));
  ExpectDeltaByteIdentity(kNetworkProgram, base_db, delta);
}

TEST(DeltaEngine, DimeQuarterByteIdentity) {
  // E3: dime/quarter under negation (stalling in the perfect grounder).
  ExpectDeltaByteIdentity(kDimeQuarterProgram,
                          "dime(1). quarter(3).", "dime(2).\n");
}

TEST(DeltaEngine, RandomizedSplitsByteIdentity) {
  // Deterministic pseudo-random splits of the clique-3 database: every
  // k-th fact line becomes the delta.
  std::string full_db = Clique(3);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < full_db.size()) {
    size_t end = full_db.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(full_db.substr(start, end - start + 1));
    start = end + 1;
  }
  for (size_t k : {size_t{2}, size_t{3}}) {
    std::string base_db;
    std::string delta;
    for (size_t i = 0; i < lines.size(); ++i) {
      (i % k == k - 1 ? delta : base_db) += lines[i];
    }
    ExpectDeltaByteIdentity(kNetworkProgram, base_db, delta);
  }
}

TEST(DeltaEngine, SummaryStableDeltaReusesPipeline) {
  auto base = MakeEngine(kNetworkProgram, Clique(4), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  // connected's columns already hold {1..4}; a self-loop adds rows without
  // widening any domain, so the summary stays pipeline-equivalent.
  auto inc = GDatalog::WithDatabaseDelta(*base, "connected(1,1).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  const DeltaStats& stats = inc->delta_stats();
  EXPECT_TRUE(stats.applied);
  EXPECT_EQ(stats.rows_appended, 1u);
  EXPECT_FALSE(stats.summary_changed);
  EXPECT_TRUE(stats.touches_rule_bodies);  // connected is a body predicate
  if (base->opt_stats().enabled) {
    EXPECT_TRUE(stats.pipeline_reused);
  }
}

TEST(DeltaEngine, SummaryChangingDeltaRerunsPipeline) {
  auto base = MakeEngine(kNetworkProgram, Clique(4), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  // A fifth distinct constant saturates connected's column domains to Top:
  // the pass pipeline could now specialize differently, so it must re-run.
  auto inc = GDatalog::WithDatabaseDelta(*base, "connected(7,8).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_TRUE(inc->delta_stats().summary_changed);
  if (base->opt_stats().enabled) {
    EXPECT_FALSE(inc->delta_stats().pipeline_reused);
  }
}

TEST(DeltaEngine, NonBodyPredicateDeltaIsRevalidatable) {
  auto base = MakeEngine(kNetworkProgram, Clique(3) + "meta(1).\n",
                         GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  auto inc = GDatalog::WithDatabaseDelta(*base, "meta(2).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_FALSE(inc->delta_stats().touches_rule_bodies);
  ASSERT_EQ(inc->delta_added_facts().size(), 1u);
}

TEST(DeltaEngine, RemovalRejectedAtEngineLevel) {
  auto base = MakeEngine(kNetworkProgram, Clique(3), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  auto inc = GDatalog::WithDatabaseDelta(*base, "-infected(1, 1).\n");
  ASSERT_FALSE(inc.ok());
  EXPECT_EQ(inc.status().code(), StatusCode::kUnsupported);
}

/// A grounder that leaves the incremental protocol at its defaults.
class FromScratchGrounder : public Grounder {
 public:
  std::string_view name() const override { return "from-scratch"; }
  Status Ground(const ChoiceSet&, GroundRuleSet*,
                MatchStats* = nullptr) const override {
    return Status::OK();
  }
};

TEST(DeltaGrounder, ExtendStubNamesTheGrounder) {
  // Both built-in grounders extend, on delta-extension engines too; the
  // base-class stub stays for grounders that do not, and names them.
  for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
    auto base = MakeEngine(kNetworkProgram, Clique(3), kind);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    auto inc = GDatalog::WithDatabaseDelta(*base, "connected(3,4).\n");
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_TRUE(base->grounder().SupportsIncremental());
    EXPECT_TRUE(inc->grounder().SupportsIncremental());
  }
  FromScratchGrounder stub;
  ASSERT_FALSE(stub.SupportsIncremental());
  GroundRuleSet out;
  Status status = stub.Extend(ChoiceSet(), GroundAtom(), &out);
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
  EXPECT_NE(status.message().find("from-scratch"), std::string::npos)
      << status.message();
}

// ---------------------------------------------------------------------------
// DatalogEvaluator::MaterializeDelta
// ---------------------------------------------------------------------------

TEST(DeltaDatalog, ResumeMatchesFromScratch) {
  auto prog = ParseProgram(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).");
  ASSERT_TRUE(prog.ok());
  auto eval = DatalogEvaluator::Create(std::move(prog).value());
  ASSERT_TRUE(eval.ok());
  Interner* interner = const_cast<Program&>(eval->program()).interner();
  auto db = ParseFacts("edge(1,2). edge(2,3).", interner);
  ASSERT_TRUE(db.ok());
  auto base = eval->Materialize(*db);
  ASSERT_TRUE(base.ok());

  FactStore updated = *db;  // COW copy
  auto delta = ParseFactDelta("edge(3,4).\nedge(0,1).\n", interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  ASSERT_TRUE(updated.ApplyDelta(*delta, &ranges).ok());

  DatalogEvaluator::Stats stats;
  auto inc = eval->MaterializeDelta(*base, updated, ranges, &stats);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  auto scratch = eval->Materialize(updated);
  ASSERT_TRUE(scratch.ok());

  EXPECT_EQ(inc->consistent, scratch->consistent);
  for (const char* name : {"edge", "path"}) {
    uint32_t pred = interner->Lookup(name);
    ASSERT_EQ(inc->facts.Count(pred), scratch->facts.Count(pred)) << name;
    for (const Tuple& row : scratch->facts.Rows(pred)) {
      EXPECT_TRUE(inc->facts.Contains(pred, row));
    }
  }
  // The resume touched only what the delta derives: far fewer rule
  // applications than the full closure.
  EXPECT_GT(stats.rule_applications, 0u);
}

TEST(DeltaDatalog, NegationIsRejected) {
  auto prog = ParseProgram(
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "reach(X) :- start(X).\n"
      "unreached(X) :- node(X), not reach(X).");
  ASSERT_TRUE(prog.ok());
  auto eval = DatalogEvaluator::Create(std::move(prog).value());
  ASSERT_TRUE(eval.ok());
  Interner* interner = const_cast<Program&>(eval->program()).interner();
  auto db = ParseFacts("start(1). node(1). node(2). edge(1,2).", interner);
  ASSERT_TRUE(db.ok());
  auto base = eval->Materialize(*db);
  ASSERT_TRUE(base.ok());

  FactStore updated = *db;
  auto delta = ParseFactDelta("edge(2,3).\n", interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  ASSERT_TRUE(updated.ApplyDelta(*delta, &ranges).ok());
  auto inc = eval->MaterializeDelta(*base, updated, ranges);
  ASSERT_FALSE(inc.ok());
  EXPECT_EQ(inc.status().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Registry lineage + serving-layer revalidation vs eviction
// ---------------------------------------------------------------------------

TEST(DeltaRegistry, LineageChainsAndFullReplaceResets) {
  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = kNetworkProgram;
  spec.db_text = Clique(3) + "meta(1).\n";
  auto info = registry.Register(spec);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto first = registry.ApplyDatabaseDelta(info->id, "meta(2).\n");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->info.revision, 1u);
  EXPECT_EQ(first->link().base_revision, 0u);
  EXPECT_TRUE(first->link().digest_before.empty());
  EXPECT_FALSE(first->entry->lineage_digest.empty());
  EXPECT_FALSE(first->link().touches_rule_bodies);
  EXPECT_EQ(first->link().added_facts.size(), 1u);

  auto second = registry.ApplyDatabaseDelta(info->id, "meta(3).\n");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->info.revision, 2u);
  EXPECT_EQ(second->link().digest_before, first->entry->lineage_digest);
  EXPECT_NE(second->entry->lineage_digest, first->entry->lineage_digest);
  auto chained = registry.Find(info->id);
  ASSERT_NE(chained, nullptr);
  EXPECT_EQ(chained->lineage.size(), 2u);
  EXPECT_EQ(chained->lineage[0].base_revision, 0u);
  EXPECT_EQ(chained->lineage[1].base_revision, 1u);

  auto body = registry.ApplyDatabaseDelta(info->id, "connected(1,1).\n");
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(body->link().touches_rule_bodies);

  // A full replacement starts a fresh lineage.
  auto replaced = registry.ReplaceDatabase(info->id, Clique(3));
  ASSERT_TRUE(replaced.ok());
  auto entry = registry.Find(info->id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->revision, 4u);
  EXPECT_TRUE(entry->lineage.empty());
  EXPECT_TRUE(entry->lineage_digest.empty());

  auto counters = registry.delta_counters();
  EXPECT_EQ(counters.deltas_applied, 3u);
  EXPECT_EQ(counters.rows_appended, 3u);
}

HttpRequest MakeRequest(std::string method, std::string target,
                        std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

std::string RegisterProgram(InferenceService& service,
                            const std::string& program,
                            const std::string& db) {
  JsonWriter reg;
  reg.BeginObject().KV("program", program).KV("db", db).EndObject();
  HttpResponse response =
      service.Handle(MakeRequest("POST", "/v1/programs", reg.str()));
  EXPECT_EQ(response.status, 201) << response.body;
  auto doc = JsonValue::Parse(response.body);
  EXPECT_TRUE(doc.ok());
  return doc->Find("id")->string_value();
}

std::string PatchBody(const std::string& delta) {
  JsonWriter body;
  body.BeginObject().KV("delta", delta).EndObject();
  return body.str();
}

long long DeltaField(const HttpResponse& response, const char* field) {
  auto doc = JsonValue::Parse(response.body);
  if (!doc.ok()) return -1;
  const JsonValue* delta = doc->Find("delta");
  if (delta == nullptr) return -1;
  const JsonValue* value = delta->Find(field);
  if (value == nullptr || !value->is_number()) return -1;
  auto n = value->NumberAsInt();
  return n.ok() ? *n : -1;
}

std::string FullQuery(const std::string& id) {
  return "{\"program_id\":\"" + id +
         "\",\"include_outcomes\":true,\"include_models\":true}";
}

std::string MarginalQuery(const std::string& id) {
  return "{\"program_id\":\"" + id +
         "\",\"queries\":[\"uninfected(2)\",\"infected(3, 1)\"]}";
}

/// What a service that never saw a delta answers for `db` at `revision`:
/// the program is registered on `db` and brought to `revision` by full
/// PUTs, so each read is a fresh chase on the merged database.
HttpResponse FreshRead(const std::string& db, uint64_t revision,
                       const std::string& id,
                       std::string (*query)(const std::string&)) {
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService fresh(options);
  EXPECT_EQ(RegisterProgram(fresh, kNetworkProgram, db), id);
  JsonWriter put;
  put.BeginObject().KV("db", db).EndObject();
  for (uint64_t r = 0; r < revision; ++r) {
    EXPECT_EQ(fresh
                  .Handle(MakeRequest("PUT", "/v1/programs/" + id + "/db",
                                      put.str()))
                  .status,
              200);
  }
  HttpResponse response =
      fresh.Handle(MakeRequest("POST", "/v1/query", query(id)));
  EXPECT_EQ(fresh.cache().stats().misses, 1u);
  return response;
}

// meta is pre-seeded past the domain cap so meta deltas stay
// pipeline-equivalent, and it occurs in no rule body.
std::string MetaDb() {
  return Clique(3) + "meta(1).\nmeta(2).\nmeta(3).\nmeta(4).\nmeta(5).\n";
}

TEST(DeltaService, UntouchedPredicateDeltaRevalidatesCache) {
  std::string db = MetaDb();
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, db);

  HttpResponse warm =
      service.Handle(MakeRequest("POST", "/v1/query", FullQuery(id)));
  ASSERT_EQ(warm.status, 200) << warm.body;
  EXPECT_EQ(service.cache().stats().misses, 1u);

  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("meta(99).\n")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  EXPECT_EQ(DeltaField(patched, "spaces_evicted"), 0);
  EXPECT_EQ(DeltaField(patched, "rows_appended"), 1);
  EXPECT_EQ(DeltaField(patched, "spaces_revalidated"), -1);  // not reported
  EXPECT_EQ(service.cache().revalidated(), 0u);  // the PATCH patched nothing

  // The next identical query misses once and is served by patching the
  // space of the lineage before the delta: no chase, and its document
  // equals what a from-scratch engine on the merged database produces.
  HttpResponse after =
      service.Handle(MakeRequest("POST", "/v1/query", FullQuery(id)));
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(service.cache().stats().misses, 2u);
  EXPECT_EQ(service.cache().revalidated(), 1u);
  EXPECT_EQ(service.cache().stats().entries, 1u);  // the ancestor was taken
  EXPECT_EQ(after.body,
            FreshRead(db + "meta(99).\n", 1, id, FullQuery).body);
}

TEST(DeltaService, ChainedDeltasPatchTheNearestCachedAncestor) {
  // Two meta deltas between reads, then a rule-body delta. Full-document,
  // demand-marginal and /v1/jobs reads are each served by patching the
  // newest cached ancestor; after the rule-body link every read chases.
  std::string db = MetaDb();
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, db);
  std::string db_target = "/v1/programs/" + id + "/db";
  auto patch = [&](const std::string& delta) {
    HttpResponse response =
        service.Handle(MakeRequest("PATCH", db_target, PatchBody(delta)));
    EXPECT_EQ(response.status, 200) << response.body;
    db += delta;
    return response;
  };
  auto read = [&](std::string (*query)(const std::string&)) {
    return service.Handle(MakeRequest("POST", "/v1/query", query(id)));
  };
  // Misses that ran their compute. The marginal read has its own key
  // only when the optimizer builds a demand engine (not under
  // GDLOG_NO_OPT=1), so the counts below are relative.
  auto chases = [&] {
    return service.cache().stats().misses - service.cache().revalidated();
  };

  ASSERT_EQ(read(FullQuery).status, 200);
  ASSERT_EQ(read(MarginalQuery).status, 200);
  const uint64_t warm_chases = chases();

  patch("meta(97).\n");
  patch("meta(98).\n");
  HttpResponse full = read(FullQuery);
  HttpResponse marginal = read(MarginalQuery);
  ASSERT_EQ(full.status, 200) << full.body;
  ASSERT_EQ(marginal.status, 200) << marginal.body;
  EXPECT_EQ(chases(), warm_chases);
  EXPECT_EQ(service.cache().revalidated(), warm_chases);
  EXPECT_EQ(full.body, FreshRead(db, 2, id, FullQuery).body);
  EXPECT_EQ(marginal.body, FreshRead(db, 2, id, MarginalQuery).body);

  // A job shares the full document's key, so it patches the space the
  // read above stored. No worker listens on the listed address: a job
  // that tried to dispatch would fail.
  patch("meta(99).\n");
  JsonWriter job_body;
  job_body.BeginObject()
      .KV("program_id", id)
      .KV("include_outcomes", true)
      .KV("include_models", true);
  job_body.Key("workers").BeginArray().String("127.0.0.1:1").EndArray();
  job_body.EndObject();
  HttpResponse job =
      service.Handle(MakeRequest("POST", "/v1/jobs", job_body.str()));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(service.fleet().counters().dispatches, 0u);
  EXPECT_EQ(chases(), warm_chases);
  EXPECT_EQ(service.cache().revalidated(), warm_chases + 1);
  EXPECT_EQ(job.body, FreshRead(db, 3, id, FullQuery).body);

  // connected occurs in rule bodies: the PATCH evicts, and no later read
  // reaches back across its link.
  HttpResponse evicting = patch("connected(1,1).\n");
  EXPECT_EQ(DeltaField(evicting, "spaces_evicted"),
            static_cast<long long>(warm_chases));
  patch("meta(100).\n");
  HttpResponse chased = read(FullQuery);
  ASSERT_EQ(chased.status, 200);
  EXPECT_EQ(chases(), warm_chases + 1);
  EXPECT_EQ(service.cache().revalidated(), warm_chases + 1);
  EXPECT_EQ(chased.body, FreshRead(db, 5, id, FullQuery).body);
}

TEST(DeltaService, MetaPatchLeavesTheCacheAlone) {
  // PATCH latency must not depend on the number of cached spaces: a delta
  // outside every rule body touches no cache entry.
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, MetaDb());
  constexpr int kSpaces = 6;
  for (int seed = 0; seed < kSpaces; ++seed) {
    std::string query = "{\"program_id\":\"" + id +
                        "\",\"options\":{\"trigger_shuffle_seed\":" +
                        std::to_string(seed) + "}}";
    ASSERT_EQ(service.Handle(MakeRequest("POST", "/v1/query", query)).status,
              200);
  }
  auto before = service.cache().stats();
  ASSERT_EQ(before.entries, static_cast<size_t>(kSpaces));

  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("meta(42).\n")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  auto after = service.cache().stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(service.cache().revalidated(), 0u);
}

TEST(DeltaService, AncestorWalkStopsAtRuleBodyLink) {
  // A space that lands at a key from before a rule-body link (a chase
  // still in flight when that PATCH evicted) must never be patched
  // forward across it.
  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = kNetworkProgram;
  spec.db_text = MetaDb();
  auto info = registry.Register(spec);
  ASSERT_TRUE(info.ok());
  auto before = registry.Find(info->id);
  ASSERT_TRUE(registry.ApplyDatabaseDelta(info->id, "connected(1,1).\n").ok());
  ASSERT_TRUE(registry.ApplyDatabaseDelta(info->id, "meta(7).\n").ok());
  auto now = registry.Find(info->id);

  ChaseOptions chase;
  chase.num_threads = 1;
  InferenceCache cache(1 << 26);
  auto late = cache.Lookup(*before, chase, "", [&] {
    return before->engine.Infer(chase);
  });
  ASSERT_TRUE(late.ok());
  bool chased = false;
  auto space = cache.Lookup(*now, chase, "", [&] {
    chased = true;
    return now->engine.Infer(chase);
  });
  ASSERT_TRUE(space.ok());
  EXPECT_TRUE(chased);
  EXPECT_EQ(cache.revalidated(), 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(DeltaService, AncestorWalkGivesUpAfterMaxLinks) {
  // A space cached kMaxAncestorLinks meta deltas back is patched; one
  // link further back, the read chases.
  for (size_t links : {InferenceCache::kMaxAncestorLinks,
                       InferenceCache::kMaxAncestorLinks + 1}) {
    ProgramRegistry registry;
    ProgramSpec spec;
    spec.program_text = kNetworkProgram;
    spec.db_text = MetaDb();
    auto info = registry.Register(spec);
    ASSERT_TRUE(info.ok());
    auto base = registry.Find(info->id);
    std::string db = spec.db_text;
    for (size_t i = 0; i < links; ++i) {
      std::string delta = "meta(" + std::to_string(10 + i) + ").\n";
      ASSERT_TRUE(registry.ApplyDatabaseDelta(info->id, delta).ok());
      db += delta;
    }
    auto now = registry.Find(info->id);

    ChaseOptions chase;
    chase.num_threads = 1;
    InferenceCache cache(1 << 26);
    ASSERT_TRUE(cache
                    .Lookup(*base, chase, "",
                            [&] { return base->engine.Infer(chase); })
                    .ok());
    bool chased = false;
    auto space = cache.Lookup(*now, chase, "", [&] {
      chased = true;
      return now->engine.Infer(chase);
    });
    ASSERT_TRUE(space.ok());
    const bool within = links <= InferenceCache::kMaxAncestorLinks;
    EXPECT_EQ(chased, !within) << links << " links";
    EXPECT_EQ(cache.revalidated(), within ? 1u : 0u) << links << " links";
    auto fresh = MakeEngine(kNetworkProgram, db, GrounderKind::kAuto);
    ASSERT_TRUE(fresh.ok());
    auto fresh_space = fresh->Infer(chase);
    ASSERT_TRUE(fresh_space.ok());
    EXPECT_EQ(SpaceJson(now->engine, **space),
              SpaceJson(*fresh, *fresh_space));
  }
}

TEST(DeltaService, BodyPredicateDeltaEvictsCache) {
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, Clique(3));

  std::string query = "{\"program_id\":\"" + id + "\"}";
  ASSERT_EQ(service.Handle(MakeRequest("POST", "/v1/query", query)).status,
            200);
  EXPECT_EQ(service.cache().stats().misses, 1u);

  // connected occurs in rule bodies: the cached space may be stale.
  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("connected(1,1).\n")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  EXPECT_EQ(DeltaField(patched, "spaces_evicted"), 1);

  ASSERT_EQ(service.Handle(MakeRequest("POST", "/v1/query", query)).status,
            200);
  EXPECT_EQ(service.cache().stats().misses, 2u);  // had to re-chase
  EXPECT_EQ(service.cache().revalidated(), 0u);
}

TEST(DeltaService, RemovalDeltaReturns501) {
  InferenceService::Options options;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, Clique(3));
  HttpResponse response = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("-infected(1, 1).\n")));
  EXPECT_EQ(response.status, 501) << response.body;
}

TEST(DeltaService, StatsExposeDeltaCounters) {
  InferenceService::Options options;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram,
                                   Clique(3) + "meta(1).\n");
  ASSERT_EQ(service
                .Handle(MakeRequest("PATCH", "/v1/programs/" + id + "/db",
                                    PatchBody("meta(2).\n")))
                .status,
            200);
  HttpResponse stats = service.Handle(MakeRequest("GET", "/v1/stats"));
  ASSERT_EQ(stats.status, 200);
  auto doc = JsonValue::Parse(stats.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* delta = doc->Find("delta");
  ASSERT_NE(delta, nullptr);
  ASSERT_NE(delta->Find("patches"), nullptr);
  auto patches = delta->Find("patches")->NumberAsInt();
  ASSERT_TRUE(patches.ok());
  EXPECT_EQ(*patches, 1);
  const JsonValue* cache = doc->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->Find("revalidated"), nullptr);
}

}  // namespace
}  // namespace gdlog
