// Incremental grounding: the chase extending the parent node's grounding
// must produce exactly the same outcome space as re-grounding from scratch
// (sound by grounder monotonicity, Definition 3.3).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/sampler.h"
#include "random_stratified.h"

namespace gdlog {
namespace {

struct Case {
  const char* label;
  const char* program;
  const char* db;
};

class IncrementalEquivalenceTest : public ::testing::TestWithParam<Case> {};

std::map<ChoiceSet, std::pair<std::string, size_t>> Fingerprint(
    const OutcomeSpace& space) {
  std::map<ChoiceSet, std::pair<std::string, size_t>> out;
  for (const PossibleOutcome& o : space.outcomes) {
    out.emplace(o.choices,
                std::make_pair(o.prob.ToString(), o.models.size()));
  }
  return out;
}

TEST_P(IncrementalEquivalenceTest, SameOutcomeSpaceAsFromScratch) {
  const Case& c = GetParam();
  GDatalog::Options options;
  options.grounder = GrounderKind::kSimple;  // supports incremental
  auto engine = GDatalog::Create(c.program, c.db, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->grounder().SupportsIncremental());

  ChaseOptions incremental;
  incremental.incremental = true;
  ChaseOptions scratch;
  scratch.incremental = false;

  auto inc_space = engine->Infer(incremental);
  ASSERT_TRUE(inc_space.ok()) << inc_space.status().ToString();
  auto scr_space = engine->Infer(scratch);
  ASSERT_TRUE(scr_space.ok());

  EXPECT_EQ(inc_space->outcomes.size(), scr_space->outcomes.size());
  EXPECT_EQ(inc_space->finite_mass, scr_space->finite_mass);
  EXPECT_EQ(Fingerprint(*inc_space), Fingerprint(*scr_space));
  EXPECT_EQ(inc_space->Events().size(), scr_space->Events().size());
  EXPECT_EQ(inc_space->ProbConsistent(), scr_space->ProbConsistent());
}

TEST_P(IncrementalEquivalenceTest, SamplePathsIdenticalGivenSeed) {
  const Case& c = GetParam();
  GDatalog::Options options;
  options.grounder = GrounderKind::kSimple;
  auto engine = GDatalog::Create(c.program, c.db, std::move(options));
  ASSERT_TRUE(engine.ok());

  ChaseOptions incremental;
  incremental.incremental = true;
  ChaseOptions scratch;
  scratch.incremental = false;

  Rng rng_a(77), rng_b(77);
  for (int i = 0; i < 25; ++i) {
    auto a = engine->chase().SamplePath(&rng_a, incremental);
    auto b = engine->chase().SamplePath(&rng_b, scratch);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(a->choices == b->choices);
    EXPECT_EQ(a->prob, b->prob);
    EXPECT_EQ(a->models, b->models);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, IncrementalEquivalenceTest,
    ::testing::Values(
        Case{"network3",
             "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
             "uninfected(X) :- router(X), not infected(X, 1).\n"
             ":- uninfected(X), uninfected(Y), connected(X, Y).",
             "router(1). router(2). router(3). connected(1,2). "
             "connected(2,1). connected(1,3). connected(3,1). "
             "connected(2,3). connected(3,2). infected(1, 1)."},
        Case{"coin",
             "coin(flip<0.5>). :- coin(0).\n"
             "aux1 :- coin(1), not aux2. aux2 :- coin(1), not aux1.",
             ""},
        Case{"dime",
             "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
             "somedimetail :- dimetail(X, 1).\n"
             "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.",
             "dime(1). dime(2). quarter(3)."},
        Case{"cascade",
             "pick(X, flip<0.4>[X]) :- item(X).\n"
             "chosen(X) :- pick(X, 1).\n"
             "bonus(X, uniformint<1, 3>[X]) :- chosen(X).",
             "item(1). item(2)."}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.label;
    });

TEST(Incremental, ExtendDirectlyMatchesGround) {
  // Unit-level: Ground(Σ∪{c}) == Clone(Ground(Σ)) + Extend(c).
  auto engine = GDatalog::Create(
      "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).",
      "connected(1,2). connected(2,3). infected(1, 1).",
      [] {
        GDatalog::Options o;
        o.grounder = GrounderKind::kSimple;
        return o;
      }());
  ASSERT_TRUE(engine.ok());
  const Grounder& grounder = engine->grounder();

  GroundRuleSet base;
  ASSERT_TRUE(grounder.Ground(ChoiceSet(), &base).ok());

  // The single trigger: Active(0.1, 1, 2).
  std::vector<GroundAtom> triggers =
      FindTriggers(engine->translated(), base, ChoiceSet());
  ASSERT_EQ(triggers.size(), 1u);

  ChoiceSet choices;
  choices.Assign(triggers[0], Value::Int(1));

  // From scratch.
  GroundRuleSet scratch;
  ASSERT_TRUE(grounder.Ground(choices, &scratch).ok());

  // Incremental: the clone's heads() carries the whole matching instance,
  // so Extend resumes from the grounding alone.
  GroundRuleSet extended = base.Clone();
  ASSERT_TRUE(grounder.Extend(choices, triggers[0], &extended).ok());

  ASSERT_EQ(extended.size(), scratch.size());
  for (const GroundRule* rule : scratch.rules()) {
    EXPECT_TRUE(extended.Contains(*rule))
        << rule->ToString(engine->program().interner());
  }
}

// ---------------------------------------------------------------------------
// Perfect grounder: Extend resumes the stratum the parent stalled in
// ---------------------------------------------------------------------------

constexpr const char* kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

constexpr const char* kDimeQuarterProgram =
    "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
    "somedimetail :- dimetail(X, 1).\n"
    "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.\n";

std::string CliqueDb(int n) {
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
  return db + "infected(1, 1).\n";
}

Result<GDatalog> MakePerfect(const std::string& program,
                             const std::string& db) {
  GDatalog::Options options;
  options.grounder = GrounderKind::kPerfect;
  return GDatalog::Create(program, db, std::move(options));
}

/// How the Extend calls of one chase-tree walk went.
struct ExtendTally {
  size_t resumed = 0;    ///< extended `out` in place
  size_t fell_back = 0;  ///< re-grounded from scratch
};

/// A fact on a predicate no program mentions. Extend() keeps it when it
/// resumes in place and loses it when it falls back to Ground(), which
/// starts from a fresh set — so it tells the two apart without a hook.
GroundRule ProbeFact() {
  GroundRule probe;
  probe.head = GroundAtom{0x7fff0000u, {}};
  return probe;
}

/// Walks the whole chase tree of `engine` (canonical first trigger at every
/// node) and checks at every non-root node that Clone(parent) + Extend()
/// holds exactly Ground()'s rule set and resume point. Children extend the
/// extended grounding, so errors would compound down the tree as they do
/// in the chase.
void CheckExtendEverywhere(const GDatalog& engine, ExtendTally* tally) {
  const Grounder& grounder = engine.grounder();
  const Interner* interner = engine.program().interner();
  struct Node {
    ChoiceSet choices;
    std::shared_ptr<const GroundRuleSet> grounding;
  };
  auto root = std::make_shared<GroundRuleSet>();
  ASSERT_TRUE(grounder.Ground(ChoiceSet(), root.get()).ok());
  std::vector<Node> stack = {Node{ChoiceSet(), root}};
  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    std::vector<GroundAtom> triggers =
        FindTriggers(engine.translated(), *node.grounding, node.choices);
    if (triggers.empty()) continue;
    const GroundAtom& trigger = triggers.front();
    const DeltaSignature* sig =
        engine.translated().SignatureByActive(trigger.predicate);
    ASSERT_NE(sig, nullptr);
    std::vector<Value> params(trigger.args.begin(),
                              trigger.args.begin() + sig->param_count);
    ASSERT_TRUE(sig->dist->HasFiniteSupport(params));
    for (const Value& outcome : sig->dist->Support(params, 0)) {
      ChoiceSet choices = node.choices;
      ASSERT_TRUE(choices.Assign(trigger, outcome));
      GroundRuleSet scratch;
      ASSERT_TRUE(grounder.Ground(choices, &scratch).ok());
      auto extended = std::make_shared<GroundRuleSet>(node.grounding->Clone());
      ASSERT_TRUE(grounder.Extend(choices, trigger, extended.get()).ok());
      ASSERT_EQ(extended->size(), scratch.size())
          << "after choosing " << trigger.ToString(interner) << " = "
          << outcome.ToString(interner);
      for (const GroundRule* rule : scratch.rules()) {
        ASSERT_TRUE(extended->Contains(*rule)) << rule->ToString(interner);
      }
      EXPECT_EQ(extended->resume_point(), scratch.resume_point());

      GroundRuleSet probed = node.grounding->Clone();
      probed.Add(ProbeFact());
      ASSERT_TRUE(grounder.Extend(choices, trigger, &probed).ok());
      ++(probed.Contains(ProbeFact()) ? tally->resumed : tally->fell_back);

      stack.push_back(Node{std::move(choices), std::move(extended)});
    }
  }
}

std::string InferJson(const GDatalog& engine, bool incremental,
                      size_t threads) {
  ChaseOptions chase;
  chase.incremental = incremental;
  chase.num_threads = threads;
  auto space = engine.Infer(chase);
  EXPECT_TRUE(space.ok()) << space.status().ToString();
  if (!space.ok()) return "";
  JsonExportOptions options;
  options.include_models = true;
  return OutcomeSpaceToJson(*space, engine.translated(),
                            engine.program().interner(), options);
}

TEST(Incremental, PerfectGrounderExtendsInPlace) {
  // E3 shares the flip<0.5>[X] signature between the dimetail and the
  // quartertail strata; the resume point recorded with the grounding says
  // which of the two a trigger came from, so no Extend falls back.
  auto engine = MakePerfect(kDimeQuarterProgram,
                            "dime(1). dime(2). quarter(3).");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ(engine->grounder().name(), "perfect");
  EXPECT_TRUE(engine->grounder().SupportsIncremental());
  ExtendTally tally;
  CheckExtendEverywhere(*engine, &tally);
  EXPECT_GT(tally.resumed, 0u);
  EXPECT_EQ(tally.fell_back, 0u);

  ChaseOptions options;
  options.incremental = true;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->outcomes.size(), 5u);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));
  EXPECT_EQ(InferJson(*engine, true, 1), InferJson(*engine, false, 1));
}

TEST(PerfectExtend, CliqueFourNeverFallsBack) {
  auto engine = MakePerfect(kNetworkProgram, CliqueDb(4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExtendTally tally;
  CheckExtendEverywhere(*engine, &tally);
  EXPECT_EQ(tally.resumed, 5068u);  // every node but the root
  EXPECT_EQ(tally.fell_back, 0u);
}

TEST(PerfectExtend, LastStratumWithConstraintsFallsBack) {
  // coin is the last stratum, so a grounding with an unchosen coin has
  // already run the constraint pass: Extend must re-ground. A resume would
  // keep `:- dom(1), not coin(1, 1)` after coin(1, 1) is chosen.
  auto engine = MakePerfect(
      "coin(X, flip<0.5>[X]) :- dom(X).\n"
      ":- coin(X, 0), coin(Y, 0), edge(X, Y).\n"
      ":- dom(X), not coin(X, 1), edge(X, X).\n",
      "dom(1). dom(2). dom(3). edge(1, 2). edge(2, 3). edge(1, 1).");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExtendTally tally;
  CheckExtendEverywhere(*engine, &tally);
  EXPECT_EQ(tally.resumed, 0u);
  EXPECT_GT(tally.fell_back, 0u);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EXPECT_EQ(InferJson(*engine, true, threads),
              InferJson(*engine, false, 1));
  }
}

TEST(PerfectExtend, SamplePathsIdenticalGivenSeed) {
  // A sampled path threads one grounding through every Extend().
  for (const auto& [program, db] :
       std::vector<std::pair<std::string, std::string>>{
           {kNetworkProgram, CliqueDb(3)},
           {kDimeQuarterProgram, "dime(1). dime(2). quarter(3)."}}) {
    auto engine = MakePerfect(program, db);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ChaseOptions incremental;
    incremental.incremental = true;
    ChaseOptions scratch;
    scratch.incremental = false;
    Rng rng_a(91), rng_b(91);
    for (int i = 0; i < 25; ++i) {
      auto a = engine->chase().SamplePath(&rng_a, incremental);
      auto b = engine->chase().SamplePath(&rng_b, scratch);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_TRUE(a->choices == b->choices);
      EXPECT_EQ(a->prob, b->prob);
      EXPECT_EQ(a->models, b->models);
    }
  }
}

class RandomStratifiedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomStratifiedTest, ExtendMatchesGroundAtEveryNode) {
  testing_random::RandomStratified p =
      testing_random::MakeRandomStratified(GetParam());
  auto engine = MakePerfect(p.program, p.db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString() << "\n"
                           << p.program;
  ASSERT_EQ(engine->grounder().name(), "perfect");
  ASSERT_GE(static_cast<const PerfectGrounder&>(engine->grounder())
                .stratum_count(),
            3u);
  ExtendTally tally;
  CheckExtendEverywhere(*engine, &tally);
  EXPECT_FALSE(HasFailure()) << p.program << p.db;
}

TEST_P(RandomStratifiedTest, InferJsonIdenticalIncrementalOnOff) {
  testing_random::RandomStratified p =
      testing_random::MakeRandomStratified(GetParam());
  auto engine = MakePerfect(p.program, p.db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string want = InferJson(*engine, false, 1);
  EXPECT_EQ(InferJson(*engine, false, 8), want) << p.program;
  EXPECT_EQ(InferJson(*engine, true, 1), want) << p.program;
  EXPECT_EQ(InferJson(*engine, true, 8), want) << p.program;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStratifiedTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

TEST(PerfectExtend, RandomProgramsTakeBothPaths) {
  // Coverage of the harness above: across its seeds some Extend calls
  // resume and some fall back (a Δ-term in the last stratum under a
  // constraint).
  ExtendTally tally;
  for (uint64_t seed = 1; seed < 41; ++seed) {
    testing_random::RandomStratified p =
        testing_random::MakeRandomStratified(seed);
    auto engine = MakePerfect(p.program, p.db);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    CheckExtendEverywhere(*engine, &tally);
  }
  EXPECT_GT(tally.resumed, 0u);
  EXPECT_GT(tally.fell_back, 0u);
}

}  // namespace
}  // namespace gdlog
