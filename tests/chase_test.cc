// Chase-tree exploration (§4): order independence (Lemma 4.4), outcome
// bijection (Lemma 4.5 / Theorem 4.6), budgets and the error event Ω∞,
// BCKOV agreement on positive programs (Theorem C.4), the Monte-Carlo
// sampler against exact inference, and the Horn read-off against the
// stable-model solver.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ast/parser.h"
#include "gdatalog/bckov.h"
#include "gdatalog/compare.h"
#include "gdatalog/engine.h"
#include "gdatalog/sampler.h"
#include "random_stratified.h"
#include "stable/solver.h"

namespace gdlog {
namespace {

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

// ---------------------------------------------------------------------------
// Lemma 4.4 / Theorem 4.6: trigger order does not matter.
// ---------------------------------------------------------------------------

class TriggerOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriggerOrderTest, OutcomeSpaceIndependentOfTriggerOrder) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());

  ChaseOptions canonical;
  auto base = engine->Infer(canonical);
  ASSERT_TRUE(base.ok());

  ChaseOptions shuffled;
  shuffled.trigger_shuffle_seed = GetParam();
  auto other = engine->Infer(shuffled);
  ASSERT_TRUE(other.ok());

  // Identical sets of possible outcomes (choices + probability), though
  // possibly enumerated in different orders.
  ASSERT_EQ(base->outcomes.size(), other->outcomes.size());
  std::map<ChoiceSet, Prob> base_map, other_map;
  for (const PossibleOutcome& o : base->outcomes) {
    base_map.emplace(o.choices, o.prob);
  }
  for (const PossibleOutcome& o : other->outcomes) {
    other_map.emplace(o.choices, o.prob);
  }
  EXPECT_EQ(base_map.size(), other_map.size());
  for (const auto& [choices, prob] : base_map) {
    auto it = other_map.find(choices);
    ASSERT_NE(it, other_map.end());
    EXPECT_EQ(it->second, prob);
  }
  EXPECT_EQ(base->finite_mass, other->finite_mass);
  EXPECT_EQ(base->ProbConsistent(), other->ProbConsistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriggerOrderTest,
                         ::testing::Values(1, 2, 3, 17, 99, 31337));

// ---------------------------------------------------------------------------
// Outcome structure invariants
// ---------------------------------------------------------------------------

TEST(ChaseInvariants, OutcomesAreDistinctAndMinimal) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());

  // Lemma 4.5: outcomes are in bijection with finite maximal paths; choice
  // sets are pairwise distinct and ⊆-incomparable (terminal minimality).
  for (size_t i = 0; i < space->outcomes.size(); ++i) {
    for (size_t j = i + 1; j < space->outcomes.size(); ++j) {
      const ChoiceSet& a = space->outcomes[i].choices;
      const ChoiceSet& b = space->outcomes[j].choices;
      EXPECT_FALSE(a == b);
      EXPECT_FALSE(a.SubsetOf(b));
      EXPECT_FALSE(b.SubsetOf(a));
    }
  }
}

TEST(ChaseInvariants, ProbabilitiesMatchChoiceProducts) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  const DistributionRegistry& registry = engine->registry();
  const Distribution* flip = registry.Lookup("flip");
  for (const PossibleOutcome& outcome : space->outcomes) {
    Prob product = Prob::One();
    for (const auto& [active, value] : outcome.choices.entries()) {
      std::vector<Value> params = {active.args[0]};
      product = product * flip->Pmf(params, value);
    }
    EXPECT_EQ(product, outcome.prob);
  }
}

TEST(ChaseInvariants, FiniteMassSumsToOneWhenComplete) {
  for (int n : {2, 3, 4}) {
    auto engine = GDatalog::Create(kNetworkProgram, Clique(n));
    ASSERT_TRUE(engine.ok());
    auto space = engine->Infer();
    ASSERT_TRUE(space.ok());
    EXPECT_TRUE(space->complete);
    EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0)) << "n=" << n;
    EXPECT_EQ(space->residual_mass(), Prob::Zero());
  }
}

TEST(ChaseInvariants, EventMassesSumToFiniteMass) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  Prob total = Prob::Zero();
  for (const auto& [models, mass] : space->Events()) {
    total = total + mass;
  }
  EXPECT_EQ(total, space->finite_mass);
}

TEST(ChaseInvariants, MarginalBoundsAreOrderedAndBounded) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  for (const char* atom_text :
       {"infected(2, 1)", "infected(3, 1)", "uninfected(2)", "router(1)"}) {
    auto atom = engine->ParseGroundAtom(atom_text);
    ASSERT_TRUE(atom.ok());
    OutcomeSpace::Bounds b = space->Marginal(*atom);
    EXPECT_LE(b.lower.value(), b.upper.value() + 1e-15) << atom_text;
    EXPECT_GE(b.lower.value(), 0.0);
    EXPECT_LE(b.upper.value(), 1.0);
  }
}

// ---------------------------------------------------------------------------
// Budgets and the error event
// ---------------------------------------------------------------------------

TEST(ChaseBudgets, GeometricSupportTruncationFeedsResidual) {
  // A single geometric sample: countably infinite support. With support
  // truncated at 8, residual mass = (1/2)^8.
  auto engine = GDatalog::Create("n(geometric<0.5>).", "");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions options;
  options.support_limit = 8;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  EXPECT_FALSE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 8u);
  EXPECT_EQ(space->support_truncation_mass, Prob(Rational(1, 256)));
  EXPECT_EQ(space->residual_mass(), Prob(Rational(1, 256)));
}

TEST(ChaseBudgets, NonTerminatingChaseHitsDepthBudget) {
  // A value-inventing loop: each positive sample triggers another sample.
  // P(terminating) = Σ (1/2)^k telescopes to 1, but individual paths can
  // run arbitrarily deep; with max_depth = 5 the tail goes to the residual.
  const char* program = R"(
    count(0, flip<0.5>).
    count(N1, flip<0.5>[N1]) :- succ(N, N1), count(N, 1).
  )";
  std::string db;
  for (int i = 0; i < 50; ++i) {
    db += "succ(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  auto engine = GDatalog::Create(program, db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions options;
  options.max_depth = 5;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  EXPECT_FALSE(space->complete);
  EXPECT_GT(space->depth_truncated_paths, 0u);
  // Terminated outcomes: runs ending in a 0 within depth 5.
  EXPECT_EQ(space->outcomes.size(), 5u);
  EXPECT_EQ(space->finite_mass,
            Prob(Rational(1, 2)) + Prob(Rational(1, 4)) +
                Prob(Rational(1, 8)) + Prob(Rational(1, 16)) +
                Prob(Rational(1, 32)));
}

TEST(ChaseBudgets, MaxOutcomesStopsEnumeration) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.max_outcomes = 3;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  EXPECT_FALSE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 3u);
  EXPECT_LT(space->finite_mass.value(), 1.0);
}

TEST(ChaseBudgets, MinPathProbPrunesDeepTails) {
  auto engine = GDatalog::Create("n(geometric<0.5>).", "");
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.min_path_prob = 0.05;  // prunes nothing here (leaf probs = path)
  options.support_limit = 64;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  // Outcomes with probability < 0.05: (1/2)^k < 0.05 for k >= 5. Those
  // paths are pruned.
  EXPECT_FALSE(space->complete);
  EXPECT_GE(space->pruned_paths, 1u);
  for (const PossibleOutcome& o : space->outcomes) {
    EXPECT_GE(o.prob.value(), 0.05);
  }
}

TEST(ChaseBudgets, CompleteSpaceRejectsNothing) {
  auto engine = GDatalog::Create("n(uniformint<1, 6>).", "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  EXPECT_TRUE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 6u);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));
}

// ---------------------------------------------------------------------------
// Theorem C.4: BCKOV agreement on positive programs.
// ---------------------------------------------------------------------------

class BckovAgreementTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(BckovAgreementTest, SimpleGrounderSpaceIsomorphicToBckov) {
  auto [program_text, db_text] = GetParam();

  GDatalog::Options options;
  options.grounder = GrounderKind::kSimple;
  auto engine = GDatalog::Create(program_text, db_text, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions chase_options;
  auto space = engine->Infer(chase_options);
  ASSERT_TRUE(space.ok());
  ASSERT_TRUE(space->complete);

  auto prog = ParseProgram(program_text);
  ASSERT_TRUE(prog.ok());
  auto db = ParseFacts(db_text, prog->interner());
  ASSERT_TRUE(db.ok());
  auto bckov =
      BckovEngine::Create(*prog, &*db, &engine->registry());
  ASSERT_TRUE(bckov.ok()) << bckov.status().ToString();
  auto bckov_space = bckov->Explore(1u << 20, 4096, 64);
  ASSERT_TRUE(bckov_space.ok());
  ASSERT_TRUE(bckov_space->complete);

  // |Ω| matches, total masses match.
  ASSERT_EQ(space->outcomes.size(), bckov_space->outcomes.size());
  EXPECT_EQ(space->finite_mass, bckov_space->finite_mass);

  // The bijection f: each of our outcomes has exactly one stable model
  // (Lemma C.5); its Result atoms (the model "modulo active", restricted
  // to Result predicates) determine the matching BCKOV outcome with equal
  // probability (Lemma C.6 / Theorem C.4).
  // NOTE: interners differ between the two engines, so compare via
  // rendered strings of Result atoms.
  std::multiset<std::pair<std::string, std::string>> ours, theirs;
  auto render_results = [](const std::vector<GroundAtom>& atoms,
                           const TranslatedProgram& tp,
                           const Interner* interner) {
    std::string out;
    std::vector<std::string> parts;
    for (const GroundAtom& a : atoms) {
      if (tp.IsResultPredicate(a.predicate)) {
        parts.push_back(a.ToString(interner));
      }
    }
    std::sort(parts.begin(), parts.end());
    for (const std::string& p : parts) out += p + ";";
    return out;
  };

  for (const PossibleOutcome& o : space->outcomes) {
    ASSERT_EQ(o.models.size(), 1u);
    std::vector<GroundAtom> model(o.models.begin()->begin(),
                                  o.models.begin()->end());
    ours.emplace(render_results(model, engine->translated(),
                                engine->program().interner()),
                 o.prob.ToString());
  }
  for (const BckovEngine::Outcome& o : bckov_space->outcomes) {
    theirs.emplace(render_results(o.instance, bckov->translated(),
                                  prog->interner()),
                   o.prob.ToString());
  }
  EXPECT_EQ(ours, theirs);
}

INSTANTIATE_TEST_SUITE_P(
    PositivePrograms, BckovAgreementTest,
    ::testing::Values(
        std::make_pair("coin(flip<0.5>).", ""),
        std::make_pair("virus(Y, flip<0.3>[X, Y]) :- virus(X, 1), link(X, Y).",
                       "virus(1, 1). link(1, 2). link(2, 3)."),
        std::make_pair("roll(P, uniformint<1, 4>[P]) :- player(P).",
                       "player(1). player(2)."),
        std::make_pair(
            "pick(X, flip<0.2>[X]) :- item(X).\n"
            "chosen(X) :- pick(X, 1).\n"
            "bonus(X, flip<0.5>[X]) :- chosen(X).",
            "item(1). item(2).")));

// ---------------------------------------------------------------------------
// Monte-Carlo sampler vs exact inference
// ---------------------------------------------------------------------------

TEST(Sampler, ConvergesToExactDominationProbability) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  MonteCarloEstimator estimator(&engine->chase(), ChaseOptions{});
  auto est = estimator.EstimateProbConsistent(20000, /*seed=*/7);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est->samples, 20000u);
  EXPECT_EQ(est->truncated, 0u);
  EXPECT_NEAR(est->mean, 0.19, 5 * est->std_error + 1e-9);
  EXPECT_NEAR(est->mean, 0.19, 0.02);
}

TEST(Sampler, MarginalEstimatesMatchExact) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto atom = engine->ParseGroundAtom("infected(2, 1)");
  ASSERT_TRUE(atom.ok());
  MonteCarloEstimator estimator(&engine->chase(), ChaseOptions{});
  auto upper = estimator.EstimateMarginalUpper(20000, 11, *atom);
  ASSERT_TRUE(upper.ok());
  EXPECT_NEAR(upper->mean, 0.109, 0.02);
  auto lower = estimator.EstimateMarginalLower(20000, 11, *atom);
  ASSERT_TRUE(lower.ok());
  EXPECT_NEAR(lower->mean, 0.109, 0.02);
}

TEST(Sampler, SamplePathProbabilityMatchesChoices) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    auto sample = engine->chase().SamplePath(&rng, ChaseOptions{});
    ASSERT_TRUE(sample.ok());
    EXPECT_FALSE(sample->truncated);
    EXPECT_GE(sample->choices.size(), 2u);
    EXPECT_GT(sample->prob.value(), 0.0);
  }
}

TEST(Sampler, TruncatedWalksAreReported) {
  const char* program = R"(
    count(0, flip<0.9>).
    count(N1, flip<0.9>[N1]) :- succ(N, N1), count(N, 1).
  )";
  std::string db;
  for (int i = 0; i < 100; ++i) {
    db += "succ(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  auto engine = GDatalog::Create(program, db);
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.max_depth = 3;
  MonteCarloEstimator estimator(&engine->chase(), options);
  auto est = estimator.EstimateProbConsistent(500, 3);
  ASSERT_TRUE(est.ok());
  // With continue-probability 0.9 and depth cap 3, most walks truncate.
  EXPECT_GT(est->truncated, 250u);
  EXPECT_EQ(est->samples + est->truncated, 500u);
}

TEST(Sampler, DeterministicGivenSeed) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  MonteCarloEstimator estimator(&engine->chase(), ChaseOptions{});
  auto a = estimator.EstimateProbConsistent(200, 42);
  auto b = estimator.EstimateProbConsistent(200, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->mean, b->mean);
}

// ---------------------------------------------------------------------------
// Horn read-off vs the stable-model solver
// ---------------------------------------------------------------------------

constexpr const char* kQuarantineProgram =
    "infected(Y, flip<0.3>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "quarantined(X) :- infected(X, 1), not released(X).\n"
    "released(X) :- infected(X, 1), not quarantined(X).\n"
    ":- released(X), released(Y), connected(X, Y).\n";

/// Σ ∪ G(Σ) of an outcome as a ground rule set: its grounding plus one
/// Active → Result rule per choice.
GroundRuleSet OutcomeProgram(const GDatalog& engine,
                             const PossibleOutcome& outcome) {
  GroundRuleSet program = outcome.grounding->Clone();
  for (const auto& [active, value] : outcome.choices.entries()) {
    const DeltaSignature* sig =
        engine.translated().SignatureByActive(active.predicate);
    GroundRule rule;
    rule.head = ChoiceSet::ResultAtom(sig->result_pred, active, value);
    rule.positive.push_back(active);
    program.Add(std::move(rule));
  }
  return program;
}

struct ReadOffTally {
  size_t horn = 0;    ///< leaves whose models were read off
  size_t solved = 0;  ///< leaves that went to the solver
};

/// At every leaf of `engine`'s chase: SolveOutcome equals the solver run on
/// Σ ∪ G(Σ); where the Horn check holds, so does the read-off itself, and
/// the budget behaves as the solver's one search node would.
void CheckReadOffAgainstSolver(const GDatalog& engine, ReadOffTally* tally) {
  ChaseOptions chase;
  chase.compute_models = false;
  chase.keep_groundings = true;
  chase.num_threads = 1;
  auto space = engine.Infer(chase);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  const uint64_t budget = chase.solver_max_nodes;
  for (const PossibleOutcome& outcome : space->outcomes) {
    GroundRuleSet program = OutcomeProgram(engine, outcome);
    auto want = AllStableModels(program);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = engine.chase().SolveOutcome(outcome.choices, *outcome.grounding,
                                           budget);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *want);
    if (!IsHornGrounding(*outcome.grounding)) {
      ++tally->solved;
      continue;
    }
    ++tally->horn;
    auto read = HornStableModels(engine.translated(), outcome.choices,
                                 *outcome.grounding);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, *want);
    for (uint64_t nodes : {uint64_t{0}, uint64_t{1}}) {
      StableModelEnumerator::Options options;
      options.max_nodes = nodes;
      auto solver = AllStableModels(program, options);
      auto read_off = engine.chase().SolveOutcome(
          outcome.choices, *outcome.grounding, nodes);
      EXPECT_EQ(read_off.status().code(), solver.status().code())
          << "max_nodes " << nodes;
      EXPECT_EQ(read_off.status().ToString(), solver.status().ToString());
    }
  }
}

Result<GDatalog> MakeEngine(const std::string& program, const std::string& db,
                            GrounderKind kind) {
  GDatalog::Options options;
  options.grounder = kind;
  return GDatalog::Create(program, db, std::move(options));
}

TEST(HornReadOff, MatchesSolverOnRandomStratifiedPrograms) {
  ReadOffTally perfect;
  ReadOffTally simple;
  for (uint64_t seed = 1; seed < 41; ++seed) {
    testing_random::RandomStratified p =
        testing_random::MakeRandomStratified(seed);
    for (GrounderKind kind : {GrounderKind::kPerfect, GrounderKind::kSimple}) {
      auto engine = MakeEngine(p.program, p.db, kind);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      CheckReadOffAgainstSolver(
          *engine, kind == GrounderKind::kPerfect ? &perfect : &simple);
      ASSERT_FALSE(HasFailure()) << "seed " << seed << "\n" << p.program;
    }
  }
  // The perfect grounder only emits instances whose negative body misses
  // the complete lower strata, so its leaves are all Horn; the simple
  // grounder keeps live negation, so the solver still runs there.
  EXPECT_GT(perfect.horn, 0u);
  EXPECT_EQ(perfect.solved, 0u);
  EXPECT_GT(simple.solved, 0u);
}

TEST(HornReadOff, QuarantineProgramKeepsTheSolver) {
  // Non-stratified: released(X) is in heads() wherever quarantined(X) is
  // negated, so no leaf passes the Horn check.
  auto engine = MakeEngine(kQuarantineProgram, Clique(3), GrounderKind::kAuto);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ(engine->grounder().name(), "simple");
  ReadOffTally tally;
  CheckReadOffAgainstSolver(*engine, &tally);
  EXPECT_GT(tally.solved, 0u);
  EXPECT_EQ(tally.horn, 0u);
}

TEST(HornReadOff, NetworkLeavesAreReadOff) {
  auto engine = MakeEngine(kNetworkProgram, Clique(3), GrounderKind::kPerfect);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ReadOffTally tally;
  CheckReadOffAgainstSolver(*engine, &tally);
  EXPECT_GT(tally.horn, 0u);
  EXPECT_EQ(tally.solved, 0u);
}

}  // namespace
}  // namespace gdlog
