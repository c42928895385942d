// Adversarial property testing of the stable-model solver: random ground
// normal programs are solved both by the engine and by a brute-force
// oracle (enumerate all 2^n interpretations, keep the Gelfond–Lifschitz
// fixpoints that satisfy all constraints). The two must agree exactly.
// Layered non-stratified programs exercise the component decomposition,
// and a copy of the earlier whole-program search is the reference on every
// leaf of the quarantine chase.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "gdatalog/engine.h"
#include "stable/solver.h"
#include "stable/wfs.h"
#include "util/rng.h"

namespace gdlog {
namespace {

/// A random ground normal program over `num_atoms` 0-ary atoms.
struct RandomProgram {
  std::vector<const GroundRule*> rule_ptrs;
  std::vector<GroundRule> rules;
};

RandomProgram MakeRandomProgram(uint64_t seed, size_t num_atoms,
                                size_t num_rules, bool with_constraints) {
  Rng rng(seed);
  RandomProgram out;
  out.rules.reserve(num_rules + 2);
  for (size_t i = 0; i < num_rules; ++i) {
    GroundRule rule;
    bool constraint =
        with_constraints && rng.NextBounded(8) == 0;  // ~12% constraints
    rule.is_constraint = constraint;
    if (!constraint) {
      rule.head = GroundAtom{static_cast<uint32_t>(rng.NextBounded(num_atoms)),
                             {}};
    }
    size_t body_size = rng.NextBounded(3);  // 0..2 literals
    if (constraint && body_size == 0) body_size = 1;
    for (size_t b = 0; b < body_size; ++b) {
      GroundAtom atom{static_cast<uint32_t>(rng.NextBounded(num_atoms)), {}};
      if (rng.NextBounded(2) == 0) {
        rule.negative.push_back(std::move(atom));
      } else {
        rule.positive.push_back(std::move(atom));
      }
    }
    out.rules.push_back(std::move(rule));
  }
  for (const GroundRule& r : out.rules) out.rule_ptrs.push_back(&r);
  return out;
}

/// Brute-force oracle: M ⊆ atoms is a stable model iff M is the least
/// model of the reduct P^M and no constraint fires under M.
std::set<std::vector<uint32_t>> BruteForceStableModels(
    const std::vector<GroundRule>& rules, size_t num_atoms) {
  std::set<std::vector<uint32_t>> models;
  for (uint64_t mask = 0; mask < (1ULL << num_atoms); ++mask) {
    auto in_m = [&](const GroundAtom& a) {
      return (mask >> a.predicate) & 1;
    };
    // Least model of the reduct: drop rules whose negative body intersects
    // M; iterate positive closure.
    std::vector<bool> least(num_atoms, false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const GroundRule& rule : rules) {
        if (rule.is_constraint) continue;
        bool blocked = false;
        for (const GroundAtom& a : rule.negative) {
          if (in_m(a)) blocked = true;
        }
        if (blocked) continue;
        bool body_true = true;
        for (const GroundAtom& a : rule.positive) {
          if (!least[a.predicate]) body_true = false;
        }
        if (body_true && !least[rule.head.predicate]) {
          least[rule.head.predicate] = true;
          changed = true;
        }
      }
    }
    // Fixpoint check: least == M.
    bool stable = true;
    for (size_t a = 0; a < num_atoms; ++a) {
      if (least[a] != (((mask >> a) & 1) != 0)) stable = false;
    }
    if (!stable) continue;
    // Constraints.
    bool violated = false;
    for (const GroundRule& rule : rules) {
      if (!rule.is_constraint) continue;
      bool fires = true;
      for (const GroundAtom& a : rule.positive) {
        if (!in_m(a)) fires = false;
      }
      for (const GroundAtom& a : rule.negative) {
        if (in_m(a)) fires = false;
      }
      if (fires) violated = true;
    }
    if (violated) continue;
    std::vector<uint32_t> model;
    for (size_t a = 0; a < num_atoms; ++a) {
      if ((mask >> a) & 1) model.push_back(static_cast<uint32_t>(a));
    }
    models.insert(std::move(model));
  }
  return models;
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, SolverMatchesBruteForceOracle) {
  constexpr size_t kAtoms = 8;
  constexpr size_t kRules = 14;
  RandomProgram rp =
      MakeRandomProgram(GetParam(), kAtoms, kRules, /*with_constraints=*/true);

  NormalProgram prog = NormalProgram::FromRules(rp.rule_ptrs);
  StableModelEnumerator solver(prog);
  std::set<std::vector<uint32_t>> got;
  Status st = solver.Enumerate([&](const std::vector<uint32_t>& atoms) {
    // Translate dense solver ids back to the 0-ary predicate ids.
    std::vector<uint32_t> model;
    for (uint32_t a : atoms) model.push_back(prog.atoms().Get(a).predicate);
    std::sort(model.begin(), model.end());
    got.insert(std::move(model));
    return true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::set<std::vector<uint32_t>> expected =
      BruteForceStableModels(rp.rules, kAtoms);

  // The solver only knows atoms that appear in the program; the oracle
  // enumerates all kAtoms. Atoms never mentioned can never be true, so
  // both sides agree on mentioned atoms — compare directly.
  EXPECT_EQ(got, expected) << "seed " << GetParam();
}

TEST_P(RandomProgramTest, WfsBracketsAllStableModels) {
  constexpr size_t kAtoms = 7;
  constexpr size_t kRules = 12;
  RandomProgram rp = MakeRandomProgram(GetParam() + 1000, kAtoms, kRules,
                                       /*with_constraints=*/false);
  NormalProgram prog = NormalProgram::FromRules(rp.rule_ptrs);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  std::set<std::vector<uint32_t>> expected =
      BruteForceStableModels(rp.rules, kAtoms);

  for (const std::vector<uint32_t>& model : expected) {
    for (uint32_t a = 0; a < prog.atom_count(); ++a) {
      uint32_t pred = prog.atoms().Get(a).predicate;
      bool in_model =
          std::binary_search(model.begin(), model.end(), pred);
      if (wfm.truth[a] == Truth::kTrue) {
        EXPECT_TRUE(in_model) << "WFS-true atom missing from a stable model";
      }
      if (wfm.truth[a] == Truth::kFalse) {
        EXPECT_FALSE(in_model) << "WFS-false atom present in a stable model";
      }
    }
  }
}

TEST_P(RandomProgramTest, TotalWfsImpliesUniqueStableModel) {
  constexpr size_t kAtoms = 7;
  constexpr size_t kRules = 12;
  RandomProgram rp = MakeRandomProgram(GetParam() + 2000, kAtoms, kRules,
                                       /*with_constraints=*/false);
  NormalProgram prog = NormalProgram::FromRules(rp.rule_ptrs);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  if (!wfm.IsTotal()) return;  // property only applies to total WFS
  std::set<std::vector<uint32_t>> expected =
      BruteForceStableModels(rp.rules, kAtoms);
  ASSERT_EQ(expected.size(), 1u);
  // And the unique stable model is the WFS-true set.
  std::vector<uint32_t> wfs_true;
  for (uint32_t a = 0; a < prog.atom_count(); ++a) {
    if (wfm.truth[a] == Truth::kTrue) {
      wfs_true.push_back(prog.atoms().Get(a).predicate);
    }
  }
  std::sort(wfs_true.begin(), wfs_true.end());
  EXPECT_EQ(*expected.begin(), wfs_true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 61));

// ---------------------------------------------------------------------------
// Layered non-stratified programs: every layer is one strongly connected
// ring of atoms and reads only lower layers, so each program has at least
// three components. Layer 0 is a ring of negative edges of even length,
// which the well-founded model leaves undefined, and every higher layer
// reads it or another undefined layer below, negatively at least once.
// Layer 1 closes an odd loop. Constraints join two layers.
// ---------------------------------------------------------------------------

struct LayeredProgram {
  std::vector<GroundRule> rules;
  std::vector<const GroundRule*> rule_ptrs;
  size_t num_atoms = 0;
  size_t num_layers = 0;
  std::vector<uint32_t> layer0;  ///< the atoms of the bottom layer
};

LayeredProgram MakeLayeredProgram(uint64_t seed) {
  constexpr size_t kMaxAtoms = 14;
  Rng rng(seed);
  LayeredProgram out;
  out.num_layers = 3 + rng.NextBounded(2);
  std::vector<std::vector<uint32_t>> layers;
  for (size_t l = 0; l < out.num_layers; ++l) {
    size_t size = l == 0 ? 2 + 2 * rng.NextBounded(2)  // even: 2 or 4
                         : 1 + rng.NextBounded(4);
    size_t left = kMaxAtoms - out.num_atoms - (out.num_layers - l - 1);
    size = std::min(size, left);
    std::vector<uint32_t> layer;
    for (size_t i = 0; i < size; ++i) {
      layer.push_back(static_cast<uint32_t>(out.num_atoms++));
    }
    layers.push_back(std::move(layer));
  }
  out.layer0 = layers[0];
  auto atom = [](uint32_t id) { return GroundAtom{id, {}}; };
  auto add_literal = [&](GroundRule* rule, uint32_t id, bool negative) {
    (negative ? rule->negative : rule->positive).push_back(atom(id));
  };
  // A random atom of a random layer strictly below `l`.
  auto lower_atom = [&](size_t l) {
    const std::vector<uint32_t>& layer = layers[rng.NextBounded(l)];
    return layer[rng.NextBounded(layer.size())];
  };
  for (size_t l = 0; l < layers.size(); ++l) {
    const std::vector<uint32_t>& layer = layers[l];
    const size_t m = layer.size();
    // Ring edge signs: all negative at the bottom; an odd number of
    // negative edges in layer 1 (an odd loop); random above.
    std::vector<bool> negative(m);
    size_t negatives = 0;
    for (size_t i = 0; i < m; ++i) {
      negative[i] = l == 0 || rng.NextBounded(3) != 0;
      negatives += negative[i];
    }
    if (l == 1 && negatives % 2 == 0) negative[m - 1] = !negative[m - 1];
    for (size_t i = 0; i < m; ++i) {
      GroundRule rule;
      rule.head = atom(layer[i]);
      add_literal(&rule, layer[(i + 1) % m], negative[i]);
      if (l > 0) {
        // The first rule of a layer reads the layer below negatively.
        if (i == 0) {
          const std::vector<uint32_t>& below = layers[l - 1];
          add_literal(&rule, below[rng.NextBounded(below.size())], true);
        } else if (rng.NextBounded(2) == 0) {
          add_literal(&rule, lower_atom(l), rng.NextBounded(2) == 0);
        }
      }
      out.rules.push_back(std::move(rule));
    }
    // An alternative support from below.
    if (l > 0 && rng.NextBounded(2) == 0) {
      GroundRule rule;
      rule.head = atom(layer[rng.NextBounded(m)]);
      add_literal(&rule, lower_atom(l), rng.NextBounded(2) == 0);
      out.rules.push_back(std::move(rule));
    }
  }
  // Constraints joining two layers.
  const size_t constraints = 1 + rng.NextBounded(2);
  for (size_t k = 0; k < constraints; ++k) {
    size_t hi = 1 + rng.NextBounded(layers.size() - 1);
    GroundRule rule;
    rule.is_constraint = true;
    add_literal(&rule, layers[hi][rng.NextBounded(layers[hi].size())],
                rng.NextBounded(2) == 0);
    add_literal(&rule, lower_atom(hi), rng.NextBounded(2) == 0);
    out.rules.push_back(std::move(rule));
  }
  for (const GroundRule& r : out.rules) out.rule_ptrs.push_back(&r);
  return out;
}

class LayeredProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LayeredProgramTest, SolverMatchesBruteForceOracle) {
  LayeredProgram lp = MakeLayeredProgram(GetParam());
  ASSERT_GE(lp.num_layers, 3u);
  ASSERT_LE(lp.num_atoms, 14u);
  NormalProgram prog = NormalProgram::FromRules(lp.rule_ptrs);
  // The bottom ring is undefined, so the components above it are solved
  // per input assignment.
  WellFoundedModel wfm = ComputeWellFounded(prog);
  for (uint32_t a : lp.layer0) {
    uint32_t id = prog.atoms().Lookup(GroundAtom{a, {}});
    ASSERT_NE(id, AtomTable::kNotFound);
    EXPECT_EQ(wfm.truth[id], Truth::kUndefined);
  }

  StableModelEnumerator solver(prog);
  std::set<std::vector<uint32_t>> got;
  Status st = solver.Enumerate([&](const std::vector<uint32_t>& atoms) {
    EXPECT_TRUE(std::is_sorted(atoms.begin(), atoms.end()));
    std::vector<uint32_t> model;
    for (uint32_t a : atoms) model.push_back(prog.atoms().Get(a).predicate);
    std::sort(model.begin(), model.end());
    EXPECT_TRUE(got.insert(std::move(model)).second) << "duplicate model";
    return true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::set<std::vector<uint32_t>> expected =
      BruteForceStableModels(lp.rules, lp.num_atoms);
  EXPECT_EQ(got, expected) << "seed " << GetParam();
  const uint64_t all_nodes = solver.nodes_used();

  // The early stop: one model at most, and no more nodes than the full
  // enumeration.
  StableModelEnumerator::Options first;
  first.max_models = 1;
  StableModelEnumerator stopper(prog, first);
  size_t reported = 0;
  st = stopper.Enumerate([&](const std::vector<uint32_t>&) {
    ++reported;
    return true;
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(reported, std::min<size_t>(1, expected.size()));
  EXPECT_LE(stopper.nodes_used(), all_nodes);

  GroundRuleSet set;
  for (const GroundRule& r : lp.rules) set.Add(r);
  auto has = HasStableModel(set);
  ASSERT_TRUE(has.ok()) << has.status().ToString();
  EXPECT_EQ(*has, !expected.empty()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayeredProgramTest,
                         ::testing::Range<uint64_t>(1, 121));

TEST(LayeredProgramTest, SeedsCoverEveryShape) {
  // Across the seeds, some programs have models and some have none, and
  // some components have several models.
  size_t none = 0, one = 0, several = 0;
  for (uint64_t seed = 1; seed < 121; ++seed) {
    LayeredProgram lp = MakeLayeredProgram(seed);
    size_t models = BruteForceStableModels(lp.rules, lp.num_atoms).size();
    (models == 0 ? none : models == 1 ? one : several) += 1;
  }
  EXPECT_GT(none, 0u);
  EXPECT_GT(one, 0u);
  EXPECT_GT(several, 0u);
}

// ---------------------------------------------------------------------------
// Reference: the whole-program branch-and-verify search that preceded the
// component decomposition, kept verbatim as an oracle. It reruns the
// conditioned well-founded fixpoint over the whole program at every node.
// ---------------------------------------------------------------------------

class ReferenceEnumerator {
 public:
  explicit ReferenceEnumerator(const NormalProgram& prog) : prog_(prog) {}

  Status Enumerate(
      const std::function<bool(const std::vector<uint32_t>&)>& cb) {
    nodes_ = 0;
    models_ = 0;
    std::vector<Truth> external(prog_.atom_count(), Truth::kUndefined);
    bool keep_going = true;
    return Search(external, cb, &keep_going);
  }

 private:
  void EmitLeaf(const std::vector<Truth>& external,
                const std::function<bool(const std::vector<uint32_t>&)>& cb,
                bool* keep_going) {
    // Leaf: the assignment to negative atoms is total. Compute the least
    // model of the reduct and verify the assignment is self-consistent
    // (a ∈ M iff assumed true) — the Gelfond–Lifschitz fixpoint condition.
    std::vector<bool> model = LeastModelOfReduct(prog_, external);
    for (uint32_t a : prog_.negative_atoms()) {
      bool assumed = external[a] == Truth::kTrue;
      if (model[a] != assumed) return;  // not stable
    }
    // Integrity constraints: a model deriving the ⊥ marker is discarded.
    uint32_t bot = prog_.falsity_atom();
    if (bot != NormalProgram::kNoFalsity && model[bot]) return;
    std::vector<uint32_t> atoms;
    for (uint32_t a = 0; a < model.size(); ++a) {
      if (model[a] && a != bot) atoms.push_back(a);
    }
    ++models_;
    if (!cb(atoms)) {
      *keep_going = false;
      return;
    }
    if (options_.max_models != 0 && models_ >= options_.max_models) {
      *keep_going = false;
    }
  }

  Status Search(std::vector<Truth>& external,
                const std::function<bool(const std::vector<uint32_t>&)>& cb,
                bool* keep_going) {
    if (!*keep_going) return Status::OK();
    if (++nodes_ > options_.max_nodes) {
      return Status::BudgetExhausted(
          "stable-model search exceeded " +
          std::to_string(options_.max_nodes) + " nodes");
    }

    // Conditioned well-founded propagation to fixpoint.
    std::vector<uint32_t> assigned_here;
    for (;;) {
      WellFoundedModel wfm = ComputeWellFounded(prog_, &external);
      // Constraint pruning: if ⊥ is well-founded-true under the current
      // assignment, every compatible candidate violates a constraint.
      uint32_t bot = prog_.falsity_atom();
      if (bot != NormalProgram::kNoFalsity &&
          wfm.truth[bot] == Truth::kTrue) {
        for (uint32_t b : assigned_here) external[b] = Truth::kUndefined;
        return Status::OK();
      }
      bool changed = false;
      for (uint32_t a : prog_.negative_atoms()) {
        Truth w = wfm.truth[a];
        if (external[a] == Truth::kUndefined) {
          if (w != Truth::kUndefined) {
            external[a] = w;
            assigned_here.push_back(a);
            changed = true;
          }
        } else if (w != Truth::kUndefined && w != external[a]) {
          // Conflict: assignment contradicts a sound consequence.
          for (uint32_t b : assigned_here) external[b] = Truth::kUndefined;
          return Status::OK();
        }
      }
      if (!changed) break;
    }

    // Find an unassigned negative atom to branch on.
    uint32_t branch_atom = UINT32_MAX;
    for (uint32_t a : prog_.negative_atoms()) {
      if (external[a] == Truth::kUndefined) {
        branch_atom = a;
        break;
      }
    }

    Status st = Status::OK();
    if (branch_atom == UINT32_MAX) {
      EmitLeaf(external, cb, keep_going);
    } else {
      for (Truth guess : {Truth::kTrue, Truth::kFalse}) {
        external[branch_atom] = guess;
        st = Search(external, cb, keep_going);
        if (!st.ok() || !*keep_going) break;
      }
      external[branch_atom] = Truth::kUndefined;
    }

    for (uint32_t b : assigned_here) external[b] = Truth::kUndefined;
    return st;
  }

  const NormalProgram& prog_;
  StableModelEnumerator::Options options_ = {};
  uint64_t nodes_ = 0;
  uint64_t models_ = 0;
};

/// The reference's models of a ground program, as canonical ground-atom
/// sets.
StableModelSet ReferenceStableModels(const GroundRuleSet& rules) {
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  ReferenceEnumerator reference(prog);
  StableModelSet out;
  Status st = reference.Enumerate([&](const std::vector<uint32_t>& atoms) {
    StableModel model;
    for (uint32_t a : atoms) model.push_back(prog.atoms().Get(a));
    std::sort(model.begin(), model.end());
    out.insert(std::move(model));
    return true;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(ReferenceSearch, AgreesWithBruteForceOnLayeredPrograms) {
  // The reference is itself checked, so a disagreement below points at the
  // decomposition.
  for (uint64_t seed = 1; seed < 31; ++seed) {
    LayeredProgram lp = MakeLayeredProgram(seed);
    GroundRuleSet set;
    for (const GroundRule& r : lp.rules) set.Add(r);
    std::set<std::vector<uint32_t>> got;
    for (const StableModel& model : ReferenceStableModels(set)) {
      std::vector<uint32_t> ids;
      for (const GroundAtom& a : model) ids.push_back(a.predicate);
      std::sort(ids.begin(), ids.end());
      got.insert(std::move(ids));
    }
    EXPECT_EQ(got, BruteForceStableModels(lp.rules, lp.num_atoms))
        << "seed " << seed;
  }
}

std::string QuarantineClique(int n) {
  std::string db;
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

TEST(ReferenceSearch, QuarantineLeavesMatchAtEveryThreadCount) {
  constexpr const char* kQuarantine =
      "infected(Y, flip<0.3>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
      "quarantined(X) :- infected(X, 1), not released(X).\n"
      "released(X) :- infected(X, 1), not quarantined(X).\n"
      ":- released(X), released(Y), connected(X, Y).\n";
  auto engine =
      GDatalog::Create(kQuarantine, QuarantineClique(4), GDatalog::Options{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ(engine->grounder().name(), "simple");
  for (size_t threads : {1u, 8u}) {
    ChaseOptions chase;
    chase.keep_groundings = true;
    chase.num_threads = threads;
    auto space = engine->Infer(chase);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    ASSERT_EQ(space->outcomes.size(), 2535u);
    size_t several = 0;
    for (const PossibleOutcome& outcome : space->outcomes) {
      // Σ ∪ G(Σ): the grounding plus one Active → Result rule per choice.
      GroundRuleSet program = outcome.grounding->Clone();
      for (const auto& [active, value] : outcome.choices.entries()) {
        const DeltaSignature* sig =
            engine->translated().SignatureByActive(active.predicate);
        GroundRule rule;
        rule.head = ChoiceSet::ResultAtom(sig->result_pred, active, value);
        rule.positive.push_back(active);
        program.Add(std::move(rule));
      }
      ASSERT_EQ(outcome.models, ReferenceStableModels(program))
          << "threads " << threads;
      several += outcome.models.size() > 1;
    }
    EXPECT_GT(several, 0u);
  }
}

TEST(ReferenceSearch, BudgetBoundQuarantineIsThreadIndependent) {
  // A leaf with k infected routers costs 1 + 3k + k(k+1) nodes: the
  // well-founded pass, three search nodes per even loop, and the product's
  // placements (at most one router released). So 33 solves every leaf,
  // and 20 stops those with three or four infected routers (22, 33).
  constexpr const char* kQuarantine =
      "infected(Y, flip<0.3>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
      "quarantined(X) :- infected(X, 1), not released(X).\n"
      "released(X) :- infected(X, 1), not quarantined(X).\n"
      ":- released(X), released(Y), connected(X, Y).\n";
  auto engine =
      GDatalog::Create(kQuarantine, QuarantineClique(4), GDatalog::Options{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (uint64_t budget : {uint64_t{1}, uint64_t{20}, uint64_t{33}}) {
    std::vector<Result<OutcomeSpace>> runs;
    for (size_t threads : {1u, 8u}) {
      ChaseOptions chase;
      chase.solver_max_nodes = budget;
      chase.num_threads = threads;
      runs.push_back(engine->Infer(chase));
    }
    ASSERT_EQ(runs[0].ok(), budget == 33) << "budget " << budget;
    ASSERT_EQ(runs[0].status().ToString(), runs[1].status().ToString());
    if (!runs[0].ok()) {
      EXPECT_EQ(runs[0].status().code(), StatusCode::kBudgetExhausted);
      continue;
    }
    ASSERT_EQ(runs[0]->outcomes.size(), runs[1]->outcomes.size());
    for (size_t i = 0; i < runs[0]->outcomes.size(); ++i) {
      EXPECT_EQ(runs[0]->outcomes[i].models, runs[1]->outcomes[i].models);
    }
  }
}

}  // namespace
}  // namespace gdlog
