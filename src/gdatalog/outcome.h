#ifndef GDLOG_GDATALOG_OUTCOME_H_
#define GDLOG_GDATALOG_OUTCOME_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "gdatalog/choice.h"
#include "gdatalog/translation.h"
#include "stable/solver.h"
#include "util/prob.h"

namespace gdlog {

/// A finite possible outcome of D w.r.t. Π relative to a grounder G
/// (Definition 3.7): the choice set Σ with its grounding G(Σ), its
/// probability Pr(Σ) = Π δ⟨p̄⟩(o) over the Result atoms of heads(Σ), and
/// the induced set of stable models sms(Σ ∪ G(Σ)).
struct PossibleOutcome {
  ChoiceSet choices;
  Prob prob;
  StableModelSet models;
  /// The grounding G(Σ), retained only when ChaseOptions.keep_groundings.
  std::shared_ptr<const GroundRuleSet> grounding;
};

/// The probability space Π_G(D) = (Ω, F, P) restricted to what a finite
/// computation can materialize: the enumerated finite outcomes plus the
/// residual mass. The residual covers (a) the error event Ω∞ (genuinely
/// infinite outcomes, which the paper — following Grohe et al. — treats as
/// invalid) and (b) mass the exploration budget left unexplored;
/// `complete == true` means budgets never bound, so the residual is exactly
/// the Ω∞ mass (and zero when every chase path terminated).
///
/// Every space is built by StreamingMerger::Finish (shard.h), which fixes
/// the summary masses — finite, P(consistent), P(inconsistent) — in one
/// canonical-order pass; reads return the stored sums and never re-add
/// the outcomes. Editing `outcomes` afterwards does not update them;
/// WithAddedFacts carries them over because it never changes emptiness.
class OutcomeSpace {
 public:
  std::vector<PossibleOutcome> outcomes;

  /// Σ Pr over the enumerated finite outcomes, in canonical order.
  Prob finite_mass = Prob::Zero();
  /// 1 - finite_mass.
  Prob residual_mass() const { return Prob::One() - finite_mass; }

  /// True iff no budget (outcome count, depth, support truncation,
  /// min-path probability) was hit during exploration.
  bool complete = true;
  /// Paths abandoned due to the depth budget.
  size_t depth_truncated_paths = 0;
  /// Mass lost to truncating countably infinite supports.
  Prob support_truncation_mass = Prob::Zero();
  /// Paths pruned below min_path_prob.
  size_t pruned_paths = 0;

  // -------------------------------------------------------------------
  // Events of the σ-algebra F: maximal families of finite outcomes with
  // equal stable-model sets (plus the residual/error event).
  // -------------------------------------------------------------------

  /// P restricted to the generating events: stable-model set ↦ mass.
  std::map<StableModelSet, Prob> Events() const;

  /// P(the program has at least one stable model): total mass of outcomes
  /// with sms(Σ) ≠ ∅. Fixed once the chase ends, so StreamingMerger::Finish
  /// sums it in canonical order next to finite_mass and this only reads
  /// the stored value (zero on a default-constructed space).
  Prob ProbConsistent() const { return prob_consistent_; }

  /// P(sms(Σ) = ∅) over enumerated outcomes (the "no stable model" event;
  /// e.g. malware domination in Example 3.10). Stored like ProbConsistent().
  Prob ProbInconsistent() const { return prob_inconsistent_; }

  /// Credal marginal of a ground atom: an outcome with a non-empty model
  /// set counts toward `lower` when the atom is in *every* stable model,
  /// and toward `upper` when it is in *some* stable model (Cozman–Mauá
  /// credal reading; inconsistent outcomes count toward neither).
  struct Bounds {
    Prob lower = Prob::Zero();
    Prob upper = Prob::Zero();
  };
  Bounds Marginal(const GroundAtom& atom) const;

  /// Conditional credal marginal given consistency: Marginal() divided by
  /// ProbConsistent() (the constraint-conditioning of PPDL). Returns
  /// nullopt when P(consistent) = 0.
  std::optional<Bounds> MarginalGivenConsistent(const GroundAtom& atom) const;

  /// Strips Active/Result bookkeeping atoms from a model, yielding the
  /// user-facing instance over sch(Π) ("modulo active/result").
  static StableModel StripAuxiliary(const StableModel& model,
                                    const TranslatedProgram& translated);

  /// The space a fresh chase would produce if `facts` were appended to the
  /// database, *provided* their predicates occur in no rule body of Π: the
  /// facts enter every grounding only as body-less rules, so every stable
  /// model of every outcome gains exactly them, while choices,
  /// probabilities, masses, consistency and outcome order are untouched
  /// (splitting-set argument in ROADMAP "Incremental serving
  /// architecture"). Adding facts to every model can neither empty a model
  /// set nor fill an empty one, so the stored masses carry over unchanged.
  /// The serving layer's cache-revalidation patch.
  OutcomeSpace WithAddedFacts(const std::vector<GroundAtom>& facts) const;

 private:
  // The only writer is the merge that builds every space.
  friend class StreamingMerger;

  Prob prob_consistent_ = Prob::Zero();
  Prob prob_inconsistent_ = Prob::Zero();
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_OUTCOME_H_
