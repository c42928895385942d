#include "gdatalog/outcome.h"

#include <algorithm>
#include <iterator>

namespace gdlog {

std::map<StableModelSet, Prob> OutcomeSpace::Events() const {
  std::map<StableModelSet, Prob> events;
  for (const PossibleOutcome& outcome : outcomes) {
    auto [it, inserted] = events.emplace(outcome.models, outcome.prob);
    if (!inserted) it->second = it->second + outcome.prob;
  }
  return events;
}

OutcomeSpace::Bounds OutcomeSpace::Marginal(const GroundAtom& atom) const {
  Bounds bounds;
  for (const PossibleOutcome& outcome : outcomes) {
    if (outcome.models.empty()) continue;
    bool in_all = true;
    bool in_some = false;
    for (const StableModel& model : outcome.models) {
      bool contains =
          std::binary_search(model.begin(), model.end(), atom);
      in_all = in_all && contains;
      in_some = in_some || contains;
    }
    if (in_all) bounds.lower = bounds.lower + outcome.prob;
    if (in_some) bounds.upper = bounds.upper + outcome.prob;
  }
  return bounds;
}

std::optional<OutcomeSpace::Bounds> OutcomeSpace::MarginalGivenConsistent(
    const GroundAtom& atom) const {
  Prob consistent = ProbConsistent();
  if (!(consistent.value() > 0.0)) return std::nullopt;
  Bounds joint = Marginal(atom);
  Bounds conditioned;
  // Exact division when both sides are exact rationals.
  const Rational& denom = consistent.rational();
  auto divide = [&](const Prob& numer) {
    if (numer.exact() && denom.exact() && denom.numerator() != 0) {
      return Prob(numer.rational() *
                  Rational(denom.denominator(), denom.numerator()));
    }
    return Prob(Rational::FromDecimal(numer.value() / consistent.value()));
  };
  conditioned.lower = divide(joint.lower);
  conditioned.upper = divide(joint.upper);
  return conditioned;
}

StableModel OutcomeSpace::StripAuxiliary(const StableModel& model,
                                         const TranslatedProgram& translated) {
  StableModel out;
  out.reserve(model.size());
  for (const GroundAtom& atom : model) {
    if (translated.IsActivePredicate(atom.predicate) ||
        translated.IsResultPredicate(atom.predicate)) {
      continue;
    }
    out.push_back(atom);
  }
  return out;
}

OutcomeSpace OutcomeSpace::WithAddedFacts(
    const std::vector<GroundAtom>& facts) const {
  if (facts.empty()) return *this;
  // Everything but the models is copied as is; each model is built once,
  // already patched.
  OutcomeSpace out;
  out.finite_mass = finite_mass;
  out.complete = complete;
  out.depth_truncated_paths = depth_truncated_paths;
  out.support_truncation_mass = support_truncation_mass;
  out.pruned_paths = pruned_paths;
  out.prob_consistent_ = prob_consistent_;
  out.prob_inconsistent_ = prob_inconsistent_;
  std::vector<GroundAtom> sorted = facts;
  std::sort(sorted.begin(), sorted.end());
  out.outcomes.reserve(outcomes.size());
  for (const PossibleOutcome& outcome : outcomes) {
    PossibleOutcome& patched = out.outcomes.emplace_back();
    patched.choices = outcome.choices;
    patched.prob = outcome.prob;
    patched.grounding = outcome.grounding;
    for (const StableModel& model : outcome.models) {
      StableModel merged;
      merged.reserve(model.size() + sorted.size());
      std::merge(model.begin(), model.end(), sorted.begin(), sorted.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      patched.models.insert(std::move(merged));
    }
  }
  return out;
}

}  // namespace gdlog
