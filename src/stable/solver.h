#ifndef GDLOG_STABLE_SOLVER_H_
#define GDLOG_STABLE_SOLVER_H_

#include <functional>
#include <set>
#include <vector>

#include "stable/normal_program.h"
#include "stable/wfs.h"
#include "util/status.h"

namespace gdlog {

/// A stable model rendered as a canonically sorted set of ground atoms.
using StableModel = std::vector<GroundAtom>;

/// A set of stable models in canonical order — the objects the paper's
/// possible outcomes induce (sms(Σ)); usable as an ordered map key when
/// grouping outcomes into σ-algebra events.
using StableModelSet = std::set<StableModel>;

/// Enumerates the stable models of a ground normal program.
///
/// Algorithm: one well-founded pass decides most atoms; the program is
/// simplified by it (rules with a decided head or a false body literal go,
/// true body literals go), and the undefined atoms split into the strongly
/// connected components of the head→body graph (positive and negative
/// edges). By the splitting-set theorem (Lifschitz & Turner, ICLP 1994) the
/// components are solved bottom-up, each conditioned on the models chosen
/// below it: a component-local branch-and-verify search (conditioned
/// well-founded propagation, branching on negatively occurring atoms,
/// Gelfond–Lifschitz reduct verification at the leaves) runs once for a
/// component the well-founded pass cut off from every lower component, and
/// again per input assignment otherwise. The product of component models is
/// enumerated depth-first; each ground constraint is checked as soon as the
/// highest component its body touches is placed; the well-founded-true
/// atoms join every model. Stratified ground programs never branch: their
/// well-founded model is total.
///
/// Node budget: the well-founded pass is one node, each node of a
/// component-local search is one, and so is each component model placed in
/// the product search. The count is checked at every increment, and the
/// search is sequential, so a budget-bound result is deterministic.
class StableModelEnumerator {
 public:
  struct Options {
    /// Stop after this many models (0 = unlimited).
    uint64_t max_models = 0;
    /// Abort with BudgetExhausted after this many search nodes.
    uint64_t max_nodes = 10'000'000;
  };

  explicit StableModelEnumerator(const NormalProgram& prog) : prog_(prog) {}
  StableModelEnumerator(const NormalProgram& prog, Options options)
      : prog_(prog), options_(options) {}

  /// Invokes `cb` with each stable model as a sorted vector of true atom
  /// ids. The callback returns false to stop early. Never reports
  /// duplicates.
  Status Enumerate(const std::function<bool(const std::vector<uint32_t>&)>& cb);

  /// Number of search nodes used by the last Enumerate call.
  uint64_t nodes_used() const { return nodes_; }

 private:
  struct Component;
  struct Run;

  /// Counts one search node against the budget.
  Status Tick();
  /// Places components `index`.. in turn below the current assignment and
  /// reports every complete model.
  Status SolveFrom(Run& run, size_t index);
  /// Branch-and-verify search over one component's sub-program `local`;
  /// every stable model is placed (PlaceModel) as soon as it is found.
  Status SearchComponent(Run& run, size_t index, const NormalProgram& local,
                         std::vector<Truth>& external);
  /// Assigns `model` (global atom ids) to component `index`, checks the
  /// constraints that become decidable, and continues with the next one.
  Status PlaceModel(Run& run, size_t index,
                    const std::vector<uint32_t>& model);
  /// Reports the model that the current assignment completes.
  void Emit(Run& run);

  const NormalProgram& prog_;
  Options options_ = {};
  uint64_t nodes_ = 0;
  uint64_t models_ = 0;
};

/// Convenience: all stable models of a ground TGD¬ program, as canonically
/// sorted ground-atom vectors, sorted set. Honors `options` budgets.
Result<StableModelSet> AllStableModels(
    const GroundRuleSet& rules,
    StableModelEnumerator::Options options = StableModelEnumerator::Options{});

/// As above, on a program already built: each model is materialized in
/// canonical order from one rank of the program's atom ids, and the models
/// are ordered by their rank sequences, so ground atoms are compared only
/// to build the rank.
Result<StableModelSet> AllStableModels(
    const NormalProgram& prog,
    StableModelEnumerator::Options options = StableModelEnumerator::Options{});

/// Convenience: true iff the ground program has at least one stable model.
Result<bool> HasStableModel(
    const GroundRuleSet& rules,
    StableModelEnumerator::Options options = StableModelEnumerator::Options{});

}  // namespace gdlog

#endif  // GDLOG_STABLE_SOLVER_H_
