#include "stable/solver.h"

#include <algorithm>
#include <iterator>
#include <numeric>

namespace gdlog {

namespace {

constexpr uint32_t kNone = UINT32_MAX;

/// Copies the literals of `atoms` that the well-founded model leaves
/// undefined into `out`. Returns false if one of them is decided against
/// the body (its atom has truth `blocking`), i.e. the rule can never fire.
bool KeepUndefined(const std::vector<uint32_t>& atoms,
                   const WellFoundedModel& wfm, Truth blocking,
                   std::vector<uint32_t>* out) {
  for (uint32_t a : atoms) {
    Truth t = wfm.truth[a];
    if (t == blocking) return false;
    if (t == Truth::kUndefined) out->push_back(a);
  }
  return true;
}

}  // namespace

/// One strongly connected component of the simplified program's head→body
/// graph: its atoms and the rules whose head lies in it.
struct StableModelEnumerator::Component {
  std::vector<uint32_t> atoms;  ///< ascending global ids; local id = index
  std::vector<uint32_t> rules;  ///< indices into Run::rules
  std::vector<uint32_t> constraints;  ///< Run::constraints decided here
  /// Some rule body reads a lower component, so the component is solved
  /// again for every assignment of those inputs.
  bool has_inputs = false;
  /// Set once an input-free component's models have all been found.
  bool solved = false;
  std::vector<std::vector<uint32_t>> models;  ///< input-free only
};

/// The state of one Enumerate call.
struct StableModelEnumerator::Run {
  const std::function<bool(const std::vector<uint32_t>&)>* cb = nullptr;
  std::vector<uint32_t> wfs_true;       ///< ascending
  std::vector<NormalRule> rules;        ///< simplified, over undefined atoms
  std::vector<NormalRule> constraints;  ///< simplified ⊥ rules
  std::vector<Component> components;    ///< bottom-up
  std::vector<uint32_t> component_of;   ///< atom → component or kNone
  std::vector<uint32_t> local_of;       ///< atom → index in its component
  std::vector<bool> value;              ///< current assignment
  std::vector<uint32_t> chosen;         ///< assigned-true undefined atoms
  bool keep_going = true;
};

Status StableModelEnumerator::Tick() {
  if (++nodes_ > options_.max_nodes) {
    return Status::BudgetExhausted(
        "stable-model search exceeded " + std::to_string(options_.max_nodes) +
        " nodes");
  }
  return Status::OK();
}

Status StableModelEnumerator::Enumerate(
    const std::function<bool(const std::vector<uint32_t>&)>& cb) {
  nodes_ = 0;
  models_ = 0;
  Status st = Tick();  // the well-founded pass
  if (!st.ok()) return st;
  const size_t n = prog_.atom_count();
  const uint32_t bot = prog_.falsity_atom();
  WellFoundedModel wfm = ComputeWellFounded(prog_);
  // ⊥ well-founded-true: every candidate violates a constraint.
  if (bot != NormalProgram::kNoFalsity && wfm.truth[bot] == Truth::kTrue) {
    return Status::OK();
  }

  Run run;
  run.cb = &cb;
  run.wfs_true = wfm.TrueAtoms();
  // Simplify by the well-founded model: what remains reads and derives
  // undefined atoms only. A decided head's rules can go: a true head is in
  // every stable model already, and a false one's bodies fail in all.
  for (const NormalRule& r : prog_.rules()) {
    const bool constraint = r.head == bot;
    if (!constraint && wfm.truth[r.head] != Truth::kUndefined) continue;
    NormalRule s;
    s.head = r.head;
    if (!KeepUndefined(r.positive, wfm, Truth::kFalse, &s.positive) ||
        !KeepUndefined(r.negative, wfm, Truth::kTrue, &s.negative)) {
      continue;
    }
    (constraint ? run.constraints : run.rules).push_back(std::move(s));
  }

  // Head→body edges between undefined atoms, as adjacency arrays.
  std::vector<uint32_t> edge_begin(n + 1, 0);
  for (const NormalRule& r : run.rules) {
    edge_begin[r.head + 1] +=
        static_cast<uint32_t>(r.positive.size() + r.negative.size());
  }
  std::partial_sum(edge_begin.begin(), edge_begin.end(), edge_begin.begin());
  std::vector<uint32_t> edges(edge_begin[n]);
  {
    std::vector<uint32_t> fill(edge_begin.begin(), edge_begin.end() - 1);
    for (const NormalRule& r : run.rules) {
      for (uint32_t a : r.positive) edges[fill[r.head]++] = a;
      for (uint32_t a : r.negative) edges[fill[r.head]++] = a;
    }
  }

  // Tarjan's SCC algorithm, iteratively. It closes a component only after
  // every component reachable from it, so with head→body edges the
  // components come out bottom-up.
  run.component_of.assign(n, kNone);
  run.local_of.assign(n, kNone);
  {
    std::vector<uint32_t> index(n, kNone);
    std::vector<uint32_t> low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<uint32_t> stack;
    std::vector<std::pair<uint32_t, uint32_t>> calls;  // (atom, next edge)
    uint32_t counter = 0;
    auto visit = [&](uint32_t v) {
      index[v] = low[v] = counter++;
      stack.push_back(v);
      on_stack[v] = true;
      calls.emplace_back(v, edge_begin[v]);
    };
    for (uint32_t root = 0; root < n; ++root) {
      if (wfm.truth[root] != Truth::kUndefined || root == bot ||
          index[root] != kNone) {
        continue;
      }
      visit(root);
      while (!calls.empty()) {
        const uint32_t v = calls.back().first;
        if (calls.back().second < edge_begin[v + 1]) {
          const uint32_t w = edges[calls.back().second++];
          if (index[w] == kNone) {
            visit(w);
          } else if (on_stack[w]) {
            low[v] = std::min(low[v], index[w]);
          }
          continue;
        }
        calls.pop_back();
        if (!calls.empty()) {
          uint32_t& parent_low = low[calls.back().first];
          parent_low = std::min(parent_low, low[v]);
        }
        if (low[v] != index[v]) continue;
        Component c;
        uint32_t w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          c.atoms.push_back(w);
        } while (w != v);
        std::sort(c.atoms.begin(), c.atoms.end());
        const uint32_t ci = static_cast<uint32_t>(run.components.size());
        for (uint32_t i = 0; i < c.atoms.size(); ++i) {
          run.component_of[c.atoms[i]] = ci;
          run.local_of[c.atoms[i]] = i;
        }
        run.components.push_back(std::move(c));
      }
    }
  }
  for (uint32_t ri = 0; ri < run.rules.size(); ++ri) {
    const NormalRule& r = run.rules[ri];
    const uint32_t ci = run.component_of[r.head];
    Component& c = run.components[ci];
    c.rules.push_back(ri);
    for (const auto* body : {&r.positive, &r.negative}) {
      for (uint32_t a : *body) c.has_inputs |= run.component_of[a] != ci;
    }
  }
  // A constraint is checked once the highest component its body touches
  // is placed. Its body is not empty: ⊥ would be well-founded-true.
  for (uint32_t k = 0; k < run.constraints.size(); ++k) {
    const NormalRule& r = run.constraints[k];
    uint32_t top = 0;
    for (const auto* body : {&r.positive, &r.negative}) {
      for (uint32_t a : *body) top = std::max(top, run.component_of[a]);
    }
    run.components[top].constraints.push_back(k);
  }

  run.value.assign(n, false);
  return SolveFrom(run, 0);
}

Status StableModelEnumerator::SolveFrom(Run& run, size_t index) {
  if (index == run.components.size()) {
    Emit(run);
    return Status::OK();
  }
  Component& c = run.components[index];
  if (c.solved) {
    for (const std::vector<uint32_t>& model : c.models) {
      Status st = PlaceModel(run, index, model);
      if (!st.ok() || !run.keep_going) return st;
    }
    return Status::OK();
  }
  // The component's sub-program under the lower components' models: a
  // rule with a false input literal goes, true input literals go.
  NormalProgram local(c.atoms.size());
  for (uint32_t ri : c.rules) {
    const NormalRule& r = run.rules[ri];
    NormalRule lr;
    lr.head = run.local_of[r.head];
    bool blocked = false;
    for (uint32_t a : r.positive) {
      if (run.component_of[a] == index) {
        lr.positive.push_back(run.local_of[a]);
      } else {
        blocked |= !run.value[a];
      }
    }
    for (uint32_t a : r.negative) {
      if (run.component_of[a] == index) {
        lr.negative.push_back(run.local_of[a]);
      } else {
        blocked |= run.value[a];
      }
    }
    if (!blocked) local.AddRule(std::move(lr));
  }
  local.Finalize();
  std::vector<Truth> external(c.atoms.size(), Truth::kUndefined);
  Status st = SearchComponent(run, index, local, external);
  // A stop ends the whole enumeration, so a partial model list is never
  // read back.
  if (st.ok() && run.keep_going && !c.has_inputs) c.solved = true;
  return st;
}

Status StableModelEnumerator::SearchComponent(Run& run, size_t index,
                                              const NormalProgram& local,
                                              std::vector<Truth>& external) {
  if (!run.keep_going) return Status::OK();
  Status st = Tick();
  if (!st.ok()) return st;

  // Conditioned well-founded propagation to fixpoint.
  std::vector<uint32_t> assigned_here;
  auto undo = [&] {
    for (uint32_t b : assigned_here) external[b] = Truth::kUndefined;
  };
  for (;;) {
    WellFoundedModel wfm = ComputeWellFounded(local, &external);
    bool changed = false;
    for (uint32_t a : local.negative_atoms()) {
      Truth w = wfm.truth[a];
      if (external[a] == Truth::kUndefined) {
        if (w != Truth::kUndefined) {
          external[a] = w;
          assigned_here.push_back(a);
          changed = true;
        }
      } else if (w != Truth::kUndefined && w != external[a]) {
        // Conflict: assignment contradicts a sound consequence.
        undo();
        return Status::OK();
      }
    }
    if (!changed) break;
  }

  // Find an unassigned negative atom to branch on.
  uint32_t branch_atom = kNone;
  for (uint32_t a : local.negative_atoms()) {
    if (external[a] == Truth::kUndefined) {
      branch_atom = a;
      break;
    }
  }

  if (branch_atom == kNone) {
    // Leaf: the assignment to negative atoms is total. The least model of
    // the reduct must agree with it (the Gelfond–Lifschitz condition).
    std::vector<bool> least = LeastModelOfReduct(local, external);
    bool stable = true;
    for (uint32_t a : local.negative_atoms()) {
      stable &= least[a] == (external[a] == Truth::kTrue);
    }
    if (stable) {
      Component& c = run.components[index];
      std::vector<uint32_t> model;
      for (uint32_t a = 0; a < least.size(); ++a) {
        if (least[a]) model.push_back(c.atoms[a]);
      }
      if (!c.has_inputs) c.models.push_back(model);
      st = PlaceModel(run, index, model);
    }
  } else {
    for (Truth guess : {Truth::kTrue, Truth::kFalse}) {
      external[branch_atom] = guess;
      st = SearchComponent(run, index, local, external);
      if (!st.ok() || !run.keep_going) break;
    }
    external[branch_atom] = Truth::kUndefined;
  }
  undo();
  return st;
}

Status StableModelEnumerator::PlaceModel(Run& run, size_t index,
                                         const std::vector<uint32_t>& model) {
  Status st = Tick();
  if (!st.ok()) return st;
  for (uint32_t a : model) run.value[a] = true;
  run.chosen.insert(run.chosen.end(), model.begin(), model.end());
  bool violated = false;
  for (uint32_t k : run.components[index].constraints) {
    const NormalRule& r = run.constraints[k];
    bool fires = true;
    for (uint32_t a : r.positive) fires &= static_cast<bool>(run.value[a]);
    for (uint32_t a : r.negative) fires &= !run.value[a];
    if (fires) {
      violated = true;
      break;
    }
  }
  if (!violated) st = SolveFrom(run, index + 1);
  for (uint32_t a : model) run.value[a] = false;
  run.chosen.resize(run.chosen.size() - model.size());
  return st;
}

void StableModelEnumerator::Emit(Run& run) {
  std::vector<uint32_t> chosen = run.chosen;
  std::sort(chosen.begin(), chosen.end());
  std::vector<uint32_t> atoms;
  atoms.reserve(run.wfs_true.size() + chosen.size());
  std::merge(run.wfs_true.begin(), run.wfs_true.end(), chosen.begin(),
             chosen.end(), std::back_inserter(atoms));
  ++models_;
  if (!(*run.cb)(atoms)) {
    run.keep_going = false;
    return;
  }
  if (options_.max_models != 0 && models_ >= options_.max_models) {
    run.keep_going = false;
  }
}

Result<StableModelSet> AllStableModels(const GroundRuleSet& rules,
                                       StableModelEnumerator::Options options) {
  return AllStableModels(NormalProgram::FromRuleSet(rules), options);
}

Result<StableModelSet> AllStableModels(const NormalProgram& prog,
                                       StableModelEnumerator::Options options) {
  std::vector<std::vector<uint32_t>> found;
  StableModelEnumerator solver(prog, options);
  Status st = solver.Enumerate([&](const std::vector<uint32_t>& atoms) {
    found.push_back(atoms);
    return true;
  });
  if (!st.ok()) return st;
  StableModelSet out;
  if (found.empty()) return out;
  // order[r] is the atom of canonical rank r. Ranks preserve the atom
  // order, so rank sequences sort as the ground-atom models do.
  const AtomTable& table = prog.atoms();
  std::vector<uint32_t> order(table.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return table.Get(a) < table.Get(b);
  });
  std::vector<uint32_t> rank(table.size());
  for (uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  for (std::vector<uint32_t>& model : found) {
    for (uint32_t& a : model) a = rank[a];
    std::sort(model.begin(), model.end());
  }
  std::sort(found.begin(), found.end());
  for (const std::vector<uint32_t>& ranks : found) {
    // Built at exact capacity: cached outcome spaces hold these vectors.
    StableModel model;
    model.reserve(ranks.size());
    for (uint32_t r : ranks) model.push_back(table.Get(order[r]));
    out.insert(out.end(), std::move(model));
  }
  return out;
}

Result<bool> HasStableModel(const GroundRuleSet& rules,
                            StableModelEnumerator::Options options) {
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  options.max_models = 1;
  StableModelEnumerator solver(prog, options);
  bool found = false;
  Status st = solver.Enumerate([&](const std::vector<uint32_t>&) {
    found = true;
    return false;
  });
  if (!st.ok()) return st;
  return found;
}

}  // namespace gdlog
