#include "stable/wfs.h"

#include <vector>

namespace gdlog {

namespace {

/// Γ's work lists, reused across the applications of one fixpoint.
struct GammaScratch {
  std::vector<uint32_t> missing;
  std::vector<uint32_t> ready;  // fire order does not change the least model
};

/// Γ(X) into *derived: least model of the reduct where a negative literal
/// "not a" is satisfied iff a is not assumed true. Assumed-true means:
/// external says kTrue, or external is kUndefined/absent and X[a] holds.
void Gamma(const NormalProgram& prog, const std::vector<bool>& X,
           const std::vector<Truth>* external, GammaScratch& scratch,
           std::vector<bool>* derived) {
  const auto& rules = prog.rules();
  derived->assign(prog.atom_count(), false);
  std::vector<uint32_t>& missing = scratch.missing;
  std::vector<uint32_t>& ready = scratch.ready;
  missing.assign(rules.size(), 0);
  ready.clear();

  for (uint32_t ri = 0; ri < rules.size(); ++ri) {
    const NormalRule& r = rules[ri];
    bool blocked = false;
    for (uint32_t a : r.negative) {
      Truth ext = external == nullptr ? Truth::kUndefined : (*external)[a];
      bool assumed_true =
          ext == Truth::kTrue || (ext == Truth::kUndefined && X[a]);
      if (assumed_true) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      missing[ri] = UINT32_MAX;  // never fires
      continue;
    }
    missing[ri] = static_cast<uint32_t>(r.positive.size());
    if (missing[ri] == 0) ready.push_back(ri);
  }

  while (!ready.empty()) {
    uint32_t ri = ready.back();
    ready.pop_back();
    uint32_t head = rules[ri].head;
    if ((*derived)[head]) continue;
    (*derived)[head] = true;
    for (uint32_t rj : prog.pos_occurrences(head)) {
      if (missing[rj] == UINT32_MAX || missing[rj] == 0) continue;
      // pos_occurrences lists a rule once per positive occurrence and
      // missing[] was initialized to the occurrence count, so decrementing
      // by one per entry is consistent even with duplicated body atoms.
      if (--missing[rj] == 0) ready.push_back(rj);
    }
  }
}

}  // namespace

WellFoundedModel ComputeWellFounded(const NormalProgram& prog,
                                    const std::vector<Truth>* external) {
  size_t n = prog.atom_count();
  GammaScratch scratch;
  std::vector<bool> T(n, false);
  std::vector<bool> U;
  std::vector<bool> T_next;

  // Alternating fixpoint: U_i = Γ(T_i) (possibly true), T_{i+1} = Γ(U_i)
  // (surely true). T is increasing, U decreasing; both stabilize together.
  Gamma(prog, T, external, scratch, &U);
  for (;;) {
    Gamma(prog, U, external, scratch, &T_next);
    if (T_next == T) break;
    T.swap(T_next);
    Gamma(prog, T, external, scratch, &U);
  }

  WellFoundedModel wfm;
  wfm.truth.resize(n, Truth::kUndefined);
  for (uint32_t a = 0; a < n; ++a) {
    if (T[a]) {
      wfm.truth[a] = Truth::kTrue;
    } else if (!U[a]) {
      wfm.truth[a] = Truth::kFalse;
    }
  }
  return wfm;
}

std::vector<bool> LeastModelOfReduct(const NormalProgram& prog,
                                     const std::vector<Truth>& external) {
  // With a total external assignment over negative atoms, Γ no longer
  // depends on X.
  std::vector<bool> X(prog.atom_count(), false);
  GammaScratch scratch;
  std::vector<bool> derived;
  Gamma(prog, X, &external, scratch, &derived);
  return derived;
}

}  // namespace gdlog
