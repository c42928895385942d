#ifndef GDLOG_STABLE_NORMAL_PROGRAM_H_
#define GDLOG_STABLE_NORMAL_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "ground/ground_rule.h"

namespace gdlog {

/// Interns ground atoms into dense 32-bit ids for the solver's hot paths.
/// Each distinct atom is stored once, in id order; the index is an
/// open-addressing table of ids that compares against that copy.
class AtomTable {
 public:
  /// Returns the id of `atom`, adding it if it is new.
  uint32_t Intern(const GroundAtom& atom);

  /// Returns the id of `atom` or kNotFound.
  static constexpr uint32_t kNotFound = UINT32_MAX;
  uint32_t Lookup(const GroundAtom& atom) const;

  const GroundAtom& Get(uint32_t id) const { return atoms_[id]; }
  size_t size() const { return atoms_.size(); }

 private:
  /// The slot of slots_ that holds `atom`'s id, or the empty slot where it
  /// would go. Requires a non-empty table.
  size_t FindSlot(const GroundAtom& atom, size_t hash) const;
  void Rehash(size_t capacity);

  std::vector<GroundAtom> atoms_;  ///< id → atom
  std::vector<size_t> hashes_;     ///< id → atom hash, kept for rehashing
  std::vector<uint32_t> slots_;    ///< linear probing; kNotFound = empty
};

/// A ground normal rule over dense atom ids.
struct NormalRule {
  uint32_t head = 0;
  std::vector<uint32_t> positive;
  std::vector<uint32_t> negative;
};

/// A ground normal logic program: the object SM[Σ] is evaluated on. Built
/// from ground TGD¬ programs (existential-free, as emitted by the paper's
/// grounders). Negation is interpreted under the stable model semantics via
/// the classical Gelfond–Lifschitz reduct, which coincides with the paper's
/// second-order SM[Σ] definition on ground programs.
class NormalProgram {
 public:
  NormalProgram() = default;
  /// A program over the anonymous atom ids 0..atom_count-1, with an empty
  /// atom table: the solver's per-component sub-programs.
  explicit NormalProgram(size_t atom_count) : atom_count_(atom_count) {}

  /// Reserved predicate id for the falsity marker atom ⊥ that ground
  /// constraints derive; a candidate model containing it is rejected.
  static constexpr uint32_t kFalsityPredicate = UINT32_MAX - 1;

  /// Builds the program from ground rules, interning atoms. Ground
  /// constraints become rules deriving the ⊥ marker (see falsity_atom()).
  static NormalProgram FromRules(const std::vector<const GroundRule*>& rules);
  static NormalProgram FromRuleSet(const GroundRuleSet& rules) {
    return FromRules(rules.rules());
  }

  const AtomTable& atoms() const { return atoms_; }
  AtomTable& mutable_atoms() { return atoms_; }
  const std::vector<NormalRule>& rules() const { return rules_; }

  void AddRule(NormalRule rule) { rules_.push_back(std::move(rule)); }

  size_t atom_count() const { return atom_count_; }

  /// Ids of the rules where `atom` occurs positively, once per occurrence.
  /// (Built by Finalize.)
  struct RuleIds {
    const uint32_t* first;
    const uint32_t* last;
    const uint32_t* begin() const { return first; }
    const uint32_t* end() const { return last; }
  };
  RuleIds pos_occurrences(uint32_t atom) const {
    return {pos_occ_.data() + pos_begin_[atom],
            pos_occ_.data() + pos_begin_[atom + 1]};
  }

  /// Atoms occurring in at least one negative body — the only atoms whose
  /// truth can distinguish stable models ("externals" for the solver).
  const std::vector<uint32_t>& negative_atoms() const { return neg_atoms_; }

  /// Atom id of the ⊥ marker, or kNoFalsity if the program has no
  /// constraints.
  static constexpr uint32_t kNoFalsity = UINT32_MAX;
  uint32_t falsity_atom() const { return falsity_atom_; }

  /// Builds occurrence indices; must be called after the last AddRule.
  void Finalize();

 private:
  AtomTable atoms_;
  std::vector<NormalRule> rules_;
  std::vector<uint32_t> pos_begin_;  ///< atom → first index in pos_occ_
  std::vector<uint32_t> pos_occ_;    ///< rule ids grouped by atom
  std::vector<uint32_t> neg_atoms_;
  size_t atom_count_ = 0;
  uint32_t falsity_atom_ = kNoFalsity;
};

}  // namespace gdlog

#endif  // GDLOG_STABLE_NORMAL_PROGRAM_H_
