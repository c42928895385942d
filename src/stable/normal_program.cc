#include "stable/normal_program.h"

#include <algorithm>
#include <numeric>

namespace gdlog {

size_t AtomTable::FindSlot(const GroundAtom& atom, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint32_t id = slots_[i];
    if (id == kNotFound || (hashes_[id] == hash && atoms_[id] == atom)) {
      return i;
    }
  }
}

uint32_t AtomTable::Lookup(const GroundAtom& atom) const {
  if (slots_.empty()) return kNotFound;
  return slots_[FindSlot(atom, atom.Hash())];
}

uint32_t AtomTable::Intern(const GroundAtom& atom) {
  // Load factor at most 1/2, so probe sequences stay short.
  if (2 * (atoms_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  size_t hash = atom.Hash();
  size_t slot = FindSlot(atom, hash);
  if (slots_[slot] != kNotFound) return slots_[slot];
  uint32_t id = static_cast<uint32_t>(atoms_.size());
  atoms_.push_back(atom);
  hashes_.push_back(hash);
  slots_[slot] = id;
  return id;
}

void AtomTable::Rehash(size_t capacity) {
  slots_.assign(capacity, kNotFound);
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < atoms_.size(); ++id) {
    size_t i = hashes_[id] & mask;
    while (slots_[i] != kNotFound) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

NormalProgram NormalProgram::FromRules(
    const std::vector<const GroundRule*>& rules) {
  NormalProgram prog;
  prog.rules_.reserve(rules.size());
  for (const GroundRule* gr : rules) {
    NormalRule nr;
    if (gr->is_constraint) {
      if (prog.falsity_atom_ == kNoFalsity) {
        prog.falsity_atom_ =
            prog.atoms_.Intern(GroundAtom{kFalsityPredicate, {}});
      }
      nr.head = prog.falsity_atom_;
    } else {
      nr.head = prog.atoms_.Intern(gr->head);
    }
    nr.positive.reserve(gr->positive.size());
    for (const GroundAtom& a : gr->positive) {
      nr.positive.push_back(prog.atoms_.Intern(a));
    }
    nr.negative.reserve(gr->negative.size());
    for (const GroundAtom& a : gr->negative) {
      nr.negative.push_back(prog.atoms_.Intern(a));
    }
    prog.rules_.push_back(std::move(nr));
  }
  prog.Finalize();
  return prog;
}

void NormalProgram::Finalize() {
  atom_count_ = std::max(atom_count_, atoms_.size());
  const size_t n = atom_count_;
  pos_begin_.assign(n + 1, 0);
  std::vector<bool> is_neg(n, false);
  for (const NormalRule& r : rules_) {
    for (uint32_t a : r.positive) ++pos_begin_[a + 1];
    for (uint32_t a : r.negative) is_neg[a] = true;
  }
  std::partial_sum(pos_begin_.begin(), pos_begin_.end(), pos_begin_.begin());
  pos_occ_.resize(pos_begin_[n]);
  std::vector<uint32_t> fill(pos_begin_.begin(), pos_begin_.end() - 1);
  for (uint32_t ri = 0; ri < rules_.size(); ++ri) {
    for (uint32_t a : rules_[ri].positive) pos_occ_[fill[a]++] = ri;
  }
  neg_atoms_.clear();
  for (uint32_t a = 0; a < n; ++a) {
    if (is_neg[a]) neg_atoms_.push_back(a);
  }
}

}  // namespace gdlog
