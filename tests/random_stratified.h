// Seeded generator of small stratified GDatalog¬[Δ] programs for the
// incremental-grounding and Horn read-off harnesses. Every program has at
// least three levels of IDB predicates, negation only into strictly lower
// levels (so it is stratified), Δ-terms in at least two levels — some
// sharing the flip<·>[X] signature across strata, some on their own
// uniformint signature — and zero to two constraints, with and without
// negation. Domains stay at three constants so every chase tree is small.
#ifndef GDLOG_TESTS_RANDOM_STRATIFIED_H_
#define GDLOG_TESTS_RANDOM_STRATIFIED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gdlog {
namespace testing_random {

struct RandomStratified {
  std::string program;
  std::string db;
};

inline RandomStratified MakeRandomStratified(uint64_t seed) {
  Rng rng(seed);
  auto coin = [&](double p) { return rng.NextDouble() < p; };
  auto pick = [&](const std::vector<std::string>& from) {
    return from[rng.NextBounded(from.size())];
  };

  RandomStratified out;
  const int kConstants = 3;
  bool any_seed = false;
  for (int i = 1; i <= kConstants; ++i) {
    out.db += "dom(" + std::to_string(i) + ").\n";
    if (coin(0.5) || (i == kConstants && !any_seed)) {
      out.db += "seed(" + std::to_string(i) + ").\n";
      any_seed = true;
    }
    for (int j = 1; j <= kConstants; ++j) {
      if (i != j && coin(0.4)) {
        out.db += "edge(" + std::to_string(i) + ", " + std::to_string(j) +
                  ").\n";
      }
    }
  }

  const int levels = 3 + static_cast<int>(rng.NextBounded(2));
  // Δ-terms in at least two levels: level 1 always, one more for sure.
  std::vector<bool> delta(levels + 1, false);
  delta[1] = true;
  delta[2 + rng.NextBounded(levels - 1)] = true;
  for (int l = 2; l <= levels; ++l) delta[l] = delta[l] || coin(0.3);

  std::vector<std::string> lower = {"dom", "seed"};  // unary, levels < l
  std::vector<std::string> lower_idb;                // negatable
  bool negated_somewhere = false;
  for (int l = 1; l <= levels; ++l) {
    const std::string u = "u" + std::to_string(l);
    const std::string r = "r" + std::to_string(l);
    // Negation of a strictly lower IDB level other than `positive`;
    // forced once so every program negates across strata.
    auto maybe_not = [&](const std::string& positive, bool force) {
      std::vector<std::string> candidates;
      for (const std::string& pred : lower_idb) {
        if (pred != positive) candidates.push_back(pred);
      }
      if (candidates.empty() || !(force || coin(0.4))) return std::string();
      negated_somewhere = true;
      return ", not " + pick(candidates) + "(X)";
    };
    // Chaining to the level below makes this level's SCC a sink of all
    // earlier ones — with a Δ-term guarded by its own u and a constraint,
    // that is the perfect grounder's last-stratum Extend fallback.
    const std::string base =
        l > 1 && coin(0.5) ? lower_idb.back() : pick(lower);
    out.program += u + "(X) :- " + base + "(X)" +
                   maybe_not(base, l == levels && !negated_somewhere) +
                   ".\n";
    if (delta[l]) {
      // The guard is this level's own u (recursion through the choice,
      // like the network program's infected) or a lower predicate.
      const std::string guard = coin(0.5) ? u : pick(lower);
      const std::string term =
          coin(0.7) ? "flip<0." + std::to_string(3 + rng.NextBounded(5)) +
                          ">[X]"
                    : "uniformint<1, 2>[X]";
      out.program += r + "(X, " + term + ") :- " + guard + "(X)" +
                     maybe_not(guard, false) + ".\n";
      out.program += u + "(Y) :- " + r + "(X, 1), edge(X, Y).\n";
    }
    if (coin(0.4)) out.program += u + "(Y) :- " + u + "(X), edge(X, Y).\n";
    lower.push_back(u);
    lower_idb.push_back(u);
  }

  const int constraints = static_cast<int>(rng.NextBounded(3));
  for (int c = 0; c < constraints; ++c) {
    const size_t a = rng.NextBounded(lower_idb.size());
    const size_t b = (a + 1 + rng.NextBounded(lower_idb.size() - 1)) %
                     lower_idb.size();
    out.program += coin(0.5) ? ":- " + lower_idb[a] + "(X), not " +
                                   lower_idb[b] + "(X), seed(X).\n"
                             : ":- " + lower_idb[a] + "(X), " + lower_idb[b] +
                                   "(Y), edge(X, Y).\n";
  }
  return out;
}

}  // namespace testing_random
}  // namespace gdlog

#endif  // GDLOG_TESTS_RANDOM_STRATIFIED_H_
