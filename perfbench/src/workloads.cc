#include "workloads.h"

#include <algorithm>

namespace perfbench {

const char* const kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

const char* const kQuarantineProgram =
    "infected(Y, flip<0.3>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "quarantined(X) :- infected(X, 1), not released(X).\n"
    "released(X) :- infected(X, 1), not quarantined(X).\n"
    ":- released(X), released(Y), connected(X, Y).\n";

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kExactStratified: return "exact_stratified";
    case WorkloadKind::kExactStable: return "exact_stable";
    case WorkloadKind::kServeRw: return "serve_rw";
    case WorkloadKind::kFleetWarm: return "fleet_warm";
  }
  return "?";
}

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind kind : kAllWorkloads) {
    if (name == WorkloadName(kind)) return kind;
  }
  return std::nullopt;
}

std::string CliqueDb(int n, std::mt19937_64& rng) {
  std::vector<std::string> facts;
  for (int i = 1; i <= n; ++i) {
    facts.push_back("router(" + std::to_string(i) + ").");
  }
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (i != j) {
        facts.push_back("connected(" + std::to_string(i) + ", " +
                        std::to_string(j) + ").");
      }
    }
  }
  facts.push_back("infected(1, 1).");
  std::shuffle(facts.begin(), facts.end(), rng);
  std::string db;
  for (const std::string& fact : facts) db += fact + "\n";
  return db;
}

WorkloadSpec MakeWorkload(WorkloadKind kind, uint64_t seed) {
  std::mt19937_64 rng(seed);
  WorkloadSpec spec;
  spec.kind = kind;
  spec.program = kind == WorkloadKind::kExactStable ? kQuarantineProgram
                                                    : kNetworkProgram;
  spec.db = CliqueDb(4, rng);
  // Two distinct routers other than the initially infected one.
  std::vector<int> routers = {2, 3, 4};
  std::shuffle(routers.begin(), routers.end(), rng);
  if (kind == WorkloadKind::kExactStable) {
    spec.marginal_atoms = {"quarantined(" + std::to_string(routers[0]) + ")",
                           "released(" + std::to_string(routers[1]) + ")"};
  } else {
    spec.marginal_atoms = {"infected(" + std::to_string(routers[0]) + ", 1)",
                           "infected(" + std::to_string(routers[1]) + ", 1)"};
  }
  if (kind == WorkloadKind::kServeRw) {
    // Facts no rule reads: they make every chase node's grounding larger
    // and every cached space bigger (55 MB at 250), nothing else.
    for (int i = 0; i < 250; ++i) {
      spec.db += "observed(" + std::to_string(i) + ", " +
                 std::to_string(rng() % 1000) + ").\n";
    }
    for (int k = 0; k < 8; ++k) {
      spec.db += "meta(" + std::to_string(k) + ", " +
                 std::to_string(rng() % 1000) + ").\n";
    }
  }
  return spec;
}

WriteSpec ServeRwWrite(uint64_t k, std::mt19937_64& rng) {
  WriteSpec write;
  if (k % 8 == 3) {
    write.touches_rule_body = true;
    write.delta = "connected(" + std::to_string(1000 + k) + ", " +
                  std::to_string(2000 + k) + ").";
  } else {
    write.delta = "meta(" + std::to_string(100 + k) + ", " +
                  std::to_string(rng() % 1000) + ").";
  }
  return write;
}

}  // namespace perfbench
