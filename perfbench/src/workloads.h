// The benchmark's workloads: program and database text generated from a
// seed. Daemons receive only this text.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class WorkloadKind {
  kExactStratified,  ///< one client, cold 4-thread chases, perfect grounder
  kExactStable,      ///< four clients, cold serial chases, stable negation
  kServeRw,          ///< cached reads beside open-loop PATCH writes
  kFleetWarm,        ///< 64-shard jobs served from warm worker caches
};

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kExactStratified, WorkloadKind::kExactStable,
    WorkloadKind::kServeRw, WorkloadKind::kFleetWarm};

const char* WorkloadName(WorkloadKind kind);
std::optional<WorkloadKind> ParseWorkload(std::string_view name);

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kExactStratified;
  std::string program;
  std::string db;
  /// Two ground atoms for marginal requests and marginal probes.
  std::vector<std::string> marginal_atoms;
};

/// The E1 network program (Example 3.6) with infection rate 0.1 — the
/// stratified program of exact_stratified, serve_rw and fleet_warm.
extern const char* const kNetworkProgram;
/// The non-stratified quarantine program of exact_stable: every infected
/// router is either quarantined or released (two stable models per
/// infected router before the constraint), and no two released routers may
/// be neighbours.
extern const char* const kQuarantineProgram;

/// Fully connected n-router network with router 1 infected, one fact per
/// line, in an order drawn from `rng`.
std::string CliqueDb(int n, std::mt19937_64& rng);

WorkloadSpec MakeWorkload(WorkloadKind kind, uint64_t seed);

/// serve_rw's k-th write (k = 0, 1, ...). Seven in eight add a `meta`
/// fact, a predicate no rule reads, so the daemon revalidates its cached
/// spaces; the eighth adds a `connected` fact between two fresh
/// non-routers, which touches a rule body (so the daemon evicts) yet can
/// never fire, so the outcomes stay the same.
struct WriteSpec {
  std::string delta;
  bool touches_rule_body = false;
};
WriteSpec ServeRwWrite(uint64_t k, std::mt19937_64& rng);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
