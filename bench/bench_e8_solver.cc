// E8 — Stable-model solver throughput: well-founded fast path on
// stratified ground programs vs branch-and-verify on even negation cycles,
// enumeration cost as the model count grows (2^k models), and a quarantine
// chase leaf, whose per-router even loops the constraints tie together.
#include <benchmark/benchmark.h>

#include <string>

#include "ast/parser.h"
#include "bench/bench_common.h"
#include "stable/solver.h"
#include "stable/wfs.h"

namespace {

// Parses a ground program (reusing the test helper pattern).
gdlog::GroundRuleSet ParseGroundProgram(const std::string& text,
                                        gdlog::Interner* interner) {
  auto shared = std::shared_ptr<gdlog::Interner>(interner,
                                                 [](gdlog::Interner*) {});
  auto prog = gdlog::ParseProgram(text, shared);
  gdlog::GroundRuleSet out;
  for (const gdlog::Rule& rule : prog->rules()) {
    gdlog::GroundRule gr;
    gr.is_constraint = rule.is_constraint;
    if (!rule.is_constraint) {
      gr.head.predicate = rule.head.predicate;
      for (const gdlog::HeadArg& arg : rule.head.args) {
        gr.head.args.push_back(arg.term().constant());
      }
    }
    for (const gdlog::Literal& lit : rule.body) {
      gdlog::GroundAtom atom;
      atom.predicate = lit.atom.predicate;
      for (const gdlog::Term& t : lit.atom.args) {
        atom.args.push_back(t.constant());
      }
      (lit.negated ? gr.negative : gr.positive).push_back(std::move(atom));
    }
    out.Add(std::move(gr));
  }
  return out;
}

// A stratified chain: a0. a1 :- a0, not z0. a2 :- a1, not z1. ...
std::string StratifiedChain(int n) {
  std::string text = "a0.\n";
  for (int i = 1; i < n; ++i) {
    text += "a" + std::to_string(i) + " :- a" + std::to_string(i - 1) +
            ", not z" + std::to_string(i - 1) + ".\n";
  }
  return text;
}

// k independent even cycles: 2^k stable models.
std::string EvenCycles(int k) {
  std::string text;
  for (int i = 0; i < k; ++i) {
    std::string a = "a" + std::to_string(i), b = "b" + std::to_string(i);
    text += a + " :- not " + b + ".\n" + b + " :- not " + a + ".\n";
  }
  return text;
}

// The leaf of the quarantine chase where all k routers of a k-clique are
// infected: one quarantined/released even loop per router, and at most one
// released router per edge, so k+1 stable models.
std::string QuarantineLeaf(int k) {
  std::string text;
  for (int i = 1; i <= k; ++i) {
    std::string x = std::to_string(i);
    text += "infected(" + x + ", 1).\n";
    text += "quarantined(" + x + ") :- infected(" + x + ", 1), not released(" +
            x + ").\n";
    text += "released(" + x + ") :- infected(" + x + ", 1), not quarantined(" +
            x + ").\n";
    for (int j = 1; j <= k; ++j) {
      if (i == j) continue;
      std::string y = std::to_string(j);
      text += "connected(" + x + ", " + y + ").\n";
      text += ":- released(" + x + "), released(" + y + "), connected(" + x +
              ", " + y + ").\n";
    }
  }
  return text;
}

void VerificationTable() {
  std::printf("=== E8: stable-model solver ===\n");
  std::printf("%-22s %-8s %-10s\n", "program", "atoms", "models");
  for (int k : {4, 8, 12}) {
    gdlog::Interner interner;
    auto rules = ParseGroundProgram(EvenCycles(k), &interner);
    auto models = gdlog::AllStableModels(rules);
    std::printf("%-22s %-8zu %-10zu (expect %d)\n",
                ("even-cycles k=" + std::to_string(k)).c_str(),
                rules.size(), models->size(), 1 << k);
  }
  for (int n : {64, 256}) {
    gdlog::Interner interner;
    auto rules = ParseGroundProgram(StratifiedChain(n), &interner);
    auto models = gdlog::AllStableModels(rules);
    std::printf("%-22s %-8zu %-10zu (expect 1)\n",
                ("strat-chain n=" + std::to_string(n)).c_str(), rules.size(),
                models->size());
  }
  for (int k : {2, 4, 8}) {
    gdlog::Interner interner;
    auto rules = ParseGroundProgram(QuarantineLeaf(k), &interner);
    auto models = gdlog::AllStableModels(rules);
    std::printf("%-22s %-8zu %-10zu (expect %d)\n",
                ("quarantine-leaf k=" + std::to_string(k)).c_str(),
                rules.size(), models->size(), k + 1);
  }
  std::printf("\n");
}

void BM_Wfs_StratifiedChain(benchmark::State& state) {
  gdlog::Interner interner;
  auto rules =
      ParseGroundProgram(StratifiedChain(static_cast<int>(state.range(0))),
                         &interner);
  gdlog::NormalProgram prog = gdlog::NormalProgram::FromRuleSet(rules);
  for (auto _ : state) {
    auto wfm = gdlog::ComputeWellFounded(prog);
    benchmark::DoNotOptimize(wfm.truth.data());
  }
  state.counters["atoms"] = static_cast<double>(prog.atom_count());
}
BENCHMARK(BM_Wfs_StratifiedChain)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_Enumerate_EvenCycles(benchmark::State& state) {
  gdlog::Interner interner;
  auto rules = ParseGroundProgram(EvenCycles(static_cast<int>(state.range(0))),
                                  &interner);
  gdlog::NormalProgram prog = gdlog::NormalProgram::FromRuleSet(rules);
  size_t models = 0;
  for (auto _ : state) {
    gdlog::StableModelEnumerator solver(prog);
    models = 0;
    auto st = solver.Enumerate([&](const std::vector<uint32_t>&) {
      ++models;
      return true;
    });
    benchmark::DoNotOptimize(st);
  }
  state.counters["models"] = static_cast<double>(models);
  state.counters["models/s"] = benchmark::Counter(
      static_cast<double>(models),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Enumerate_EvenCycles)->Arg(4)->Arg(8)->Arg(12)->Arg(14)
    ->Unit(benchmark::kMillisecond);

void BM_Solve_QuarantineLeaf(benchmark::State& state) {
  gdlog::Interner interner;
  auto rules = ParseGroundProgram(
      QuarantineLeaf(static_cast<int>(state.range(0))), &interner);
  size_t models = 0;
  for (auto _ : state) {
    auto solved = gdlog::AllStableModels(rules);
    models = solved->size();
    benchmark::DoNotOptimize(models);
  }
  state.counters["models"] = static_cast<double>(models);
  state.counters["models/s"] = benchmark::Counter(
      static_cast<double>(models),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Solve_QuarantineLeaf)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_FirstModel_EvenCycles(benchmark::State& state) {
  // HasStableModel short-circuits after one model: near-linear despite the
  // 2^k model space.
  gdlog::Interner interner;
  auto rules = ParseGroundProgram(EvenCycles(static_cast<int>(state.range(0))),
                                  &interner);
  for (auto _ : state) {
    auto has = gdlog::HasStableModel(rules);
    benchmark::DoNotOptimize(*has);
  }
}
BENCHMARK(BM_FirstModel_EvenCycles)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  VerificationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
