// E12 — serving-layer cache: cold chase vs. fingerprint hit on the E1
// clique-4 outcome space (2^12 leaves). The cold row is what every request
// costs without gdlogd's InferenceCache; the hit row is what a repeated
// identical query costs with it — the gap is the whole point of the
// serving subsystem. The end-to-end rows add the service layer's JSON
// work on top of a hit (what a warmed /query actually pays in-process),
// for the full document and for a two-atom marginal read.
//
// Gate: before the timing rows, the binary times cold chases and warm
// full-document /v1/query calls in the same run and exits 1 unless cold ÷
// warm is at least kMinWarmSpeedup. Both sides run on the same host, so the
// ratio holds on any machine where absolute timings would not.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "server/cache.h"
#include "server/service.h"
#include "util/json.h"

namespace {

using namespace gdlog_bench;

gdlog::ChaseOptions ServingChase() {
  gdlog::ChaseOptions options;
  options.num_threads = 1;  // gdlogd parallelizes across requests
  return options;
}

/// A warm full-document read must beat a cold chase by this factor.
constexpr double kMinWarmSpeedup = 1000.0;

/// An InferenceService with the clique-4 program registered, and the
/// /v1/query requests the end-to-end rows send.
struct ServedProgram {
  gdlog::InferenceService service;
  gdlog::HttpRequest full_query;
  gdlog::HttpRequest marginal_query;

  static gdlog::InferenceService::Options ServiceOptions() {
    gdlog::InferenceService::Options options;
    options.default_chase = ServingChase();
    return options;
  }

  ServedProgram() : service(ServiceOptions()) {
    gdlog::JsonWriter reg;
    reg.BeginObject()
        .KV("program", NetworkProgram(0.1))
        .KV("db", Clique(4))
        .EndObject();
    gdlog::HttpRequest register_request;
    register_request.method = "POST";
    register_request.target = "/v1/programs";
    register_request.body = reg.str();
    gdlog::HttpResponse registered = service.Handle(register_request);
    if (registered.status != 201) std::abort();
    auto doc = gdlog::JsonValue::Parse(registered.body);
    if (!doc.ok() || doc->Find("id") == nullptr) std::abort();
    const std::string id = doc->Find("id")->string_value();
    full_query.method = "POST";
    full_query.target = "/v1/query";
    full_query.body = "{\"program_id\":\"" + id + "\"}";
    marginal_query = full_query;
    marginal_query.body = "{\"program_id\":\"" + id +
                          "\",\"queries\":[\"uninfected(2)\","
                          "\"infected(3, 1)\"]}";
  }

  /// Sends `request` and aborts unless it answers 200.
  gdlog::HttpResponse MustHandle(const gdlog::HttpRequest& request) {
    gdlog::HttpResponse response = service.Handle(request);
    if (response.status != 200) std::abort();
    return response;
  }
};

template <typename Fn>
double MedianSeconds(int runs, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

/// Cold chase vs. warm full-document /v1/query, timed in this run. Returns
/// false when the warm read is less than kMinWarmSpeedup times faster.
bool WarmVersusColdGate() {
  auto engine = MustCreate(NetworkProgram(0.1), Clique(4));
  gdlog::ChaseOptions chase = ServingChase();
  double cold = MedianSeconds(3, [&] {
    auto space = engine.Infer(chase);
    if (!space.ok()) std::abort();
    benchmark::DoNotOptimize(space);
  });
  ServedProgram served;
  served.MustHandle(served.full_query);  // the one chase
  double warm = MedianSeconds(201, [&] {
    gdlog::HttpResponse response = served.MustHandle(served.full_query);
    benchmark::DoNotOptimize(response.body);
  });
  double ratio = cold / warm;
  bool pass = ratio >= kMinWarmSpeedup;
  std::printf("%-28s %.3f ms\n", "cold chase (median of 3)", cold * 1e3);
  std::printf("%-28s %.2f us\n", "warm /v1/query (median)", warm * 1e6);
  std::printf("%-28s %.0fx (gate >= %.0fx) %s\n\n", "cold / warm", ratio,
              kMinWarmSpeedup, pass ? "PASS" : "FAIL");
  return pass;
}

void VerificationTable() {
  std::printf("=== E12: server cache (clique n=4, rate 0.1) ===\n");
  auto engine = MustCreate(NetworkProgram(0.1), Clique(4));
  gdlog::ChaseOptions chase = ServingChase();
  gdlog::InferenceCache cache(256ull * 1024 * 1024);
  std::string key = gdlog::InferenceCache::Fingerprint("p1", 0, chase);
  auto compute = [&]() { return engine.Infer(chase); };
  auto cold = cache.LookupOrCompute(key, compute);
  auto warm = cache.LookupOrCompute(key, compute);
  auto stats = cache.stats();
  std::printf("%-28s %s\n", "outcomes",
              cold.ok() ? std::to_string((*cold)->outcomes.size()).c_str()
                        : "ERROR");
  std::printf("%-28s %llu/%llu (expected 1/1)\n", "misses/hits",
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.hits));
  std::printf("%-28s %s\n", "same shared space",
              cold.ok() && warm.ok() && *cold == *warm ? "yes" : "NO");
  std::printf("%-28s %zu\n", "approx bytes cached", stats.bytes);
  std::printf("\n");
}

/// The price of ignoring the cache: every iteration chases from scratch
/// (Clear() first, so LookupOrCompute always computes).
void BM_ServerCache_ColdChase(benchmark::State& state) {
  auto engine = MustCreate(NetworkProgram(0.1), Clique(4));
  gdlog::ChaseOptions chase = ServingChase();
  gdlog::InferenceCache cache(256ull * 1024 * 1024);
  std::string key = gdlog::InferenceCache::Fingerprint("p1", 0, chase);
  size_t outcomes = 0;
  for (auto _ : state) {
    cache.Clear();
    auto space = cache.LookupOrCompute(
        key, [&]() { return engine.Infer(chase); });
    if (!space.ok()) std::abort();
    outcomes = (*space)->outcomes.size();
    benchmark::DoNotOptimize(space);
  }
  state.counters["outcomes"] = static_cast<double>(outcomes);
}
BENCHMARK(BM_ServerCache_ColdChase)->Unit(benchmark::kMillisecond);

/// A repeated identical query: one fingerprint lookup under the cache
/// mutex, no chase.
void BM_ServerCache_Hit(benchmark::State& state) {
  auto engine = MustCreate(NetworkProgram(0.1), Clique(4));
  gdlog::ChaseOptions chase = ServingChase();
  gdlog::InferenceCache cache(256ull * 1024 * 1024);
  std::string key = gdlog::InferenceCache::Fingerprint("p1", 0, chase);
  auto warm = cache.LookupOrCompute(
      key, [&]() { return engine.Infer(chase); });
  if (!warm.ok()) std::abort();
  for (auto _ : state) {
    auto space = cache.LookupOrCompute(key, [&]() -> gdlog::Result<gdlog::OutcomeSpace> {
      std::abort();  // a warm cache must never recompute
    });
    benchmark::DoNotOptimize(space);
  }
  state.counters["outcomes"] =
      static_cast<double>((*warm)->outcomes.size());
}
BENCHMARK(BM_ServerCache_Hit)->Unit(benchmark::kMicrosecond);

/// A warmed /query through the full service layer — routing, body parse,
/// cache hit, summary-JSON render (no outcomes section) — i.e. the
/// in-process cost of what gdlogd serves once the space is cached.
void BM_ServerQuery_WarmEndToEnd(benchmark::State& state) {
  ServedProgram served;
  gdlog::HttpResponse warmup = served.MustHandle(served.full_query);
  for (auto _ : state) {
    gdlog::HttpResponse response = served.MustHandle(served.full_query);
    benchmark::DoNotOptimize(response.body);
  }
  state.counters["body_bytes"] =
      static_cast<double>(warmup.body.size());
}
BENCHMARK(BM_ServerQuery_WarmEndToEnd)->Unit(benchmark::kMicrosecond);

/// A warmed two-atom marginal /query: each atom's credal bounds are one
/// pass over the cached outcomes, so this row stays O(outcomes).
void BM_ServerQuery_WarmMarginal(benchmark::State& state) {
  ServedProgram served;
  gdlog::HttpResponse warmup = served.MustHandle(served.marginal_query);
  for (auto _ : state) {
    gdlog::HttpResponse response = served.MustHandle(served.marginal_query);
    benchmark::DoNotOptimize(response.body);
  }
  state.counters["body_bytes"] =
      static_cast<double>(warmup.body.size());
}
BENCHMARK(BM_ServerQuery_WarmMarginal)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  VerificationTable();
  if (!WarmVersusColdGate()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
