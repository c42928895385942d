// gdlog_load: load generator and smoke-checker for gdlogd. Registers a
// program, fires N concurrent identical /v1/query requests, verifies every
// response is byte-identical, and reports latency percentiles plus the
// server's cache counters — the "N identical queries run one chase"
// single-flight property made observable from outside.
//
//   gdlog_load --port P --program FILE [options]
//
// Options:
//   --host H              server address             (default 127.0.0.1)
//   --port P              server port                (required)
//   --program FILE        program in surface syntax  (required)
//   --db FILE             database file              (default: empty DB)
//   --grounder MODE       auto | simple | perfect    (default auto)
//   --requests N          total /v1/query requests   (default 64)
//   --concurrency C       client connections         (default 8)
//   --include-outcomes    ask for the outcomes section
//   --include-events      ask for the event table
//   --check               exit non-zero unless exactly one chase ran
//                         (misses +1, hits+coalesced +N-1) and all
//                         responses were 200 and byte-identical
//   --dump-response FILE  write the response body to FILE (compare with
//                         `gdlog_cli --json` via cmp)
//   --delta FILE          after the query storm, PATCH the file's facts
//                         onto the program's database and issue one more
//                         /v1/query. Prints the server's delta report
//                         (rows appended, rules refired, whether the delta
//                         touches a rule body, spaces evicted) and the
//                         post-delta query's cache misses and
//                         revalidations; with --check, when the delta
//                         touches no rule body, asserts that query ran no
//                         chase (revalidated >= 1, misses - revalidated
//                         == 0 on /v1/stats)
//   --fleet-workers LIST  fleet mode: POST /v1/jobs with this
//                         comma-separated "host:port" worker list instead
//                         of /v1/query. Jobs share /query's cache
//                         fingerprint, so --check's "one chase for N
//                         identical requests" assertion holds unchanged;
//                         fleet counter deltas (dispatches, retries,
//                         steals, streamed/duplicate partials; partial-
//                         cache hits/misses summed over the workers' own
//                         /v1/stats) and per-worker dispatch latency
//                         (p50/p95/max) are printed alongside the cache
//                         deltas
//   --shards N            fleet mode: shard count (default: worker count)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/http.h"
#include "util/json.h"

namespace {

struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string program_path;
  std::string db_path;
  std::string grounder = "auto";
  size_t requests = 64;
  size_t concurrency = 8;
  bool include_outcomes = false;
  bool include_events = false;
  bool check = false;
  std::string dump_path;
  std::string delta_path;
  std::string fleet_workers;
  size_t shards = 0;
};

[[noreturn]] void Usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s --port P --program FILE [--host H] [--db FILE]\n"
               "          [--grounder MODE] [--requests N]\n"
               "          [--concurrency C] [--include-outcomes]\n"
               "          [--include-events] [--check]\n"
               "          [--dump-response FILE] [--delta FILE]\n"
               "          [--fleet-workers H:P,H:P,...] [--shards N]\n",
               argv0);
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// <section>.<field> out of a /v1/stats body, or -1.
long long StatsCounter(const gdlog::JsonValue& stats, const char* section,
                       const char* field) {
  const gdlog::JsonValue* obj = stats.Find(section);
  if (obj == nullptr) return -1;
  const gdlog::JsonValue* value = obj->Find(field);
  if (value == nullptr || !value->is_number()) return -1;
  auto n = value->NumberAsInt();
  return n.ok() ? *n : -1;
}

/// cache.<field> out of a /v1/stats body, or -1.
long long CacheCounter(const gdlog::JsonValue& stats, const char* field) {
  return StatsCounter(stats, "cache", field);
}

gdlog::Result<gdlog::JsonValue> FetchStats(const std::string& host,
                                           int port) {
  GDLOG_ASSIGN_OR_RETURN(gdlog::HttpClient client,
                         gdlog::HttpClient::Connect(host, port));
  GDLOG_ASSIGN_OR_RETURN(gdlog::HttpResponse response,
                         client.Request("GET", "/v1/stats"));
  if (response.status != 200) {
    return gdlog::Status::Internal("/v1/stats returned " +
                                   std::to_string(response.status));
  }
  return gdlog::JsonValue::Parse(response.body);
}

/// The non-empty entries of a comma-separated "host:port" list.
std::vector<std::string> SplitWorkers(const std::string& list) {
  std::vector<std::string> workers;
  std::string worker;
  for (const char* p = list.c_str();; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!worker.empty()) workers.push_back(worker);
      worker.clear();
      if (*p == '\0') break;
    } else {
      worker.push_back(*p);
    }
  }
  return workers;
}

/// /v1/stats of every worker of a "host:port" list, in list order.
gdlog::Result<std::vector<gdlog::JsonValue>> FetchWorkerStats(
    const std::vector<std::string>& workers) {
  std::vector<gdlog::JsonValue> stats;
  for (const std::string& worker : workers) {
    size_t colon = worker.rfind(':');
    char* end = nullptr;
    long port = colon == std::string::npos
                    ? 0
                    : std::strtol(worker.c_str() + colon + 1, &end, 10);
    if (port <= 0 || port > 65535 || end == nullptr || *end != '\0') {
      return gdlog::Status::InvalidArgument("bad worker address " + worker);
    }
    GDLOG_ASSIGN_OR_RETURN(gdlog::JsonValue one,
                           FetchStats(worker.substr(0, colon),
                                      static_cast<int>(port)));
    stats.push_back(std::move(one));
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opts;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) Usage(argv[0], "missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--host")) {
      opts.host = need_value(i);
    } else if (!std::strcmp(arg, "--port")) {
      opts.port = static_cast<int>(std::strtol(need_value(i), nullptr, 10));
    } else if (!std::strcmp(arg, "--program")) {
      opts.program_path = need_value(i);
    } else if (!std::strcmp(arg, "--db")) {
      opts.db_path = need_value(i);
    } else if (!std::strcmp(arg, "--grounder")) {
      opts.grounder = need_value(i);
    } else if (!std::strcmp(arg, "--requests")) {
      opts.requests = std::strtoull(need_value(i), nullptr, 10);
    } else if (!std::strcmp(arg, "--concurrency")) {
      opts.concurrency = std::strtoull(need_value(i), nullptr, 10);
    } else if (!std::strcmp(arg, "--include-outcomes")) {
      opts.include_outcomes = true;
    } else if (!std::strcmp(arg, "--include-events")) {
      opts.include_events = true;
    } else if (!std::strcmp(arg, "--check")) {
      opts.check = true;
    } else if (!std::strcmp(arg, "--dump-response")) {
      opts.dump_path = need_value(i);
    } else if (!std::strcmp(arg, "--delta")) {
      opts.delta_path = need_value(i);
    } else if (!std::strcmp(arg, "--fleet-workers")) {
      opts.fleet_workers = need_value(i);
    } else if (!std::strcmp(arg, "--shards")) {
      opts.shards = std::strtoull(need_value(i), nullptr, 10);
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      Usage(argv[0]);
    } else {
      Usage(argv[0], (std::string("unknown flag: ") + arg).c_str());
    }
  }
  if (opts.port == 0) Usage(argv[0], "--port is required");
  if (opts.program_path.empty()) Usage(argv[0], "--program is required");
  if (opts.requests == 0 || opts.concurrency == 0) {
    Usage(argv[0], "--requests and --concurrency must be positive");
  }
  opts.concurrency = std::min(opts.concurrency, opts.requests);

  // Counters before the run: the server may be warm already; --check
  // asserts on deltas.
  auto stats_before = FetchStats(opts.host, opts.port);
  if (!stats_before.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 stats_before.status().ToString().c_str());
    return 1;
  }
  // The partial cache lives on the workers, so its deltas are theirs.
  const std::vector<std::string> workers = SplitWorkers(opts.fleet_workers);
  auto workers_before = FetchWorkerStats(workers);
  if (!workers_before.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 workers_before.status().ToString().c_str());
    return 1;
  }

  // Register (idempotent: an already-registered identical spec returns
  // the same id).
  gdlog::JsonWriter reg;
  reg.BeginObject();
  reg.KV("program", ReadFile(opts.program_path));
  reg.KV("db", opts.db_path.empty() ? "" : ReadFile(opts.db_path));
  reg.KV("grounder", opts.grounder);
  reg.EndObject();
  std::string program_id;
  {
    // Scoped so the registration connection closes before the storm: the
    // server serves each connection on one of its --http-threads, and a
    // connection held idle here would leave a client waiting for it.
    auto client = gdlog::HttpClient::Connect(opts.host, opts.port);
    if (!client.ok()) {
      std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
      return 1;
    }
    auto registered = client->Request("POST", "/v1/programs", reg.str());
    if (!registered.ok() ||
        (registered->status != 200 && registered->status != 201)) {
      std::fprintf(stderr, "error registering program: %s\n",
                   registered.ok() ? registered->body.c_str()
                                   : registered.status().ToString().c_str());
      return 1;
    }
    auto reg_doc = gdlog::JsonValue::Parse(registered->body);
    const gdlog::JsonValue* id_field =
        reg_doc.ok() ? reg_doc->Find("id") : nullptr;
    if (id_field == nullptr || !id_field->is_string()) {
      std::fprintf(stderr, "error: malformed /v1/programs response\n");
      return 1;
    }
    program_id = id_field->string_value();
  }
  std::printf("registered program %s\n", program_id.c_str());

  const bool fleet = !workers.empty();
  gdlog::JsonWriter query;
  query.BeginObject();
  query.KV("program_id", program_id);
  if (opts.include_outcomes) query.KV("include_outcomes", true);
  if (opts.include_events) query.KV("include_events", true);
  if (fleet) {
    query.Key("workers").BeginArray();
    for (const std::string& worker : workers) query.String(worker);
    query.EndArray();
    if (opts.shards > 0) {
      query.KV("shards", static_cast<long long>(opts.shards));
    }
  }
  query.EndObject();
  const std::string query_body = query.str();
  const char* query_target = fleet ? "/v1/jobs" : "/v1/query";

  std::atomic<size_t> next{0};
  std::atomic<size_t> failures{0};
  std::mutex mu;
  std::string first_body;
  bool mismatch = false;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(opts.requests);

  auto worker = [&]() {
    auto conn = gdlog::HttpClient::Connect(opts.host, opts.port);
    if (!conn.ok()) {
      failures.fetch_add(1);
      return;
    }
    while (next.fetch_add(1) < opts.requests) {
      auto start = std::chrono::steady_clock::now();
      auto response = conn->Request("POST", query_target, query_body);
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (!response.ok() || response->status != 200) {
        std::fprintf(stderr, "query failed: %s\n",
                     response.ok() ? response->body.c_str()
                                   : response.status().ToString().c_str());
        failures.fetch_add(1);
        continue;
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.push_back(ms);
      if (first_body.empty()) {
        first_body = response->body;
      } else if (response->body != first_body) {
        mismatch = true;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < opts.concurrency; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  if (!opts.dump_path.empty() && !first_body.empty()) {
    std::ofstream out(opts.dump_path, std::ios::binary);
    out << first_body;
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * double(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  double mean = 0.0;
  for (double ms : latencies_ms) mean += ms;
  if (!latencies_ms.empty()) mean /= double(latencies_ms.size());
  std::printf(
      "requests=%zu ok=%zu failed=%zu concurrency=%zu\n"
      "latency ms: mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
      opts.requests, latencies_ms.size(), failures.load(), opts.concurrency,
      mean, percentile(0.50), percentile(0.95), percentile(0.99),
      percentile(1.0));

  auto stats_after = FetchStats(opts.host, opts.port);
  if (!stats_after.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 stats_after.status().ToString().c_str());
    return 1;
  }
  long long d_misses = CacheCounter(*stats_after, "misses") -
                       CacheCounter(*stats_before, "misses");
  long long d_hits = CacheCounter(*stats_after, "hits") -
                     CacheCounter(*stats_before, "hits");
  long long d_coalesced = CacheCounter(*stats_after, "coalesced") -
                          CacheCounter(*stats_before, "coalesced");
  std::printf("cache deltas: misses=%lld hits=%lld coalesced=%lld\n",
              d_misses, d_hits, d_coalesced);
  if (fleet) {
    auto workers_after = FetchWorkerStats(workers);
    if (!workers_after.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   workers_after.status().ToString().c_str());
      return 1;
    }
    auto fleet_delta = [&](const char* field) {
      return StatsCounter(*stats_after, "fleet", field) -
             StatsCounter(*stats_before, "fleet", field);
    };
    auto worker_delta = [&](const char* field) {
      long long sum = 0;
      for (size_t w = 0; w < workers.size(); ++w) {
        sum += StatsCounter((*workers_after)[w], "fleet", field) -
               StatsCounter((*workers_before)[w], "fleet", field);
      }
      return sum;
    };
    std::printf(
        "fleet deltas: jobs=%lld dispatches=%lld retries=%lld "
        "worker_failures=%lld partials_merged=%lld steals=%lld "
        "partials_streamed=%lld duplicate_partials=%lld "
        "partial_cache_hits=%lld partial_cache_misses=%lld\n",
        fleet_delta("jobs"), fleet_delta("dispatches"),
        fleet_delta("retries"), fleet_delta("worker_failures"),
        fleet_delta("partials_merged"), fleet_delta("steals"),
        fleet_delta("partials_streamed"), fleet_delta("duplicate_partials"),
        worker_delta("partial_cache_hits"),
        worker_delta("partial_cache_misses"));
    // Per-worker dispatch latency as the coordinator measured it — the
    // outside view of which worker is the straggler.
    const gdlog::JsonValue* fleet_obj = stats_after->Find("fleet");
    const gdlog::JsonValue* workers_obj =
        fleet_obj != nullptr ? fleet_obj->Find("workers") : nullptr;
    if (workers_obj != nullptr && workers_obj->is_object()) {
      for (const auto& [address, stats] : workers_obj->members()) {
        auto field = [&](const char* name) {
          const gdlog::JsonValue* value = stats.Find(name);
          if (value == nullptr || !value->is_number()) return 0.0;
          return value->NumberAsDouble();
        };
        std::printf(
            "fleet worker %s: dispatches=%lld p50_ms=%.3f p95_ms=%.3f "
            "max_ms=%.3f\n",
            address.c_str(), static_cast<long long>(field("dispatches")),
            field("p50_ms"), field("p95_ms"), field("max_ms"));
      }
    }
  }

  if (mismatch) std::fprintf(stderr, "FAIL: response bodies differ\n");
  bool ok = !mismatch && failures.load() == 0;
  if (opts.check) {
    // One chase for N identical queries: the first miss computes, every
    // other request either hits the cache or coalesces onto the flight.
    long long expected = static_cast<long long>(opts.requests) - 1;
    if (d_misses != 1 || d_hits + d_coalesced != expected) {
      std::fprintf(stderr,
                   "FAIL: expected misses=1 and hits+coalesced=%lld\n",
                   expected);
      ok = false;
    }
  }

  if (ok && !opts.delta_path.empty()) {
    gdlog::JsonWriter patch;
    patch.BeginObject();
    patch.KV("delta", ReadFile(opts.delta_path));
    patch.EndObject();
    auto client = gdlog::HttpClient::Connect(opts.host, opts.port);
    if (!client.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", client.status().ToString().c_str());
      std::printf("FAIL\n");
      return 1;
    }
    auto patched = client->Request(
        "PATCH", "/v1/programs/" + program_id + "/db", patch.str());
    if (!patched.ok() || patched->status != 200) {
      std::fprintf(stderr, "FAIL: PATCH /db: %s\n",
                   patched.ok() ? patched->body.c_str()
                                : patched.status().ToString().c_str());
      std::printf("FAIL\n");
      return 1;
    }
    auto patch_doc = gdlog::JsonValue::Parse(patched->body);
    const gdlog::JsonValue* delta_obj =
        patch_doc.ok() ? patch_doc->Find("delta") : nullptr;
    auto delta_counter = [&](const char* field) -> long long {
      if (delta_obj == nullptr) return -1;
      const gdlog::JsonValue* value = delta_obj->Find(field);
      if (value == nullptr || !value->is_number()) return -1;
      auto n = value->NumberAsInt();
      return n.ok() ? *n : -1;
    };
    const gdlog::JsonValue* touches =
        delta_obj != nullptr ? delta_obj->Find("touches_rule_bodies")
                             : nullptr;
    bool touches_rule_bodies =
        touches == nullptr || !touches->is_bool() || touches->bool_value();
    std::printf(
        "delta: rows_appended=%lld rules_refired=%lld "
        "touches_rule_bodies=%s spaces_evicted=%lld\n",
        delta_counter("rows_appended"), delta_counter("rules_refired"),
        touches_rule_bodies ? "yes" : "no", delta_counter("spaces_evicted"));

    auto after_query = client->Request("POST", query_target, query_body);
    if (!after_query.ok() || after_query->status != 200) {
      std::fprintf(stderr, "FAIL: post-delta query failed\n");
      std::printf("FAIL\n");
      return 1;
    }
    auto stats_final = FetchStats(opts.host, opts.port);
    // A PATCH moves neither counter; the query after it patches the
    // cached space (one miss, counted as revalidated) or chases.
    auto post_delta = [&](const char* field) -> long long {
      if (!stats_final.ok()) return -1;
      return CacheCounter(*stats_final, field) -
             CacheCounter(*stats_after, field);
    };
    long long post_misses = post_delta("misses");
    long long post_revalidated = post_delta("revalidated");
    std::printf("post-delta query: misses=%lld revalidated=%lld\n",
                post_misses, post_revalidated);
    if (opts.check && !touches_rule_bodies &&
        (post_revalidated < 1 || post_misses != post_revalidated)) {
      // The delta cannot change any outcome space, yet the next identical
      // query ran a chase instead of patching the cached one.
      std::fprintf(stderr,
                   "FAIL: post-delta query chased instead of patching the "
                   "cached space\n");
      ok = false;
    }
  }

  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
