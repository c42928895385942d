// perfbench_driver: runs one workload of the gdlogd benchmark and prints
// its metrics. The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
//   perfbench_driver --gdlogd PATH --work-dir DIR --workload NAME
//                    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics against real gdlogd processes
// over loopback. --trace 1 reruns the same traffic with client-side spans,
// then replays the workload in-process, timing calls into each layer's
// public functions from here (nothing inside the program is instrumented),
// and reports the per-layer metrics. Spans are written to
// DIR/spans-<workload>-<seed>.jsonl when the run ends.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compare.h"
#include "daemon.h"
#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/shard.h"
#include "server/cache.h"
#include "server/http.h"
#include "server/service.h"
#include "spans.h"
#include "stats.h"
#include "timed_grounder.h"
#include "util/json.h"
#include "workloads.h"

namespace {

namespace pb = perfbench;
using gdlog::GDatalog;
using gdlog::HttpClient;
using gdlog::HttpResponse;
using gdlog::JsonValue;
using gdlog::JsonWriter;
using gdlog::OutcomeSpace;

// Daemon sets per untraced run that each take a share of the timed phase,
// plus sets that are only set up, timed and stopped: setup_s is the median
// over all of them.
constexpr int kDaemonInstances = 3;
constexpr int kSetupOnlyInstances = 2;
constexpr int kChaseThreads = 4;  // exact_stratified's per-request threads
constexpr int kFleetShards = 64;
constexpr int kFleetWorkers = 2;
constexpr int kServeRwReaders = 3;
constexpr int kExactStableClients = 4;
// A re-chase of serve_rw's program takes ~0.5-1.3 s. A revalidating write
// that lands while one is in flight strands its result under the old
// revision (see README, Findings), so the interval is kept well above a
// re-chase: the stranding race then stays out of the timed phase.
constexpr int kWriteIntervalMs = 2500;
constexpr int kRequestTimeoutMs = 60'000;
// Span op ids: replayed ops are numbered below this, socket requests from
// it upward.
constexpr uint64_t kFirstRequestOp = 1000;

struct Args {
  std::string gdlogd;
  std::string work_dir = ".";
  pb::WorkloadKind workload = pb::WorkloadKind::kExactStratified;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// Exits without a result line, after killing and reaping every daemon.
[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  pb::Daemon::KillAll();
  std::exit(1);
}

template <typename T>
T Must(gdlog::Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(*result);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Request bodies
// ---------------------------------------------------------------------------

std::string RegisterBody(const pb::WorkloadSpec& spec) {
  JsonWriter json;
  json.BeginObject();
  json.KV("program", spec.program);
  json.KV("db", spec.db);
  json.EndObject();
  return json.str();
}

std::string QueryBody(const std::string& id, uint64_t shuffle, int threads,
                      const std::vector<std::string>* queries) {
  JsonWriter json;
  json.BeginObject();
  json.KV("program_id", id);
  json.Key("options").BeginObject();
  json.KV("trigger_shuffle_seed", static_cast<long long>(shuffle));
  if (threads > 0) json.KV("num_threads", static_cast<long long>(threads));
  json.EndObject();
  if (queries != nullptr) {
    json.Key("queries").BeginArray();
    for (const std::string& atom : *queries) json.String(atom);
    json.EndArray();
  }
  json.EndObject();
  return json.str();
}

std::string JobBody(const std::string& id, uint64_t shuffle) {
  JsonWriter json;
  json.BeginObject();
  json.KV("program_id", id);
  json.KV("shards", static_cast<long long>(kFleetShards));
  // Stealing duplicates work by design; this workload measures the
  // steal-free path, and the validity check holds steals at zero.
  json.KV("steal", false);
  json.Key("options").BeginObject();
  json.KV("trigger_shuffle_seed", static_cast<long long>(shuffle));
  json.EndObject();
  json.EndObject();
  return json.str();
}

// The body a coordinator sends a worker (fleet.cc ShardRequestBody), so a
// direct call hits the partial-cache entries the coordinator's jobs warmed.
std::string ShardsBody(const pb::WorkloadSpec& spec,
                       const gdlog::ChaseOptions& chase, size_t prefix_depth,
                       const std::vector<size_t>& indices) {
  JsonWriter json;
  json.BeginObject();
  json.KV("program", spec.program);
  json.KV("db", spec.db);
  json.KV("grounder", "auto");
  json.Key("options").BeginObject();
  json.KV("max_outcomes", static_cast<long long>(chase.max_outcomes));
  json.KV("max_depth", static_cast<long long>(chase.max_depth));
  json.KV("support_limit", static_cast<long long>(chase.support_limit));
  json.KV("min_path_prob", chase.min_path_prob);
  json.KV("trigger_shuffle_seed",
          static_cast<long long>(chase.trigger_shuffle_seed));
  json.KV("solver_max_nodes", static_cast<long long>(chase.solver_max_nodes));
  json.EndObject();
  json.KV("shards", static_cast<long long>(kFleetShards));
  json.KV("prefix_depth", static_cast<long long>(prefix_depth));
  json.KV("assignment", "weighted");
  json.Key("shard_indices").BeginArray();
  for (size_t index : indices) json.Int(static_cast<long long>(index));
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string PatchBody(const std::string& delta) {
  JsonWriter json;
  json.BeginObject();
  json.KV("delta", delta);
  json.EndObject();
  return json.str();
}

// ---------------------------------------------------------------------------
// HTTP helpers (set-up connections: opened, used, closed)
// ---------------------------------------------------------------------------

HttpClient Connect(int port) {
  return Must(HttpClient::Connect("127.0.0.1", port, kRequestTimeoutMs),
              "connect to 127.0.0.1:" + std::to_string(port));
}

HttpResponse Call(HttpClient& client, const std::string& method,
                  const std::string& target, const std::string& body = {}) {
  HttpResponse response =
      Must(client.Request(method, target, body), method + " " + target);
  if (response.status < 200 || response.status > 299) {
    Fail(method + " " + target + " answered " +
         std::to_string(response.status) + ": " + response.body);
  }
  return response;
}

JsonValue ParseJson(const std::string& text, const std::string& what) {
  return Must(JsonValue::Parse(text), "parse " + what);
}

JsonValue FetchStats(int port) {
  HttpClient client = Connect(port);
  return ParseJson(Call(client, "GET", "/v1/stats").body, "/v1/stats");
}

double Counter(const JsonValue& stats, const char* block, const char* key) {
  const JsonValue* section = stats.Find(block);
  const JsonValue* value = section != nullptr ? section->Find(key) : nullptr;
  return value != nullptr && value->is_number() ? value->NumberAsDouble() : 0;
}

std::string Register(int port, const pb::WorkloadSpec& spec) {
  HttpClient client = Connect(port);
  JsonValue reply = ParseJson(
      Call(client, "POST", "/v1/programs", RegisterBody(spec)).body,
      "register reply");
  const JsonValue* id = reply.Find("id");
  if (id == nullptr || !id->is_string()) Fail("register reply has no id");
  return id->string_value();
}

uint64_t RegisteredRevision(int port, const std::string& id) {
  HttpClient client = Connect(port);
  JsonValue info = ParseJson(Call(client, "GET", "/v1/programs/" + id).body,
                             "program info");
  const JsonValue* revision = info.Find("revision");
  if (revision == nullptr || !revision->is_number()) {
    Fail("program info has no revision");
  }
  return static_cast<uint64_t>(revision->NumberAsDouble());
}

// ---------------------------------------------------------------------------
// In-process references: what `gdlog_cli --json` prints for the same
// program and database.
// ---------------------------------------------------------------------------

gdlog::JsonExportOptions ServerDocumentOptions() {
  // /v1/query's defaults: no outcomes, models or events.
  gdlog::JsonExportOptions options;
  options.include_outcomes = false;
  options.include_models = false;
  options.include_events = false;
  return options;
}

struct Reference {
  std::optional<GDatalog> engine;
  OutcomeSpace space;
  std::string full_body;
};

gdlog::ChaseOptions ServerChase(uint64_t shuffle) {
  gdlog::ChaseOptions options;
  options.trigger_shuffle_seed = shuffle;
  options.num_threads = kChaseThreads;
  return options;
}

Reference BuildReference(const std::string& program, const std::string& db,
                         uint64_t shuffle) {
  Reference ref;
  ref.engine.emplace(Must(GDatalog::Create(program, db), "reference engine"));
  ref.space = Must(ref.engine->Infer(ServerChase(shuffle)), "reference chase");
  ref.full_body = gdlog::OutcomeSpaceToJson(
                      ref.space, ref.engine->translated(),
                      ref.engine->program().interner(),
                      ServerDocumentOptions()) +
                  "\n";
  return ref;
}

// The marginal response /v1/query renders for `atoms`, built from exact
// rationals of OutcomeSpace::Marginal over the reference space.
std::string MarginalBody(const Reference& ref, const std::string& id,
                         uint64_t revision,
                         const std::vector<std::string>& atoms) {
  JsonWriter json;
  json.BeginObject();
  json.KV("program_id", id);
  json.KV("revision", static_cast<long long>(revision));
  json.KV("complete", ref.space.complete);
  json.Key("prob_consistent");
  gdlog::WriteProbJson(json, ref.space.ProbConsistent());
  json.KV("condition", false);
  json.Key("marginals").BeginArray();
  for (const std::string& text : atoms) {
    auto atom = ref.engine->LookupGroundAtom(text);
    OutcomeSpace::Bounds bounds;
    if (atom.ok()) bounds = ref.space.Marginal(*atom);
    json.BeginObject();
    json.KV("atom", text);
    json.Key("lower");
    gdlog::WriteProbJson(json, bounds.lower);
    json.Key("upper");
    gdlog::WriteProbJson(json, bounds.upper);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str() + "\n";
}

// ---------------------------------------------------------------------------
// Daemons and set-up
// ---------------------------------------------------------------------------

struct Env {
  std::vector<pb::Daemon> daemons;  ///< [0] takes the client traffic
  std::string program_id;
  uint64_t base_revision = 0;
};

pb::Daemon StartDaemon(const Args& args, const std::vector<std::string>& flags,
                       const std::string& role) {
  return Must(pb::Daemon::Start(args.gdlogd, flags,
                                args.work_dir + "/gdlogd-" + role + ".log"),
              "start gdlogd " + role);
}

// Fleet workers are plain daemons: every gdlogd serves /v1/shards.
std::vector<pb::Daemon> StartWorkers(const Args& args) {
  std::vector<pb::Daemon> workers;
  for (int i = 0; i < kFleetWorkers; ++i) {
    workers.push_back(StartDaemon(args, {}, "worker" + std::to_string(i)));
  }
  return workers;
}

// Starts the workload's daemons, registers its program and warms every
// space the timed phase reads. Connections are closed on return.
Env SetUp(const Args& args, const pb::WorkloadSpec& spec, uint64_t shuffle) {
  Env env;
  if (spec.kind == pb::WorkloadKind::kFleetWarm) {
    std::vector<pb::Daemon> workers = StartWorkers(args);
    std::string list;
    for (const pb::Daemon& worker : workers) {
      list += (list.empty() ? "" : ",") + worker.address();
    }
    env.daemons.push_back(StartDaemon(
        args, {"--cache-mb", "0", "--fleet-workers", list}, "coordinator"));
    for (pb::Daemon& worker : workers) env.daemons.push_back(std::move(worker));
  } else {
    env.daemons.push_back(StartDaemon(args, {}, "daemon"));
  }
  const int port = env.daemons[0].port();
  env.program_id = Register(port, spec);
  HttpClient client = Connect(port);
  switch (spec.kind) {
    case pb::WorkloadKind::kExactStratified:
      Call(client, "POST", "/v1/query",
           QueryBody(env.program_id, shuffle, kChaseThreads, nullptr));
      break;
    case pb::WorkloadKind::kExactStable:
      Call(client, "POST", "/v1/query",
           QueryBody(env.program_id, shuffle, 0, nullptr));
      break;
    case pb::WorkloadKind::kServeRw:
      Call(client, "POST", "/v1/query",
           QueryBody(env.program_id, shuffle, 0, nullptr));
      Call(client, "POST", "/v1/query",
           QueryBody(env.program_id, shuffle, 0, &spec.marginal_atoms));
      break;
    case pb::WorkloadKind::kFleetWarm:
      Call(client, "POST", "/v1/jobs", JobBody(env.program_id, shuffle));
      break;
  }
  env.base_revision = RegisteredRevision(port, env.program_id);
  return env;
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

struct ClientResult {
  std::vector<double> latencies_ms;
  double first_ms = 0;  ///< the first request alone, connect included
  std::vector<double> send_gap_ms;  ///< reply-to-next-send gaps
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

struct Outcome {
  bool ok = false;
  std::string error;
};

// One request of a closed-loop client: sends, checks, reports.
using OpFn = std::function<Outcome(HttpClient& client, uint64_t i)>;

// Closed loop: the next request goes out only when the previous reply is
// in, until `deadline_ns`. With a recorder, each request is a root span.
void ClosedLoop(int port, int64_t deadline_ns, const OpFn& op,
                const std::string& op_name, pb::SpanRecorder* spans,
                std::atomic<uint64_t>* op_ids, ClientResult* out) {
  std::optional<HttpClient> client;
  int64_t prev_done = 0;
  for (uint64_t i = 0; pb::NowNs() < deadline_ns || i == 0; ++i) {
    const int64_t start = pb::NowNs();
    if (prev_done != 0) out->send_gap_ms.push_back(Ms(start - prev_done));
    Outcome outcome;
    if (!client) {
      auto connected = HttpClient::Connect("127.0.0.1", port,
                                           kRequestTimeoutMs);
      if (connected.ok()) {
        client.emplace(std::move(*connected));
      } else {
        outcome.error = connected.status().ToString();
      }
    }
    if (client) outcome = op(*client, i);
    const int64_t done = pb::NowNs();
    out->attempted += 1;
    if (!outcome.ok) {
      out->failed += 1;
      if (out->first_error.empty()) out->first_error = outcome.error;
      client.reset();  // the connection may be unusable; reconnect
    }
    if (i == 0) out->first_ms = Ms(done - start);
    out->latencies_ms.push_back(Ms(done - start));
    if (spans != nullptr) {
      spans->Add("http." + op_name, start, done, -1, op_ids->fetch_add(1));
    }
    prev_done = pb::NowNs();
  }
}

Outcome ExpectBody(const gdlog::Result<HttpResponse>& response,
                   const std::string& expected) {
  if (!response.ok()) return {false, response.status().ToString()};
  if (response->status != 200) {
    return {false, "status " + std::to_string(response->status) + ": " +
                       response->body};
  }
  if (pb::FirstDifference(expected, response->body)) {
    return {false, pb::DescribeDifference(expected, response->body)};
  }
  return {true, {}};
}

// serve_rw reads are checked after the timed phase, against references
// rebuilt for every database state a read could have seen: a read that
// went out after `lo` writes were acknowledged and came back before write
// `hi` + 1 was sent must match the state after some r in [lo, hi] writes.
struct ReadLog {
  // kind (0 = full, 1 = marginal) → body → window → count
  std::map<std::string, std::map<std::pair<uint64_t, uint64_t>, uint64_t>>
      bodies[2];
};

struct WriteResult {
  std::vector<double> latencies_ms;  ///< from when each write was due
  std::vector<double> lag_ms;        ///< send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t revalidated = 0;
  uint64_t evicted = 0;
  /// Meta writes that evicted, or rule-body writes that revalidated.
  uint64_t wrong_path_writes = 0;
  std::vector<std::string> deltas;  ///< applied, in order
  std::string first_error;
};

struct PhaseResult {
  std::vector<ClientResult> clients;
  WriteResult writes;
  ReadLog reads;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t daemon_cpu_ns = 0;
  std::vector<JsonValue> stats_before;
  std::vector<JsonValue> stats_after;
};

int64_t DaemonCpu(const Env& env) {
  int64_t total = 0;
  for (const pb::Daemon& daemon : env.daemons) {
    total += Must(daemon.CpuNs(), "daemon cpu time");
  }
  return total;
}

// The timed phase of one workload. `shuffle_base` seeds the fresh
// trigger-shuffle seeds of cache-miss requests; `warm_shuffle` is the seed
// the warm spaces were computed under; serve_rw's writes continue the
// write sequence at `first_write`.
PhaseResult RunPhase(const pb::WorkloadSpec& spec,
                     const Env& env, const Reference& ref,
                     int64_t duration_ms,
                     uint64_t shuffle_base, uint64_t warm_shuffle,
                     uint64_t first_write, std::mt19937_64& rng,
                     pb::SpanRecorder* spans, std::atomic<uint64_t>* op_ids) {
  PhaseResult phase;
  for (const pb::Daemon& daemon : env.daemons) {
    phase.stats_before.push_back(FetchStats(daemon.port()));
  }
  const int port = env.daemons[0].port();
  const std::string& id = env.program_id;
  const int64_t cpu_before = DaemonCpu(env);
  phase.start_ns = pb::NowNs();
  const int64_t deadline = phase.start_ns + duration_ms * 1'000'000;
  std::vector<std::thread> threads;

  switch (spec.kind) {
    case pb::WorkloadKind::kExactStratified:
    case pb::WorkloadKind::kExactStable: {
      const bool stratified =
          spec.kind == pb::WorkloadKind::kExactStratified;
      const int clients = stratified ? 1 : kExactStableClients;
      phase.clients.resize(clients);
      for (int c = 0; c < clients; ++c) {
        // Every request carries a fresh trigger-shuffle seed: a cache miss
        // whose answer is byte-identical (Lemma 4.4).
        const uint64_t base = shuffle_base + uint64_t{1'000'000} * c;
        OpFn op = [&, base, stratified](HttpClient& client, uint64_t i) {
          return ExpectBody(
              client.Request("POST", "/v1/query",
                             QueryBody(id, base + i,
                                       stratified ? kChaseThreads : 0,
                                       nullptr)),
              ref.full_body);
        };
        threads.emplace_back(ClosedLoop, port, deadline, op, "query", spans,
                             op_ids, &phase.clients[c]);
      }
      break;
    }
    case pb::WorkloadKind::kFleetWarm: {
      phase.clients.resize(1);
      OpFn op = [&](HttpClient& client, uint64_t) {
        return ExpectBody(
            client.Request("POST", "/v1/jobs", JobBody(id, warm_shuffle)),
            ref.full_body);
      };
      threads.emplace_back(ClosedLoop, port, deadline, op, "job", spans,
                           op_ids, &phase.clients[0]);
      break;
    }
    case pb::WorkloadKind::kServeRw: {
      phase.clients.resize(kServeRwReaders);
      std::atomic<uint64_t> acked{0};
      std::atomic<uint64_t> started{0};
      std::vector<ReadLog> logs(kServeRwReaders);
      std::vector<std::mt19937_64> reader_rngs;
      for (int c = 0; c < kServeRwReaders; ++c) reader_rngs.emplace_back(rng());
      for (int c = 0; c < kServeRwReaders; ++c) {
        OpFn op = [&, c](HttpClient& client, uint64_t) -> Outcome {
          // Three full-document reads to one marginal read, in a seeded
          // order: the median sits in the full-read mode, p90 in the
          // marginal mode.
          const int kind = reader_rngs[c]() % 4 == 0 ? 1 : 0;
          const uint64_t lo = acked.load();
          auto response = client.Request(
              "POST", "/v1/query",
              QueryBody(id, warm_shuffle, 0,
                        kind == 1 ? &spec.marginal_atoms : nullptr));
          const uint64_t hi = started.load();
          if (!response.ok()) return {false, response.status().ToString()};
          if (response->status != 200) {
            return {false, "status " + std::to_string(response->status)};
          }
          logs[c].bodies[kind][response->body][{lo, hi}] += 1;
          return {true, {}};
        };
        threads.emplace_back(ClosedLoop, port, deadline, op,
                             "read", spans, op_ids, &phase.clients[c]);
      }
      // Open-loop writer: write k is due at start + (k + 1/2) * interval.
      std::mt19937_64 write_rng(rng());
      threads.emplace_back([&, deadline] {
        WriteResult& w = phase.writes;
        std::optional<HttpClient> client;
        for (uint64_t k = 0;; ++k) {
          const int64_t due =
              phase.start_ns + (int64_t{kWriteIntervalMs} * 1'000'000 *
                                (2 * static_cast<int64_t>(k) + 1)) / 2;
          if (due >= deadline) break;
          while (pb::NowNs() < due) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          const pb::WriteSpec write =
              pb::ServeRwWrite(first_write + k, write_rng);
          const int64_t sent = pb::NowNs();
          w.lag_ms.push_back(Ms(sent - due));
          w.attempted += 1;
          started = k + 1;
          if (!client) {
            auto connected = HttpClient::Connect("127.0.0.1", port,
                                                 kRequestTimeoutMs);
            if (connected.ok()) client.emplace(std::move(*connected));
          }
          gdlog::Result<HttpResponse> response =
              client ? client->Request("PATCH", "/v1/programs/" + id + "/db",
                                       PatchBody(write.delta))
                     : gdlog::Result<HttpResponse>(
                           gdlog::Status::Internal("connect failed"));
          const int64_t done = pb::NowNs();
          w.latencies_ms.push_back(Ms(done - due));
          if (!response.ok() || response->status != 200) {
            w.failed += 1;
            if (w.first_error.empty()) {
              w.first_error = response.ok() ? response->body
                                            : response.status().ToString();
            }
            client.reset();
            // The database state is now unknown; stop writing so reads
            // can still be checked against the states that are known.
            break;
          }
          w.deltas.push_back(write.delta);
          acked = k + 1;
          auto reply = JsonValue::Parse(response->body);
          const JsonValue* delta = reply.ok() ? reply->Find("delta") : nullptr;
          if (delta != nullptr) {
            const JsonValue* rv = delta->Find("spaces_revalidated");
            const JsonValue* ev = delta->Find("spaces_evicted");
            const uint64_t revalidated =
                rv != nullptr ? static_cast<uint64_t>(rv->NumberAsDouble()) : 0;
            const uint64_t evicted =
                ev != nullptr ? static_cast<uint64_t>(ev->NumberAsDouble()) : 0;
            w.revalidated += revalidated;
            w.evicted += evicted;
            // The daemon evicts when it finds the delta in a rule body and
            // revalidates otherwise; stale entries of older revisions that
            // a revalidation drops count as evicted on either path.
            const JsonValue* touches = delta->Find("touches_rule_bodies");
            const bool evicting_path =
                touches != nullptr && touches->is_bool() &&
                touches->bool_value();
            if (evicting_path != write.touches_rule_body) {
              w.wrong_path_writes += 1;
            }
          }
        }
      });
      for (std::thread& t : threads) t.join();
      threads.clear();
      for (const ReadLog& log : logs) {
        for (int kind = 0; kind < 2; ++kind) {
          for (const auto& [body, windows] : log.bodies[kind]) {
            for (const auto& [window, count] : windows) {
              phase.reads.bodies[kind][body][window] += count;
            }
          }
        }
      }
      break;
    }
  }
  for (std::thread& t : threads) t.join();
  phase.end_ns = pb::NowNs();
  phase.daemon_cpu_ns = DaemonCpu(env) - cpu_before;
  for (const pb::Daemon& daemon : env.daemons) {
    phase.stats_after.push_back(FetchStats(daemon.port()));
  }
  return phase;
}

double StatsDelta(const PhaseResult& phase, size_t daemon, const char* block,
                  const char* key) {
  return Counter(phase.stats_after[daemon], block, key) -
         Counter(phase.stats_before[daemon], block, key);
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed, refused or wrong-bytes operations
  std::vector<std::string> problems;  ///< run-level validity failures
};

// Expected (full, marginal) bodies by database text and revision, shared by
// the daemon instances of one run (each starts from the same database).
using BodyCache =
    std::map<std::pair<std::string, uint64_t>,
             std::pair<std::string, std::string>>;

// Checks serve_rw's reads against references rebuilt from the program text
// and the merged database after each write.
void CheckServeRwReads(const pb::WorkloadSpec& spec, const Env& env,
                       const PhaseResult& phase, uint64_t warm_shuffle,
                       BodyCache* cache, Verdict* verdict) {
  const size_t states = phase.writes.deltas.size() + 1;
  std::vector<std::string> full(states);
  std::vector<std::string> marginal(states);
  std::vector<bool> needed(states, false);
  for (int kind = 0; kind < 2; ++kind) {
    for (const auto& [body, windows] : phase.reads.bodies[kind]) {
      for (const auto& [window, count] : windows) {
        for (uint64_t r = window.first; r <= window.second && r < states; ++r) {
          needed[r] = true;
        }
      }
    }
  }
  std::string db = spec.db;
  for (size_t r = 0; r < states; ++r) {
    if (r > 0) db += phase.writes.deltas[r - 1] + "\n";
    if (!needed[r]) continue;
    auto [it, fresh] = cache->try_emplace({db, env.base_revision + r});
    if (fresh) {
      Reference ref = BuildReference(spec.program, db, warm_shuffle);
      it->second = {ref.full_body,
                    MarginalBody(ref, env.program_id, env.base_revision + r,
                                 spec.marginal_atoms)};
    }
    full[r] = it->second.first;
    marginal[r] = it->second.second;
  }
  for (int kind = 0; kind < 2; ++kind) {
    const std::vector<std::string>& expected = kind == 0 ? full : marginal;
    for (const auto& [body, windows] : phase.reads.bodies[kind]) {
      for (const auto& [window, count] : windows) {
        bool match = false;
        for (uint64_t r = window.first; r <= window.second && r < states;
             ++r) {
          if (!pb::FirstDifference(expected[r], body)) {
            match = true;
            break;
          }
        }
        if (!match) {
          verdict->failed += count;
          const uint64_t r = std::min<uint64_t>(window.first, states - 1);
          verdict->problems.push_back(
              std::string(kind == 0 ? "full" : "marginal") + " read (" +
              std::to_string(count) + "x, after " +
              std::to_string(window.first) + " writes) " +
              pb::DescribeDifference(expected[r], body));
        }
      }
    }
  }
}

Verdict Judge(const pb::WorkloadSpec& spec, const Env& env,
              const PhaseResult& phase, uint64_t warm_shuffle,
              BodyCache* cache) {
  Verdict verdict;
  uint64_t ops = 0;
  for (const ClientResult& client : phase.clients) {
    verdict.attempted += client.attempted;
    verdict.failed += client.failed;
    ops += client.attempted - client.failed;
    if (!client.first_error.empty()) {
      verdict.problems.push_back("request failed: " + client.first_error);
    }
  }
  verdict.attempted += phase.writes.attempted;
  verdict.failed += phase.writes.failed;
  if (!phase.writes.first_error.empty()) {
    verdict.problems.push_back("write failed: " + phase.writes.first_error);
  }
  switch (spec.kind) {
    case pb::WorkloadKind::kExactStratified:
    case pb::WorkloadKind::kExactStable: {
      const double misses = StatsDelta(phase, 0, "cache", "misses");
      if (misses != static_cast<double>(ops)) {
        verdict.problems.push_back(
            "cache misses (" + std::to_string(misses) +
            ") != operations (" + std::to_string(ops) + ")");
      }
      break;
    }
    case pb::WorkloadKind::kFleetWarm: {
      double hits = 0;
      double misses = 0;
      for (size_t w = 1; w < env.daemons.size(); ++w) {
        hits += StatsDelta(phase, w, "fleet", "partial_cache_hits");
        misses += StatsDelta(phase, w, "fleet", "partial_cache_misses");
      }
      if (misses != 0 || hits == 0) {
        verdict.problems.push_back(
            "worker partial-cache hit ratio below 1 (hits " +
            std::to_string(hits) + ", misses " + std::to_string(misses) +
            ")");
      }
      const double retries = StatsDelta(phase, 0, "fleet", "retries");
      const double steals = StatsDelta(phase, 0, "fleet", "steals");
      if (retries != 0 || steals != 0) {
        verdict.problems.push_back("fleet retries " + std::to_string(retries) +
                                   ", steals " + std::to_string(steals));
      }
      break;
    }
    case pb::WorkloadKind::kServeRw:
      if (phase.writes.wrong_path_writes != 0) {
        verdict.problems.push_back(
            std::to_string(phase.writes.wrong_path_writes) +
            " writes took the wrong cache path (a meta write evicted or a "
            "rule-body write revalidated)");
      }
      CheckServeRwReads(spec, env, phase, warm_shuffle, cache, &verdict);
      break;
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;   ///< in the result line
  std::vector<std::string> notes;  ///< printed above it only
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

void PrintResult(const Report& report, const Verdict& verdict,
                 const std::string& heading) {
  std::printf("== %s\n", heading.c_str());
  for (const std::string& note : report.notes) {
    std::printf("   %s\n", note.c_str());
  }
  for (const Metric& metric : report.metrics) {
    std::printf("   %-32s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const double error_rate =
      verdict.attempted == 0
          ? 1.0
          : static_cast<double>(verdict.failed) / verdict.attempted;
  std::printf("   %-32s %14.6f ratio (%llu of %llu operations)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(verdict.failed),
              static_cast<unsigned long long>(verdict.attempted));
  for (const std::string& problem : verdict.problems) {
    std::printf("   FAILED CHECK: %s\n", problem.c_str());
  }
  JsonWriter json;
  json.BeginObject();
  json.KV("correct", verdict.problems.empty() && verdict.failed == 0 &&
                         verdict.attempted > 0);
  json.KV("attempted", static_cast<long long>(verdict.attempted));
  json.KV("failed", static_cast<long long>(verdict.failed));
  json.Key("metrics").BeginObject();
  for (const Metric& metric : report.metrics) {
    json.Key(metric.name).BeginObject();
    json.KV("value", metric.value);
    json.KV("unit", metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

std::string Describe(const char* name, const std::vector<double>& samples,
                     double q) {
  auto value = pb::Percentile(samples, q);
  char buf[160];
  if (value) {
    std::snprintf(buf, sizeof(buf), "%s = %.3f ms (%zu samples)", name,
                  *value, samples.size());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s not reported: %zu samples leave fewer than %zu beyond",
                  name, samples.size(), pb::kMinSamplesBeyond);
  }
  return buf;
}

// The primary operation's latencies: reads on serve_rw, the one request
// kind elsewhere.
std::vector<double> PrimaryLatencies(const PhaseResult& phase) {
  std::vector<double> all;
  for (const ClientResult& client : phase.clients) {
    all.insert(all.end(), client.latencies_ms.begin(),
               client.latencies_ms.end());
  }
  return all;
}

// The traced run's p50 of one half, for trace.overhead_pct only: a half
// too short for the ten-beyond rule falls back to the plain median.
double HalfP50(const PhaseResult& phase) {
  std::vector<double> latencies = PrimaryLatencies(phase);
  return pb::Percentile(latencies, 50).value_or(pb::Median(latencies));
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.
// ---------------------------------------------------------------------------

int RunUntraced(const Args& args, const pb::WorkloadSpec& spec) {
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ULL + 17);
  const uint64_t warm_shuffle = 1 + rng() % 1'000'000;
  const uint64_t shuffle_base = 2'000'000 + rng() % 1'000'000'000;
  const Reference ref = BuildReference(spec.program, spec.db, warm_shuffle);

  // The run is split over several fresh daemon instances, each set up,
  // timed for its share of --seconds, and stopped: set-up time gets
  // several samples, and run-to-run differences between daemon instances
  // average out instead of deciding a run's medians.
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  std::vector<double> latencies;
  std::vector<double> write_latencies;
  std::vector<double> write_lag;
  std::vector<std::string> client_notes;
  std::string rss_note = "peak rss by daemon (MiB):";
  Verdict verdict;
  BodyCache bodies;
  int64_t elapsed_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t writes = 0;
  uint64_t revalidated = 0;
  uint64_t evicted = 0;
  for (int i = 0; i < kSetupOnlyInstances; ++i) {
    const int64_t start = pb::NowNs();
    Env env = SetUp(args, spec, warm_shuffle);
    setup_s.push_back(static_cast<double>(pb::NowNs() - start) / 1e9);
  }
  for (int i = 0; i < kDaemonInstances; ++i) {
    const int64_t start = pb::NowNs();
    Env env = SetUp(args, spec, warm_shuffle);
    setup_s.push_back(static_cast<double>(pb::NowNs() - start) / 1e9);
    const int64_t share_ms = int64_t{args.seconds} * 1000 / kDaemonInstances;
    PhaseResult phase = RunPhase(
        spec, env, ref, share_ms,
        shuffle_base + uint64_t{10'000'000} * static_cast<uint64_t>(i),
        warm_shuffle, writes, rng, nullptr, nullptr);
    int64_t rss = 0;
    rss_note += " [";
    for (const pb::Daemon& daemon : env.daemons) {
      const int64_t bytes = Must(daemon.PeakRssBytes(), "daemon peak rss");
      rss += bytes;
      rss_note += " " + std::to_string(bytes >> 20);
    }
    rss_note += " ]";
    peak_rss_mb.push_back(static_cast<double>(rss) / (1024.0 * 1024.0));
    for (pb::Daemon& daemon : env.daemons) daemon.Stop();

    const Verdict v = Judge(spec, env, phase, warm_shuffle, &bodies);
    verdict.attempted += v.attempted;
    verdict.failed += v.failed;
    verdict.problems.insert(verdict.problems.end(), v.problems.begin(),
                            v.problems.end());
    const std::vector<double> lat = PrimaryLatencies(phase);
    latencies.insert(latencies.end(), lat.begin(), lat.end());
    write_latencies.insert(write_latencies.end(),
                           phase.writes.latencies_ms.begin(),
                           phase.writes.latencies_ms.end());
    write_lag.insert(write_lag.end(), phase.writes.lag_ms.begin(),
                     phase.writes.lag_ms.end());
    writes += phase.writes.attempted;
    revalidated += phase.writes.revalidated;
    evicted += phase.writes.evicted;
    elapsed_ns += phase.end_ns - phase.start_ns;
    cpu_ns += phase.daemon_cpu_ns;
    for (size_t c = 0; c < phase.clients.size(); ++c) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "instance %d client %zu: first request %.3f ms, %llu "
                    "requests",
                    i, c, phase.clients[c].first_ms,
                    static_cast<unsigned long long>(
                        phase.clients[c].attempted));
      client_notes.push_back(buf);
    }
  }

  Report report;
  const double elapsed_s = static_cast<double>(elapsed_ns) / 1e9;
  const uint64_t ops = verdict.attempted;
  auto p50 = pb::Percentile(latencies, 50);
  if (!p50) {
    verdict.problems.push_back("too few samples for latency_p50_ms: " +
                               std::to_string(latencies.size()));
  }
  report.Add("setup_s", pb::Median(setup_s), "s");
  report.Add("throughput_ops_s", static_cast<double>(ops) / elapsed_s,
             "1/s");
  report.Add("latency_p50_ms", p50 ? *p50 : pb::Median(latencies), "ms");
  report.Add("cpu_ms_per_op",
             Ms(cpu_ns) / static_cast<double>(std::max<uint64_t>(ops, 1)),
             "ms");
  report.Add("peak_rss_mb",
             *std::max_element(peak_rss_mb.begin(), peak_rss_mb.end()),
             "MiB");

  report.notes.push_back(Describe("latency_p50_ms", latencies, 50));
  report.notes.push_back(Describe("latency_p90_ms", latencies, 90));
  report.notes.push_back(Describe("latency_p99_ms", latencies, 99));
  if (spec.kind == pb::WorkloadKind::kServeRw) {
    report.notes.push_back(Describe("write_p50_ms", write_latencies, 50));
    report.notes.push_back(Describe("write_p90_ms", write_latencies, 90));
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "writes: %llu (revalidated %llu spaces, evicted %llu), "
                  "writer lag median %.3f ms",
                  static_cast<unsigned long long>(writes),
                  static_cast<unsigned long long>(revalidated),
                  static_cast<unsigned long long>(evicted),
                  pb::Median(write_lag));
    report.notes.push_back(buf);
  }
  report.notes.insert(report.notes.end(), client_notes.begin(),
                      client_notes.end());
  report.notes.push_back(rss_note);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%d timed daemon instances; setup_s is the median of %zu "
                "set-ups; timed %.3f s",
                kDaemonInstances, setup_s.size(), elapsed_s);
  report.notes.push_back(buf);
  PrintResult(report, verdict,
              std::string(pb::WorkloadName(spec.kind)) + " (untraced)");
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------------

template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const int64_t start = pb::NowNs();
    fn();
    samples.push_back(Ms(pb::NowNs() - start));
  }
  return pb::Median(samples);
}

// Concurrent direct /v1/shards exchanges, one thread per worker, each
// asking for the shard group a coordinator would send it. Returns every
// line, in shard order, and records one "fleet.exchange" span per worker
// under `parent`.
std::vector<std::string> WorkerExchanges(
    const std::vector<const pb::Daemon*>& workers, const pb::WorkloadSpec& spec,
    const gdlog::ChaseOptions& chase, size_t prefix_depth,
    pb::SpanRecorder* spans, int parent, uint64_t op, Verdict* verdict) {
  const size_t n = workers.size();
  std::vector<std::vector<size_t>> groups(n);
  for (size_t shard = 0; shard < kFleetShards; ++shard) {
    groups[shard % n].push_back(shard);
  }
  std::vector<std::vector<std::string>> lines(n);
  std::vector<std::string> errors(n);
  std::vector<std::pair<int64_t, int64_t>> times(n);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      auto client = HttpClient::Connect("127.0.0.1", workers[w]->port(),
                                        kRequestTimeoutMs);
      if (!client.ok()) {
        errors[w] = client.status().ToString();
        return;
      }
      times[w].first = pb::NowNs();
      auto response = client->RequestStreamingLines(
          "POST", "/v1/shards",
          ShardsBody(spec, chase, prefix_depth, groups[w]), kRequestTimeoutMs,
          {}, [&](std::string_view line) {
            lines[w].emplace_back(line);
            return gdlog::Status::OK();
          });
      times[w].second = pb::NowNs();
      if (!response.ok()) {
        errors[w] = response.status().ToString();
      } else if (response->status != 200) {
        errors[w] = "status " + std::to_string(response->status) + ": " +
                    response->body;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::string> by_shard(kFleetShards);
  for (size_t w = 0; w < n; ++w) {
    if (!errors[w].empty()) {
      verdict->failed += 1;
      verdict->problems.push_back("/v1/shards: " + errors[w]);
      continue;
    }
    if (spans != nullptr) {
      spans->Add("fleet.exchange", times[w].first, times[w].second, parent,
                 op);
    }
    for (size_t i = 0; i < lines[w].size() && i < groups[w].size(); ++i) {
      by_shard[groups[w][i]] = std::move(lines[w][i]);
    }
  }
  return by_shard;
}

// Everything the in-process replay of one workload shares.
struct Replay {
  const pb::WorkloadSpec& spec;
  const Reference& ref;
  const GDatalog& engine;
  const OutcomeSpace& space;  ///< the warm space, chased serially
  gdlog::ChaseOptions serial;
  uint64_t warm_shuffle = 0;
  std::vector<gdlog::GroundAtom> atoms;  ///< spec.marginal_atoms
  pb::SpanRecorder& spans;
  Report& report;
  Verdict& verdict;
};

// Op "query.replay": the cold query path split into layers — the serial
// chase with a timed grounder (models off, groundings kept), the solver on
// every leaf grounding, then the consistency mass and the export.
void ReplayQuery(Replay& r) {
  const uint64_t op = 1;
  uint64_t solve_calls = 0;
  uint64_t solve_models = 0;
  double solve_ms = 0;
  pb::TimedGrounder grounder(&r.engine.grounder(), &r.spans, op);
  int chase_span = -1;
  {
    pb::ScopedSpan root(&r.spans, "query.replay", op);
    gdlog::ChaseEngine chase = pb::DecoratedChase(r.engine, &grounder);
    gdlog::ChaseOptions leaves_only = r.serial;
    leaves_only.compute_models = false;
    leaves_only.keep_groundings = true;
    std::optional<OutcomeSpace> leaves;
    chase_span = r.spans.Begin("chase", op);
    leaves.emplace(Must(chase.Explore(leaves_only), "decorated chase"));
    r.spans.End(chase_span);
    {
      pb::ScopedSpan span(&r.spans, "solve", op);
      for (const gdlog::PossibleOutcome& outcome : leaves->outcomes) {
        const int64_t start = pb::NowNs();
        auto models = chase.SolveOutcome(outcome.choices, *outcome.grounding,
                                         r.serial.solver_max_nodes);
        solve_ms += Ms(pb::NowNs() - start);
        solve_calls += 1;
        if (!models.ok()) {
          r.verdict.problems.push_back("SolveOutcome: " +
                                       models.status().ToString());
          break;
        }
        solve_models += models->size();
      }
    }
    {
      // Kept groundings are a replay artifact (the chase frees them as it
      // goes); their release gets its own span so it is not unattributed.
      pb::ScopedSpan span(&r.spans, "replay.free_groundings", op);
      leaves.reset();
    }
    {
      pb::ScopedSpan span(&r.spans, "outcome.prob_consistent", op);
      (void)r.space.ProbConsistent();
    }
    {
      pb::ScopedSpan span(&r.spans, "export.render", op);
      (void)gdlog::OutcomeSpaceToJson(r.space, r.engine.translated(),
                                      r.engine.program().interner(),
                                      ServerDocumentOptions());
    }
  }
  uint64_t expected_models = 0;
  for (const gdlog::PossibleOutcome& outcome : r.space.outcomes) {
    expected_models += outcome.models.size();
  }
  if (solve_models != expected_models ||
      solve_calls != r.space.outcomes.size()) {
    r.verdict.problems.push_back(
        "leaf solving found " + std::to_string(solve_models) +
        " models, the chase " + std::to_string(expected_models));
  }
  const std::vector<pb::Span> spans = r.spans.spans();
  const double chase_self_ms = Ms(pb::SelfTimes(spans)[chase_span]);
  const double nodes =
      static_cast<double>(grounder.ground_calls() + grounder.extend_calls());
  const double ground_ms = Ms(static_cast<int64_t>(grounder.busy_ns()));
  Report& out = r.report;
  out.Add("ground.calls", static_cast<double>(grounder.ground_calls()),
          "count");
  out.Add("ground.extend_calls", static_cast<double>(grounder.extend_calls()),
          "count");
  out.Add("ground.ms", ground_ms, "ms");
  out.Add("ground.ms_per_node", nodes > 0 ? ground_ms / nodes : 0, "ms");
  out.Add("ground.bindings", static_cast<double>(grounder.bindings()),
          "count");
  out.Add("chase.nodes", nodes, "count");
  out.Add("chase.leaves", static_cast<double>(r.space.outcomes.size()),
          "count");
  out.Add("chase.self_ms", chase_self_ms, "ms");
  out.Add("solve.calls", static_cast<double>(solve_calls), "count");
  out.Add("solve.ms", solve_ms, "ms");
  out.Add("solve.ms_per_call",
          solve_calls > 0 ? solve_ms / static_cast<double>(solve_calls) : 0,
          "ms");
  out.Add("solve.models", static_cast<double>(solve_models), "count");

  // Parallel speed-up of the undecorated chase.
  gdlog::ChaseOptions four = r.serial;
  four.num_threads = kChaseThreads;
  const double serial_ms =
      MedianMs(2, [&] { Must(r.engine.Infer(r.serial), "serial chase"); });
  const double four_ms =
      MedianMs(2, [&] { Must(r.engine.Infer(four), "4-thread chase"); });
  out.Add("chase.speedup_4t", four_ms > 0 ? serial_ms / four_ms : 0, "x");
}

// Warm reads: the outcome and export layers on the cached space, and
// InferenceService::Handle in-process (gdlogd's defaults: one chase thread
// per request). Returns the warm full read's Handle time.
double ReplayWarmReads(Replay& r) {
  Report& out = r.report;
  out.Add("outcome.prob_consistent_ms",
          MedianMs(21, [&] { (void)r.space.ProbConsistent(); }), "ms");
  out.Add("outcome.marginal_ms", MedianMs(21, [&] {
            for (const gdlog::GroundAtom& atom : r.atoms) {
              (void)r.space.Marginal(atom);
            }
          }),
          "ms");
  out.Add("export.render_ms", MedianMs(21, [&] {
            (void)gdlog::OutcomeSpaceToJson(r.space, r.engine.translated(),
                                            r.engine.program().interner(),
                                            ServerDocumentOptions());
          }),
          "ms");
  out.Add("cache.space_bytes",
          static_cast<double>(gdlog::InferenceCache::ApproxBytes(r.space)),
          "bytes");

  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;
  gdlog::InferenceService service(options);
  gdlog::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/programs";
  request.body = RegisterBody(r.spec);
  const JsonValue reply =
      ParseJson(service.Handle(request).body, "in-process register");
  const JsonValue* id = reply.Find("id");
  if (id == nullptr || !id->is_string()) Fail("in-process register failed");
  gdlog::HttpRequest full;
  full.method = "POST";
  full.target = "/v1/query";
  full.body = QueryBody(id->string_value(), r.warm_shuffle, 0, nullptr);
  gdlog::HttpRequest marginal = full;
  marginal.body = QueryBody(id->string_value(), r.warm_shuffle, 0,
                            &r.spec.marginal_atoms);
  if (pb::FirstDifference(r.ref.full_body, service.Handle(full).body)) {
    r.verdict.problems.push_back("in-process Handle differs from reference");
  }
  service.Handle(marginal);
  const double handle_ms = MedianMs(101, [&] { service.Handle(full); });
  out.Add("service.handle_ms", handle_ms, "ms");
  out.Add("service.handle_marginal_ms",
          MedianMs(21, [&] { service.Handle(marginal); }), "ms");
  return handle_ms;
}

// Ops "write.replay": WithDatabaseDelta, then the revalidation patch of
// the cached space. serve_rw replays its own first write; the other
// workloads add a fact of a predicate no rule reads, the same kind of
// delta.
void ReplayDelta(Replay& r, uint64_t seed) {
  std::mt19937_64 write_rng(seed);
  const std::string delta = r.spec.kind == pb::WorkloadKind::kServeRw
                                ? pb::ServeRwWrite(0, write_rng).delta
                                : std::string("perfbench_probe(1).");
  std::vector<double> apply_ms;
  std::vector<double> revalidate_ms;
  for (uint64_t op = 10; op < 15; ++op) {
    pb::ScopedSpan root(&r.spans, "write.replay", op);
    std::optional<GDatalog> patched;
    int64_t start = pb::NowNs();
    {
      pb::ScopedSpan span(&r.spans, "delta.apply", op);
      patched.emplace(
          Must(GDatalog::WithDatabaseDelta(r.engine, delta), "delta"));
    }
    apply_ms.push_back(Ms(pb::NowNs() - start));
    start = pb::NowNs();
    {
      pb::ScopedSpan span(&r.spans, "delta.revalidate", op);
      (void)r.space.WithAddedFacts(patched->delta_added_facts());
    }
    revalidate_ms.push_back(Ms(pb::NowNs() - start));
  }
  r.report.Add("delta.apply_ms", pb::Median(apply_ms), "ms");
  r.report.Add("delta.revalidate_ms", pb::Median(revalidate_ms), "ms");
}

// A warm full read over the socket, minus the same read handled
// in-process.
void ProbeHttp(Replay& r, const pb::Daemon& target, double handle_ms) {
  const std::string id = Register(target.port(), r.spec);
  HttpClient client = Connect(target.port());
  const std::string body = QueryBody(id, r.warm_shuffle, 0, nullptr);
  Call(client, "POST", "/v1/query", body);  // warm
  size_t bytes = 0;
  const double socket_ms = MedianMs(101, [&] {
    bytes = Call(client, "POST", "/v1/query", body).body.size();
  });
  r.report.Add("http.overhead_ms", socket_ms - handle_ms, "ms");
  r.report.Add("http.response_bytes", static_cast<double>(bytes), "bytes");
}

// Ops "job.replay": plan, direct worker exchanges, parse, merge and render
// — a fleet job's steps, run one after another. Returns the workers'
// partial-cache hits and misses over the replay.
std::pair<double, double> ReplayJob(
    Replay& r, const std::vector<const pb::Daemon*>& workers) {
  const gdlog::ShardPlan plan =
      Must(r.engine.chase().PlanShards(r.serial, kFleetShards), "plan");
  r.report.Add("shard.plan_ms", MedianMs(5, [&] {
                 Must(r.engine.chase().PlanShards(r.serial, kFleetShards),
                      "plan");
               }),
               "ms");
  // Warm the partial caches (on fleet_warm the jobs already did).
  WorkerExchanges(workers, r.spec, r.serial, plan.prefix_depth, nullptr, -1, 0,
                  &r.verdict);
  std::vector<JsonValue> before;
  for (const pb::Daemon* worker : workers) {
    before.push_back(FetchStats(worker->port()));
  }
  std::vector<double> reply_ms;
  std::vector<double> parse_ms;
  std::vector<double> merge_ms;
  size_t partial_bytes = 0;
  for (uint64_t op = 20; op < 23; ++op) {
    pb::ScopedSpan root(&r.spans, "job.replay", op);
    {
      pb::ScopedSpan span(&r.spans, "shard.plan", op);
      Must(r.engine.chase().PlanShards(r.serial, kFleetShards), "plan");
    }
    int64_t start = pb::NowNs();
    const int parent = r.spans.Begin("fleet.worker_reply", op);
    std::vector<std::string> lines =
        WorkerExchanges(workers, r.spec, r.serial, plan.prefix_depth,
                        &r.spans, parent, op, &r.verdict);
    r.spans.End(parent);
    reply_ms.push_back(Ms(pb::NowNs() - start));

    partial_bytes = 0;
    std::vector<gdlog::PartialSpace> partials;
    start = pb::NowNs();
    {
      pb::ScopedSpan span(&r.spans, "shard.parse", op);
      for (const std::string& line : lines) {
        partial_bytes += line.size();
        gdlog::ShardPartialMeta meta;
        auto partial = gdlog::PartialSpaceFromJson(
            line, *r.engine.program().interner(), &meta);
        if (!partial.ok()) {
          r.verdict.problems.push_back("partial parse: " +
                                       partial.status().ToString());
          break;
        }
        partials.push_back(std::move(*partial));
      }
    }
    parse_ms.push_back(Ms(pb::NowNs() - start));

    std::optional<OutcomeSpace> merged;
    start = pb::NowNs();
    {
      pb::ScopedSpan span(&r.spans, "shard.merge", op);
      gdlog::StreamingMerger merger;
      for (gdlog::PartialSpace& partial : partials) {
        merger.Add(std::move(partial));
      }
      merged.emplace(merger.Finish(r.serial.max_outcomes));
    }
    merge_ms.push_back(Ms(pb::NowNs() - start));

    std::string body;
    {
      pb::ScopedSpan span(&r.spans, "export.render", op);
      body = gdlog::OutcomeSpaceToJson(*merged, r.engine.translated(),
                                       r.engine.program().interner(),
                                       ServerDocumentOptions()) +
             "\n";
    }
    if (pb::FirstDifference(r.ref.full_body, body)) {
      r.verdict.failed += 1;
      r.verdict.problems.push_back(
          "merged worker partials differ from reference: " +
          pb::DescribeDifference(r.ref.full_body, body));
    }
  }
  r.report.Add("shard.partial_bytes", static_cast<double>(partial_bytes),
               "bytes");
  r.report.Add("shard.parse_ms", pb::Median(parse_ms), "ms");
  r.report.Add("shard.merge_ms", pb::Median(merge_ms), "ms");
  r.report.Add("fleet.worker_reply_ms", pb::Median(reply_ms), "ms");

  double hits = 0;
  double misses = 0;
  for (size_t w = 0; w < workers.size(); ++w) {
    const JsonValue after = FetchStats(workers[w]->port());
    hits += Counter(after, "fleet", "partial_cache_hits") -
            Counter(before[w], "fleet", "partial_cache_hits");
    misses += Counter(after, "fleet", "partial_cache_misses") -
              Counter(before[w], "fleet", "partial_cache_misses");
  }
  return {hits, misses};
}

// Where each replayed op's time went: one line per op with the self time
// of each span name. Returns the share of replay time no span covers.
double BreakDownReplay(const std::vector<pb::Span>& spans, Report* report) {
  int64_t wall = 0;
  int64_t remainder = 0;
  for (const pb::OpBreakdown& op : pb::BreakDownOps(spans)) {
    if (op.op >= kFirstRequestOp) continue;  // socket requests are opaque
    wall += op.wall_ns;
    remainder += op.remainder_ns;
    std::string line = op.root + " op " + std::to_string(op.op) + ": wall " +
                       std::to_string(Ms(op.wall_ns)) + " ms =";
    for (const auto& [name, ns] : op.self_ns) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %s %.3f", name.c_str(), Ms(ns));
      line += buf;
    }
    report->notes.push_back(line + " (self ms; remainder is the root's)");
  }
  return wall > 0 ? 100.0 * static_cast<double>(remainder) /
                        static_cast<double>(wall)
                  : 0;
}

int RunTraced(const Args& args, const pb::WorkloadSpec& spec) {
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ULL + 17);
  const uint64_t warm_shuffle = 1 + rng() % 1'000'000;
  const uint64_t shuffle_base = 2'000'000 + rng() % 1'000'000'000;
  pb::SpanRecorder spans;
  std::atomic<uint64_t> op_ids{kFirstRequestOp};
  Report report;

  // Socket phases: the same traffic untraced, then traced, on one daemon
  // set; the second continues on the database state the first left.
  Env env = SetUp(args, spec, warm_shuffle);
  const Reference ref = BuildReference(spec.program, spec.db, warm_shuffle);
  const int64_t half = int64_t{args.seconds} * 1000 / 2;
  BodyCache bodies;
  PhaseResult plain = RunPhase(spec, env, ref, half, shuffle_base,
                               warm_shuffle, 0, rng, nullptr, nullptr);
  Verdict verdict = Judge(spec, env, plain, warm_shuffle, &bodies);
  pb::WorkloadSpec traced_spec = spec;
  for (const std::string& delta : plain.writes.deltas) {
    traced_spec.db += delta + "\n";
  }
  env.base_revision = RegisteredRevision(env.daemons[0].port(),
                                         env.program_id);
  PhaseResult traced = RunPhase(traced_spec, env, ref, half,
                                shuffle_base + 500'000, warm_shuffle,
                                plain.writes.deltas.size(), rng, &spans,
                                &op_ids);
  const Verdict traced_verdict =
      Judge(traced_spec, env, traced, warm_shuffle, &bodies);
  verdict.attempted += traced_verdict.attempted;
  verdict.failed += traced_verdict.failed;
  verdict.problems.insert(verdict.problems.end(),
                          traced_verdict.problems.begin(),
                          traced_verdict.problems.end());

  const double hits = StatsDelta(traced, 0, "cache", "hits");
  const double misses = StatsDelta(traced, 0, "cache", "misses");
  const double coalesced = StatsDelta(traced, 0, "cache", "coalesced");
  const double lookups = hits + misses + coalesced;
  report.Add("cache.hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  report.Add("cache.misses", misses, "count");
  report.Add("cache.coalesced", coalesced, "count");
  report.Add("cache.evictions", StatsDelta(traced, 0, "cache", "evictions"),
             "count");
  report.Add("cache.revalidated",
             StatsDelta(traced, 0, "cache", "revalidated"), "count");
  const double writes = static_cast<double>(traced.writes.deltas.size());
  report.Add("delta.revalidated_per_write",
             writes > 0 ? static_cast<double>(traced.writes.revalidated) /
                              writes
                        : 0,
             "count");
  report.Add("delta.evicted_per_write",
             writes > 0 ? static_cast<double>(traced.writes.evicted) / writes
                        : 0,
             "count");
  report.Add("fleet.dispatches", StatsDelta(traced, 0, "fleet", "dispatches"),
             "count");
  report.Add("fleet.retries", StatsDelta(traced, 0, "fleet", "retries"),
             "count");
  report.Add("fleet.steals", StatsDelta(traced, 0, "fleet", "steals"),
             "count");

  // In-process replay on the workload's program. registry: GDatalog::Create
  // (parse, translate, optimize, build the grounder).
  std::vector<double> create_ms;
  std::vector<double> pipeline_ms;
  std::optional<GDatalog> engine;
  for (int i = 0; i < 3; ++i) {
    const int64_t start = pb::NowNs();
    engine.emplace(Must(GDatalog::Create(spec.program, spec.db), "create"));
    create_ms.push_back(Ms(pb::NowNs() - start));
    pipeline_ms.push_back(
        Ms(static_cast<int64_t>(engine->opt_stats().total_wall_ns)));
  }
  report.Add("registry.create_ms", pb::Median(create_ms), "ms");
  report.Add("opt.pipeline_ms", pb::Median(pipeline_ms), "ms");

  gdlog::ChaseOptions serial = ServerChase(warm_shuffle);
  serial.num_threads = 1;
  const OutcomeSpace space = Must(engine->Infer(serial), "replay chase");
  Replay replay{spec,         ref,     *engine, space,  serial,
                warm_shuffle, {},      spans,   report, verdict};
  for (const std::string& text : spec.marginal_atoms) {
    replay.atoms.push_back(
        Must(engine->LookupGroundAtom(text), "atom " + text));
  }
  const std::string full_body =
      gdlog::OutcomeSpaceToJson(space, engine->translated(),
                                engine->program().interner(),
                                ServerDocumentOptions()) +
      "\n";
  if (pb::FirstDifference(ref.full_body, full_body)) {
    verdict.problems.push_back(
        "in-process replay differs from reference: " +
        pb::DescribeDifference(ref.full_body, full_body));
  }
  ReplayQuery(replay);
  const double handle_ms = ReplayWarmReads(replay);
  ReplayDelta(replay, args.seed);

  // fleet_warm's coordinator caches nothing, so the http probe asks a
  // worker; the other workloads get two workers for the fleet replay.
  std::vector<pb::Daemon> probe_workers;
  std::vector<const pb::Daemon*> workers;
  if (spec.kind == pb::WorkloadKind::kFleetWarm) {
    for (size_t i = 1; i < env.daemons.size(); ++i) {
      workers.push_back(&env.daemons[i]);
    }
  } else {
    probe_workers = StartWorkers(args);
    for (const pb::Daemon& worker : probe_workers) workers.push_back(&worker);
  }
  ProbeHttp(replay,
            spec.kind == pb::WorkloadKind::kFleetWarm ? *workers[0]
                                                      : env.daemons[0],
            handle_ms);
  auto [partial_hits, partial_misses] = ReplayJob(replay, workers);
  if (spec.kind == pb::WorkloadKind::kFleetWarm) {
    // The traffic's own ratio: the coordinator's jobs over the workers.
    partial_hits = partial_misses = 0;
    for (size_t w = 1; w < env.daemons.size(); ++w) {
      partial_hits += StatsDelta(traced, w, "fleet", "partial_cache_hits");
      partial_misses += StatsDelta(traced, w, "fleet", "partial_cache_misses");
    }
  }
  report.Add("fleet.partial_cache_hit_ratio",
             partial_hits + partial_misses > 0
                 ? partial_hits / (partial_hits + partial_misses)
                 : 0,
             "ratio");
  for (pb::Daemon& worker : probe_workers) worker.Stop();
  for (pb::Daemon& daemon : env.daemons) daemon.Stop();

  // Run health.
  std::vector<double> lag = traced.writes.lag_ms;
  if (spec.kind != pb::WorkloadKind::kServeRw) {
    for (const ClientResult& client : traced.clients) {
      lag.insert(lag.end(), client.send_gap_ms.begin(),
                 client.send_gap_ms.end());
    }
  }
  report.Add("driver.write_lag_ms", pb::Median(lag), "ms");
  double first_ms = 0;
  for (const ClientResult& client : traced.clients) {
    first_ms = std::max(first_ms, client.first_ms);
  }
  report.Add("driver.first_request_ms", first_ms, "ms");
  const double plain_p50 = HalfP50(plain);
  const double traced_p50 = HalfP50(traced);
  report.Add("trace.overhead_pct",
             plain_p50 > 0 ? 100.0 * (traced_p50 / plain_p50 - 1.0) : 0, "%");
  const std::vector<pb::Span> all_spans = spans.spans();
  report.Add("trace.unattributed_pct", BreakDownReplay(all_spans, &report),
             "%");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "socket latency_p50_ms untraced %.3f, traced %.3f; %zu spans",
                plain_p50, traced_p50, all_spans.size());
  report.notes.push_back(buf);
  const std::string trace_path = args.work_dir + "/spans-" +
                                 pb::WorkloadName(spec.kind) + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  std::ofstream(trace_path) << pb::SpansToJsonLines(all_spans);
  report.notes.push_back("spans written to " + trace_path);

  std::sort(report.metrics.begin(), report.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  PrintResult(report, verdict,
              std::string(pb::WorkloadName(spec.kind)) + " (traced)");
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--gdlogd") {
      args.gdlogd = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--workload") {
      auto kind = pb::ParseWorkload(value);
      if (!kind) Fail("unknown workload: " + value);
      args.workload = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Fail("unknown flag: " + flag);
    }
  }
  if (args.gdlogd.empty() || !have_workload || args.seconds < 1) {
    Fail("usage: perfbench_driver --gdlogd PATH --work-dir DIR "
         "--workload NAME --seed N --seconds S --trace 0|1");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  for (const char* role : {"daemon", "coordinator", "worker0", "worker1"}) {
    std::remove((args.work_dir + "/gdlogd-" + role + ".log").c_str());
  }
  const pb::WorkloadSpec spec = pb::MakeWorkload(args.workload, args.seed);
  return args.trace ? RunTraced(args, spec) : RunUntraced(args, spec);
}
