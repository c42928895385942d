// Unit tests for the benchmark's own logic: percentile selection, span
// self-time arithmetic, the timed Grounder decorator and the byte
// comparator.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "compare.h"
#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "spans.h"
#include "stats.h"
#include "timed_grounder.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, ReportsOnlyWithTenSamplesBeyond) {
  // Nearest rank of p50 over 20 samples is 10; ten samples lie beyond it.
  EXPECT_EQ(Percentile(Iota(20), 50), 10.0);
  EXPECT_EQ(Percentile(Iota(19), 50), std::nullopt);
  EXPECT_EQ(Percentile(Iota(100), 90), 90.0);
  EXPECT_EQ(Percentile(Iota(99), 90), std::nullopt);
  EXPECT_EQ(Percentile(Iota(1000), 99), 990.0);
  EXPECT_EQ(Percentile(Iota(999), 99), std::nullopt);
}

TEST(PercentileTest, IgnoresInputOrderAndRejectsBadQuantiles) {
  std::vector<double> shuffled = Iota(40);
  std::mt19937_64 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  EXPECT_EQ(Percentile(shuffled, 50), 20.0);
  EXPECT_EQ(Percentile({}, 50), std::nullopt);
  EXPECT_EQ(Percentile(Iota(40), 0), std::nullopt);
  EXPECT_EQ(Percentile(Iota(40), 100), std::nullopt);
  EXPECT_EQ(Percentile(Iota(3), 50, 0), 2.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},   // overlaps a: the union is [10, 50)
      {"c", 90, 120, 0, 1},  // clipped to the parent: covers [90, 100)
      {"d", 12, 18, 1, 1},   // grandchild, inside a
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTimeTest, SerialOpSelfTimesAddUpToItsWallTime) {
  std::vector<Span> spans = {
      {"op", 0, 1000, -1, 7},       {"chase", 0, 600, 0, 7},
      {"ground", 10, 300, 1, 7},    {"ground", 300, 500, 1, 7},
      {"solve", 600, 900, 0, 7},    {"other_op", 0, 50, -1, 8},
  };
  const std::vector<OpBreakdown> ops = BreakDownOps(spans);
  ASSERT_EQ(ops.size(), 2u);
  const OpBreakdown& op = ops[0];
  EXPECT_EQ(op.op, 7u);
  EXPECT_EQ(op.wall_ns, 1000);
  EXPECT_EQ(op.remainder_ns, 100);
  EXPECT_EQ(op.self_ns.at("chase"), 110);
  EXPECT_EQ(op.self_ns.at("ground"), 490);
  EXPECT_EQ(op.self_ns.at("solve"), 300);
  int64_t sum = 0;
  for (const auto& [name, ns] : op.self_ns) sum += ns;
  EXPECT_EQ(sum, op.wall_ns);
}

TEST(SpanRecorderTest, NestsBeginEnd) {
  SpanRecorder recorder;
  {
    ScopedSpan root(&recorder, "root", 3);
    ScopedSpan child(&recorder, "child", 3);
  }
  { ScopedSpan next(&recorder, "next", 4); }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

std::string FullDocument(const gdlog::GDatalog& engine,
                         const gdlog::OutcomeSpace& space) {
  gdlog::JsonExportOptions options;
  options.include_outcomes = true;
  options.include_models = true;
  options.include_events = true;
  return gdlog::OutcomeSpaceToJson(space, engine.translated(),
                                   engine.program().interner(), options);
}

void ExpectDecoratedChaseMatches(const std::string& program,
                                 gdlog::GrounderKind kind, size_t threads) {
  std::mt19937_64 rng(3);
  gdlog::GDatalog::Options options;
  options.grounder = kind;
  auto engine = gdlog::GDatalog::Create(program, CliqueDb(3, rng),
                                        std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  gdlog::ChaseOptions chase_options;
  chase_options.num_threads = threads;
  auto expected = engine->Infer(chase_options);
  ASSERT_TRUE(expected.ok());

  SpanRecorder spans;
  TimedGrounder grounder(&engine->grounder(), threads == 1 ? &spans : nullptr,
                         1);
  gdlog::ChaseEngine chase = DecoratedChase(*engine, &grounder);
  auto actual = chase.Explore(chase_options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(FullDocument(*engine, *actual), FullDocument(*engine, *expected));
  EXPECT_EQ(grounder.name(), engine->grounder().name());
  EXPECT_GT(grounder.ground_calls(), 0u);
  EXPECT_GT(grounder.busy_ns(), 0u);
  if (engine->grounder().SupportsIncremental()) {
    EXPECT_GT(grounder.extend_calls(), 0u);
  } else {
    EXPECT_EQ(grounder.extend_calls(), 0u);
    EXPECT_GT(grounder.bindings(), 0u);
  }
  if (threads == 1) {
    EXPECT_EQ(spans.spans().size(),
              grounder.ground_calls() + grounder.extend_calls());
  }
}

TEST(TimedGrounderTest, PerfectGrounderSpaceIsByteIdentical) {
  ExpectDecoratedChaseMatches(kNetworkProgram, gdlog::GrounderKind::kPerfect,
                              1);
  ExpectDecoratedChaseMatches(kNetworkProgram, gdlog::GrounderKind::kPerfect,
                              4);
}

TEST(TimedGrounderTest, SimpleGrounderSpaceIsByteIdentical) {
  ExpectDecoratedChaseMatches(kNetworkProgram, gdlog::GrounderKind::kSimple,
                              1);
  ExpectDecoratedChaseMatches(kQuarantineProgram, gdlog::GrounderKind::kAuto,
                              1);
  ExpectDecoratedChaseMatches(kQuarantineProgram, gdlog::GrounderKind::kAuto,
                              4);
}

TEST(CompareTest, RejectsABodyThatDiffersByOneByte) {
  std::mt19937_64 rng(5);
  auto engine = gdlog::GDatalog::Create(kNetworkProgram, CliqueDb(3, rng));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  const std::string reference = FullDocument(*engine, *space);
  EXPECT_EQ(FirstDifference(reference, reference), std::nullopt);
  for (size_t at : {size_t{0}, reference.size() / 2, reference.size() - 1}) {
    std::string body = reference;
    body[at] = static_cast<char>(body[at] ^ 1);
    EXPECT_EQ(FirstDifference(reference, body), at);
  }
  EXPECT_EQ(FirstDifference(reference, reference + "\n"), reference.size());
  EXPECT_EQ(FirstDifference(reference, reference.substr(1)), 0u);
  EXPECT_NE(DescribeDifference("abc", "abd").find("byte 2"),
            std::string::npos);
}

TEST(WorkloadTest, SameSeedSameInputs) {
  for (WorkloadKind kind : kAllWorkloads) {
    const WorkloadSpec a = MakeWorkload(kind, 11);
    const WorkloadSpec b = MakeWorkload(kind, 11);
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.db, b.db);
    EXPECT_EQ(a.marginal_atoms, b.marginal_atoms);
    EXPECT_EQ(ParseWorkload(WorkloadName(kind)), kind);
  }
  EXPECT_NE(MakeWorkload(WorkloadKind::kServeRw, 1).db,
            MakeWorkload(WorkloadKind::kServeRw, 2).db);
  std::mt19937_64 rng(1);
  int evicting = 0;
  for (uint64_t k = 0; k < 16; ++k) evicting += ServeRwWrite(k, rng).touches_rule_body;
  EXPECT_EQ(evicting, 2);
}

}  // namespace
}  // namespace perfbench
