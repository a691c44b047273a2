// Tests for the util module: deterministic RNG, statistics, thread
// pool, flags and table formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

#include "util/flags.h"
#include "util/json.h"
#include "util/log.h"
#include "util/unique_function.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace roads::util {
namespace {

// --- Rng ---

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng childA = Rng(9).fork(1);
  Rng childA2 = Rng(9).fork(1);
  EXPECT_EQ(childA(), childA2());
  // Distinct salts should give distinct streams.
  Rng a = Rng(9).fork(1);
  Rng b = Rng(9).fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(4);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.uniform01());
  EXPECT_NEAR(stat.mean(), 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
  }
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.gaussian(2.0, 3.0));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

TEST(Rng, ParetoRespectsScaleMinimum) {
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(rng.pareto(0.5, 1.5), 0.5);
  }
}

TEST(Rng, ParetoHeavyTail) {
  // Pareto(xm=1, alpha=1.5): P(X > 4) = 4^-1.5 = 0.125.
  Rng rng(9);
  int above = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.pareto(1.0, 1.5) > 4.0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / n, 0.125, 0.02);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(Rng(1).bernoulli(0.0));
  EXPECT_TRUE(Rng(1).bernoulli(1.0));
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  const auto sample = rng.sample_without_replacement(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto i : unique) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementClampsToN) {
  Rng rng(12);
  EXPECT_EQ(rng.sample_without_replacement(5, 50).size(), 5u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// --- RunningStat ---

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesPooledStream) {
  Rng rng(14);
  RunningStat all;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(1.0, 2.0);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(1.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 1.0);
}

// --- Samples ---

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
}

TEST(Samples, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Samples, AddAllAndInterleavedQueries) {
  Samples s;
  s.add_all({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(0.0);  // must re-sort
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
}

TEST(Samples, ValuesKeepInsertionOrderAfterPercentile) {
  Samples s;
  s.add_all({3.0, 1.0, 2.0});
  // Regression: percentile() used to sort the backing vector in place,
  // so values() silently changed to ascending order after any quantile
  // query. The insertion-order view must survive percentile calls.
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
  EXPECT_EQ(s.values(), (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_EQ(s.sorted_values(), (std::vector<double>{1.0, 2.0, 3.0}));
  s.add(0.5);
  EXPECT_EQ(s.values(), (std::vector<double>{3.0, 1.0, 2.0, 0.5}));
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.5);
  EXPECT_EQ(s.sorted_values(), (std::vector<double>{0.5, 1.0, 2.0, 3.0}));
}

// --- MetricSet ---

TEST(MetricSet, SetAddGet) {
  MetricSet m;
  m.set("x", 2.0);
  m.add("x", 3.0);
  EXPECT_DOUBLE_EQ(m.get("x"), 5.0);
  EXPECT_THROW(m.get("missing"), std::out_of_range);
}

TEST(MetricSet, AverageHandlesMissingMetrics) {
  MetricSet a;
  a.set("x", 2.0);
  a.set("y", 10.0);
  MetricSet b;
  b.set("x", 4.0);
  const auto avg = MetricSet::average({a, b});
  EXPECT_DOUBLE_EQ(avg.get("x"), 3.0);
  EXPECT_DOUBLE_EQ(avg.get("y"), 10.0);
}

// --- Regression helpers ---

TEST(Stats, LinearSlopeExact) {
  EXPECT_NEAR(linear_slope({1, 2, 3, 4}, {3, 5, 7, 9}), 2.0, 1e-12);
}

TEST(Stats, LinearSlopeDegenerate) {
  EXPECT_EQ(linear_slope({1}, {2}), 0.0);
  EXPECT_EQ(linear_slope({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Stats, Correlation) {
  EXPECT_NEAR(correlation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(correlation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(correlation({1, 1, 1}, {1, 2, 3}), 0.0);
}

// --- ThreadPool ---

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&sum] { sum += 1; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 500);
}

// --- Flags ---

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--nodes=320", "--alpha", "0.5", "--flag"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("nodes", 0), 320);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(flags.get_bool("flag", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("nodes", 64), 64);
  EXPECT_EQ(flags.get_string("name", "x"), "x");
  EXPECT_FALSE(flags.has("nodes"));
}

TEST(Flags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Flags(2, argv), std::invalid_argument);
}

TEST(Flags, ReportsUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  Flags flags(3, argv);
  (void)flags.get_int("used", 0);
  EXPECT_EQ(flags.unused_flags(), "typo");
}

// --- Table ---

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::sci(12345.0, 2), "1.23e+04");
}

TEST(Table, ExposesHeadersAndRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.headers(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.rows()[1], (std::vector<std::string>{"3", "4"}));
}

// --- Logging ---

TEST(Log, ClockPrefixIsOptional) {
  EXPECT_EQ(format_log_line(LogLevel::kWarn, "msg"), "[WARN ] msg");
  set_log_clock([] { return std::int64_t{1'500'000}; });
  EXPECT_EQ(format_log_line(LogLevel::kInfo, "tick"),
            "[INFO  t=1.500s] tick");
  set_log_clock(nullptr);
  EXPECT_EQ(format_log_line(LogLevel::kWarn, "msg"), "[WARN ] msg");
}

// --- UniqueFunction ---

// Counts constructions/destructions so the tests can prove the wrapper
// never duplicates or leaks its target across moves and spills.
struct LifeCounter {
  static int alive;
  static int moves;
  LifeCounter() { ++alive; }
  LifeCounter(const LifeCounter&) { ++alive; }
  LifeCounter(LifeCounter&&) noexcept {
    ++alive;
    ++moves;
  }
  ~LifeCounter() { --alive; }
};
int LifeCounter::alive = 0;
int LifeCounter::moves = 0;

TEST(UniqueFunction, SmallTargetStaysInline) {
  int hits = 0;
  UniqueFunction<void()> fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(UniqueFunction, OversizedTargetSpillsToPool) {
  spill::reset_stats();
  struct Big {
    char payload[UniqueFunction<void()>::kInlineBytes + 1] = {};
  };
  {
    Big big;
    big.payload[7] = 3;
    char seen = 0;
    UniqueFunction<void()> fn([big, &seen] { seen = big.payload[7]; });
    EXPECT_FALSE(fn.is_inline());
    EXPECT_EQ(spill::stats().live, 1);
    fn();
    EXPECT_EQ(seen, 3);
  }
  EXPECT_EQ(spill::stats().live, 0);
}

TEST(UniqueFunction, SpillPoolRecyclesBlocks) {
  spill::reset_stats();
  struct Big {
    char payload[200] = {};
  };
  for (int i = 0; i < 10; ++i) {
    UniqueFunction<void()> fn([big = Big{}] { (void)big; });
    EXPECT_FALSE(fn.is_inline());
    fn();
  }
  const auto stats = spill::stats();
  EXPECT_EQ(stats.live, 0);
  // First iteration allocates; the other nine reuse the same block.
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.pool_hits, 9u);
}

TEST(UniqueFunction, MoveTransfersInlineTarget) {
  LifeCounter::alive = 0;
  LifeCounter::moves = 0;
  {
    UniqueFunction<void()> a([c = LifeCounter{}] { (void)c; });
    EXPECT_TRUE(a.is_inline());
    const int moves_before = LifeCounter::moves;
    UniqueFunction<void()> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    // The inline target is move-constructed into b, never copied.
    EXPECT_EQ(LifeCounter::moves, moves_before + 1);
    EXPECT_EQ(LifeCounter::alive, 1);
    b();
  }
  EXPECT_EQ(LifeCounter::alive, 0);
}

TEST(UniqueFunction, MoveStealsSpilledBlockWithoutTouchingTarget) {
  LifeCounter::alive = 0;
  LifeCounter::moves = 0;
  struct Payload {
    LifeCounter counter;
    char pad[UniqueFunction<void()>::kInlineBytes] = {};
  };
  {
    UniqueFunction<void()> a([p = Payload{}] { (void)p; });
    EXPECT_FALSE(a.is_inline());
    const int moves_before = LifeCounter::moves;
    UniqueFunction<void()> b(std::move(a));
    // Spilled moves are a pointer steal: the payload is not touched.
    EXPECT_EQ(LifeCounter::moves, moves_before);
    EXPECT_EQ(LifeCounter::alive, 1);
    b();
  }
  EXPECT_EQ(LifeCounter::alive, 0);
}

TEST(UniqueFunction, MoveAssignDestroysPreviousTarget) {
  LifeCounter::alive = 0;
  UniqueFunction<void()> fn([c = LifeCounter{}] { (void)c; });
  EXPECT_EQ(LifeCounter::alive, 1);
  fn = [] {};  // implicit conversion + move-assign
  EXPECT_EQ(LifeCounter::alive, 0);
  fn();
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(UniqueFunction, HoldsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(17);
  UniqueFunction<int()> fn([p = std::move(owned)] { return *p; });
  UniqueFunction<int()> moved(std::move(fn));
  EXPECT_EQ(moved(), 17);
}

// --- Json parse errors (regression: line/column, not just offset) ---

std::string parse_failure_message(const std::string& text) {
  try {
    parse_json(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Json, ParseErrorsReportLineAndColumn) {
  // The bad token sits on line 3: "q" starts an invalid literal at
  // column 12 (1-based), byte offset 29 into the document.
  const std::string doc = "{\n  \"a\": 1,\n  \"fail\":  quux\n}\n";
  const auto msg = parse_failure_message(doc);
  ASSERT_FALSE(msg.empty()) << "malformed document parsed successfully";
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 12"), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset 23"), std::string::npos) << msg;
}

TEST(Json, ParseErrorsOnFirstLineCountFromColumnOne) {
  const auto msg = parse_failure_message("[1, 2,,]");
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 7"), std::string::npos) << msg;
}

TEST(Json, TrailingGarbageNamesItsPosition) {
  const auto msg = parse_failure_message("{}\n\nxyz");
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("trailing"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 1"), std::string::npos) << msg;
}

// Hostile nesting must fail with a position, not overflow the stack.
TEST(Json, DeepNestingIsBoundedAndNamesItsPosition) {
  const auto msg = parse_failure_message(std::string(200000, '['));
  ASSERT_FALSE(msg.empty());
  EXPECT_NE(msg.find("nesting deeper than 256"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 257"), std::string::npos) << msg;
  // The bound itself still parses, arrays and objects alike.
  EXPECT_NO_THROW(
      parse_json(std::string(256, '[') + std::string(256, ']')));
  std::string objects;
  for (int i = 0; i < 256; ++i) objects += "{\"k\": ";
  objects += "1" + std::string(256, '}');
  EXPECT_NO_THROW(parse_json(objects));
}

// A repeated key is an error naming the key, not a silent last-wins.
TEST(Json, DuplicateObjectKeysAreRejectedByName) {
  const auto msg = parse_failure_message(R"({"nodes": 4, "nodes": 9})");
  ASSERT_FALSE(msg.empty()) << "duplicate key parsed successfully";
  EXPECT_NE(msg.find("duplicate key \"nodes\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 14"), std::string::npos) << msg;
  EXPECT_FALSE(
      parse_failure_message(R"({"a": {"b": 1, "b": 2}})").empty());
  // The same key in sibling objects is fine.
  const auto doc = parse_json(R"({"a": {"k": 1}, "b": {"k": 2}})");
  EXPECT_EQ(doc.at("b").at("k").as_number(), 2.0);
}

TEST(UniqueFunction, PassesArgumentsAndReturnsValues) {
  UniqueFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
  UniqueFunction<void(std::unique_ptr<int>&&)> sink;
  int seen = 0;
  sink = [&seen](std::unique_ptr<int>&& p) { seen = *p; };
  sink(std::make_unique<int>(9));
  EXPECT_EQ(seen, 9);
}

}  // namespace
}  // namespace roads::util
