// Scenario engine tests (tentpole suite): spec round-trip identity,
// strict parse errors naming key and position, invariant sweeps over
// every shipped scenario, and the golden determinism gate — every
// scenario replays with bit-identical event digests and metrics
// fingerprints at threads=1 vs threads=4.
//
// Sweep knobs (see tests/seed_sweep.h): SCENARIO_SEED pins the seed
// offset, SCENARIO_SEEDS widens the sweep (each offset is added to the
// scenario file's own seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"

#include "seed_sweep.h"

#ifndef ROADS_SCENARIO_DIR
#error "ROADS_SCENARIO_DIR must point at the shipped scenarios/ directory"
#endif

namespace roads::scenario {
namespace {

std::vector<std::string> shipped_scenarios() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(ROADS_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string parse_failure(const std::string& json_text) {
  try {
    ScenarioSpec::from_json_text(json_text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// --- Spec parsing ---

TEST(ScenarioSpec, ShipsAtLeastSixScenarios) {
  EXPECT_GE(shipped_scenarios().size(), 6u);
}

// Satellite: parse -> serialize -> parse identity for every shipped
// scenario. to_json() is canonical (fixed field order, every field
// explicit), so the second serialization must be byte-identical.
TEST(ScenarioSpec, RoundTripIsByteIdentical) {
  for (const auto& path : shipped_scenarios()) {
    SCOPED_TRACE(path);
    const auto spec = ScenarioSpec::from_file(path);
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.phases.empty());
    const auto first = spec.to_json();
    const auto reparsed = ScenarioSpec::from_json_text(first);
    EXPECT_EQ(first, reparsed.to_json());
    EXPECT_EQ(spec.name, reparsed.name);
    EXPECT_EQ(spec.phases.size(), reparsed.phases.size());
  }
}

TEST(ScenarioSpec, UnknownKeysNamePositionAndKey) {
  const auto msg = parse_failure(R"({
    "name": "typo", "nodes": 8,
    "phases": [
      {"name": "ok", "duration_s": 10},
      {"name": "bad", "duration_s": 10,
       "churn": {"crash_fractionn": 0.5}}
    ]
  })");
  EXPECT_NE(msg.find("phases[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bad'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("churn"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown key \"crash_fractionn\""), std::string::npos)
      << msg;
}

TEST(ScenarioSpec, TypeAndRangeErrorsNameTheKey) {
  EXPECT_NE(parse_failure(R"({"name": "x", "phases": [
                {"name": "p", "duration_s": "long"}]})")
                .find("\"duration_s\" must be a number"),
            std::string::npos);
  EXPECT_NE(parse_failure(R"({"name": "x", "phases": [
                {"name": "p", "duration_s": 10,
                 "message_faults": {"loss": 1.5}}]})")
                .find("\"loss\" must be in [0, 1]"),
            std::string::npos);
  EXPECT_NE(parse_failure(R"({"name": "x", "phases": [
                {"name": "p", "duration_s": 10,
                 "flash_crowd": {"attribute": 9}}]})")
                .find("outside the schema"),
            std::string::npos);
  EXPECT_NE(parse_failure(R"({"name": "x", "phases": []})")
                .find("\"phases\" must not be empty"),
            std::string::npos);
  EXPECT_NE(parse_failure(R"({"name": "x", "phases": [
                {"duration_s": 10}]})")
                .find("phases[0]: key \"name\" is required"),
            std::string::npos);
  // Malformed JSON itself reports line/column (util::json satellite).
  EXPECT_NE(parse_failure("{\n  \"name\":  oops\n}").find("line 2"),
            std::string::npos);
}

TEST(ScenarioSpec, DefaultsSurviveRoundTrip) {
  ScenarioSpec spec;
  spec.name = "defaults";
  PhaseSpec only;
  only.name = "only";
  spec.phases.push_back(only);
  const auto text = spec.to_json();
  const auto reparsed = ScenarioSpec::from_json_text(text);
  EXPECT_EQ(text, reparsed.to_json());
  EXPECT_EQ(reparsed.phases[0].duration_s, 30.0);
  EXPECT_FALSE(reparsed.phases[0].churn.has_value());
}

// --- Running shipped scenarios ---

// Every shipped scenario must pass its own invariant sweep at every
// phase boundary. The SCENARIO_SEEDS sweep adds offsets to each file's
// seed, so CI can widen coverage without editing the files.
TEST(ScenarioRun, ShippedScenariosPassInvariantSweeps) {
  for (const auto& path : shipped_scenarios()) {
    for (const auto offset : testing::sweep_seeds("SCENARIO", 1, 0)) {
      auto spec = ScenarioSpec::from_file(path);
      spec.seed += offset;
      SCOPED_TRACE(spec.name + " seed " + std::to_string(spec.seed) +
                   " — replay: SCENARIO_SEED=" + std::to_string(offset) +
                   " ./tests/scenario_test");
      const auto outcome = run_scenario(spec);
      EXPECT_TRUE(outcome.invariants_ok()) << outcome.summary();
      std::size_t checks = 0;
      for (const auto& phase : outcome.phases) {
        checks += phase.invariant_checks;
      }
      EXPECT_GT(checks, 0u) << "sweep ran no checks at all";
      // Greppable per-phase lines; CI folds RECOVERY into the summary.
      std::fputs(outcome.summary().c_str(), stdout);
    }
  }
}

// The staleness attack must actually land: stale summaries claim the
// old values, so the aimed queries produce false positives.
TEST(ScenarioRun, StalenessAttackProducesFalsePositives) {
  const auto spec = ScenarioSpec::from_file(
      std::string(ROADS_SCENARIO_DIR) + "/staleness_attack.json");
  const auto outcome = run_scenario(spec);
  double fp = 0.0;
  for (const auto& phase : outcome.phases) {
    if (phase.name == "attack") fp = phase.false_positives;
  }
  EXPECT_GT(fp, 0.0) << outcome.summary();
}

// The flash crowd must issue and complete its burst.
TEST(ScenarioRun, FlashCrowdCompletesItsBurst) {
  const auto spec = ScenarioSpec::from_file(
      std::string(ROADS_SCENARIO_DIR) + "/flash_crowd.json");
  const auto outcome = run_scenario(spec);
  const auto* crowd = &outcome.phases[1];
  ASSERT_EQ(crowd->name, "crowd");
  EXPECT_GE(crowd->queries_issued, 36u);
  EXPECT_EQ(crowd->queries_completed, crowd->queries_issued)
      << outcome.summary();
}

// --- Golden determinism gate ---

// Satellite: every shipped scenario replays with a bit-identical event
// digest and metrics fingerprint at threads=1 (twice, repeatability)
// and threads=4 (the sharded engine). This is the determinism contract
// the scenario layer rests on: manual telemetry ticks, scenario-
// private RNG, additive-only link extras.
TEST(ScenarioRun, GoldenDeterminismAcrossThreadCounts) {
  for (const auto& path : shipped_scenarios()) {
    const auto spec = ScenarioSpec::from_file(path);
    SCOPED_TRACE(spec.name);
    ScenarioRunOptions sequential;
    const auto first = run_scenario(spec, sequential);
    const auto again = run_scenario(spec, sequential);
    EXPECT_EQ(first.event_digest, again.event_digest)
        << "threads=1 replay diverged";
    EXPECT_EQ(first.metrics_fingerprint(), again.metrics_fingerprint());

    ScenarioRunOptions sharded;
    sharded.threads = 4;
    const auto parallel = run_scenario(spec, sharded);
    EXPECT_EQ(first.event_digest, parallel.event_digest)
        << "threads=4 event digest diverged from sequential";
    EXPECT_EQ(first.metrics_fingerprint(), parallel.metrics_fingerprint())
        << "threads=4 metrics diverged:\n"
        << first.summary() << "vs\n"
        << parallel.summary();
    ASSERT_EQ(first.phases.size(), parallel.phases.size());
    for (std::size_t i = 0; i < first.phases.size(); ++i) {
      EXPECT_DOUBLE_EQ(first.phases[i].latency_avg_ms,
                       parallel.phases[i].latency_avg_ms);
      EXPECT_DOUBLE_EQ(first.phases[i].staleness_peak_s,
                       parallel.phases[i].staleness_peak_s);
      EXPECT_EQ(first.phases[i].queries_completed,
                parallel.phases[i].queries_completed);
    }
  }
}

}  // namespace
}  // namespace roads::scenario
