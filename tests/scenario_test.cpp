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
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/rng.h"

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

// Numbers a double holds but a spec field cannot: integers past 2^53
// (where the size_t cast would round or overflow) and infinities.
TEST(ScenarioSpec, OutOfRangeNumbersAreRejected) {
  const auto top = [](const std::string& extra) {
    return R"({"name": "x", )" + extra +
           R"(, "phases": [{"name": "p", "duration_s": 10}]})";
  };
  EXPECT_NE(parse_failure(top(R"("records_per_node": 1e30)"))
                .find("\"records_per_node\" must be at most 2^53"),
            std::string::npos);
  EXPECT_NE(parse_failure(top(R"("seed": 1e20)"))
                .find("\"seed\" must be at most 2^53"),
            std::string::npos);
  EXPECT_NE(parse_failure(top(R"("nodes": 2.5)"))
                .find("\"nodes\" must be a non-negative integer"),
            std::string::npos);
  EXPECT_NE(parse_failure(R"({"name": "x", "phases": [
                {"name": "p", "duration_s": 1e999}]})")
                .find("\"duration_s\" must be finite"),
            std::string::npos);
  EXPECT_NE(parse_failure(R"({"name": "x", "phases": [
                {"name": "p", "churn": {"start_s": -1e999}}]})")
                .find("\"start_s\" must be finite"),
            std::string::npos);
  // 2^53 itself is the largest integer accepted, and it round-trips.
  const auto spec =
      ScenarioSpec::from_json_text(top(R"("seed": 9007199254740992)"));
  EXPECT_EQ(spec.seed, 9007199254740992ull);
  EXPECT_EQ(ScenarioSpec::from_json_text(spec.to_json()).seed, spec.seed);
}

// Seed-corpus harness over the only external-input parsers (util::json
// and the spec reader): seeded mutations of every shipped scenario —
// byte flips, deletions, duplicated spans, inserts from a JSON
// alphabet — plus known-hostile inputs. Every input must either parse
// and round-trip byte-identically or throw std::runtime_error; a crash
// or sanitizer report (the ASan/UBSan CI leg) fails the suite.
// SCENARIO_SEEDS widens the sweep; SCENARIO_SEED=<n> replays one block.
TEST(ScenarioSpec, MutatedSpecsRoundTripOrThrow) {
  std::vector<std::string> corpus = {
      std::string(200000, '['),
      R"({"name": "x", "nodes": 4, "nodes": 9, "phases": [{"name": "p"}]})",
      R"({"name": "x", "records_per_node": 1e30, "phases": [{"name": "p"}]})",
      R"({"name": "x", "seed": 1e20, "phases": [{"name": "p"}]})",
      R"({"name": "x", "phases": [{"name": "p", "duration_s": 1e999}]})",
  };
  const std::size_t hostile = corpus.size();
  for (const auto& path : shipped_scenarios()) {
    std::ifstream in(path, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  static constexpr char kAlphabet[] = "{}[]:,\"0123456789.-+eE \ntrufalsn\\";
  const auto check_input = [](const std::string& input) {
    std::string first;
    try {
      first = ScenarioSpec::from_json_text(input).to_json();
    } catch (const std::runtime_error&) {
      return false;
    }
    EXPECT_EQ(first, ScenarioSpec::from_json_text(first).to_json())
        << "accepted input does not round-trip:\n" << input;
    return true;
  };
  for (std::size_t i = 0; i < hostile; ++i) {
    EXPECT_FALSE(check_input(corpus[i])) << "hostile input " << i;
  }
  std::size_t accepted = 0;
  std::size_t inputs = 0;
  for (const auto seed : testing::sweep_seeds("SCENARIO", 1, 0)) {
    util::Rng rng(seed);
    SCOPED_TRACE("replay: SCENARIO_SEED=" + std::to_string(seed));
    for (std::size_t base = hostile; base < corpus.size(); ++base) {
      for (int round = 0; round < 250; ++round) {
        std::string text = corpus[base];
        const int edits = 1 + static_cast<int>(rng() % 3);
        for (int e = 0; e < edits && !text.empty(); ++e) {
          const std::size_t pos = rng() % text.size();
          switch (rng() % 4) {
            case 0: text[pos] = static_cast<char>(rng() % 256); break;
            case 1: text.erase(pos, 1 + rng() % 8); break;
            case 2:
              text.insert(rng() % text.size(),
                          text.substr(pos, 1 + rng() % 40));
              break;
            default:
              text.insert(pos, 1, kAlphabet[rng() % (sizeof kAlphabet - 1)]);
          }
        }
        accepted += check_input(text);
        ++inputs;
      }
    }
  }
  // Both verdicts must occur, or the mutations are too weak (or too
  // destructive) to exercise the parser.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, inputs);
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
