// Continuous-profiling tests (profiling PR tentpole suite):
//
//  - category taxonomy and schedule-time tagging semantics
//    (ScopedProfCategory shadows, ScopedProfDefault yields),
//  - exact per-category event counts and inherited attribution at the
//    slab engine's invoke site,
//  - Profiler snapshot/reset behavior,
//  - flame-graph exporters (collapsed stacks + speedscope JSON) from
//    category profiles,
//  - PROFILE JSON document shape,
//  - and the determinism gate: profiling on/off at threads=1 and
//    threads=4 leaves scenario event digests and metrics fingerprints
//    bit-identical across a seed sweep (PROFILE_SEED / PROFILE_SEEDS
//    knobs, see tests/seed_sweep.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/simulator.h"
#include "util/json.h"

#include "seed_sweep.h"

namespace roads {
namespace {

// --- Taxonomy and tagging ---

TEST(ProfCategory, NamesAndSubsystemsAreStableAndDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kProfCategoryCount; ++i) {
    const auto category = static_cast<obs::ProfCategory>(i);
    const std::string name = obs::to_string(category);
    const std::string subsystem = obs::prof_subsystem(category);
    EXPECT_FALSE(name.empty());
    EXPECT_FALSE(subsystem.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
  }
  EXPECT_STREQ(obs::to_string(obs::ProfCategory::kSummaryPush),
               "summary-push");
  EXPECT_STREQ(obs::to_string(obs::ProfCategory::kQueryForward),
               "query-forward");
}

TEST(ProfTagging, ScopedCategoryShadowsAndDefaultYields) {
  EXPECT_EQ(obs::prof_current_category(), 0);
  {
    obs::ScopedProfCategory outer(obs::ProfCategory::kHeartbeat);
    EXPECT_EQ(obs::prof_current_category(),
              static_cast<std::uint8_t>(obs::ProfCategory::kHeartbeat));
    {
      // Nested explicit tags shadow; innermost wins.
      obs::ScopedProfCategory inner(obs::ProfCategory::kJoin);
      EXPECT_EQ(obs::prof_current_category(),
                static_cast<std::uint8_t>(obs::ProfCategory::kJoin));
      // A default never clobbers an active tag.
      obs::ScopedProfDefault weak(obs::ProfCategory::kTelemetry);
      EXPECT_EQ(obs::prof_current_category(),
                static_cast<std::uint8_t>(obs::ProfCategory::kJoin));
    }
    EXPECT_EQ(obs::prof_current_category(),
              static_cast<std::uint8_t>(obs::ProfCategory::kHeartbeat));
  }
  EXPECT_EQ(obs::prof_current_category(), 0);
  {
    // With no tag active, the default applies (the network's
    // per-channel fallback path).
    obs::ScopedProfDefault fallback(obs::ProfCategory::kQueryForward);
    EXPECT_EQ(obs::prof_current_category(),
              static_cast<std::uint8_t>(obs::ProfCategory::kQueryForward));
  }
  EXPECT_EQ(obs::prof_current_category(), 0);
}

// --- Invoke-site attribution ---

obs::ProfileEntry find_entry(const obs::Profile& profile,
                             const std::string& name) {
  for (const auto& entry : profile.categories) {
    if (entry.name == name) return entry;
  }
  return obs::ProfileEntry{};
}

TEST(ProfilerSim, ExactCountsAndInheritedAttribution) {
  sim::Simulator sim;
  obs::Profiler profiler;
  sim.set_profile_sink(&profiler.sink(0));

  // 10 tagged heartbeat events, each scheduling one untagged follow-up
  // that must inherit kHeartbeat from the executing handler, plus 5
  // join events and one untagged (kOther) schedule from outside any
  // handler.
  {
    obs::ScopedProfCategory tag(obs::ProfCategory::kHeartbeat);
    for (int i = 0; i < 10; ++i) {
      sim.schedule_at(10 + i, [&sim] {
        sim.schedule_after(5, [] {});  // untagged: inherits kHeartbeat
      });
    }
  }
  {
    obs::ScopedProfCategory tag(obs::ProfCategory::kJoin);
    for (int i = 0; i < 5; ++i) sim.schedule_at(100 + i, [] {});
  }
  sim.schedule_at(200, [] {});  // no tag, no handler: kOther
  EXPECT_EQ(sim.run(), 26u);

  const auto profile = profiler.profile();
  EXPECT_EQ(profile.total_events, 26u);
  EXPECT_EQ(find_entry(profile, "heartbeat").events, 20u);
  EXPECT_EQ(find_entry(profile, "join").events, 5u);
  EXPECT_EQ(find_entry(profile, "other").events, 1u);
  // The drive loop measured real work with the same clock.
  EXPECT_GT(profile.work_us, 0.0);
  EXPECT_GE(profile.total_self_us, 0.0);
  // Entries arrive sorted by descending self-time.
  for (std::size_t i = 1; i < profile.categories.size(); ++i) {
    EXPECT_GE(profile.categories[i - 1].self_us,
              profile.categories[i].self_us);
  }
}

TEST(Profiler, TakeProfileCutsASliceAndResetsTheLedger) {
  sim::Simulator sim;
  obs::Profiler profiler;
  sim.set_profile_sink(&profiler.sink(0));
  {
    obs::ScopedProfCategory tag(obs::ProfCategory::kMaintenance);
    for (int i = 0; i < 8; ++i) sim.schedule_at(1 + i, [] {});
  }
  sim.run();
  const auto first = profiler.take_profile();
  EXPECT_EQ(first.total_events, 8u);
  EXPECT_EQ(first.flush_count, 1u);
  // The slice reset every sink: a fresh snapshot is empty.
  const auto after = profiler.profile();
  EXPECT_EQ(after.total_events, 0u);
  EXPECT_DOUBLE_EQ(after.work_us, 0.0);
}

// --- Flame-graph exporters ---

obs::Profile synthetic_profile() {
  obs::Profile profile;
  profile.categories = {
      {"query-forward", "query", 120.0, 40, 0.6},
      {"summary-push", "summary", 60.0, 20, 0.3},
      {"heartbeat", "liveness", 20.0, 10, 0.1},
  };
  profile.total_self_us = 200.0;
  profile.total_events = 70;
  profile.work_us = 210.0;
  return profile;
}

TEST(ProfExport, CollapsedStacksFromCategoryProfile) {
  std::ostringstream os;
  obs::write_collapsed(synthetic_profile(), os);
  EXPECT_EQ(os.str(),
            "roads;query;query-forward 120\n"
            "roads;summary;summary-push 60\n"
            "roads;liveness;heartbeat 20\n");
}

TEST(ProfExport, SpeedscopeFromCategoryProfileIsValidJson) {
  std::ostringstream os;
  obs::write_speedscope(synthetic_profile(), os, "unit");
  const auto doc = util::parse_json(os.str());
  EXPECT_NE(doc.at("$schema").as_string().find("speedscope"),
            std::string::npos);
  const auto& frames = doc.at("shared").at("frames").as_array();
  // roads + 3 subsystems-or-categories worth of distinct frames.
  EXPECT_GE(frames.size(), 4u);
  const auto& profiles = doc.at("profiles").as_array();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].at("type").as_string(), "sampled");
  EXPECT_EQ(profiles[0].at("unit").as_string(), "microseconds");
  const auto& samples = profiles[0].at("samples").as_array();
  const auto& weights = profiles[0].at("weights").as_array();
  ASSERT_EQ(samples.size(), weights.size());
  double total = 0.0;
  for (const auto& w : weights) total += w.as_number();
  EXPECT_DOUBLE_EQ(total, 200.0);
}

TEST(ProfExport, ProfileJsonCarriesClockCategoriesAndShards) {
  auto profile = synthetic_profile();
  profile.shards.push_back({0, 500.0, 40.0, 10.0, 7});
  profile.windows = 7;
  std::ostringstream os;
  obs::write_profile_json(profile, os, "fig5", 42, 4);
  const auto doc = util::parse_json(os.str());
  EXPECT_EQ(doc.at("name").as_string(), "fig5");
  EXPECT_DOUBLE_EQ(doc.at("seed").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(doc.at("threads").as_number(), 4.0);
  EXPECT_GT(doc.at("clock").at("ticks_per_us").as_number(), 0.0);
  const auto& categories = doc.at("categories").as_array();
  ASSERT_EQ(categories.size(), 3u);
  EXPECT_EQ(categories[0].at("category").as_string(), "query-forward");
  EXPECT_EQ(categories[0].at("subsystem").as_string(), "query");
  const auto& shards = doc.at("shards").as_array();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_DOUBLE_EQ(shards[0].at("busy_us").as_number(), 500.0);
  EXPECT_NEAR(doc.at("coverage").as_number(), profile.coverage(), 1e-6);

  const auto line = obs::profile_top_line(profile, "fig5", 2);
  EXPECT_NE(line.find("PROFILE name=fig5"), std::string::npos);
  EXPECT_NE(line.find("query-forward=120us(60%)"), std::string::npos) << line;
  const auto table = obs::profile_top_table(profile, 2);
  EXPECT_NE(table.find("query-forward"), std::string::npos);
  EXPECT_NE(table.find("summary-push"), std::string::npos);
  EXPECT_EQ(table.find("heartbeat"), std::string::npos) << "k=2 kept 3 rows";
}

// --- Determinism gate ---

scenario::ScenarioSpec sweep_spec(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "profile_sweep";
  spec.nodes = 10;
  spec.records_per_node = 6;
  spec.attributes = 3;
  spec.seed = seed;
  spec.refresh_period_s = 8.0;
  spec.heartbeat_s = 4.0;
  spec.probe_window_s = 4.0;
  scenario::PhaseSpec churn;
  churn.name = "churn";
  churn.duration_s = 20.0;
  churn.churn = scenario::ChurnSpec{0.3, 1.0, 4.0, 8.0, true};
  churn.queries = scenario::QueryLoadSpec{8, 2, 0.25};
  scenario::PhaseSpec quiesce;
  quiesce.name = "quiesce";
  quiesce.duration_s = 15.0;
  quiesce.queries = scenario::QueryLoadSpec{6, 2, 0.25};
  spec.phases = {churn, quiesce};
  return spec;
}

// The tentpole's hard gate: attaching the profiler never schedules,
// draws randomness, or reorders anything, so event digests and metrics
// fingerprints are bit-identical with profiling on and off, at both
// thread counts, across an 8-seed sweep.
TEST(ProfilerDeterminism, DigestsAndFingerprintsMatchOnOffAcrossThreads) {
  const auto tmp = std::filesystem::temp_directory_path();
  for (const std::uint64_t seed : testing::sweep_seeds("PROFILE", 8, 7000)) {
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " — replay: PROFILE_SEED=" + std::to_string(seed) +
                 " ./tests/profile_test");
    const auto spec = sweep_spec(seed);
    scenario::ScenarioRunOptions plain;
    plain.check_invariants = false;
    const auto baseline = scenario::run_scenario(spec, plain);

    scenario::ScenarioRunOptions profiled = plain;
    const auto out =
        tmp / ("profile_test_" + std::to_string(seed) + ".json");
    profiled.profile_out = out.string();
    const auto with_profile = scenario::run_scenario(spec, profiled);
    EXPECT_EQ(with_profile.event_digest, baseline.event_digest)
        << "profiling perturbed the threads=1 event stream";
    EXPECT_EQ(with_profile.metrics_fingerprint(),
              baseline.metrics_fingerprint());
    // The profiled run actually produced per-phase slices.
    ASSERT_TRUE(std::filesystem::exists(out));
    const auto doc = util::parse_json_file(out.string());
    EXPECT_GE(doc.at("phases").as_array().size(), 3u);  // formation + 2
    std::filesystem::remove(out);
    for (const auto& phase : with_profile.phases) {
      EXPECT_FALSE(phase.profile_line.empty());
    }
    for (const auto& phase : baseline.phases) {
      EXPECT_TRUE(phase.profile_line.empty());
    }

    scenario::ScenarioRunOptions sharded = plain;
    sharded.threads = 4;
    const auto parallel = scenario::run_scenario(spec, sharded);
    EXPECT_EQ(parallel.event_digest, baseline.event_digest)
        << "threads=4 diverged from sequential (profiling off)";
    EXPECT_EQ(parallel.metrics_fingerprint(), baseline.metrics_fingerprint());

    scenario::ScenarioRunOptions sharded_profiled = sharded;
    const auto out4 =
        tmp / ("profile_test_t4_" + std::to_string(seed) + ".json");
    sharded_profiled.profile_out = out4.string();
    const auto parallel_profiled =
        scenario::run_scenario(spec, sharded_profiled);
    EXPECT_EQ(parallel_profiled.event_digest, baseline.event_digest)
        << "profiling perturbed the threads=4 event stream";
    EXPECT_EQ(parallel_profiled.metrics_fingerprint(),
              baseline.metrics_fingerprint());
    // Sharded profiled runs report shard utilization in some slice.
    ASSERT_TRUE(std::filesystem::exists(out4));
    const auto doc4 = util::parse_json_file(out4.string());
    bool saw_shards = false;
    for (const auto& phase : doc4.at("phases").as_array()) {
      if (!phase.at("profile").at("shards").as_array().empty()) {
        saw_shards = true;
      }
    }
    EXPECT_TRUE(saw_shards) << "no shard utilization in any phase slice";
    std::filesystem::remove(out4);
  }
}

}  // namespace
}  // namespace roads
