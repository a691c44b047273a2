// Resilience and dynamics: behaviour under message loss, repeated
// failures, and dynamic resources (soft-state eventual consistency).
// Every scenario's end state goes through testing::check_invariants so
// a repair that "looks" healed but left broken bookkeeping fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "roads/federation.h"
#include "sim/fault.h"
#include "testing/invariants.h"

namespace roads {
namespace {

using core::ExportMode;
using core::Federation;
using core::FederationParams;

/// Full invariant sweep (structure + soundness + TTL + accounting) at a
/// point where the federation should have converged to one tree.
void expect_invariants(Federation& fed, std::size_t probes = 8) {
  testing::InvariantOptions opts;
  opts.soundness_probes = probes;
  const auto report = testing::check_invariants(fed, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks_run, 0u);
}

FederationParams resilient_params() {
  FederationParams p;
  p.schema = record::Schema::uniform_numeric(2);
  p.seed = 71;
  p.config.max_children = 3;
  p.config.summary.histogram_buckets = 64;
  p.config.summary_refresh_period = sim::seconds(10);
  p.config.summary_ttl = sim::seconds(35);
  p.config.maintenance_enabled = true;
  p.config.heartbeat_period = sim::seconds(5);
  p.config.heartbeat_miss_limit = 3;
  return p;
}

void seed_identifiable(Federation& fed, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    auto owner = fed.add_owner(static_cast<sim::NodeId>(i),
                               ExportMode::kDetailedRecords);
    owner->store().insert(record::ResourceRecord(
        i, owner->id(),
        {record::AttributeValue((i + 0.5) / static_cast<double>(n)),
         record::AttributeValue(0.5)}));
    fed.server(static_cast<sim::NodeId>(i))
        .attach_owner(owner, ExportMode::kDetailedRecords);
  }
}

record::Query probe(std::size_t target, std::size_t n) {
  record::Query q;
  const double c = (target + 0.5) / static_cast<double>(n);
  q.add(record::Predicate::range(0, c - 0.01, c + 0.01));
  return q;
}

TEST(Resilience, QueriesCompleteUnderMessageLoss) {
  Federation fed(resilient_params());
  fed.add_servers(16);
  seed_identifiable(fed, 16);
  fed.start();
  fed.stabilize();

  // 2% of all messages vanish; client reply timeouts keep every query
  // terminating (possibly with partial results). A query exchanges
  // ~12 messages, so ~4 in 5 still succeed fully end to end.
  fed.network().set_loss_rate(0.02);
  std::size_t found = 0;
  for (std::size_t t = 0; t < 16; ++t) {
    const auto outcome =
        fed.run_query(probe(t, 16), static_cast<sim::NodeId>((t + 5) % 16));
    ASSERT_TRUE(outcome.complete) << "query " << t << " hung";
    EXPECT_LE(outcome.matching_records, 1u);
    found += outcome.matching_records;
  }
  EXPECT_GE(found, 10u);

  // Loss off, let any loss-induced churn repair, then demand full
  // invariants — soundness probes must run loss-free or they would
  // themselves be flaky.
  fed.network().set_loss_rate(0.0);
  fed.advance(sim::seconds(60));
  fed.stabilize(2);
  expect_invariants(fed);
}

TEST(Resilience, LossySummaryPropagationSelfHeals) {
  Federation fed(resilient_params());
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  // Stabilize under heavy loss — heartbeats get dropped, false failure
  // detections churn the tree, partitions may form — then restore
  // connectivity: rejoin, partition recovery and fresh soft state must
  // repair everything.
  fed.network().set_loss_rate(0.3);
  fed.stabilize();
  fed.network().set_loss_rate(0.0);
  fed.advance(sim::seconds(120));  // failure detection + re-merge retries
  fed.stabilize(3);
  const auto topo = fed.topology();
  EXPECT_EQ(topo.subtree(topo.root()).size(), 12u);  // one tree again
  expect_invariants(fed);
  for (std::size_t t = 0; t < 12; ++t) {
    const auto outcome = fed.run_query(probe(t, 12), 0);
    EXPECT_EQ(outcome.matching_records, 1u) << "target " << t;
  }
}

TEST(Resilience, SurvivesRepeatedSequentialFailures) {
  Federation fed(resilient_params());
  fed.add_servers(20);
  seed_identifiable(fed, 20);
  fed.start();
  fed.stabilize();

  // Kill three non-root servers one at a time, letting repair finish
  // in between; the tree stays whole and queries for surviving data
  // keep resolving exactly.
  std::vector<sim::NodeId> victims;
  {
    const auto topo = fed.topology();
    for (sim::NodeId i = 1; i < 20 && victims.size() < 3; ++i) {
      if (!topo.children(i).empty()) victims.push_back(i);
    }
  }
  ASSERT_EQ(victims.size(), 3u);
  for (const auto v : victims) {
    fed.server(v).fail();
    fed.advance(sim::seconds(90));
    fed.stabilize(2);
  }

  const auto topo = fed.topology();
  std::size_t live = 0;
  for (sim::NodeId i = 0; i < 20; ++i) {
    if (fed.server(i).alive()) ++live;
  }
  EXPECT_EQ(live, 17u);
  EXPECT_EQ(topo.subtree(topo.root()).size(), live);
  expect_invariants(fed);

  std::size_t start = 0;
  while (!fed.server(start).alive()) ++start;
  for (std::size_t t = 0; t < 20; ++t) {
    const bool dead = std::find(victims.begin(), victims.end(),
                                static_cast<sim::NodeId>(t)) != victims.end();
    const auto outcome =
        fed.run_query(probe(t, 20), static_cast<sim::NodeId>(start));
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.matching_records, dead ? 0u : 1u) << "target " << t;
  }
}

TEST(Resilience, DeadBranchDataAgesOutOfSummaries) {
  Federation fed(resilient_params());
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 12; ++i) {
    if (topo.is_leaf(i)) leaf = i;
  }
  // The leaf's record is discoverable, then the leaf dies.
  EXPECT_EQ(fed.run_query(probe(leaf, 12), 0).matching_records, 1u);
  fed.server(leaf).fail();
  fed.advance(sim::seconds(60));
  fed.stabilize(2);
  // Its parent dropped the branch summary, so queries no longer chase
  // the dead data (contacting only live servers), and find nothing.
  const auto after = fed.run_query(probe(leaf, 12), 0);
  EXPECT_TRUE(after.complete);
  EXPECT_EQ(after.matching_records, 0u);
  for (const auto n : after.contacted) {
    EXPECT_TRUE(fed.server(n).alive() || n == leaf);
  }
  expect_invariants(fed);
}

TEST(Resilience, DynamicRecordsEventuallyConsistent) {
  Federation fed(resilient_params());
  fed.add_servers(9);
  auto owner = fed.add_owner(5, ExportMode::kDetailedRecords);
  owner->store().insert(record::ResourceRecord(
      1, owner->id(),
      {record::AttributeValue(0.2), record::AttributeValue(0.5)}));
  fed.server(5).attach_owner(owner, ExportMode::kDetailedRecords);
  fed.start();
  fed.stabilize();

  record::Query old_q;
  old_q.add(record::Predicate::range(0, 0.15, 0.25));
  record::Query new_q;
  new_q.add(record::Predicate::range(0, 0.75, 0.85));
  EXPECT_EQ(fed.run_query(old_q, 0).matching_records, 1u);

  // The resource changes; within the soft-state model the new value is
  // discoverable after the re-export propagates.
  owner->store().update(record::ResourceRecord(
      1, owner->id(),
      {record::AttributeValue(0.8), record::AttributeValue(0.5)}));
  fed.server(5).reexport_owner(owner->id());
  fed.stabilize(3);
  EXPECT_EQ(fed.run_query(new_q, 0).matching_records, 1u);
  EXPECT_EQ(fed.run_query(old_q, 0).matching_records, 0u);
  expect_invariants(fed);
}

TEST(Resilience, GracefulLeaveOfInteriorReparentsSubtree) {
  Federation fed(resilient_params());
  fed.add_servers(20);
  seed_identifiable(fed, 20);
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId interior = 0;
  for (sim::NodeId i = 1; i < 20; ++i) {
    if (!topo.children(i).empty()) {
      interior = i;
      break;
    }
  }
  ASSERT_NE(interior, 0u);
  fed.server(interior).leave();
  fed.advance(sim::seconds(30));
  fed.stabilize(2);

  const auto after = fed.topology();
  EXPECT_EQ(after.subtree(after.root()).size(), 19u);
  // All of the departed server's data is gone; everyone else's remains.
  std::size_t found = 0;
  for (std::size_t t = 0; t < 20; ++t) {
    found += fed.run_query(probe(t, 20), after.root()).matching_records;
  }
  EXPECT_EQ(found, 19u);
  expect_invariants(fed);
}

// Regression for partitioned-then-healed root election (§III-A): cut
// the root off behind a scheduled partition window. Its children stop
// hearing heartbeats, declare it dead and elect the smallest id among
// themselves; two legitimate roots coexist while the window is open.
// After the heal, the elected root's recovery contact (the old root it
// "survived") lets the trees re-merge — exactly one root, full
// invariants.
TEST(Resilience, PartitionedRootElectionConvergesToSingleRoot) {
  Federation fed(resilient_params());
  fed.add_servers(12);
  seed_identifiable(fed, 12);
  fed.start();
  fed.stabilize();

  const auto root = fed.topology().root();
  sim::FaultPlan plan;
  sim::PartitionWindow window;
  window.group = {root};
  // Open long enough for miss_limit (3) x heartbeat_period (5s)
  // detection plus the election traffic; then heal.
  window.start = fed.simulator().now() + sim::seconds(1);
  window.heal_at = window.start + sim::seconds(40);
  plan.partitions.push_back(window);
  fed.apply_fault_plan(plan);

  // While the window is open both sides detect the split: the old root
  // expires its children, the children elect a new root.
  fed.advance(sim::seconds(30));
  std::size_t roots_during = 0;
  for (auto* s : fed.servers()) {
    if (s->alive() && s->is_root()) ++roots_during;
  }
  EXPECT_EQ(roots_during, 2u) << "expected the partition to split the tree";
  {
    testing::InvariantOptions opts;
    opts.expect_single_root = false;  // two roots are correct mid-window
    opts.summary_soundness = false;   // cross-partition probes cannot work
    const auto report = testing::check_invariants(fed, opts);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }

  // Heal passes at +41s; recovery retries run every heartbeat period.
  fed.advance(sim::seconds(90));
  fed.stabilize(3);
  std::size_t roots_after = 0;
  for (auto* s : fed.servers()) {
    if (s->alive() && s->is_root()) ++roots_after;
  }
  EXPECT_EQ(roots_after, 1u);
  const auto topo = fed.topology();
  EXPECT_EQ(topo.subtree(topo.root()).size(), 12u);
  expect_invariants(fed);
}

// Regression for crossed joins during root election (§III-A): crash
// the root and the election winner (its smallest-id child) together.
// Both survivors time out on the dead winner and fall back to each
// other; each may adopt the other before either accept arrives, which
// used to close a permanent two-cycle whose root paths grew by one hop
// every heartbeat. The lower id must stay the parent.
TEST(Resilience, ElectionFallsBackPastDeadWinner) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    auto params = resilient_params();
    params.seed = seed;
    Federation fed(params);
    fed.add_servers(4);
    seed_identifiable(fed, 4);
    fed.start();
    fed.stabilize();

    const auto topo = fed.topology();
    const auto& kids = topo.children(topo.root());
    ASSERT_FALSE(kids.empty());
    fed.server(topo.root()).fail();
    fed.server(*std::min_element(kids.begin(), kids.end())).fail();
    fed.advance(sim::seconds(120));
    fed.stabilize(2);

    std::size_t roots = 0;
    for (auto* s : fed.servers()) {
      if (s->alive() && s->is_root()) ++roots;
    }
    EXPECT_EQ(roots, 1u);
    if (roots != 1) continue;
    const auto after = fed.topology();
    EXPECT_EQ(after.subtree(after.root()).size(), 2u);
    expect_invariants(fed);
  }
}

}  // namespace
}  // namespace roads
