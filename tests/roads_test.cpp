// End-to-end tests of the ROADS core: federation construction via the
// join protocol, summary aggregation and replication, query resolution
// from arbitrary start servers, voluntary-sharing policies, and churn
// (failures, departures, root election).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "overlay/replica_set.h"
#include "record/query.h"
#include "roads/client.h"
#include "roads/federation.h"
#include "roads/query_cache.h"

namespace roads {
namespace {

using core::ExportMode;
using core::Federation;
using core::FederationParams;
using record::Predicate;
using record::Query;

FederationParams small_params(std::size_t attrs = 4,
                              std::size_t max_children = 3) {
  FederationParams p;
  p.schema = record::Schema::uniform_numeric(attrs);
  p.seed = 7;
  p.config.max_children = max_children;
  p.config.summary.histogram_buckets = 50;
  p.config.summary_refresh_period = sim::seconds(10);
  p.config.summary_ttl = sim::seconds(35);
  return p;
}

/// Builds a federation of n servers, each with one co-located detailed
/// owner holding `records_per_node` records whose attr0 identifies the
/// node: all its values equal (node + 0.5) / n.
Federation& build_identifiable(std::unique_ptr<Federation>& holder,
                               std::size_t n, std::size_t records_per_node,
                               FederationParams params = small_params()) {
  const std::size_t attrs = params.schema.size();
  holder = std::make_unique<Federation>(std::move(params));
  auto& fed = *holder;
  fed.add_servers(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    auto owner = fed.add_owner(node, ExportMode::kDetailedRecords);
    for (std::size_t j = 0; j < records_per_node; ++j) {
      std::vector<record::AttributeValue> values;
      const double center =
          (static_cast<double>(i) + 0.5) / static_cast<double>(n);
      values.emplace_back(center);  // attr0: node identity
      for (std::size_t a = 1; a < attrs; ++a) {
        values.emplace_back(0.5);  // constant elsewhere
      }
      owner->store().insert(record::ResourceRecord(
          static_cast<record::RecordId>(i * 1000 + j), owner->id(),
          std::move(values)));
    }
    fed.server(node).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();
  return fed;
}

Query query_attr0(double lo, double hi) {
  Query q;
  q.add(Predicate::range(0, lo, hi));
  return q;
}

// --- Join protocol / topology ---

TEST(FederationJoin, BuildsSingleTree) {
  Federation fed(small_params());
  fed.add_servers(13);
  const auto topo = fed.topology();
  EXPECT_EQ(topo.node_count(), 13u);
  EXPECT_EQ(topo.root(), 0u);
  EXPECT_EQ(topo.subtree(topo.root()).size(), 13u);
}

TEST(FederationJoin, RespectsMaxChildren) {
  Federation fed(small_params(4, 3));
  fed.add_servers(20);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 20; ++i) {
    EXPECT_LE(topo.children(i).size(), 3u) << "node " << i;
  }
}

TEST(FederationJoin, BalancedPolicyYieldsLogDepth) {
  Federation fed(small_params(4, 4));
  fed.add_servers(64);
  // A balanced 4-ary tree over 64 nodes has height 3; allow 1 slack.
  EXPECT_LE(fed.topology().height(), 4u);
}

TEST(FederationJoin, RootPathsAreConsistent) {
  Federation fed(small_params());
  fed.add_servers(10);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 10; ++i) {
    const auto& path = fed.server(i).root_path();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.self(), i);
    EXPECT_EQ(path.root(), topo.root());
    EXPECT_EQ(path.nodes(), topo.path_from_root(i));
  }
}

// --- Aggregation & replication ---

TEST(FederationSummaries, RootSeesAllRecords) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  const auto root = fed.topology().root();
  auto branch = fed.server(root).branch_summary();
  ASSERT_TRUE(branch);
  EXPECT_EQ(branch->record_count(), 9u * 5u);
}

TEST(FederationSummaries, ReplicaSetsMatchTheOverlaySpec) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 2);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 13; ++i) {
    for (const auto& spec : overlay::replica_set(topo, i)) {
      EXPECT_TRUE(fed.server(i).replicas().has(spec.origin, spec.kind))
          << "node " << i << " missing replica of " << spec.origin << " kind "
          << overlay::to_string(spec.kind);
    }
  }
}

TEST(FederationSummaries, BranchSummaryCountsSubtreeRecords) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  const auto topo = fed.topology();
  for (sim::NodeId i = 0; i < 9; ++i) {
    auto branch = fed.server(i).branch_summary();
    ASSERT_TRUE(branch);
    std::size_t expected = 0;
    for (const auto n : topo.subtree(i)) {
      expected += fed.server(n).local_store().size();
    }
    EXPECT_EQ(branch->record_count(), expected) << "node " << i;
  }
}

// --- Query resolution ---

TEST(FederationQuery, FindsAllMatchingRecordsFromRoot) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  const auto q = query_attr0(4.4 / 9.0, 4.6 / 9.0);  // node 4 only
  const auto outcome = fed.run_query(q, fed.topology().root());
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 5u);
}

TEST(FederationQuery, FindsAllMatchingRecordsFromEveryStartServer) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 3);
  const auto q = query_attr0(7.4 / 13.0, 7.6 / 13.0);
  for (sim::NodeId start = 0; start < 13; ++start) {
    const auto outcome = fed.run_query(q, start);
    EXPECT_TRUE(outcome.complete) << "start " << start;
    EXPECT_EQ(outcome.matching_records, 3u) << "start " << start;
  }
}

TEST(FederationQuery, WideQueryFindsEverything) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 4);
  const auto outcome = fed.run_query(query_attr0(0.0, 1.0), 3);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 9u * 4u);
}

TEST(FederationQuery, NonMatchingQueryContactsOnlyStartServer) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 3);
  // attr1 is constant 0.5 everywhere; query far away from it.
  Query q;
  q.add(Predicate::range(1, 0.9, 0.95));
  const auto outcome = fed.run_query(q, 5);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 0u);
  EXPECT_EQ(outcome.servers_contacted, 1u);
}

TEST(FederationQuery, MultiDimensionalConjunction) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 9, 5);
  Query q;
  q.add(Predicate::range(0, 2.4 / 9.0, 2.6 / 9.0));  // node 2 only
  q.add(Predicate::range(1, 0.4, 0.6));              // matches (0.5)
  q.add(Predicate::range(2, 0.4, 0.6));
  const auto outcome = fed.run_query(q, 7);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 5u);

  // A contradictory extra dimension kills all matches.
  q.add(Predicate::range(3, 0.0, 0.1));
  const auto none = fed.run_query(q, 7);
  EXPECT_TRUE(none.complete);
  EXPECT_EQ(none.matching_records, 0u);
}

TEST(FederationQuery, LatencyIsPositiveAndBounded) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 3);
  const auto outcome = fed.run_query(query_attr0(0.0, 1.0), 11);
  EXPECT_TRUE(outcome.complete);
  EXPECT_GT(outcome.latency_ms, 0.0);
  EXPECT_LT(outcome.latency_ms, 5000.0);
}

// --- Voluntary sharing ---

TEST(VoluntarySharing, SummaryOnlyOwnerAnswersThroughPolicy) {
  Federation fed(small_params());
  fed.add_servers(4);
  // Remote owner attaches to server 2 with a summary; its policy only
  // shows records to principal 42.
  auto owner = fed.add_owner(2, ExportMode::kSummaryOnly, /*colocated=*/false);
  for (int j = 0; j < 6; ++j) {
    owner->store().insert(record::ResourceRecord(
        static_cast<record::RecordId>(j), owner->id(),
        {record::AttributeValue(0.3), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)}));
  }
  owner->set_policy([](core::Principal p, const record::ResourceRecord&) {
    return p == 42;
  });
  fed.server(2).attach_owner(owner, ExportMode::kSummaryOnly);
  fed.start();
  fed.stabilize();

  const auto q = query_attr0(0.25, 0.35);
  const auto stranger = fed.run_query(q, 0, /*principal=*/7);
  EXPECT_TRUE(stranger.complete);
  EXPECT_EQ(stranger.matching_records, 0u);

  const auto partner = fed.run_query(q, 0, /*principal=*/42);
  EXPECT_TRUE(partner.complete);
  EXPECT_EQ(partner.matching_records, 6u);
}

TEST(VoluntarySharing, SummaryOnlyKeepsRecordsOffTheServer) {
  Federation fed(small_params());
  fed.add_servers(2);
  auto owner = fed.add_owner(1, ExportMode::kSummaryOnly, /*colocated=*/false);
  owner->store().insert(record::ResourceRecord(
      1, owner->id(),
      {record::AttributeValue(0.3), record::AttributeValue(0.5),
       record::AttributeValue(0.5), record::AttributeValue(0.5)}));
  fed.server(1).attach_owner(owner, ExportMode::kSummaryOnly);
  EXPECT_EQ(fed.server(1).local_store().size(), 0u);
}

// --- Churn ---

FederationParams churn_params() {
  auto p = small_params();
  p.config.maintenance_enabled = true;
  p.config.heartbeat_period = sim::seconds(5);
  p.config.heartbeat_miss_limit = 3;
  return p;
}

TEST(FederationChurn, LeafFailureIsDetectedAndCleaned) {
  Federation fed(churn_params());
  fed.add_servers(10);
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 10; ++i) {
    if (topo.is_leaf(i)) leaf = i;
  }
  const auto parent = topo.parent(leaf);
  fed.server(leaf).fail();
  fed.advance(sim::seconds(60));
  EXPECT_FALSE(fed.server(parent).children().has(leaf));
}

TEST(FederationChurn, InteriorFailureChildrenRejoin) {
  Federation fed(churn_params());
  fed.add_servers(13);
  fed.start();
  fed.stabilize();

  const auto topo = fed.topology();
  sim::NodeId victim = 0;
  for (sim::NodeId i = 1; i < 13; ++i) {
    if (!topo.children(i).empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  const auto orphans = topo.children(victim);
  ASSERT_FALSE(orphans.empty());
  fed.server(victim).fail();
  fed.advance(sim::seconds(120));

  for (const auto orphan : orphans) {
    ASSERT_TRUE(fed.server(orphan).parent().has_value()) << "orphan "
                                                         << orphan;
    EXPECT_TRUE(fed.server(*fed.server(orphan).parent()).alive());
  }
}

TEST(FederationChurn, GracefulLeaveNotifiesImmediately) {
  Federation fed(churn_params());
  fed.add_servers(8);
  fed.start();
  fed.stabilize();
  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 8; ++i) {
    if (topo.is_leaf(i)) leaf = i;
  }
  const auto parent = topo.parent(leaf);
  fed.server(leaf).leave();
  fed.advance(sim::seconds(2));
  EXPECT_FALSE(fed.server(parent).children().has(leaf));
}

TEST(FederationChurn, RootFailureTriggersElection) {
  Federation fed(churn_params());
  fed.add_servers(10);
  fed.start();
  fed.stabilize();

  const auto old_root = fed.topology().root();
  fed.server(old_root).fail();
  fed.advance(sim::seconds(180));

  std::vector<sim::NodeId> roots;
  for (sim::NodeId i = 0; i < 10; ++i) {
    if (fed.server(i).alive() && fed.server(i).is_root()) roots.push_back(i);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_NE(roots[0], old_root);
}

TEST(FederationChurn, QueriesStillResolveAfterFailure) {
  Federation fed(churn_params());
  fed.add_servers(10);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    auto owner = fed.add_owner(node, ExportMode::kDetailedRecords);
    owner->store().insert(record::ResourceRecord(
        i, owner->id(),
        {record::AttributeValue((i + 0.5) / 10.0), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)}));
    fed.server(node).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();

  // Kill a leaf that is not node 3 (whose record we query for).
  const auto topo = fed.topology();
  sim::NodeId victim = 0;
  for (sim::NodeId i = 0; i < 10; ++i) {
    if (topo.is_leaf(i) && i != 3) victim = i;
  }
  fed.server(victim).fail();
  fed.advance(sim::seconds(120));
  fed.stabilize();

  const auto q = query_attr0(3.4 / 10.0, 3.6 / 10.0);
  const sim::NodeId start = victim == 5 ? 6 : 5;
  const auto outcome = fed.run_query(q, start);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.matching_records, 1u);
}

// --- Serving path: result cache containers and admission control ---

TEST(QueryResultCacheBounds, EntryLimitEvictsLeastRecentlyUsed) {
  core::QueryResultCache cache(/*max_entries=*/3, /*max_bytes=*/1 << 20);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(cache.insert(k, std::make_shared<const core::QueryReply>()), 0u);
  }
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.insert(4, std::make_shared<const core::QueryReply>()), 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr) << "LRU victim survived";
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_NE(cache.find(4), nullptr);
}

TEST(QueryResultCacheBounds, ByteLimitEvictsButKeepsNewestEntry) {
  // Each empty QueryReply charges its 64-byte base; record_bytes adds
  // directly. A 150-byte budget holds two small entries at most.
  core::QueryResultCache cache(/*max_entries=*/64, /*max_bytes=*/150);
  const auto small = std::make_shared<const core::QueryReply>();
  EXPECT_EQ(cache.insert(1, small), 0u);
  EXPECT_EQ(cache.insert(2, small), 0u);
  EXPECT_EQ(cache.insert(3, small), 1u) << "byte bound did not evict";
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(1), nullptr);

  // An entry larger than the whole budget still caches (the just-
  // inserted entry is never evicted) after clearing everything else.
  core::QueryReply huge;
  huge.record_bytes = 1000;
  EXPECT_EQ(cache.insert(4, std::make_shared<const core::QueryReply>(huge)),
            2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(4), nullptr);
}

TEST(NegativeCacheTtl, EntriesExpireAndRefresh) {
  core::NegativeCache cache(/*max_entries=*/8, /*ttl=*/sim::seconds(5));
  cache.insert(42, sim::seconds(0));
  EXPECT_TRUE(cache.contains(42, sim::seconds(4)));
  // A refresh restarts the clock; without it the entry dies at t=5.
  cache.insert(42, sim::seconds(4));
  EXPECT_TRUE(cache.contains(42, sim::seconds(8)));
  EXPECT_FALSE(cache.contains(42, sim::seconds(10)));
  EXPECT_EQ(cache.size(), 0u) << "expired entry still resident";

  // Capacity bound evicts the oldest entry first.
  core::NegativeCache bounded(/*max_entries=*/2, sim::seconds(100));
  bounded.insert(1, sim::seconds(1));
  bounded.insert(2, sim::seconds(2));
  bounded.insert(3, sim::seconds(3));
  EXPECT_EQ(bounded.size(), 2u);
  EXPECT_FALSE(bounded.contains(1, sim::seconds(3)));
  EXPECT_TRUE(bounded.contains(2, sim::seconds(3)));
  EXPECT_TRUE(bounded.contains(3, sim::seconds(3)));
}

/// Three-node federation with per-node-identifiable records and the
/// admission controller armed; queries aimed at node 0's band never
/// descend (children are pruned), so queue/shed accounting is exact.
Federation& build_admission_fed(std::unique_ptr<Federation>& holder,
                                std::size_t concurrency, std::size_t queue,
                                std::size_t servers = 3,
                                sim::Time processing_delay = sim::ms(5)) {
  auto params = small_params();
  params.config.query_concurrency_limit = concurrency;
  params.config.query_queue_limit = queue;
  params.config.query_processing_delay = processing_delay;
  holder = std::make_unique<Federation>(std::move(params));
  auto& fed = *holder;
  fed.add_servers(servers);
  for (std::size_t i = 0; i < servers; ++i) {
    const auto node = static_cast<sim::NodeId>(i);
    auto owner = fed.add_owner(node, ExportMode::kDetailedRecords);
    const double attr0 = (static_cast<double>(i) + 0.5) /
                         static_cast<double>(servers);
    owner->store().insert(record::ResourceRecord(
        static_cast<record::RecordId>(i), owner->id(),
        {record::AttributeValue(attr0), record::AttributeValue(0.5),
         record::AttributeValue(0.5), record::AttributeValue(0.5)}));
    fed.server(node).attach_owner(owner, ExportMode::kDetailedRecords);
  }
  fed.start();
  fed.stabilize();
  return fed;
}

void drain(Federation& fed,
           const std::vector<std::shared_ptr<core::RoadsClient>>& clients) {
  const auto all_done = [&clients] {
    return std::all_of(clients.begin(), clients.end(),
                       [](const auto& c) { return c && c->done(); });
  };
  std::size_t guard = 0;
  while (!all_done()) {
    ASSERT_GT(fed.step(256), 0u) << "engine drained with clients open";
    ASSERT_LT(++guard, 100'000u);
  }
}

TEST(QueryAdmission, ShedsPastSlotAndQueueLimits) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_admission_fed(holder, /*concurrency=*/1, /*queue=*/1);
  const auto q = query_attr0(0.5 / 3.0 - 0.02, 0.5 / 3.0 + 0.02);
  // Four simultaneous arrivals at one server: one takes the slot, one
  // queues, two are shed with an explicit overload reply.
  std::vector<std::shared_ptr<core::RoadsClient>> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(fed.issue_query(q, 0));
  drain(fed, clients);

  std::size_t served = 0;
  std::size_t rejected = 0;
  for (const auto& c : clients) {
    EXPECT_TRUE(c->result().complete) << "overload reply must complete";
    if (c->result().rejected) {
      ++rejected;
      EXPECT_EQ(c->result().sheds, 1u);
    } else {
      ++served;
      EXPECT_EQ(c->result().matching_records, 1u);
    }
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(fed.metrics().counter("roads.query.cache.shed").value(), 2u);
}

TEST(QueryAdmission, QueuedQueriesDrainInArrivalOrder) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_admission_fed(holder, /*concurrency=*/1, /*queue=*/8);
  const auto q = query_attr0(0.5 / 3.0 - 0.02, 0.5 / 3.0 + 0.02);
  std::vector<std::shared_ptr<core::RoadsClient>> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(fed.issue_query(q, 0));
  drain(fed, clients);

  sim::Time previous = 0;
  for (const auto& c : clients) {
    ASSERT_TRUE(c->result().complete);
    EXPECT_FALSE(c->result().rejected);
    EXPECT_EQ(c->result().matching_records, 1u);
    // FIFO service: each later arrival waits behind every earlier one.
    EXPECT_GE(c->result().forwarding_latency(), previous);
    previous = c->result().forwarding_latency();
  }
  EXPECT_EQ(fed.metrics().counter("roads.query.cache.shed").value(), 0u);
}

// A queued query starts after its arrival's delivery scope has closed;
// its `proc` span must still join the query's own causal tree.
TEST(QueryAdmission, QueuedQueriesKeepTheirCausalTree) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_admission_fed(holder, /*concurrency=*/1, /*queue=*/8);
  ASSERT_NE(fed.trace(), nullptr);
  fed.trace()->clear();
  const auto q = query_attr0(0.5 / 3.0 - 0.02, 0.5 / 3.0 + 0.02);
  std::vector<std::shared_ptr<core::RoadsClient>> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(fed.issue_query(q, 0));
  drain(fed, clients);

  std::map<std::uint64_t, std::size_t> proc_spans_by_trace;
  for (const auto& ev : fed.trace()->events_of(obs::TraceKind::kSpanBegin)) {
    if (ev.label != "proc") continue;
    EXPECT_NE(ev.parent, 0u) << "proc span " << ev.span << " has no parent";
    ++proc_spans_by_trace[ev.trace];
  }
  for (const auto& c : clients) {
    ASSERT_NE(c->span(), 0u);
    EXPECT_GE(proc_spans_by_trace[c->span()], 1u)
        << "query " << c->span() << " lost its proc span";
  }
}

// A query admitted before a crash died with that process: the
// restarted server must not answer it, and its stale completion must
// not free the slot a post-restart query holds.
TEST(QueryAdmission, QueryAdmittedBeforeCrashIsNotServedAfterRestart) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_admission_fed(holder, /*concurrency=*/1, /*queue=*/8,
                                  /*servers=*/4, sim::seconds(2));
  // Matches no record and no summary: the start server alone serves it.
  const auto q = query_attr0(0.96, 0.99);
  const sim::NodeId server = 3;
  const auto a = fed.issue_query(q, server);
  fed.advance(sim::ms(500));
  fed.server(server).fail();
  fed.advance(sim::ms(300));
  fed.server(server).restart(0);
  fed.advance(sim::ms(200));
  const sim::Time issued = fed.simulator().now();
  const auto b = fed.issue_query(q, server);
  const auto c = fed.issue_query(q, server);

  std::map<const core::RoadsClient*, sim::Time> done_at;
  for (std::size_t guard = 0; done_at.size() < 3; ++guard) {
    ASSERT_GT(fed.step(1), 0u) << "engine drained with clients open";
    ASSERT_LT(guard, 1'000'000u);
    for (const auto* client : {a.get(), b.get(), c.get()}) {
      if (client->done()) done_at.emplace(client, fed.simulator().now());
    }
  }
  // One evaluation slot: C waits out B's full processing delay, then
  // its own.
  EXPECT_GE(done_at[c.get()] - issued, sim::seconds(4));
  // A is never answered; it ends by its reply timeout.
  EXPECT_GE(done_at[a.get()] - a->result().issued_at,
            core::RoadsClient::kReplyTimeout);
  EXPECT_EQ(a->result().matching_records, 0u);
}

// --- Pure evaluation: RoadsServer::evaluate ---

/// Every counter value in the registry, by name.
std::map<std::string, std::uint64_t> counter_values(const Federation& fed) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : fed.metrics().counters()) {
    out[name] = counter->value();
  }
  return out;
}

TEST(RoadsEvaluate, ReadsStateWithoutSideEffects) {
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 13, 1);
  const auto topo = fed.topology();
  sim::NodeId leaf = 0;
  for (sim::NodeId i = 0; i < 13; ++i) {
    if (topo.depth(i) == topo.height()) leaf = i;
  }
  ASSERT_GE(topo.depth(leaf), 2u) << "need ancestor siblings to scope";
  const auto path = topo.path_from_root(leaf);
  const auto wide = query_attr0(0.0, 1.0);  // matches every server

  const auto counters_before = counter_values(fed);
  const auto messages_before = fed.network().total_messages();
  const auto pending_before = fed.simulator().pending_events();

  // Start mode at a leaf: every target is an overlay shortcut. Scope s
  // admits the siblings of each of the leaf's first s path nodes
  // (branch descent) plus its first s ancestors (local-only probes).
  for (unsigned scope = 1; scope <= topo.depth(leaf); ++scope) {
    auto client =
        std::make_shared<core::RoadsClient>(fed.network(), fed, wide, leaf);
    client->set_scope(scope);
    const auto reply =
        fed.server(leaf).evaluate(*client, core::QueryMode::kStart);
    std::set<std::pair<sim::NodeId, core::QueryMode>> expected;
    for (unsigned k = 0; k < scope; ++k) {
      const auto below = path[path.size() - 1 - k];
      for (const auto sib : topo.siblings(below)) {
        expected.emplace(sib, core::QueryMode::kBranch);
      }
      expected.emplace(path[path.size() - 2 - k], core::QueryMode::kLocalOnly);
    }
    const std::set<std::pair<sim::NodeId, core::QueryMode>> got(
        reply.targets.begin(), reply.targets.end());
    EXPECT_EQ(got, expected) << "scope " << scope;
    EXPECT_EQ(reply.targets.size(), expected.size()) << "scope " << scope;
    EXPECT_EQ(reply.shortcut_hits, expected.size()) << "scope " << scope;
    EXPECT_EQ(reply.local_matches, 1u);
    EXPECT_FALSE(reply.false_positive);
    EXPECT_FALSE(reply.results_pending);
  }

  // Branch mode at the root descends into every child and takes no
  // shortcut; local-only mode stops at the root's own records.
  const auto root = topo.root();
  auto at_root =
      std::make_shared<core::RoadsClient>(fed.network(), fed, wide, root);
  const auto branch = fed.server(root).evaluate(*at_root, core::QueryMode::kBranch);
  EXPECT_EQ(branch.targets.size(), topo.children(root).size());
  for (const auto& [node, mode] : branch.targets) {
    EXPECT_EQ(topo.parent(node), root);
    EXPECT_EQ(mode, core::QueryMode::kBranch);
  }
  EXPECT_EQ(branch.shortcut_hits, 0u);
  const auto local =
      fed.server(root).evaluate(*at_root, core::QueryMode::kLocalOnly);
  EXPECT_TRUE(local.targets.empty()) << "local-only reply named a child";
  EXPECT_EQ(local.local_matches, 1u);
  EXPECT_FALSE(local.false_positive);

  // A forwarded query with no local match and nowhere to go is a false
  // positive; the same miss at the start server is not.
  const auto elsewhere = static_cast<double>((leaf + 1) % 13);
  const auto miss = query_attr0((elsewhere + 0.4) / 13.0,
                                (elsewhere + 0.6) / 13.0);
  auto missing =
      std::make_shared<core::RoadsClient>(fed.network(), fed, miss, leaf);
  const auto fp = fed.server(leaf).evaluate(*missing, core::QueryMode::kBranch);
  EXPECT_TRUE(fp.false_positive);
  EXPECT_EQ(fp.local_matches, 0u);
  EXPECT_TRUE(fp.targets.empty());
  EXPECT_FALSE(
      fed.server(leaf).evaluate(*missing, core::QueryMode::kStart).false_positive);

  // None of it moved a counter, sent a message or armed a timer.
  EXPECT_EQ(counter_values(fed), counters_before);
  EXPECT_EQ(fed.network().total_messages(), messages_before);
  EXPECT_EQ(fed.simulator().pending_events(), pending_before);
}

// Every false positive served — cold, cached or negative-cached — both
// bumps the counter and leaves a trace event pinned to its hop.
TEST(QueryCacheTrace, NegativeHitsTraceEveryFalsePositive) {
  auto params = small_params();
  params.config.query_cache_enabled = true;
  std::unique_ptr<Federation> holder;
  auto& fed = build_identifiable(holder, 10, 1, std::move(params));
  ASSERT_NE(fed.trace(), nullptr);
  const auto topo = fed.topology();
  sim::NodeId target = 0;
  for (sim::NodeId i = 0; i < 10; ++i) {
    if (topo.depth(i) == topo.height()) target = i;
  }
  ASSERT_NE(target, topo.root());
  // Node `target` holds one record at attr0 = (target + 0.5) / 10, in
  // the middle of a 0.02-wide histogram bucket. A range inside that
  // bucket but clear of the record passes every summary on the way
  // down and matches nothing at `target`.
  const double value = (target + 0.5) / 10.0;
  const auto q = query_attr0(value + 0.004, value + 0.008);

  auto& fps = fed.metrics().counter("roads.query.false_positives");
  auto& neg_hits = fed.metrics().counter("roads.query.cache.neg_hit");
  const auto fps_before = fps.value();
  fed.trace()->clear();
  for (int round = 0; round < 3; ++round) {
    const auto outcome = fed.run_query(q, topo.root());
    ASSERT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.matching_records, 0u);
  }
  EXPECT_GE(neg_hits.value(), 2u) << "repeats were not negative-cached";
  EXPECT_GE(fps.value() - fps_before, 3u);
  EXPECT_EQ(fed.trace()->events_of(obs::TraceKind::kQueryFalsePositive).size(),
            fps.value() - fps_before);
  EXPECT_EQ(fed.trace()->dropped(obs::TraceKind::kQueryFalsePositive), 0u);
}

}  // namespace
}  // namespace roads
