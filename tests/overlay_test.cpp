// Tests for the replication overlay: the replica-set computation (who
// replicates whose summaries, §III-C and Fig. 2), the whole-tree
// coverage property, and the TTL'd replica store.
#include <gtest/gtest.h>

#include <algorithm>

#include "overlay/replica_set.h"
#include "overlay/replica_store.h"
#include "record/query.h"
#include "summary/resource_summary.h"

namespace roads::overlay {
namespace {

using hierarchy::Topology;

/// The paper's Fig. 2 tree: A with children B1, B2; B1 with C1, C2;
/// C1 with D1, D2. Ids: A=0, B1=1, B2=2, C1=3, C2=4, D1=5, D2=6.
Topology fig2_tree() {
  return Topology({Topology::kNoParent, 0, 0, 1, 1, 3, 3});
}

TEST(ReplicaSet, MatchesFig2Example) {
  const auto topo = fig2_tree();
  const auto set = replica_set(topo, /*D1=*/5);

  auto has = [&](NodeId origin, SummaryKind kind, ReplicaRole role) {
    return std::any_of(set.begin(), set.end(), [&](const ReplicaSpec& s) {
      return s.origin == origin && s.kind == kind && s.role == role;
    });
  };
  auto levels_up = [&](NodeId origin, SummaryKind kind) -> int {
    for (const auto& s : set) {
      if (s.origin == origin && s.kind == kind) return s.levels_up;
    }
    return -1;
  };
  // "Server D1 has the summaries replicated from its sibling (D2), its
  // ancestors (C1, B1, A) and their siblings (C2, B2)."
  EXPECT_TRUE(has(6, SummaryKind::kBranch, ReplicaRole::kSibling));       // D2
  EXPECT_TRUE(has(4, SummaryKind::kBranch, ReplicaRole::kAncestorSibling));  // C2
  EXPECT_TRUE(has(2, SummaryKind::kBranch, ReplicaRole::kAncestorSibling));  // B2
  EXPECT_TRUE(has(3, SummaryKind::kBranch, ReplicaRole::kAncestor));      // C1
  EXPECT_TRUE(has(1, SummaryKind::kBranch, ReplicaRole::kAncestor));      // B1
  EXPECT_TRUE(has(0, SummaryKind::kBranch, ReplicaRole::kAncestor));      // A
  // Plus the ancestors' local summaries (coverage of data attached at
  // interior servers).
  EXPECT_TRUE(has(3, SummaryKind::kLocal, ReplicaRole::kAncestor));
  EXPECT_TRUE(has(1, SummaryKind::kLocal, ReplicaRole::kAncestor));
  EXPECT_TRUE(has(0, SummaryKind::kLocal, ReplicaRole::kAncestor));
  // Exactly these: 6 branch + 3 local.
  EXPECT_EQ(set.size(), 9u);
  // Scope distances: D2 and C1 are 1 level up (common ancestor C1),
  // C2/B1 two levels, B2/A three.
  EXPECT_EQ(levels_up(6, SummaryKind::kBranch), 1);  // D2
  EXPECT_EQ(levels_up(3, SummaryKind::kBranch), 1);  // C1
  EXPECT_EQ(levels_up(4, SummaryKind::kBranch), 2);  // C2
  EXPECT_EQ(levels_up(1, SummaryKind::kBranch), 2);  // B1
  EXPECT_EQ(levels_up(2, SummaryKind::kBranch), 3);  // B2
  EXPECT_EQ(levels_up(0, SummaryKind::kBranch), 3);  // A
}

TEST(ReplicaSet, RootHoldsNothing) {
  EXPECT_TRUE(replica_set(fig2_tree(), 0).empty());
}

TEST(ReplicaSet, DirectChildOfRoot) {
  const auto set = replica_set(fig2_tree(), /*B2=*/2);
  // Sibling B1 branch + root branch + root local.
  EXPECT_EQ(set.size(), 3u);
}

TEST(ShortcutOrigins, ExcludesAncestors) {
  const auto origins = shortcut_origins(fig2_tree(), 5);
  // D2, C2, B2 are shortcut entry points; ancestors are not.
  EXPECT_EQ(origins.size(), 3u);
  EXPECT_NE(std::find(origins.begin(), origins.end(), 6u), origins.end());
  EXPECT_NE(std::find(origins.begin(), origins.end(), 4u), origins.end());
  EXPECT_NE(std::find(origins.begin(), origins.end(), 2u), origins.end());
}

TEST(Coverage, Fig2TreeEveryNodeCoversWholeTree) {
  const auto topo = fig2_tree();
  for (NodeId i = 0; i < topo.node_count(); ++i) {
    EXPECT_TRUE(covers_whole_tree(topo, i)) << "node " << i;
  }
}

// The §III-C claim, as a property over many topology shapes: the
// summaries each server holds cover the whole hierarchy, with no node
// covered twice (so a query is never sent down two overlapping paths).
class CoverageProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(CoverageProperty, EveryNodeCoversTreeExactlyOnce) {
  const auto [n, k] = GetParam();
  const auto topo = Topology::join_filled(n, k);
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_TRUE(covers_whole_tree(topo, i)) << "n=" << n << " k=" << k
                                            << " node=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeShapes, CoverageProperty,
    ::testing::Values(std::make_pair(1u, 2u), std::make_pair(2u, 2u),
                      std::make_pair(7u, 2u), std::make_pair(13u, 3u),
                      std::make_pair(40u, 3u), std::make_pair(64u, 4u),
                      std::make_pair(100u, 8u), std::make_pair(320u, 8u)));

TEST(ReplicaSet, SizeIsOrderKLogN) {
  // Per the paper (§VI): each server knows the summaries of O(k log N)
  // other servers.
  const auto topo = Topology::join_filled(320, 8);
  std::size_t largest = 0;
  for (NodeId i = 0; i < 320; ++i) {
    largest = std::max(largest, replica_set(topo, i).size());
  }
  // depth <= 3 at 320/degree-8: k per level plus 2 locals per level.
  EXPECT_LE(largest, 3 * (8 + 2));
  EXPECT_GE(largest, 8u);
}

// --- ReplicaStore ---

summary::ResourceSummary make_summary(double value) {
  const auto schema = record::Schema::uniform_numeric(1);
  summary::SummaryConfig config;
  config.histogram_buckets = 10;
  summary::ResourceSummary s(schema, config);
  s.add(record::ResourceRecord(1, 1, {record::AttributeValue(value)}));
  return s;
}

TEST(ReplicaStore, PutFindRefresh) {
  ReplicaStore store(/*ttl=*/100);
  const ReplicaSpec spec{7, SummaryKind::kBranch, ReplicaRole::kSibling};
  store.put(spec, std::make_shared<summary::ResourceSummary>(make_summary(0.5)),
            10);
  ASSERT_TRUE(store.has(7, SummaryKind::kBranch));
  EXPECT_FALSE(store.has(7, SummaryKind::kLocal));
  EXPECT_EQ(store.find(7, SummaryKind::kBranch)->received_at, 10);
  // Refresh updates the timestamp.
  store.put(spec, std::make_shared<summary::ResourceSummary>(make_summary(0.5)),
            50);
  EXPECT_EQ(store.find(7, SummaryKind::kBranch)->received_at, 50);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ReplicaStore, SweepExpiresStaleReplicas) {
  ReplicaStore store(/*ttl=*/100);
  store.put({1, SummaryKind::kBranch, ReplicaRole::kSibling},
            std::make_shared<summary::ResourceSummary>(make_summary(0.2)), 0);
  store.put({2, SummaryKind::kBranch, ReplicaRole::kSibling},
            std::make_shared<summary::ResourceSummary>(make_summary(0.2)), 90);
  EXPECT_EQ(store.sweep(150), 1u);  // origin 1 older than ttl
  EXPECT_FALSE(store.has(1, SummaryKind::kBranch));
  EXPECT_TRUE(store.has(2, SummaryKind::kBranch));
}

TEST(ReplicaStore, MatchingFiltersByQueryAndKind) {
  ReplicaStore store(1000);
  store.put({1, SummaryKind::kBranch, ReplicaRole::kSibling},
            std::make_shared<summary::ResourceSummary>(make_summary(0.2)), 0);
  store.put({2, SummaryKind::kBranch, ReplicaRole::kSibling},
            std::make_shared<summary::ResourceSummary>(make_summary(0.8)), 0);
  store.put({3, SummaryKind::kLocal, ReplicaRole::kAncestor},
            std::make_shared<summary::ResourceSummary>(make_summary(0.2)), 0);
  record::Query q;
  q.add(record::Predicate::range(0, 0.15, 0.25));
  const auto branch = store.matching(q, SummaryKind::kBranch);
  ASSERT_EQ(branch.size(), 1u);
  EXPECT_EQ(branch[0]->spec.origin, 1u);
  const auto local = store.matching(q, SummaryKind::kLocal);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0]->spec.origin, 3u);
}

TEST(ReplicaStore, StoredBytesSumsSummaries) {
  ReplicaStore store(1000);
  auto s = std::make_shared<summary::ResourceSummary>(make_summary(0.1));
  const auto one = s->wire_size();
  store.put({1, SummaryKind::kBranch, ReplicaRole::kSibling}, s, 0);
  store.put({2, SummaryKind::kBranch, ReplicaRole::kSibling}, s, 0);
  EXPECT_EQ(store.stored_bytes(), 2 * one);
}

TEST(ReplicaStore, AllIsDeterministicOrder) {
  ReplicaStore store(1000);
  store.put({5, SummaryKind::kBranch, ReplicaRole::kSibling},
            std::make_shared<summary::ResourceSummary>(make_summary(0.1)), 0);
  store.put({2, SummaryKind::kLocal, ReplicaRole::kAncestor},
            std::make_shared<summary::ResourceSummary>(make_summary(0.1)), 0);
  const auto all = store.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->spec.origin, 2u);
  EXPECT_EQ(all[1]->spec.origin, 5u);
}

}  // namespace
}  // namespace roads::overlay
