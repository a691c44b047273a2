// ReplicaStore: the summaries a server holds on behalf of remote nodes
// (its overlay state), keyed by (origin, kind). Summaries are soft
// state with TTLs (§III-B): a replica not refreshed within its TTL is
// swept, so data from departed or partitioned branches ages out rather
// than attracting queries forever. Payloads are shared immutable
// objects — many servers hold the same origin's summary, so sharing
// keeps simulation memory proportional to the number of distinct
// summaries, not replicas.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "overlay/replica_set.h"
#include "record/query.h"
#include "sim/time.h"
#include "summary/resource_summary.h"

namespace roads::overlay {

using SummaryPtr = std::shared_ptr<const summary::ResourceSummary>;

struct Replica {
  ReplicaSpec spec;
  SummaryPtr summary;
  sim::Time received_at = 0;
};

class ReplicaStore {
 public:
  explicit ReplicaStore(sim::Time ttl) : ttl_(ttl) {}

  sim::Time ttl() const { return ttl_; }
  std::size_t size() const { return replicas_.size(); }

  /// Publishes put/match wall-clock latency histograms through the
  /// shared registry; safe to call more than once (same instruments).
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Inserts or refreshes a replica.
  void put(const ReplicaSpec& spec, SummaryPtr summary, sim::Time now);

  const Replica* find(NodeId origin, SummaryKind kind) const;
  bool has(NodeId origin, SummaryKind kind) const;

  /// Removes replicas older than now - ttl; returns how many expired.
  std::size_t sweep(sim::Time now);

  /// Drops everything (a crashed server loses its soft state).
  void clear() { replicas_.clear(); }

  /// All live replicas in deterministic (origin, kind) order.
  std::vector<const Replica*> all() const;

  /// Staleness ages (now - received_at) of every held replica, in
  /// deterministic (origin, kind) order — the raw series behind the
  /// Timeline's replica-staleness probe. Ages approach ttl() only when
  /// refresh waves stop reaching this server (partition, crashed
  /// origin); the sweep removes anything that crosses it.
  std::vector<sim::Time> ages(sim::Time now) const;
  /// Largest staleness age; 0 when no replicas are held.
  sim::Time max_age(sim::Time now) const;

  /// Live replicas whose summary matches the query, restricted to
  /// `kind`. The workhorse of query shortcutting.
  std::vector<const Replica*> matching(const record::Query& query,
                                       SummaryKind kind) const;

  /// Total wire footprint of held summaries — the storage-overhead
  /// metric of Table I.
  std::uint64_t stored_bytes() const;

 private:
  using Key = std::pair<NodeId, SummaryKind>;
  sim::Time ttl_;
  std::map<Key, Replica> replicas_;
  obs::Histogram* put_us_ = nullptr;
  obs::Histogram* match_us_ = nullptr;
};

}  // namespace roads::overlay
