// SwordSystem: the DHT-based resource-discovery baseline the paper
// compares against (§IV, §V; modeled after Oppenheimer et al.'s SWORD).
//
// Servers are partitioned into one locality-preserving ring per
// searchable attribute. Every resource owner registers every record in
// every ring — the record is routed O(log s) hops to the member whose
// segment covers the record's value for that ring's attribute. A
// multi-dimensional range query is resolved in a single ring (the most
// selective queried attribute): it routes to the segment start and then
// walks successor-to-successor across every member whose segment
// intersects the queried range; each walked member scans its stored
// records against the full query and reports matches to the client.
//
// This reproduces both sides of the paper's tradeoff: r-fold record
// replication with per-update O(log n) routing (heavy update traffic,
// Figs. 4 and 8) versus a compact single-segment query path (light
// query traffic, Fig. 5) whose length grows linearly with system size
// (Fig. 3) and ignores all but one query dimension (Figs. 6-7).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "record/query.h"
#include "record/record.h"
#include "record/schema.h"
#include "sim/delay_space.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sword/locality_hash.h"
#include "sword/ring.h"
#include "util/rng.h"

namespace roads::sword {

struct SwordParams {
  record::Schema schema = record::Schema::uniform_numeric(16);
  std::uint64_t seed = 1;
  sim::DelaySpaceParams delay;
  /// tr: how often dynamic records are re-registered (soft state).
  sim::Time record_refresh_period = sim::seconds(10);
  sim::Time query_processing_delay = sim::ms(1);
  /// Segment-walk hops are acknowledged before the query moves on
  /// (reliable hop-by-hop handoff), costing a round trip per walked
  /// member — the sequential-traversal cost Fig. 3's SWORD curve shows.
  bool acked_segment_walk = true;
};

struct SwordQueryOutcome {
  bool complete = false;
  double latency_ms = 0.0;
  std::uint64_t query_bytes = 0;
  std::size_t servers_contacted = 0;
  std::size_t matching_records = 0;
};

class SwordSystem {
 public:
  SwordSystem(std::size_t servers, SwordParams params);

  std::size_t server_count() const { return server_count_; }
  const record::Schema& schema() const { return params_.schema; }
  std::size_t ring_count() const { return rings_.size(); }
  const Ring& ring(std::size_t attribute) const;
  sim::Network& network() { return network_; }
  sim::Simulator& simulator() { return simulator_; }
  sim::Time record_refresh_period() const {
    return params_.record_refresh_period;
  }

  /// Assigns owner `node`'s record set (replacing any previous one).
  void set_records(sim::NodeId node,
                   std::vector<record::ResourceRecord> records);

  /// One soft-state refresh round: every owner re-registers every
  /// record in every ring. Runs the simulation to quiescence and
  /// returns the update bytes this round generated.
  std::uint64_t run_registration_round();

  /// Resolves a query issued from `start` (client co-located there),
  /// running the simulation until it completes.
  SwordQueryOutcome run_query(const record::Query& query, sim::NodeId start);

  /// Raw-record bytes stored at `server` across all rings (Table I).
  std::uint64_t stored_bytes(sim::NodeId server) const;
  std::uint64_t max_stored_bytes() const;

 private:
  struct QueryRun;

  /// Picks the ring for a query: the most selective predicate's
  /// attribute (shortest normalized range; equality counts as a point).
  std::size_t choose_ring(const record::Query& query) const;

  void deliver_to_segment(const std::shared_ptr<QueryRun>& run,
                          std::size_t walk_index);

  SwordParams params_;
  util::Rng rng_;
  sim::Simulator simulator_;
  sim::DelaySpace delay_space_;
  sim::Network network_;

  std::size_t server_count_ = 0;
  std::vector<std::size_t> ring_of_attribute_;  // schema attr -> ring index
  std::vector<std::size_t> attribute_of_ring_;  // ring index -> schema attr
  std::vector<Ring> rings_;
  std::vector<LocalityHash> hashes_;  // one per ring

  /// All records live once, here; ring members store indices into it.
  std::vector<record::ResourceRecord> arena_;
  std::map<sim::NodeId, std::vector<std::size_t>> records_of_owner_;
  /// stored_[ring][member_index] = arena indices registered there.
  std::vector<std::vector<std::vector<std::size_t>>> stored_;
};

}  // namespace roads::sword
