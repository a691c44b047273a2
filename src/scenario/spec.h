// Scenario specs: JSON-driven stress scripts for a live federation.
//
// A scenario composes timed phases over one federation: churn waves
// (mass crash/restart), flash-crowd query hotspots, attachment-point
// flapping, slow or asymmetric links, partition + crash storms, and a
// summary-staleness attack that mutates records out from under their
// exported summaries. Each phase compiles down to machinery that
// already exists — sim::FaultPlan windows, DelaySpace link extras,
// workload::HotspotSpec — so every scenario replays bit-identically
// from its seed under both the sequential and the sharded engine (the
// scenario_test golden gate).
//
// Parsing is strict: unknown keys, type mismatches and out-of-range
// values are rejected with an error naming the offending key and its
// position (the phase index and block), so a typo in a scenario file
// fails loudly instead of silently running a weaker stress. to_json()
// emits a canonical serialization (every field explicit, fixed order)
// whose round-trip is byte-identical — the property the spec tests
// pin.
//
// Adding a key: give the struct below a member with its default, then
// add one line to the block's field list in spec.cpp (key, member,
// range rule); that list drives the parse, the unknown-key check and
// to_json(). A rule spanning several keys goes in the block's check().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.h"

namespace roads::scenario {

/// Mass join/leave churn: `fraction` of the non-root servers crash,
/// spread across `spread_s` seconds starting `start_s` into the phase.
/// Victims restart `down_s` seconds after their crash when `rejoin` is
/// set; otherwise they leave for good (a permanent crash window).
struct ChurnSpec {
  double fraction = 0.25;
  double start_s = 1.0;
  double spread_s = 5.0;
  double down_s = 15.0;
  bool rejoin = true;
};

/// Flash crowd: a workload::HotspotSpec installed for the phase plus
/// `queries` client queries issued at seed-drawn times inside it.
struct FlashCrowdSpec {
  std::size_t attribute = 0;
  double center = 0.8;
  double width = 0.1;
  double weight = 1.0;
  std::size_t queries = 24;
  std::size_t dimensions = 2;
  double range_length = 0.25;
};

/// Attachment-point flapping: one interior (non-root, has children)
/// server crashes and restarts `flaps` times, one `period_s`-second
/// cycle each, down for `down_s` seconds per cycle.
struct FlapSpec {
  std::size_t flaps = 3;
  double period_s = 12.0;
  double down_s = 4.0;
};

/// Slow/asymmetric links: `links` seed-drawn directed pairs get
/// `extra_ms` of added one-way latency. Asymmetric leaves the reverse
/// direction untouched; otherwise both directions slow down. Extras
/// are cleared at the phase boundary.
struct SlowLinksSpec {
  std::size_t links = 4;
  double extra_ms = 150.0;
  bool asymmetric = true;
};

/// Partition storm: an interior server's whole subtree is cut away
/// `start_s` into the phase and healed `heal_after_s` later (clamped
/// inside the phase so the compiled window cannot be orphaned by the
/// next phase's plan).
struct PartitionSpec {
  double start_s = 1.0;
  double heal_after_s = 30.0;
};

/// Message-level fault rates active for the duration of the phase.
struct MessageFaultSpec {
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double max_jitter_ms = 0.0;
};

/// Summary-staleness attack: in `waves` evenly spaced waves, mutate
/// `fraction` of one seed-drawn victim server's records (shifting their
/// first-attribute values to vacate the exported summary's slots), then
/// aim `queries` narrow queries at the *old* values — guaranteed
/// stale-summary false positives until the next refresh rebuilds the
/// victim's histogram/Bloom slots.
struct StalenessAttackSpec {
  double fraction = 0.5;
  std::size_t waves = 2;
  std::size_t queries = 16;
};

/// Background query load with no hotspot skew.
struct QueryLoadSpec {
  std::size_t count = 16;
  std::size_t dimensions = 2;
  double range_length = 0.25;
};

/// Open-loop arrivals: `count` queries arrive on a fixed schedule
/// (Poisson or self-similar at `rate_qps`) regardless of how fast the
/// federation answers, drawn Zipf(`zipf_s`)-skewed from a `population`
/// of distinct queries — the serving-path stress (queueing, admission
/// control, the result cache). Arrivals are clamped inside the phase
/// and every in-flight query is driven by exact micro-stepping, so the
/// phase stays bit-identical across engine thread counts. Composes
/// with flash_crowd (its hotspot skews the population; its closed-loop
/// query count is ignored) and slow_links; fault blocks and closed-
/// loop query blocks are rejected — a dropped query would strand an
/// open-loop client forever.
struct OpenLoopSpec {
  double rate_qps = 40.0;
  /// "poisson" or "selfsimilar" (bounded-Pareto gaps).
  std::string process = "poisson";
  double pareto_alpha = 1.5;
  std::size_t count = 64;
  std::size_t population = 8;
  double zipf_s = 1.0;
  std::size_t dimensions = 2;
  double range_length = 0.25;
};

/// One timed phase. Optional blocks activate the corresponding stress;
/// a phase with none is a quiet observation window. The invariant
/// sweep at the phase boundary always checks structure, replica TTLs
/// and storage accounting; `expect_single_root` additionally demands
/// one root (turn off for phases that end still disrupted) and
/// `check_soundness` runs the query-probing soundness check (advances
/// the clock — reserve for quiesced phases).
struct PhaseSpec {
  std::string name;
  double duration_s = 30.0;
  std::optional<ChurnSpec> churn;
  std::optional<FlashCrowdSpec> flash_crowd;
  std::optional<FlapSpec> flapping;
  std::optional<SlowLinksSpec> slow_links;
  std::optional<PartitionSpec> partition;
  std::optional<MessageFaultSpec> message_faults;
  std::optional<StalenessAttackSpec> staleness_attack;
  std::optional<QueryLoadSpec> queries;
  std::optional<OpenLoopSpec> open_loop;
  bool expect_single_root = false;
  bool check_soundness = false;
};

/// One scenario: the federation's shape plus its phase script.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::size_t nodes = 12;
  std::size_t records_per_node = 8;
  std::size_t attributes = 4;
  std::size_t max_children = 3;
  std::uint64_t seed = 1;
  double refresh_period_s = 10.0;
  double heartbeat_s = 5.0;
  /// Telemetry window / scenario tick cadence.
  double probe_window_s = 5.0;
  /// Serving knobs (RoadsConfig pass-throughs). The defaults keep the
  /// query path event-for-event identical to the pre-serving engine,
  /// so existing scenarios replay unchanged; open-loop scenarios turn
  /// these on to exercise the cache and the admission controller.
  bool query_cache = false;
  /// 0 = infinite-server (no queue, no shedding).
  std::size_t query_concurrency = 0;
  std::size_t query_queue_limit = 64;
  std::vector<PhaseSpec> phases;

  /// Strict parse; throws std::runtime_error naming the offending key
  /// and position on unknown keys, type mismatches or bad values.
  static ScenarioSpec from_json(const util::JsonValue& doc);
  static ScenarioSpec from_json_text(const std::string& text);
  static ScenarioSpec from_file(const std::string& path);

  /// Canonical serialization: every field explicit, fixed order,
  /// numbers formatted so that parse(to_json()) round-trips exactly.
  std::string to_json() const;
};

}  // namespace roads::scenario
