#include "roads/server.h"

#include <algorithm>
#include <cstdint>

#include "obs/profile.h"
#include "util/hash.h"
#include "util/log.h"

namespace roads::core {

namespace {
/// Join requests to a dead server never get a reply; after this long
/// the joiner assumes the target failed and moves on.
constexpr sim::Time kJoinTimeout = sim::seconds(2);
}  // namespace

RoadsServer::RoadsServer(sim::NodeId id, const RoadsConfig& config,
                         sim::Network& network, Directory& directory,
                         record::Schema schema, util::Rng rng)
    : id_(id),
      config_(config),
      network_(network),
      directory_(directory),
      schema_(std::move(schema)),
      rng_(rng),
      join_policy_(config.join_policy, config.max_children),
      query_hops_(network.metrics().counter("roads.query.hops")),
      query_false_positives_(
          network.metrics().counter("roads.query.false_positives")),
      summary_merges_(network.metrics().counter("roads.summary.merges")),
      overlay_shortcut_hits_(
          network.metrics().counter("roads.overlay.shortcut_hits")),
      joins_(network.metrics().counter("roads.server.joins")),
      rejoins_(network.metrics().counter("roads.server.rejoins")),
      heartbeat_misses_(
          network.metrics().counter("roads.server.heartbeat_misses")),
      summary_refresh_skipped_(
          network.metrics().counter("roads.summary.refresh_skipped")),
      summary_push_suppressed_(
          network.metrics().counter("roads.summary.push_suppressed")),
      summary_delta_slots_(
          network.metrics().counter("roads.summary.delta_slots")),
      summary_full_rebuilds_(
          network.metrics().counter("roads.summary.full_rebuilds")),
      refresh_us_(network.metrics().histogram("roads.summary.refresh_us")),
      cache_hits_(network.metrics().counter("roads.query.cache.hit")),
      cache_misses_(network.metrics().counter("roads.query.cache.miss")),
      cache_invalidates_(
          network.metrics().counter("roads.query.cache.invalidate")),
      cache_neg_hits_(network.metrics().counter("roads.query.cache.neg_hit")),
      cache_sheds_(network.metrics().counter("roads.query.cache.shed")),
      cache_evicted_(network.metrics().counter("roads.query.cache.evicted")),
      store_(schema_),
      replicas_(config.summary_ttl),
      query_cache_(kQueryCacheMaxEntries, kQueryCacheMaxBytes),
      negative_cache_(kNegativeCacheMaxEntries, kNegativeCacheTtl) {
  replicas_.bind_metrics(network.metrics());
}

void RoadsServer::trace_event(obs::TraceKind kind, sim::NodeId peer,
                              double value, std::uint64_t span) const {
  auto* trace = network_.trace();
  if (!trace) return;
  obs::TraceEvent ev;
  ev.at_us = network_.simulator().now();
  ev.kind = kind;
  ev.span = span;
  ev.node = id_;
  ev.peer = peer;
  ev.value = value;
  // Point events inherit the causal tree of whatever handler emits
  // them, so e.g. a heartbeat-miss shows up inside the failure-check
  // wave that detected it.
  ev.trace = obs::current_trace().trace;
  trace->record(std::move(ev));
}

// --------------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------------

void RoadsServer::become_root() {
  parent_.reset();
  root_path_ = hierarchy::RootPath({id_});
}

void RoadsServer::start_timers() {
  if (timers_started_) return;
  timers_started_ = true;

  // Stagger the first refresh so all servers do not fire in lockstep;
  // the offset is deterministic per seed.
  const auto first_refresh = static_cast<sim::Time>(
      rng_.uniform(0.0, static_cast<double>(sim::seconds(1))));
  arm_periodic(first_refresh, config_.summary_refresh_period,
               obs::ProfCategory::kTimerRefresh, &RoadsServer::on_refresh_timer);
  if (!config_.maintenance_enabled) return;

  // Failure detection starts now: reset the heartbeat clocks so peers
  // that joined long before the timers started are not instantly
  // declared dead.
  const auto now = network_.simulator().now();
  last_parent_heartbeat_ = now;
  children_.touch_all(now);

  const auto first_hb = static_cast<sim::Time>(
      rng_.uniform(0.0, static_cast<double>(config_.heartbeat_period)));
  arm_periodic(first_hb, config_.heartbeat_period,
               obs::ProfCategory::kTimerMaintenance,
               &RoadsServer::on_heartbeat_timer);
  // Offset the sweep by half a period so checks interleave heartbeats.
  arm_periodic(first_hb + config_.heartbeat_period / 2,
               config_.heartbeat_period, obs::ProfCategory::kTimerMaintenance,
               &RoadsServer::on_failure_check_timer);
}

void RoadsServer::arm_periodic(sim::Time first, sim::Time period,
                               obs::ProfCategory category,
                               void (RoadsServer::*body)()) {
  // Each tick re-arms itself unless the server stopped. The tick body
  // lives once in a shared UniqueFunction; every arm schedules a 16-byte
  // [tick] trampoline, so re-arming never copies (or re-allocates) the
  // closure state. The body holds itself only weakly — the pending
  // trampoline owns the one strong reference, so a drained or destroyed
  // simulator releases the chain instead of leaking a shared_ptr cycle.
  // Closures armed now die with this life epoch: after a crash+restart
  // the pre-crash chains must not resume next to the new ones.
  auto tick = std::make_shared<util::UniqueFunction<void()>>();
  *tick = [this, epoch = life_epoch_, period, body,
           weak = std::weak_ptr(tick)] {
    if (!alive_ || life_epoch_ != epoch) return;
    (this->*body)();
    if (auto self = weak.lock()) {
      network_.simulator().schedule_after(period, [self] { (*self)(); });
    }
  };
  // Tick bodies profile as `category`; their re-arms inherit it from
  // the executing handler automatically.
  obs::ScopedProfCategory prof_tag(category);
  network_.simulator().schedule_after(first,
                                      [tick = std::move(tick)] { (*tick)(); });
}

void RoadsServer::on_refresh_timer() {
  if (!refresh_paused_) refresh_summaries();
}

void RoadsServer::leave() {
  if (!alive_) return;
  sim::TraceSpan trace_root(network_, id_, "leave");
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kMaintenance);
  if (parent_) {
    send_to_server(*parent_, msg::leave_notice(), sim::Channel::kMaintenance,
                   [child = id_](RoadsServer& p) {
                     p.handle_leave_from_child(child);
                   });
  }
  for (const auto child : children_.ids()) {
    send_to_server(child, msg::leave_notice(), sim::Channel::kMaintenance,
                   [self = id_](RoadsServer& c) {
                     c.handle_leave_from_parent(self);
                   });
  }
  trace_event(obs::TraceKind::kLeave, parent_.value_or(id_));
  fail();
}

void RoadsServer::fail() {
  alive_ = false;
  ++life_epoch_;
  network_.set_node_up(id_, false);
  // Queued queries die with the server; their clients time out.
  query_queue_.clear();
  active_queries_ = 0;
}

void RoadsServer::restart(sim::NodeId seed) {
  if (alive_) return;
  // Soft state died with the process; records and attachments are the
  // durable part (the paper's soft-state summaries regenerate).
  parent_.reset();
  root_path_ = hierarchy::RootPath({id_});
  children_.clear();
  child_summaries_.clear();
  pushed_digests_.clear();
  last_pushed_stats_ = hierarchy::BranchStats{};
  branch_summary_.reset();
  replicas_.clear();
  root_children_.clear();
  recovery_candidates_.clear();
  join_ = JoinState{};
  refresh_round_ = 0;
  query_queue_.clear();
  active_queries_ = 0;
  query_cache_.clear();
  negative_cache_.clear();
  state_stamp_dirty_ = true;

  alive_ = true;
  ++life_epoch_;
  network_.set_node_up(id_, true);
  last_parent_heartbeat_ = network_.simulator().now();
  timers_started_ = false;
  start_timers();

  if (seed == id_) {
    become_root();
    return;
  }
  trace_event(obs::TraceKind::kRejoin, seed);
  rejoins_.inc();
  // A restart while the seed is unreachable (crashed, or across an
  // active partition) must not strand us as a permanent lonely root:
  // keep the seed as a recovery contact so the maintenance timer keeps
  // retrying until the overlay re-merges.
  recovery_candidates_.push_back(seed);
  start_join(seed, [this](bool ok) {
    if (!ok) become_root();  // recovery_candidates_ keeps us retrying
  });
}

// --------------------------------------------------------------------------
// Resource attachment
// --------------------------------------------------------------------------

void RoadsServer::attach_owner(std::shared_ptr<ResourceOwner> owner,
                               ExportMode mode) {
  Attachment att;
  att.owner = std::move(owner);
  att.mode = mode;
  export_owner(att);
  attachments_.push_back(std::move(att));
}

void RoadsServer::reexport_owner(record::OwnerId owner_id) {
  for (auto& att : attachments_) {
    if (att.owner->id() != owner_id) continue;
    if (att.mode == ExportMode::kDetailedRecords) {
      // Replace this owner's records wholesale (soft-state refresh).
      for (const auto& r : store_.snapshot()) {
        if (r.owner() == owner_id) store_.erase(r.id());
      }
    }
    export_owner(att);
    return;
  }
}

void RoadsServer::export_owner(Attachment& att, bool keepalive) {
  att.exported_version = att.owner->store().version();
  std::uint64_t bytes = 0;
  bool changed = true;
  if (att.mode == ExportMode::kDetailedRecords) {
    // The owner ships raw records.
    for (const auto& r : att.owner->store().snapshot()) {
      bytes += r.wire_size();
      store_.insert(r);
    }
  } else {
    auto fresh = std::make_shared<const summary::ResourceSummary>(
        att.owner->export_summary(config_.summary));
    const auto digest = fresh->digest();
    changed = !att.summary || digest != att.exported_digest;
    att.summary = std::move(fresh);
    att.exported_digest = digest;
    bytes = msg::summary_update(*att.summary);
  }
  // Remote exports cost update traffic; an unchanged summary is shipped
  // only on keepalive rounds.
  if (att.owner->node() == id_) return;
  if (keepalive || changed) {
    network_.send(att.owner->node(), id_, bytes, sim::Channel::kUpdate, [] {});
  } else {
    summary_push_suppressed_.inc();
  }
}

// --------------------------------------------------------------------------
// Summary protocol
// --------------------------------------------------------------------------

void RoadsServer::refresh_attachment_summaries(bool keepalive) {
  for (auto& att : attachments_) {
    if (att.mode != ExportMode::kSummaryOnly) continue;
    if (!keepalive && att.summary &&
        att.owner->store().version() == att.exported_version) {
      // Owner data untouched since the last export: skip the recompute
      // and the wire round-trip entirely.
      summary_refresh_skipped_.inc();
      continue;
    }
    export_owner(att, keepalive);
  }
}

SummaryPtr RoadsServer::compute_local_summary() {
  const auto refresh = store_.refresh_summary(store_summary_, config_.summary);
  if (refresh.unchanged) summary_refresh_skipped_.inc();
  if (refresh.full_rebuild) summary_full_rebuilds_.inc();
  if (refresh.delta_slots > 0) summary_delta_slots_.inc(refresh.delta_slots);
  // Copy: attachment merges must not pollute the store summary.
  summary::ResourceSummary local = store_summary_;
  for (const auto& att : attachments_) {
    if (att.mode == ExportMode::kSummaryOnly && att.summary) {
      local.merge(*att.summary);
      summary_merges_.inc();
    }
  }
  return std::make_shared<const summary::ResourceSummary>(std::move(local));
}

SummaryPtr RoadsServer::compute_branch_summary() const {
  summary::ResourceSummary branch =
      local_summary_ ? *local_summary_
                     : summary::ResourceSummary(schema_, config_.summary);
  for (const auto& [_, summary] : child_summaries_) {
    branch.merge(*summary);
    summary_merges_.inc();
  }
  return std::make_shared<const summary::ResourceSummary>(std::move(branch));
}

void RoadsServer::refresh_summaries() {
  if (!alive_) return;
  obs::ScopedTimer timer(refresh_us_);
  // Roots a causal tree: the parent push, sibling forwards and replica
  // cascade triggered by this wave all chain under one span.
  sim::TraceSpan trace_root(network_, id_, "summary_refresh");
  // Round r is a keepalive wave when r % K == 0 (the first round always
  // is), so every soft-state TTL downstream is renewed at least every
  // K periods. K == 0 makes every round a keepalive: suppression off.
  const auto k = config_.summary_keepalive_rounds;
  const bool keepalive = k == 0 || refresh_round_ % k == 0;
  ++refresh_round_;

  refresh_attachment_summaries(keepalive);
  local_summary_ = compute_local_summary();
  branch_summary_ = compute_branch_summary();

  // Bottom-up aggregation (§III-B), then top-down replication (§III-C):
  // own branch + local summaries flow to every descendant with the
  // ancestor role; direct children see us one level up.
  push_branch_up(keepalive);
  push_replica_to_children({id_, overlay::SummaryKind::kBranch,
                            overlay::ReplicaRole::kAncestor, 1},
                           branch_summary_, keepalive);
  push_replica_to_children({id_, overlay::SummaryKind::kLocal,
                            overlay::ReplicaRole::kAncestor, 1},
                           local_summary_, keepalive);
}

void RoadsServer::push_branch_up(bool keepalive) {
  if (!parent_ || !branch_summary_ ||
      !note_push(*parent_, id_, overlay::SummaryKind::kBranch,
                 branch_summary_->digest(), keepalive)) {
    return;
  }
  const auto stats = children_.aggregate();
  last_pushed_stats_ = stats;
  send_to_server(
      *parent_, msg::summary_update(*branch_summary_), sim::Channel::kUpdate,
      [child = id_, stats, s = branch_summary_, keepalive](RoadsServer& p) {
        p.handle_child_summary(child, stats, s, keepalive);
      });
}

void RoadsServer::handle_child_summary(sim::NodeId child,
                                       hierarchy::BranchStats stats,
                                       SummaryPtr branch, bool keepalive) {
  if (!children_.has(child)) return;  // stale update from a removed child
  children_.update_stats(child, stats);
  children_.update_heartbeat(child, network_.simulator().now());
  children_.update_summary(child, network_.simulator().now());
  child_summaries_[child] = branch;
  mark_summary_state_dirty();
  // Receive-time forward to the child's siblings (§III-C).
  push_replica_to_children({child, overlay::SummaryKind::kBranch,
                            overlay::ReplicaRole::kSibling, 1},
                           branch, keepalive, child);
  push_stats_up();
}

void RoadsServer::handle_replica(overlay::ReplicaSpec spec, SummaryPtr summary,
                                 bool keepalive) {
  replicas_.put(spec, summary, network_.simulator().now());
  mark_summary_state_dirty();
  // Cascade down; a sibling of my parent-level sender becomes an
  // ancestor-sibling for my descendants, one level further from their
  // common ancestor.
  overlay::ReplicaSpec down = spec;
  if (down.role == overlay::ReplicaRole::kSibling) {
    down.role = overlay::ReplicaRole::kAncestorSibling;
  }
  if (down.levels_up < 255) ++down.levels_up;
  push_replica_to_children(down, summary, keepalive);
}

void RoadsServer::push_replica_to_children(const overlay::ReplicaSpec& spec,
                                           const SummaryPtr& summary,
                                           bool keepalive,
                                           std::optional<sim::NodeId> skip) {
  if (!summary || !config_.overlay_enabled) return;
  // Replica traffic splits off the generic kUpdate channel default.
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kReplicaCascade);
  const auto digest = summary->digest();
  for (const auto child : children_.ids()) {
    if (child == skip ||
        !note_push(child, spec.origin, spec.kind, digest, keepalive)) {
      continue;
    }
    send_to_server(child, msg::replica_push(*summary), sim::Channel::kUpdate,
                   [spec, summary, keepalive](RoadsServer& c) {
                     c.handle_replica(spec, summary, keepalive);
                   });
  }
}

bool RoadsServer::note_push(sim::NodeId dest, sim::NodeId origin,
                            overlay::SummaryKind kind, std::uint64_t digest,
                            bool keepalive) {
  auto [it, inserted] =
      pushed_digests_[dest].try_emplace({origin, kind}, digest);
  if (inserted || keepalive || it->second != digest) {
    it->second = digest;
    return true;
  }
  summary_push_suppressed_.inc();
  return false;
}

void RoadsServer::forget_dead_streams() {
  for (auto& [_, streams] : pushed_digests_) {
    std::erase_if(streams, [this](const auto& entry) {
      const auto [origin, kind] = entry.first;
      const bool child_branch =
          kind == overlay::SummaryKind::kBranch && children_.has(origin);
      return origin != id_ && !child_branch && !replicas_.has(origin, kind);
    });
  }
}

std::uint64_t RoadsServer::stored_summary_bytes() const {
  std::uint64_t total = replicas_.stored_bytes();
  for (const auto& [_, s] : child_summaries_) total += s->wire_size();
  if (local_summary_) total += local_summary_->wire_size();
  if (branch_summary_) total += branch_summary_->wire_size();
  return total;
}

// --------------------------------------------------------------------------
// Join protocol
// --------------------------------------------------------------------------

void RoadsServer::start_join(sim::NodeId seed,
                             util::UniqueFunction<void(bool)> on_complete) {
  join_ = JoinState{};
  join_.active = true;
  join_.current = seed;
  join_.on_complete = std::move(on_complete);
  // Roots the join negotiation's causal tree (request, redirects and
  // accept/backtrack responses chain under it).
  sim::TraceSpan trace_root(network_, id_, "join");
  send_join_request(seed);
}

void RoadsServer::send_join_request(sim::NodeId target) {
  const auto seq = ++join_.request_seq;
  send_to_server(target, msg::join_request(join_.excluded.size()),
                 sim::Channel::kControl,
                 [joiner = id_, excluded = join_.excluded](RoadsServer& s) {
                   s.handle_join_request(joiner, excluded);
                 });
  // Dead targets never answer; give up after the timeout and treat it
  // like an unwilling branch. The epoch guard keeps a timeout armed
  // before a crash from firing into the restarted server's join state
  // (request_seq restarts from zero, so seq alone could collide).
  obs::ScopedProfCategory prof_tag(obs::ProfCategory::kJoin);
  network_.simulator().schedule_after(
      kJoinTimeout, [this, target, seq, epoch = life_epoch_] {
    if (!alive_ || life_epoch_ != epoch || !join_.active ||
        join_.request_seq != seq) return;
    ROADS_DEBUG << "server " << id_ << ": join request to " << target
                << " timed out";
    handle_join_response(target, JoinOutcome::kBacktrack, 0,
                         hierarchy::RootPath{});
  });
}

void RoadsServer::handle_join_request(sim::NodeId joiner,
                                      std::vector<sim::NodeId> excluded) {
  JoinOutcome outcome;
  sim::NodeId redirect_to = 0;
  // Loop avoidance: never adopt an ancestor of ourselves — checked both
  // against the root path (§III-A) and the current parent directly, so
  // a two-cycle cannot form even while root paths are stale after
  // churn.
  if (root_path_.contains(joiner) || (parent_ && *parent_ == joiner)) {
    outcome = JoinOutcome::kBacktrack;
  } else {
    // Proximity policy steers toward the child closest to the joiner
    // in the delay space.
    const hierarchy::JoinPolicy::LatencyFn latency =
        [this, joiner](sim::NodeId child) {
          return static_cast<double>(network_.latency(joiner, child));
        };
    const auto decision =
        join_policy_.decide(children_, excluded, rng_, latency);
    if (!decision) {
      outcome = JoinOutcome::kBacktrack;
    } else if (decision->accept) {
      outcome = JoinOutcome::kAccepted;
      // Idempotent: a joiner may retry after a lost/late response while
      // we already registered it.
      if (!children_.has(joiner)) {
        children_.add(joiner, network_.simulator().now());
      } else {
        children_.update_heartbeat(joiner, network_.simulator().now());
      }
      push_stats_up();
    } else {
      outcome = JoinOutcome::kRedirect;
      redirect_to = decision->descend_to;
    }
  }
  send_to_server(joiner, msg::join_response(root_path_.length()),
                 sim::Channel::kControl,
                 [responder = id_, outcome, redirect_to,
                  path = root_path_](RoadsServer& j) {
                   j.handle_join_response(responder, outcome, redirect_to,
                                          path);
                 });
}

void RoadsServer::handle_join_response(sim::NodeId responder,
                                       JoinOutcome outcome,
                                       sim::NodeId redirect_to,
                                       hierarchy::RootPath responder_path) {
  if (!join_.active || responder != join_.current) return;  // stale
  ++join_.request_seq;  // disarm the pending timeout
  if (outcome == JoinOutcome::kAccepted && children_.has(responder)) {
    // Crossed joins: we adopted the responder while it adopted us.
    // Taking both accepts would close a two-cycle, so the lower id
    // stays the parent and the higher id gives up its stale child.
    if (id_ < responder) {
      outcome = JoinOutcome::kBacktrack;
    } else {
      drop_child(responder);
    }
  }

  switch (outcome) {
    case JoinOutcome::kAccepted: {
      parent_ = responder;
      root_path_ = hierarchy::RootPath::extend(responder_path, id_);
      last_parent_heartbeat_ = network_.simulator().now();
      recovery_candidates_.clear();  // back in a tree
      joins_.inc();
      trace_event(obs::TraceKind::kJoin, responder,
                  static_cast<double>(root_path_.length()));
      // Tell the new parent our real branch shape right away so join
      // steering stays accurate, and hand it our branch summary if we
      // carry a subtree from before a rejoin.
      last_pushed_stats_ = hierarchy::BranchStats{};
      push_stats_up();
      push_branch_up(/*keepalive=*/true);
      finish_join(true);
      return;
    }
    case JoinOutcome::kRedirect: {
      join_.descended.push_back(join_.current);
      join_.current = redirect_to;
      send_join_request(redirect_to);
      return;
    }
    case JoinOutcome::kBacktrack: {
      join_.excluded.push_back(join_.current);
      if (!join_.descended.empty()) {
        join_.current = join_.descended.back();
        join_.descended.pop_back();
        send_join_request(join_.current);
      } else if (!join_.fallbacks.empty()) {
        join_.current = join_.fallbacks.front();
        join_.fallbacks.erase(join_.fallbacks.begin());
        join_.excluded.clear();
        send_join_request(join_.current);
      } else {
        finish_join(false);
      }
      return;
    }
  }
}

void RoadsServer::finish_join(bool success) {
  join_.active = false;
  if (join_.on_complete) {
    auto cb = std::move(join_.on_complete);
    join_.on_complete = nullptr;
    cb(success);
  }
}

void RoadsServer::push_stats_up() {
  if (!parent_) return;
  const auto stats = children_.aggregate();
  if (stats == last_pushed_stats_) return;
  last_pushed_stats_ = stats;
  send_to_server(*parent_, msg::heartbeat_up(), sim::Channel::kControl,
                 [child = id_, stats](RoadsServer& p) {
                   p.handle_stats_update(child, stats);
                 });
}

void RoadsServer::handle_stats_update(sim::NodeId child,
                                      hierarchy::BranchStats stats) {
  if (!children_.has(child)) return;
  children_.update_stats(child, stats);
  children_.update_heartbeat(child, network_.simulator().now());
  push_stats_up();
}

// --------------------------------------------------------------------------
// Maintenance
// --------------------------------------------------------------------------

void RoadsServer::on_heartbeat_timer() {
  sim::TraceSpan trace_root(network_, id_, "heartbeat_wave");
  if (parent_) {
    const auto stats = children_.aggregate();
    send_to_server(*parent_, msg::heartbeat_up(), sim::Channel::kMaintenance,
                   [child = id_, stats](RoadsServer& p) {
                     p.handle_heartbeat_up(child, stats);
                   });
  }
  const std::vector<sim::NodeId> root_children =
      is_root() ? children_.ids() : std::vector<sim::NodeId>{};
  for (const auto child : children_.ids()) {
    send_to_server(
        child,
        msg::heartbeat_down(root_path_.length(), root_children.size()),
        sim::Channel::kMaintenance,
        [from = id_, path = root_path_, root_children](RoadsServer& c) {
          c.handle_heartbeat_down(from, path, root_children);
        });
  }
}

void RoadsServer::handle_heartbeat_up(sim::NodeId child,
                                      hierarchy::BranchStats stats) {
  if (!children_.has(child)) return;
  children_.update_heartbeat(child, network_.simulator().now());
  children_.update_stats(child, stats);
}

void RoadsServer::handle_heartbeat_down(
    sim::NodeId from, hierarchy::RootPath path,
    std::vector<sim::NodeId> root_children) {
  if (!parent_ || *parent_ != from) return;  // stale
  last_parent_heartbeat_ = network_.simulator().now();
  // Root paths ride on heartbeats (§III-A): refresh ours.
  root_path_ = hierarchy::RootPath::extend(path, id_);
  if (!root_children.empty()) root_children_ = std::move(root_children);
}

void RoadsServer::on_failure_check_timer() {
  sim::TraceSpan trace_root(network_, id_, "failure_check");
  const auto now = network_.simulator().now();
  const sim::Time limit =
      config_.heartbeat_period * config_.heartbeat_miss_limit;

  // Children that went silent.
  for (const auto child : children_.expired(now - limit)) {
    ROADS_INFO << "server " << id_ << ": child " << child << " timed out";
    heartbeat_misses_.inc();
    trace_event(obs::TraceKind::kHeartbeatMiss, child);
    drop_child(child);
  }

  // Parent that went silent.
  if (parent_ && now - last_parent_heartbeat_ > limit) {
    ROADS_INFO << "server " << id_ << ": parent " << *parent_
               << " timed out";
    heartbeat_misses_.inc();
    trace_event(obs::TraceKind::kHeartbeatMiss, *parent_);
    parent_lost();
  }

  // Partition recovery: a root that got here by failed rejoin keeps
  // retrying its old contacts so partitions re-merge when possible.
  if (is_root() && !recovery_candidates_.empty() && !join_.active) {
    rejoin(recovery_candidates_);
  }

  if (replicas_.sweep(now) > 0) {
    mark_summary_state_dirty();
    forget_dead_streams();
  }
}

void RoadsServer::parent_lost() {
  const auto old_path = root_path_;
  const bool parent_was_root =
      parent_ && old_path.length() >= 2 && old_path.root() == *parent_;
  if (parent_) pushed_digests_.erase(*parent_);
  parent_.reset();

  std::vector<sim::NodeId> candidates;
  if (parent_was_root) {
    // Root election (§III-A): the root's children elect the one with
    // the smallest id, learned from the root's heartbeat children list.
    // Sorted, the winner comes first and the other members double as
    // fallbacks if it died too.
    for (const auto n : root_children_) {
      if (n != id_) candidates.push_back(n);
    }
    std::sort(candidates.begin(), candidates.end());
    if (candidates.empty() || id_ < candidates.front()) {
      ROADS_INFO << "server " << id_ << ": elected new root";
      trace_event(obs::TraceKind::kRootElection, id_);
      become_root();
      // The detection may have been a false positive (lost heartbeats);
      // keep the old root as a recovery contact so a spurious
      // self-election re-merges instead of splitting the tree.
      recovery_candidates_.assign(1, old_path.root());
      return;
    }
  } else {
    // Rejoin starting at the grandparent, then one level up at a time
    // (§III-A Hierarchy Maintenance).
    candidates = old_path.rejoin_candidates();
    if (candidates.empty()) {
      // No ancestors known; become root of our own partition.
      become_root();
      return;
    }
  }
  recovery_candidates_ = std::move(candidates);
  rejoins_.inc();
  trace_event(obs::TraceKind::kRejoin, recovery_candidates_.front());
  rejoin(recovery_candidates_);
}

void RoadsServer::rejoin(const std::vector<sim::NodeId>& candidates) {
  join_ = JoinState{};
  join_.active = true;
  join_.current = candidates.front();
  join_.fallbacks.assign(candidates.begin() + 1, candidates.end());
  // If every candidate is gone, stand up as root; recovery_candidates_
  // keeps the maintenance timer retrying (partition recovery).
  join_.on_complete = [this](bool ok) {
    if (!ok) become_root();
  };
  send_join_request(join_.current);
}

void RoadsServer::drop_child(sim::NodeId child) {
  children_.remove(child);
  child_summaries_.erase(child);
  pushed_digests_.erase(child);
  forget_dead_streams();
  mark_summary_state_dirty();
  push_stats_up();
}

void RoadsServer::handle_leave_from_child(sim::NodeId child) {
  if (children_.has(child)) drop_child(child);
}

void RoadsServer::handle_leave_from_parent(sim::NodeId parent) {
  if (!parent_ || *parent_ != parent) return;
  parent_lost();
}

// --------------------------------------------------------------------------
// Query evaluation
// --------------------------------------------------------------------------

void RoadsServer::handle_query(std::shared_ptr<RoadsClient> client,
                               QueryMode mode) {
  if (!alive_) return;
  query_hops_.inc();
  client->on_arrival(id_);

  // Negative cache first, before admission: a remembered summary-prune
  // miss is answered empty at lookup cost without occupying a slot, so
  // false-positive storms (stale summaries under a staleness attack)
  // cannot queue out genuine queries. Start-mode queries never false-
  // positive, so only forwarded modes are checked.
  if (config_.query_cache_enabled && mode != QueryMode::kStart &&
      negative_cache_.contains(cache_key(*client, mode),
                               network_.simulator().now())) {
    cache_neg_hits_.inc();
    static const std::shared_ptr<const QueryReply> kMiss = [] {
      auto miss = std::make_shared<QueryReply>();
      miss->false_positive = true;
      return miss;
    }();
    network_.defer_span(id_, "proc", kQueryCacheHitDelay,
                        [this, client, epoch = life_epoch_] {
                          if (!alive_ || life_epoch_ != epoch) return;
                          serve(client, kMiss);
                        });
    return;
  }

  if (active_queries_ < slot_limit()) {
    ++active_queries_;
    begin_query(std::move(client), mode, obs::current_trace());
  } else if (query_queue_.size() < config_.query_queue_limit) {
    query_queue_.push_back(
        QueuedQuery{std::move(client), mode, obs::current_trace()});
  } else {
    shed_query(client);
  }
}

void RoadsServer::begin_query(std::shared_ptr<RoadsClient> client,
                              QueryMode mode,
                              const obs::TraceContext& arrival) {
  // The processing span opens at evaluation start so admission queueing
  // time is not attributed to per-hop processing; it parents under the
  // arrival's context, which a queued query no longer runs in.
  obs::ScopedTraceContext arrival_scope(arrival);
  std::shared_ptr<const QueryReply> cached;
  if (config_.query_cache_enabled) {
    cached = query_cache_.find(cache_key(*client, mode));
    (cached ? cache_hits_ : cache_misses_).inc();
  }
  // A hit holds its slot only for the lookup/assembly delay — the
  // source of the cache's sustainable-QPS win.
  const auto delay =
      cached ? kQueryCacheHitDelay : config_.query_processing_delay;
  // The epoch check keeps a query admitted before a crash from being
  // served (and from releasing a slot) by the restarted process.
  network_.defer_span(
      id_, "proc", delay,
      [this, epoch = life_epoch_, client = std::move(client), mode,
       reply = std::move(cached)]() mutable {
        if (!alive_ || life_epoch_ != epoch) return;
        if (!reply) {
          auto fresh =
              std::make_shared<const QueryReply>(evaluate(*client, mode));
          // Cache fill, keyed by the state stamp AT EVALUATION TIME
          // (the state the reply was computed from — a push that
          // landed while this query sat in the processing delay keys
          // the entry to the new state).
          if (config_.query_cache_enabled) {
            const auto key = cache_key(*client, mode);
            if (fresh->false_positive) {
              negative_cache_.insert(key, network_.simulator().now());
            }
            const auto evicted = query_cache_.insert(key, fresh);
            if (evicted > 0) cache_evicted_.inc(evicted);
          }
          reply = std::move(fresh);
        }
        serve(client, std::move(reply));
        finish_query();
      });
}

QueryReply RoadsServer::evaluate(const RoadsClient& client,
                                 QueryMode mode) const {
  const auto& q = client.query();
  QueryReply reply;
  auto& targets = reply.targets;

  // Local data: this server's own store...
  store::QueryStats stats{};
  const auto local_ids = store_.query(q, &stats);
  reply.local_matches = local_ids.size();
  if (client.collect_results()) {
    reply.records.reserve(local_ids.size());
    for (const auto rid : local_ids) reply.records.push_back(store_.get(rid));
  }
  // ...plus summary-only owner attachments. Co-located owners
  // answer through this server (policy applied); remote owners
  // are redirect targets probed in local-only mode.
  for (const auto& att : attachments_) {
    if (att.mode != ExportMode::kSummaryOnly || !att.summary) continue;
    if (!att.summary->matches(q)) continue;
    if (att.owner->node() == id_) {
      if (client.collect_results()) {
        auto records = att.owner->answer(client.principal(), q);
        reply.local_matches += records.size();
        for (auto& r : records) reply.records.push_back(std::move(r));
      } else {
        reply.local_matches += att.owner->answer_count(client.principal(), q);
      }
    } else {
      targets.emplace_back(att.owner->node(), QueryMode::kLocalOnly);
    }
  }

  // Branch descent through matching children (§III-B).
  if (mode != QueryMode::kLocalOnly) {
    for (const auto& [child, summary] : child_summaries_) {
      if (summary->matches(q)) targets.emplace_back(child, QueryMode::kBranch);
    }
  }

  // Overlay shortcuts, only from the start server (§III-C):
  // sibling / ancestor-sibling branches are descent entry points;
  // matching ancestor locals are probed local-only.
  if (mode == QueryMode::kStart) {
    // The client's scope limits how far up the hierarchy the
    // shortcuts may reach (§III-C's widening control).
    const unsigned scope = client.scope();
    for (const auto* r : replicas_.matching(q, overlay::SummaryKind::kBranch)) {
      if (r->spec.role != overlay::ReplicaRole::kAncestor &&
          r->spec.levels_up <= scope) {
        targets.emplace_back(r->spec.origin, QueryMode::kBranch);
        ++reply.shortcut_hits;
      }
    }
    for (const auto* r : replicas_.matching(q, overlay::SummaryKind::kLocal)) {
      if (r->spec.role == overlay::ReplicaRole::kAncestor &&
          r->spec.levels_up <= scope) {
        targets.emplace_back(r->spec.origin, QueryMode::kLocalOnly);
        ++reply.shortcut_hits;
      }
    }
  }

  // A summary somewhere matched this query and steered it here,
  // yet the server has nothing and nowhere further to send it —
  // the false-positive redirect cost of approximate summaries.
  reply.false_positive =
      mode != QueryMode::kStart && reply.local_matches == 0 && targets.empty();

  reply.results_pending = client.collect_results() && reply.local_matches > 0;
  if (reply.results_pending) {
    for (const auto& r : reply.records) reply.record_bytes += r.wire_size();
    stats.matches = reply.records.size();
    reply.service_us = store::service_time_us(config_.service_model, stats,
                                              reply.record_bytes);
  }
  return reply;
}

void RoadsServer::serve(const std::shared_ptr<RoadsClient>& client,
                        std::shared_ptr<const QueryReply> reply) {
  // The one place the §V meters (fp rate, shortcut usage) move, so
  // they stay cache-transparent.
  if (reply->false_positive) {
    query_false_positives_.inc();
    // Pinned to the processing span: the critical-path analyzer
    // marks the transit that fed this hop as detour time.
    trace_event(obs::TraceKind::kQueryFalsePositive, client->location(), 0.0,
                obs::current_trace().span);
  }
  if (reply->shortcut_hits > 0) overlay_shortcut_hits_.inc(reply->shortcut_hits);
  send_reply(network_, id_, client, std::move(reply));
}

void send_reply(sim::Network& network, sim::NodeId from,
                const std::shared_ptr<RoadsClient>& client,
                std::shared_ptr<const QueryReply> reply) {
  network.send(from, client->location(),
               msg::redirect_reply(reply->targets.size()), sim::Channel::kQuery,
               [client, from, reply] {
                 client->on_reply(from, reply->targets, reply->local_matches,
                                  reply->results_pending);
               });
  if (!reply->results_pending) return;
  // Retrieval time is its own span (child of proc) so response
  // critical paths separate evaluation from service delay. A sender
  // that died meanwhile is silenced by the network (node down).
  const auto service = reply->service_us;  // read before the move below
  network.defer_span(
      from, "service", service,
      [&network, from, client, reply = std::move(reply)] {
        network.send(from, client->location(), msg::results(reply->record_bytes),
                     sim::Channel::kResult, [client, from, reply] {
                       client->on_results(from, reply->records);
                     });
      });
}

std::size_t RoadsServer::slot_limit() const {
  // 0 keeps the historical infinite-server model: every query is
  // admitted immediately (bit-identical replay).
  const auto limit = config_.query_concurrency_limit;
  return limit == 0 ? SIZE_MAX : limit;
}

void RoadsServer::finish_query() {
  if (active_queries_ > 0) --active_queries_;
  while (!query_queue_.empty() && active_queries_ < slot_limit()) {
    auto next = std::move(query_queue_.front());
    query_queue_.pop_front();
    ++active_queries_;
    begin_query(std::move(next.client), next.mode, next.arrival);
  }
}

void RoadsServer::shed_query(const std::shared_ptr<RoadsClient>& client) {
  cache_sheds_.inc();
  network_.send(id_, client->location(), msg::overload_reply(),
                sim::Channel::kQuery, [client, server = id_] {
                  client->on_overload(server);
                });
}

std::uint64_t RoadsServer::cache_key(const RoadsClient& client,
                                     QueryMode mode) const {
  util::Fnv1a h;
  h.add(client.query().digest());
  h.add(static_cast<std::uint64_t>(mode));
  h.add(static_cast<std::uint64_t>(client.scope()));
  h.add(static_cast<std::uint64_t>(client.principal()));
  h.add(static_cast<std::uint64_t>(client.collect_results() ? 1 : 0));
  h.add(summary_state_stamp());
  return h.value();
}

std::uint64_t RoadsServer::summary_state_stamp() const {
  if (state_stamp_dirty_) {
    // The structural fold (child summaries + replicas) is the expensive
    // part — ResourceSummary::digest() walks every slot — so it is
    // cached behind the dirty flag. Keepalive pushes that re-deliver
    // unchanged digests recompute the same fold: the cache stays warm.
    util::Fnv1a fold;
    for (const auto& [child, summary] : child_summaries_) {
      fold.add(static_cast<std::uint64_t>(child));
      fold.add(summary->digest());
    }
    for (const auto* r : replicas_.all()) {
      fold.add(static_cast<std::uint64_t>(r->spec.origin));
      fold.add(static_cast<std::uint64_t>(r->spec.kind));
      fold.add(static_cast<std::uint64_t>(r->spec.role));
      fold.add(static_cast<std::uint64_t>(r->spec.levels_up));
      if (r->summary) fold.add(r->summary->digest());
    }
    state_stamp_fold_ = fold.value();
    state_stamp_dirty_ = false;
  }
  // Live versions are folded fresh on every lookup: record mutations —
  // including out-of-band ones a staleness attack performs directly on
  // owner stores — must invalidate without any protocol message.
  util::Fnv1a h;
  h.add(state_stamp_fold_);
  h.add(store_.version());
  for (const auto& att : attachments_) {
    if (att.mode != ExportMode::kSummaryOnly) continue;
    h.add(static_cast<std::uint64_t>(att.owner->node()));
    h.add(att.owner->store().version());
    h.add(att.exported_digest);
  }
  return h.value();
}

void RoadsServer::mark_summary_state_dirty() {
  if (state_stamp_dirty_) return;
  state_stamp_dirty_ = true;
  // Counts state transitions that (may) invalidate cached replies; an
  // upper bound on actual entry invalidation since an unchanged-digest
  // push recomputes an identical fold.
  if (config_.query_cache_enabled) cache_invalidates_.inc();
}

}  // namespace roads::core
