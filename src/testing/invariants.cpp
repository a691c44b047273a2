#include "testing/invariants.h"

#include <algorithm>
#include <sstream>

namespace roads::testing {

namespace {

class Checker {
 public:
  Checker(core::Federation& fed, const InvariantOptions& options)
      : fed_(fed), options_(options) {
    for (auto* s : fed_.servers()) {
      if (s->alive()) alive_.push_back(s);
    }
  }

  InvariantReport run() {
    if (options_.structure) {
      check_structure();
      check_summary_state();
    }
    if (options_.storage_accounting) check_storage_accounting();
    if (options_.replica_ttl) check_replica_ttl();
    // Soundness goes last: its probes advance the simulated clock, so
    // every other check sees the state the caller handed us.
    if (options_.summary_soundness) check_summary_soundness();
    return std::move(report_);
  }

 private:
  template <typename... Parts>
  void expect(bool condition, Parts&&... parts) {
    ++report_.checks_run;
    if (condition) return;
    std::ostringstream out;
    (out << ... << parts);
    report_.violations.push_back(out.str());
  }

  std::size_t root_count() const {
    std::size_t roots = 0;
    for (const auto* s : alive_) {
      if (s->is_root()) ++roots;
    }
    return roots;
  }

  void check_structure() {
    const std::size_t n = fed_.server_count();
    for (auto* s : alive_) {
      const sim::NodeId id = s->id();

      // Parent chain: alive ancestors, no cycle, ends at a root.
      // Without maintenance nothing detects a dead parent, so only the
      // id-validity half applies there.
      if (auto p = s->parent()) {
        expect(*p < n, "server ", id, ": parent ", *p, " is unknown");
        if (fed_.config().maintenance_enabled) {
          expect(*p < n && fed_.server(*p).alive(), "server ", id,
                 ": parent ", *p, " is dead");
        }
        std::vector<bool> seen(n, false);
        seen[id] = true;
        core::RoadsServer* cur = s;
        std::size_t steps = 0;
        while (cur->parent() && steps++ <= n) {
          const sim::NodeId next = *cur->parent();
          if (next >= n || !fed_.server(next).alive()) break;  // reported above
          if (seen[next]) {
            expect(false, "server ", id, ": parent chain has a cycle through ",
                   next);
            break;
          }
          seen[next] = true;
          cur = &fed_.server(next);
        }
        expect(steps <= n, "server ", id, ": parent chain longer than ", n,
               " hops");
      }

      // Child/parent symmetry, child side: our parent lists us.
      if (auto p = s->parent()) {
        if (*p < n && fed_.server(*p).alive()) {
          expect(fed_.server(*p).children().has(id), "server ", id,
                 ": parent ", *p, " does not list it as a child");
        }
      }
      // Parent side: every child we list is alive and claims us.
      for (const auto child : s->children().ids()) {
        const bool child_known = child < n;
        const bool child_alive = child_known && fed_.server(child).alive();
        if (fed_.config().maintenance_enabled) {
          expect(child_alive, "server ", id, ": retains dead child ", child);
        }
        if (child_alive) {
          const auto cp = fed_.server(child).parent();
          expect(cp && *cp == id, "server ", id, ": child ", child,
                 " claims parent ",
                 cp ? std::to_string(*cp) : std::string("none"));
        }
      }

      // Root-path consistency.
      const auto& path = s->root_path();
      expect(!path.empty(), "server ", id, ": empty root path");
      if (!path.empty()) {
        expect(path.self() == id, "server ", id, ": root path ends at ",
               path.self());
        if (auto p = s->parent()) {
          expect(path.length() >= 2 && path.parent() == *p, "server ", id,
                 ": root path parent ", path.parent(),
                 " disagrees with parent ", *p);
        } else {
          expect(path.length() == 1, "server ", id,
                 ": is root but root path has length ", path.length());
        }
      }
    }

    if (!alive_.empty()) {
      const std::size_t roots = root_count();
      if (options_.expect_single_root) {
        expect(roots == 1, "expected exactly one root, found ", roots);
      } else {
        expect(roots >= 1, "no root among ", alive_.size(),
               " alive servers");
      }
    }
  }

  // Per-server summary state names only live neighbours and streams:
  // the push ledger's destinations are children or the parent, its
  // streams are the server's own, a child's branch or a held replica,
  // and every child summary belongs to a current child.
  void check_summary_state() {
    for (auto* s : alive_) {
      const sim::NodeId id = s->id();
      const auto& children = s->children();
      for (const auto& [dest, streams] : s->push_ledger()) {
        expect(children.has(dest) || s->parent() == dest, "server ", id,
               ": push ledger keeps departed destination ", dest);
        for (const auto& [stream, _] : streams) {
          const auto [origin, kind] = stream;
          const bool child_branch =
              kind == overlay::SummaryKind::kBranch && children.has(origin);
          expect(origin == id || child_branch ||
                     s->replicas().has(origin, kind),
                 "server ", id, ": push ledger to ", dest,
                 " keeps dead stream (", origin, ", ",
                 overlay::to_string(kind), ")");
        }
      }
      for (const auto& [child, summary] : s->child_summaries()) {
        expect(children.has(child) && summary != nullptr, "server ", id,
               ": child summary for ", child,
               children.has(child) ? " is null" : " outlives the child");
      }
    }
  }

  void check_storage_accounting() {
    for (auto* s : alive_) {
      const sim::NodeId id = s->id();
      const auto& store = s->local_store();
      std::uint64_t record_bytes = 0;
      for (const auto& r : store.snapshot()) record_bytes += r.wire_size();
      expect(store.stored_bytes() == record_bytes, "server ", id,
             ": stored_bytes() ", store.stored_bytes(), " != recount ",
             record_bytes);

      std::uint64_t replica_bytes = 0;
      for (const auto* rep : s->replicas().all()) {
        if (rep->summary) replica_bytes += rep->summary->wire_size();
      }
      expect(s->replicas().stored_bytes() == replica_bytes, "server ", id,
             ": replica stored_bytes() ", s->replicas().stored_bytes(),
             " != recount ", replica_bytes);

      std::uint64_t summary_bytes = replica_bytes;
      for (const auto& [origin, sum] : s->child_summaries()) {
        if (sum) summary_bytes += sum->wire_size();
      }
      if (s->local_summary()) summary_bytes += s->local_summary()->wire_size();
      if (s->branch_summary()) {
        summary_bytes += s->branch_summary()->wire_size();
      }
      expect(s->stored_summary_bytes() == summary_bytes, "server ", id,
             ": stored_summary_bytes() ", s->stored_summary_bytes(),
             " != recount ", summary_bytes);
    }
  }

  void check_replica_ttl() {
    if (!fed_.config().maintenance_enabled) return;  // nothing sweeps
    const sim::Time now = fed_.simulator().now();
    // Sweeps run on the failure-check timer (every heartbeat period,
    // staggered), so a replica may outlive its TTL by up to ~1.5
    // periods before the next sweep removes it; 2 periods is the safe
    // bound that still catches "never swept".
    const sim::Time slack = 2 * fed_.config().heartbeat_period;
    for (auto* s : alive_) {
      for (const auto* rep : s->replicas().all()) {
        const sim::Time age = now - rep->received_at;
        expect(age <= s->replicas().ttl() + slack, "server ", s->id(),
               ": replica from ", rep->spec.origin, " is ", age,
               "us old (ttl ", s->replicas().ttl(), " + slack ", slack, ")");
      }
    }
  }

  void check_summary_soundness() {
    // Reachability across the whole forest only holds with one tree.
    if (alive_.empty() || root_count() != 1) return;

    // Deterministic probe sample: all (server, record) pairs in id
    // order, strided down to the probe budget.
    struct Probe {
      core::RoadsServer* holder;
      record::ResourceRecord record;
    };
    std::vector<Probe> all;
    for (auto* s : alive_) {
      for (auto& r : s->local_store().snapshot()) {
        all.push_back({s, std::move(r)});
      }
    }
    if (all.empty()) return;
    std::vector<Probe> probes;
    if (options_.soundness_probes == 0 ||
        all.size() <= options_.soundness_probes) {
      probes = std::move(all);
    } else {
      const std::size_t stride = all.size() / options_.soundness_probes;
      for (std::size_t i = 0; i < options_.soundness_probes; ++i) {
        probes.push_back(std::move(all[i * stride]));
      }
    }

    const auto searchable = fed_.schema().searchable_indices();
    std::size_t start_cursor = 0;
    for (const auto& probe : probes) {
      // Point query on up to 3 searchable numeric attributes — range
      // bounds are inclusive, so [v, v] matches exactly that value.
      record::Query q;
      std::size_t dims = 0;
      for (const auto attr : searchable) {
        if (dims == 3) break;
        const auto& value = probe.record.values()[attr];
        if (!value.is_numeric()) continue;
        q.add(record::Predicate::range(attr, value.number(), value.number()));
        ++dims;
      }
      if (dims == 0) continue;

      std::size_t ground_truth = 0;
      for (auto* s : alive_) {
        ground_truth += s->local_store().count_matching(q);
      }

      // Issue from a different server each probe; soundness promises
      // the record is reachable from anywhere.
      core::RoadsServer* start = alive_[start_cursor++ % alive_.size()];
      const auto outcome = fed_.run_query(q, start->id());
      expect(outcome.complete, "soundness probe for record ",
             probe.record.id(), " (held by ", probe.holder->id(),
             ") did not complete from server ", start->id());
      expect(outcome.matching_records >= ground_truth,
             "soundness probe for record ", probe.record.id(), " (held by ",
             probe.holder->id(), ") found ", outcome.matching_records,
             " matches from server ", start->id(), ", ground truth ",
             ground_truth);
    }
  }

  core::Federation& fed_;
  const InvariantOptions& options_;
  std::vector<core::RoadsServer*> alive_;
  InvariantReport report_;
};

}  // namespace

std::string InvariantReport::to_string() const {
  if (violations.empty()) {
    return "all " + std::to_string(checks_run) + " invariant checks passed";
  }
  std::ostringstream out;
  out << violations.size() << " invariant violation(s):";
  for (const auto& v : violations) out << "\n  - " << v;
  return out.str();
}

InvariantReport check_invariants(core::Federation& fed,
                                 const InvariantOptions& options) {
  return Checker(fed, options).run();
}

}  // namespace roads::testing
