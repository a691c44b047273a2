// Federation invariant checker (the chaos tests' oracle).
//
// check_invariants() walks a live Federation and verifies the
// machine-checkable part of the paper's correctness story:
//
//  structural (§III-A):
//   * parent chains are acyclic and end at a root (forest shape);
//   * after convergence there is exactly one root (optional — during a
//     partition several roots are legitimate);
//   * child/parent tables are symmetric: every child a parent lists
//     claims that parent, every alive server's parent lists it;
//   * no alive server keeps a dead parent or (with maintenance on) a
//     dead child past failure detection;
//   * root paths are consistent (end with the owner, second-to-last is
//     the parent);
//   * summary state is bounded by live neighbours: push-ledger
//     destinations are children or the parent, ledger streams are the
//     server's own, a child's branch or a held replica, and child
//     summaries belong to current children and are non-null.
//
//  semantic (§III-B soft state):
//   * summary soundness — a point query for a record held by any alive
//     server, issued from anywhere, finds it (no false negatives after
//     quiescence). Probes run real queries, so they advance the
//     simulated clock and charge the query meters: do not call with
//     soundness enabled where §V meter readings are still needed;
//   * replica TTL liveness — no replica outlives its TTL by more than
//     the sweep cadence (maintenance on only);
//   * storage accounting — the incrementally maintained stored_bytes()
//     figures equal a from-scratch recount.
//
// The checker only reads state it can reach through public accessors
// and reports ALL violations it finds (not just the first), so a chaos
// failure message names every broken invariant at once.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "roads/federation.h"

namespace roads::testing {

struct InvariantOptions {
  bool structure = true;
  /// Require exactly one root among alive servers. Turn off while a
  /// partition is open (each side legitimately has its own root).
  bool expect_single_root = true;
  /// Probe summary soundness with real queries (clock + meter impact,
  /// see header comment). Skipped automatically unless the forest has
  /// converged to a single root.
  bool summary_soundness = true;
  /// Max soundness probes; 0 = probe every record.
  std::size_t soundness_probes = 16;
  bool replica_ttl = true;
  bool storage_accounting = true;
};

struct InvariantReport {
  std::vector<std::string> violations;
  /// Individual checks evaluated (for "did it actually check anything").
  std::size_t checks_run = 0;

  bool ok() const { return violations.empty(); }
  /// Multi-line summary ("all N checks passed" or one violation per
  /// line) for assertion messages.
  std::string to_string() const;
};

/// Runs every enabled invariant over `fed` and returns the report.
InvariantReport check_invariants(core::Federation& fed,
                                 const InvariantOptions& options = {});

}  // namespace roads::testing
