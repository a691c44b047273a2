// Layer-kernel replays for the traced run: each layer's hot public
// function, timed call by call on the run's own summaries, stores and
// queries. Never part of the timed run.
#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench.h"
#include "obs/profile.h"

namespace rb {

namespace {

/// Calls timed per kernel are capped so the replay stays a small share
/// of the traced run.
constexpr std::size_t kMatchQueries = 64;
constexpr std::size_t kStoreQueries = 32;

/// Times each call with the profiler's tick clock (cheaper than a
/// steady_clock read), minus the clock's own back-to-back cost.
class KernelTimer {
 public:
  KernelTimer() {
    util::Samples empty;
    for (int i = 0; i < 1001; ++i) {
      const auto a = obs::prof_ticks();
      const auto b = obs::prof_ticks();
      empty.add(static_cast<double>(b - a));
    }
    overhead_ticks_ = empty.percentile(50.0);
    ns_per_tick_ = 1000.0 / obs::prof_ticks_per_us();
  }

  template <class F>
  void time(util::Samples& into, F&& fn) {
    const auto a = obs::prof_ticks();
    fn();
    const auto b = obs::prof_ticks();
    const double ticks =
        std::max(0.0, static_cast<double>(b - a) - overhead_ticks_);
    into.add(ticks * ns_per_tick_);
  }

 private:
  double overhead_ticks_ = 0.0;
  double ns_per_tick_ = 1.0;
};

}  // namespace

void replay_kernels(core::Federation& fed, const Inputs& in, Tracer* t,
                    std::map<std::string, double>& out) {
  ScopedSpan all(t, "kernels", Layer::kBench);
  KernelTimer timer;
  std::uint64_t sink = 0;

  // Every distinct summary the federation holds: own branch and local
  // summaries, child summaries and overlay replicas.
  std::vector<const summary::ResourceSummary*> summaries;
  std::unordered_set<const void*> seen;
  const auto keep = [&](const overlay::SummaryPtr& p) {
    if (p && seen.insert(p.get()).second) summaries.push_back(p.get());
  };
  const auto servers = fed.servers();
  for (auto* s : servers) {
    keep(s->branch_summary());
    keep(s->local_summary());
    for (const auto& [_, c] : s->child_summaries()) keep(c);
    for (const auto* r : s->replicas().all()) keep(r->summary);
  }
  const std::size_t match_queries =
      std::min(kMatchQueries, in.queries.size());
  const std::size_t store_queries =
      std::min(kStoreQueries, in.queries.size());

  util::Samples digest, wire, merge, match, store_query, replica_match;
  {
    ScopedSpan span(t, "kernel.summary.digest", Layer::kSummary);
    for (const auto* s : summaries) {
      timer.time(digest, [&] { sink ^= s->digest(); });
    }
  }
  {
    ScopedSpan span(t, "kernel.summary.wire_size", Layer::kSummary);
    for (const auto* s : summaries) {
      timer.time(wire, [&] { sink += s->wire_size(); });
    }
  }
  {
    // The bottom-up merge: each server's local summary plus its
    // children's branch summaries.
    ScopedSpan span(t, "kernel.summary.merge", Layer::kSummary);
    for (auto* s : servers) {
      if (!s->local_summary() || s->child_summaries().empty()) continue;
      summary::ResourceSummary acc = *s->local_summary();
      for (const auto& [_, c] : s->child_summaries()) {
        if (c) timer.time(merge, [&] { acc.merge(*c); });
      }
      sink += acc.record_count();
    }
  }
  {
    ScopedSpan span(t, "kernel.summary.match", Layer::kSummary);
    for (std::size_t q = 0; q < match_queries; ++q) {
      for (const auto* s : summaries) {
        timer.time(match, [&] { sink += s->matches(in.queries[q]); });
      }
    }
  }
  {
    ScopedSpan span(t, "kernel.store.query", Layer::kStore);
    for (std::size_t q = 0; q < store_queries; ++q) {
      for (auto* s : servers) {
        timer.time(store_query,
                   [&] { sink += s->local_store().query(in.queries[q]).size(); });
      }
    }
  }
  {
    ScopedSpan span(t, "kernel.overlay.matching", Layer::kOverlay);
    for (std::size_t q = 0; q < store_queries; ++q) {
      for (auto* s : servers) {
        for (auto kind : {overlay::SummaryKind::kBranch,
                          overlay::SummaryKind::kLocal}) {
          timer.time(replica_match, [&] {
            sink += s->replicas().matching(in.queries[q], kind).size();
          });
        }
      }
    }
  }

  out["summary.digest_ns_p50"] = digest.percentile(50.0);
  out["summary.digest_ns_p99"] = digest.percentile(99.0);
  out["summary.wire_size_ns_p50"] = wire.percentile(50.0);
  out["summary.merge_ns_p50"] = merge.percentile(50.0);
  out["summary.match_ns_p50"] = match.percentile(50.0);
  out["summary.match_ns_p99"] = match.percentile(99.0);
  out["store.query_ns_p50"] = store_query.percentile(50.0);
  out["store.query_ns_p99"] = store_query.percentile(99.0);
  out["overlay.matching_ns_p50"] = replica_match.percentile(50.0);
  std::fprintf(stderr,
               "kernels: %zu summaries; calls digest=%zu wire=%zu merge=%zu "
               "match=%zu store.query=%zu overlay.matching=%zu (sink %llx)\n",
               summaries.size(), digest.count(), wire.count(), merge.count(),
               match.count(), store_query.count(), replica_match.count(),
               static_cast<unsigned long long>(sink));
}

}  // namespace rb
