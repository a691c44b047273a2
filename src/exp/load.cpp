#include "exp/load.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "central/central_repository.h"
#include "exp/experiment.h"
#include "record/schema.h"
#include "roads/federation.h"
#include "store/service_model.h"
#include "util/hash.h"
#include "util/stats.h"
#include "workload/distributions.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace roads::exp {

namespace {

struct Plan {
  std::vector<sim::Time> arrivals;
  std::vector<std::size_t> query_rank;   // population index per arrival
  std::vector<std::size_t> start_node;   // 0-based server index
  std::vector<record::Query> population;
};

/// The full pre-drawn schedule: arrival instants, Zipf ranks and start
/// nodes, all from seed-forked streams. Both systems replay the same
/// plan, and drawing everything up front keeps the RNG sequence
/// independent of execution interleaving (the determinism gate).
Plan make_plan(const LoadConfig& config, const record::Schema& schema,
               const workload::WorkloadSpec& spec) {
  Plan plan;
  util::Rng arrival_rng(config.seed ^ 0xa441u);
  plan.arrivals =
      workload::generate_arrivals(config.arrival, config.queries, arrival_rng);

  workload::QueryGenerator qgen(schema, spec, config.seed ^ 0x9e37u);
  plan.population = qgen.generate_batch(std::max<std::size_t>(1, config.population),
                                        config.query_dimensions,
                                        config.query_range_length);
  workload::ZipfSampler zipf(plan.population.size(), config.zipf_s);
  util::Rng zipf_rng(config.seed ^ 0x21bfu);
  util::Rng pick(config.seed ^ 0x51a7u);
  // Start nodes: the last `ingress_nodes` server ids (leaves under the
  // balanced join policy), or any node when ingress is 0/oversized.
  const std::size_t ingress =
      (config.ingress_nodes == 0 || config.ingress_nodes > config.nodes)
          ? config.nodes
          : config.ingress_nodes;
  plan.query_rank.reserve(config.queries);
  plan.start_node.reserve(config.queries);
  for (std::size_t i = 0; i < config.queries; ++i) {
    plan.query_rank.push_back(zipf.sample(zipf_rng));
    const auto slot = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(ingress) - 1));
    plan.start_node.push_back(config.nodes - 1 - slot);
  }
  return plan;
}

workload::RecordGenerator generator_for(const LoadConfig& config,
                                        const record::Schema& schema,
                                        const workload::WorkloadSpec& spec) {
  workload::RecordGenerator generator(schema, spec, config.seed);
  if (config.correlated_data) {
    generator.anchor_by_balanced_tree(config.nodes, config.max_children);
  }
  return generator;
}

void fold_outcome(util::Fnv1a& fp, bool complete, std::size_t sheds,
                  bool rejected, std::size_t contacted, std::size_t matches,
                  sim::Time latency_us) {
  fp.add(static_cast<std::uint64_t>(complete ? 1 : 0));
  fp.add(static_cast<std::uint64_t>(sheds));
  fp.add(static_cast<std::uint64_t>(rejected ? 1 : 0));
  fp.add(static_cast<std::uint64_t>(contacted));
  fp.add(static_cast<std::uint64_t>(matches));
  fp.add(static_cast<std::uint64_t>(latency_us));
}

}  // namespace

LoadMetrics run_roads_load(const LoadConfig& config) {
  const auto schema = record::Schema::uniform_numeric(config.attributes);
  const auto spec = workload::WorkloadSpec::paper_default(
      config.attributes, config.records_per_node);
  const auto generator = generator_for(config, schema, spec);
  const auto plan = make_plan(config, schema, spec);

  core::FederationParams params;
  params.schema = schema;
  params.seed = config.seed;
  params.threads = config.threads;
  params.config.max_children = config.max_children;
  params.config.summary.histogram_buckets = config.histogram_buckets;
  params.config.summary_refresh_period = config.summary_period;
  params.config.summary_ttl = 4 * config.summary_period;
  params.config.query_cache_enabled = config.cache_enabled;
  params.config.query_concurrency_limit = config.concurrency_limit;
  params.config.query_queue_limit = config.queue_limit;
  if (config.processing_delay > 0) {
    params.config.query_processing_delay = config.processing_delay;
  }

  core::Federation fed(std::move(params));
  fed.add_servers(config.nodes);
  attach_detailed_owners(fed, generator);
  fed.start();
  fed.stabilize();
  // Summaries held steady through the measurement, like the closed-loop
  // batch: ts is minutes, a load sweep is seconds.
  fed.set_refresh_paused(true);

  // Cache meters accumulated during stabilization (invalidation marks
  // from summary pushes) are not part of the measurement.
  auto& hit_ctr = fed.metrics().counter("roads.query.cache.hit");
  auto& miss_ctr = fed.metrics().counter("roads.query.cache.miss");
  auto& neg_ctr = fed.metrics().counter("roads.query.cache.neg_hit");
  auto& evict_ctr = fed.metrics().counter("roads.query.cache.evicted");
  auto& inval_ctr = fed.metrics().counter("roads.query.cache.invalidate");
  const auto hits0 = hit_ctr.value();
  const auto misses0 = miss_ctr.value();
  const auto negs0 = neg_ctr.value();
  const auto evicted0 = evict_ctr.value();
  const auto inval0 = inval_ctr.value();

  // Open-loop issue: every arrival is a pre-scheduled engine event that
  // starts its client; nothing waits for anything.
  const auto t0 = fed.network().simulator().now();
  std::vector<std::shared_ptr<core::RoadsClient>> clients(plan.arrivals.size());
  for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
    fed.network().simulator().schedule_after(
        plan.arrivals[i], [&fed, &clients, &plan, i] {
          clients[i] = fed.issue_query(
              plan.population[plan.query_rank[i]],
              static_cast<sim::NodeId>(plan.start_node[i]));
        });
  }
  const auto all_done = [&clients] {
    for (const auto& c : clients) {
      if (!c || !c->done()) return false;
    }
    return true;
  };
  std::size_t guard = 0;
  while (!all_done()) {
    if (fed.step(2048) == 0) break;  // queue drained with clients open
    if (++guard > 200'000) {
      throw std::runtime_error("run_roads_load: measurement did not complete");
    }
  }

  LoadMetrics out;
  out.issued = clients.size();
  util::Samples served;
  util::Fnv1a fp;
  sim::Time last_done = 0;
  for (const auto& c : clients) {
    if (!c) continue;
    fed.note_query_complete(*c);
    const auto& r = c->result();
    fold_outcome(fp, r.complete, r.sheds, r.rejected, r.servers_contacted,
                 r.matching_records, r.forwarding_latency());
    if (r.complete) ++out.completed;
    out.shed_events += r.sheds;
    if (r.rejected) {
      ++out.rejected;
      continue;
    }
    if (r.complete) {
      served.add(sim::to_ms(r.forwarding_latency()));
      last_done = std::max(last_done, r.last_arrival);
    }
  }
  out.fingerprint = fp.value();
  out.mean_ms = served.mean();
  out.p50_ms = served.percentile(50.0);
  out.p99_ms = served.percentile(99.0);

  const auto offered_span = plan.arrivals.empty() ? 0 : plan.arrivals.back();
  if (offered_span > 0) {
    out.offered_qps = static_cast<double>(out.issued) /
                      sim::to_seconds(offered_span);
  }
  if (last_done > t0) {
    out.span_s = sim::to_seconds(last_done - t0);
    out.goodput_qps = static_cast<double>(served.count()) / out.span_s;
  }
  out.cache_hits = hit_ctr.value() - hits0;
  out.cache_misses = miss_ctr.value() - misses0;
  out.neg_hits = neg_ctr.value() - negs0;
  out.evicted = evict_ctr.value() - evicted0;
  out.invalidates = inval_ctr.value() - inval0;
  if (out.cache_hits + out.cache_misses > 0) {
    out.hit_rate = static_cast<double>(out.cache_hits) /
                   static_cast<double>(out.cache_hits + out.cache_misses);
  }
  return out;
}

LoadMetrics run_central_load(const LoadConfig& config) {
  const auto schema = record::Schema::uniform_numeric(config.attributes);
  const auto spec = workload::WorkloadSpec::paper_default(
      config.attributes, config.records_per_node);
  const auto generator = generator_for(config, schema, spec);
  const auto plan = make_plan(config, schema, spec);

  central::CentralParams params;
  params.schema = schema;
  params.seed = config.seed;
  central::CentralRepository repo(config.nodes, params);
  for (std::size_t n = 0; n < config.nodes; ++n) {
    repo.set_records(static_cast<sim::NodeId>(n + 1),
                     generator.records_for_node(
                         static_cast<std::uint32_t>(n),
                         static_cast<record::OwnerId>(n + 1)));
  }
  repo.run_export_round();

  // The repository's store is static during the measurement, so each
  // distinct population query has one service time — precompute it.
  std::vector<sim::Time> service(plan.population.size(), 0);
  for (std::size_t i = 0; i < plan.population.size(); ++i) {
    store::QueryStats stats{};
    const auto ids = repo.store().query(plan.population[i], &stats);
    stats.matches = ids.size();
    service[i] = store::service_time_us(repo.service_model(), stats, 0);
  }

  // Analytic single-server FIFO queue: arrivals in schedule order, the
  // repository serves one query at a time under the service model, and
  // replies ride the delay space back. No admission control, no cache —
  // past saturation the backlog (and p99) grows without bound, which is
  // exactly the contrast the sweep plots.
  LoadMetrics out;
  out.issued = plan.arrivals.size();
  util::Samples lat;
  util::Fnv1a fp;
  sim::Time free_at = 0;
  sim::Time last_done = 0;
  for (std::size_t i = 0; i < plan.arrivals.size(); ++i) {
    const auto at = plan.arrivals[i];
    const auto client =
        static_cast<sim::NodeId>(plan.start_node[i] % config.nodes + 1);
    const auto rank = plan.query_rank[i];
    const auto reach = at + repo.network().latency(client, 0);
    const auto begin = std::max(reach, free_at);
    const auto done = begin + service[rank];
    free_at = done;
    const auto reply = done + repo.network().latency(0, client);
    lat.add(sim::to_ms(reply - at));
    last_done = std::max(last_done, reply);
    fold_outcome(fp, true, 0, false, 1, 0, reply - at);
  }
  out.completed = out.issued;
  out.fingerprint = fp.value();
  out.mean_ms = lat.mean();
  out.p50_ms = lat.percentile(50.0);
  out.p99_ms = lat.percentile(99.0);
  const auto offered_span = plan.arrivals.empty() ? 0 : plan.arrivals.back();
  if (offered_span > 0) {
    out.offered_qps =
        static_cast<double>(out.issued) / sim::to_seconds(offered_span);
  }
  if (last_done > 0) {
    out.span_s = sim::to_seconds(last_done);
    out.goodput_qps = static_cast<double>(lat.count()) / out.span_s;
  }
  return out;
}

}  // namespace roads::exp
