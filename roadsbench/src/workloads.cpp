// Set-up and the measured phase of the three workloads, one federation
// at a time, through core::Federation's public API.
#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "store/record_store.h"
#include "testing/invariants.h"
#include "util/hash.h"

namespace rb {

namespace {

core::FederationParams params_for(const Shape& shape, const Inputs& in,
                                  const RunOptions& opt) {
  core::FederationParams p;
  p.schema = in.schema;
  p.seed = in.seed;
  p.threads = opt.threads;
  p.profile = opt.tracer != nullptr;
  // No structured trace ring: with it, every run_query also rebuilds a
  // span tree for its critical path, which would dominate query_scan's
  // host time with observability work. Model outputs are the same
  // either way.
  p.trace_capacity = 0;
  auto& c = p.config;
  c.max_children = kDegree;
  c.join_policy = hierarchy::JoinPolicyKind::kBalanced;
  c.summary.histogram_buckets = kBuckets;
  c.summary_keepalive_rounds = kKeepaliveRounds;
  c.summary_refresh_period = shape.refresh_period;
  c.summary_ttl = 4 * shape.refresh_period;
  c.query_cache_enabled = shape.cache;
  c.query_concurrency_limit = shape.concurrency_limit;
  c.query_queue_limit = shape.queue_limit;
  c.query_processing_delay = shape.processing_delay;
  return p;
}

/// Set-up: record generation through stabilize(), timed as setup_s.
std::unique_ptr<core::Federation> set_up(const Shape& shape, const Inputs& in,
                                         const RunOptions& opt,
                                         RunResult& r) {
  Tracer* t = opt.tracer;
  ScopedSpan setup_span(t, "setup", Layer::kBench);
  std::int64_t host_ns = 0;
  const auto c0 = cpu_ns();
  std::vector<std::vector<record::ResourceRecord>> records(kServers);
  {
    ScopedSpan span(t, "workload.gen", Layer::kWorkload);
    const auto gen = record_generator(in);
    for (std::size_t s = 0; s < kServers; ++s) {
      records[s] = gen.records_for_node(static_cast<std::uint32_t>(s),
                                        static_cast<record::OwnerId>(s + 1));
    }
  }
  auto fed = std::make_unique<core::Federation>(params_for(shape, in, opt));
  {
    // Joins micro-step on this thread under either engine.
    ScopedSpan span(t, "hierarchy.join", Layer::kHierarchy);
    fed->add_servers(kServers);
  }
  {
    ScopedSpan span(t, "store.attach", Layer::kStore);
    for (std::size_t s = 0; s < kServers; ++s) {
      const auto node = static_cast<sim::NodeId>(s);
      auto owner = fed->add_owner(node, core::ExportMode::kDetailedRecords);
      // Churn rebuilds records with owner id s + 1 (add_owner numbers
      // owners from 1 in call order).
      if (owner->id() != s + 1) {
        throw std::logic_error("set-up: unexpected owner id");
      }
      for (auto& rec : records[s]) owner->store().insert(std::move(rec));
      fed->server(node).attach_owner(owner, core::ExportMode::kDetailedRecords);
    }
  }
  fed->start();  // outside the drive below, which times engine work only
  host_ns += cpu_ns() - c0;
  {
    ScopedSpan span(t, "sim.stabilize", Layer::kSim);
    host_ns += drive_ns(*fed, [&] { fed->stabilize(); });
  }
  r.setup_s = static_cast<double>(host_ns) * 1e-9;
  return fed;
}

/// Replaces 1% of every server's records with pre-generated values.
void apply_churn(core::Federation& fed, const Inputs& in, std::size_t batch,
                 Tracer* t) {
  if (batch >= in.churn.batches) {
    throw std::runtime_error("churn plan exhausted");
  }
  ScopedSpan span(t, "churn.batch", Layer::kBench, batch);
  for (std::size_t s = 0; s < kServers; ++s) {
    auto& store = fed.server(static_cast<sim::NodeId>(s)).local_store();
    for (std::size_t k = 0; k < kChurnPerServer; ++k) {
      const double* v = in.churn.value(batch, s, k);
      std::vector<record::AttributeValue> values;
      values.reserve(kAttributes);
      for (std::size_t a = 0; a < kAttributes; ++a) values.emplace_back(v[a]);
      record::ResourceRecord rec(
          s * 1'000'000ULL + in.churn.slot(batch, s, k),
          static_cast<record::OwnerId>(s + 1), std::move(values));
      ScopedSpan u(t, "store.update", Layer::kStore);
      store.update(std::move(rec));
    }
  }
}

void fold_outcome(util::Fnv1a& fp, bool complete, std::size_t sheds,
                  bool rejected, std::size_t contacted, std::size_t matches,
                  sim::Time latency_us) {
  fp.add(static_cast<std::uint64_t>(complete));
  fp.add(static_cast<std::uint64_t>(sheds));
  fp.add(static_cast<std::uint64_t>(rejected));
  fp.add(static_cast<std::uint64_t>(contacted));
  fp.add(static_cast<std::uint64_t>(matches));
  fp.add(static_cast<std::uint64_t>(latency_us));
}

/// Accumulates the query-side model metrics of one batch.
struct QueryTally {
  util::Samples latency_ms;  // good answers
  util::RunningStat contacted;
  std::uint64_t query_bytes = 0;
  std::size_t issued = 0, good = 0, partial = 0, rejected = 0,
              incomplete = 0, late = 0;
  double limit_ms = 0.0;  // 0 = no latency limit (closed loop)
  util::Fnv1a fp;

  void add(bool complete, std::size_t sheds, bool rejected_, std::size_t
           contacted_, std::size_t matches, sim::Time latency_us) {
    fold_outcome(fp, complete, sheds, rejected_, contacted_, matches,
                 latency_us);
    ++issued;
    if (!complete) {
      ++incomplete;
      return;
    }
    if (rejected_) {
      ++rejected;
      return;
    }
    if (sheds > 0) {
      ++partial;
      return;
    }
    ++good;
    const double ms = sim::to_ms(latency_us);
    if (limit_ms > 0.0 && ms > limit_ms) ++late;
    latency_ms.add(ms);
    contacted.add(static_cast<double>(contacted_));
  }

  /// `span_s`: simulated seconds over which the batch was offered.
  void into(Model& m, double span_s) const {
    m.sim_latency_ms_p50 = latency_ms.percentile(50.0);
    m.sim_latency_ms_p99 = latency_ms.percentile(99.0);
    m.latency_samples = latency_ms.count();
    m.servers_contacted_mean = contacted.mean();
    m.query_bytes_mean = issued ? static_cast<double>(query_bytes) /
                                      static_cast<double>(issued)
                                : 0.0;
    m.goodput_qps =
        span_s > 0.0 ? static_cast<double>(good - late) / span_s : 0.0;
    m.good_frac = issued ? static_cast<double>(good) /
                               static_cast<double>(issued)
                         : 0.0;
    m.issued = issued;
    m.partial = partial;
    m.rejected = rejected;
    m.incomplete = incomplete;
    m.late = late;
    m.fingerprint = fp.value();
  }
};

double storage_bytes_max(core::Federation& fed) {
  std::uint64_t best = 0;
  for (auto* s : fed.servers()) {
    best = std::max(best, s->stored_summary_bytes());
  }
  return static_cast<double>(best);
}

/// Closed-loop batch: one query in flight, each a run_query call.
/// Returns the simulated seconds the batch spanned.
double closed_loop(core::Federation& fed, const Inputs& in, Tracer* t,
                   QueryTally& tally, RunResult* timed,
                   const std::vector<std::size_t>* expected) {
  auto& sim = fed.simulator();
  double span_s = 0.0;
  const auto bytes0 = fed.network().meter(sim::Channel::kQuery).bytes;
  for (std::size_t i = 0; i < in.queries.size(); ++i) {
    const auto sim0 = sim.now();
    const auto c0 = cpu_ns();
    core::QueryOutcome out;
    {
      ScopedSpan span(t, "roads.run_query", Layer::kRoads, i);
      out = fed.run_query(in.queries[i], in.query_start[i]);
    }
    if (timed) timed->op_host_us.add(static_cast<double>(cpu_ns() - c0) * 1e-3);
    span_s += sim::to_seconds(sim.now() - sim0);
    tally.add(out.complete, out.sheds, out.rejected, out.servers_contacted,
              out.matching_records,
              static_cast<sim::Time>(std::llround(out.latency_ms * 1000.0)));
    if (timed) {
      ++timed->ops;
      if (out.sheds > 0 && !out.rejected) ++timed->partial;
      if (out.rejected) ++timed->rejected;
    }
    if (expected && out.matching_records != (*expected)[i]) {
      throw std::runtime_error(
          "recall: query " + std::to_string(i) + " matched " +
          std::to_string(out.matching_records) + " records, stores hold " +
          std::to_string((*expected)[i]));
    }
  }
  tally.query_bytes =
      fed.network().meter(sim::Channel::kQuery).bytes - bytes0;
  return span_s;
}

/// The recall oracle: per query, the number of matching records over
/// every server's store. Counted on one indexed store holding the union
/// of the server stores (the same sum as count_matching per server,
/// at a fraction of the cost).
std::vector<std::size_t> count_matches(core::Federation& fed,
                                       const Inputs& in) {
  store::RecordStore all(in.schema);
  for (auto* s : fed.servers()) {
    for (auto& rec : s->local_store().snapshot()) all.insert(std::move(rec));
  }
  std::vector<std::size_t> out;
  out.reserve(in.queries.size());
  for (const auto& q : in.queries) out.push_back(all.count_matching(q));
  return out;
}

/// Update-channel bytes per simulated second over one keepalive cycle
/// of refresh periods with no churn: the paper's update overhead of a
/// quiet federation.
double quiet_update_rate(core::Federation& fed, const Shape& shape,
                         Tracer* t) {
  ScopedSpan span(t, "update_cycle", Layer::kBench);
  const auto b0 = fed.network().meter(sim::Channel::kUpdate).bytes;
  fed.set_refresh_paused(false);
  {
    ScopedSpan adv(t, "sim.advance", Layer::kSim);
    fed.advance(static_cast<sim::Time>(kKeepaliveRounds) *
                shape.refresh_period);
  }
  const auto bytes = fed.network().meter(sim::Channel::kUpdate).bytes - b0;
  return static_cast<double>(bytes) /
         (static_cast<double>(kKeepaliveRounds) *
          sim::to_seconds(shape.refresh_period));
}

// --- refresh_churn ---------------------------------------------------------

void run_refresh_churn(core::Federation& fed, const Shape& shape,
                       const Inputs& in, const RunOptions& opt,
                       RunResult& r) {
  Tracer* t = opt.tracer;
  std::size_t batch = 0;
  const auto run_rounds = [&](std::size_t rounds) {
    ScopedSpan measure(t, "measure", Layer::kBench);
    for (std::size_t i = 0; i < rounds; ++i) {
      std::int64_t host_ns = 0;
      {
        const std::size_t b = batch++;
        ScopedSpan round(t, "round", Layer::kBench, b);
        const auto c0 = cpu_ns();
        apply_churn(fed, in, b, t);
        host_ns = cpu_ns() - c0;
        ScopedSpan adv(t, "sim.advance", Layer::kSim, b);
        host_ns += drive_ns(fed, [&] { fed.advance(shape.refresh_period); });
      }
      const auto us = static_cast<double>(host_ns) * 1e-3;
      r.op_host_us.add(us);
      r.measured_s += us * 1e-6;
      ++r.ops;
    }
  };

  if (t) r.layers.begin(fed);
  const auto u0 = fed.network().meter(sim::Channel::kUpdate).bytes;
  run_rounds(kFirstBlockRounds);
  if (t) r.layers.end(fed);

  // Model metrics of the first block (untimed from here on): update
  // rate and storage, then a probe batch with summaries frozen.
  r.model.update_bytes_per_s =
      static_cast<double>(fed.network().meter(sim::Channel::kUpdate).bytes -
                          u0) /
      (static_cast<double>(kFirstBlockRounds) *
       sim::to_seconds(shape.refresh_period));
  r.model.storage_bytes_max = storage_bytes_max(fed);
  {
    ScopedSpan probe(t, "probe", Layer::kBench);
    fed.set_refresh_paused(true);
    QueryTally tally;
    const double span_s = closed_loop(fed, in, t, tally, nullptr, nullptr);
    tally.into(r.model, span_s);
    fed.set_refresh_paused(false);
  }
  if (opt.model_only) return;

  if (t) r.layers.begin(fed);
  while (r.measured_s < opt.budget_s &&
         batch + kBlockRounds <= in.churn.batches) {
    run_rounds(kBlockRounds);
  }
  if (t) r.layers.end(fed);
}

// --- query_scan ------------------------------------------------------------

void run_query_scan(core::Federation& fed, const Shape& shape,
                    const Inputs& in, const RunOptions& opt, RunResult& r) {
  Tracer* t = opt.tracer;
  fed.set_refresh_paused(true);
  std::vector<std::size_t> local_expected;
  std::vector<std::size_t>* expected =
      opt.expected_matches ? opt.expected_matches : &local_expected;
  if (expected->empty()) {
    ScopedSpan span(t, "check.recall_oracle", Layer::kStore);
    *expected = count_matches(fed, in);
  }

  if (t) r.layers.begin(fed);
  std::uint64_t first_fp = 0;
  for (std::size_t block = 0;; ++block) {
    QueryTally tally;
    const auto w0 = r.op_host_us.sum();
    double span_s = 0.0;
    {
      ScopedSpan measure(t, "measure", Layer::kBench, block);
      span_s = closed_loop(fed, in, t, tally, &r, expected);
    }
    r.measured_s += (r.op_host_us.sum() - w0) * 1e-6;
    if (block == 0) {
      tally.into(r.model, span_s);
      first_fp = tally.fp.value();
      if (opt.model_only) break;
    } else if (tally.fp.value() != first_fp) {
      r.failures.push_back("query_scan: replay of block " +
                           std::to_string(block) +
                           " diverged from the first block");
    }
    if (r.measured_s >= opt.budget_s) break;
  }
  if (t) r.layers.end(fed);

  r.model.storage_bytes_max = storage_bytes_max(fed);
  r.model.update_bytes_per_s = quiet_update_rate(fed, shape, t);
}

// --- serve_mixed -----------------------------------------------------------

/// Engine events per step call of the open-loop drive loop.
constexpr std::size_t kStepBatch = 1024;

void run_serve_mixed(core::Federation& fed, const Inputs& in,
                     const RunOptions& opt, RunResult& r) {
  Tracer* t = opt.tracer;
  auto& sim = fed.simulator();
  const std::size_t n = kBlockArrivals;
  std::size_t churn_batch = 0;

  if (t) r.layers.begin(fed);
  for (std::size_t block = 0; block < kMaxBlocks; ++block) {
    std::optional<ScopedSpan> measure;
    measure.emplace(t, "measure", Layer::kBench, block);
    const Arrival* arr = &in.arrivals[block * n];
    const sim::Time t0 = sim.now();
    const auto query0 = fed.network().meter(sim::Channel::kQuery).bytes;
    const auto update0 = fed.network().meter(sim::Channel::kUpdate).bytes;
    std::vector<std::shared_ptr<core::RoadsClient>> clients(n);
    std::vector<std::int64_t> arrived_ns(n, 0);  // this thread's CPU clock
    std::vector<std::size_t> open;  // issued, not yet seen done
    // Open loop: every arrival and churn batch is a pre-scheduled
    // engine event; nothing waits for anything.
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(t0 + arr[i].offset, [&, i] {
        arrived_ns[i] = cpu_ns();
        ScopedSpan span(t, "roads.issue_query", Layer::kRoads, i);
        clients[i] = fed.issue_query(in.population[arr[i].rank],
                                     static_cast<sim::NodeId>(arr[i].start));
        open.push_back(i);
      });
    }
    const sim::Time last = t0 + arr[n - 1].offset;
    // Update traffic is metered over the offered span exactly.
    std::uint64_t update_at_last = 0;
    sim.schedule_at(last, [&] {
      update_at_last = fed.network().meter(sim::Channel::kUpdate).bytes;
    });
    for (sim::Time at = t0 + kChurnPeriod; at <= last;
         at += kChurnPeriod) {
      sim.schedule_at(at, [&, b = churn_batch++] { apply_churn(fed, in, b, t); });
    }

    // Host time per arrival: from its arrival event to the end of the
    // step batch in which its answer completed (a batch is a few ms of
    // host time; an answer takes about a second). With many queries in
    // flight this is the open-loop counterpart of a run_query call.
    const auto loop0 = cpu_ns();
    std::size_t done = 0;
    while (done < n) {
      std::size_t stepped;
      {
        ScopedSpan span(t, "sim.step", Layer::kSim);
        stepped = fed.step(kStepBatch);
      }
      const auto now = cpu_ns();
      for (std::size_t k = 0; k < open.size();) {
        const auto i = open[k];
        if (!clients[i]->done()) {
          ++k;
          continue;
        }
        r.op_host_us.add(static_cast<double>(now - arrived_ns[i]) * 1e-3);
        ++done;
        open[k] = open.back();
        open.pop_back();
      }
      if (stepped == 0 && done < n) {
        throw std::runtime_error("serve_mixed: engine drained with queries open");
      }
    }
    const auto loop1 = cpu_ns();
    measure.reset();
    r.measured_s += static_cast<double>(loop1 - loop0) * 1e-9;

    QueryTally tally;
    tally.limit_ms = kLatencyLimitMs;
    for (const auto& c : clients) {
      fed.note_query_complete(*c);
      const auto& res = c->result();
      tally.add(res.complete, res.sheds, res.rejected, res.servers_contacted,
                res.matching_records, res.forwarding_latency());
    }
    tally.query_bytes = fed.network().meter(sim::Channel::kQuery).bytes - query0;
    r.ops += n;
    r.partial += tally.partial;
    r.rejected += tally.rejected;
    if (block == 0) {
      tally.into(r.model, sim::to_seconds(arr[n - 1].offset));
      r.model.update_bytes_per_s =
          static_cast<double>(update_at_last - update0) /
          sim::to_seconds(arr[n - 1].offset);
      r.model.storage_bytes_max = storage_bytes_max(fed);
      if (opt.model_only) break;
    }
    if (r.measured_s >= opt.budget_s) break;
  }
  if (t) r.layers.end(fed);
}

/// Quiesces (summaries propagate everywhere) and checks structure,
/// summary soundness and storage accounting.
void check_invariants(core::Federation& fed, bool quiesce, Tracer* t,
                      std::vector<std::string>& failures) {
  if (quiesce) {
    ScopedSpan span(t, "sim.quiesce", Layer::kSim);
    fed.set_refresh_paused(false);
    fed.stabilize();
  }
  ScopedSpan span(t, "testing.check_invariants", Layer::kTesting);
  const auto report = testing::check_invariants(fed);
  if (!report.ok()) failures.push_back("invariants: " + report.to_string());
}

}  // namespace

void LayerAccum::begin(core::Federation& fed) {
  open_ = cut(fed);
  if (auto* p = fed.profiler()) p->take_profile();
}

void LayerAccum::end(core::Federation& fed) {
  const Cut now = cut(fed);
  for (const auto& [name, v] : now.counters) {
    const auto it = open_.counters.find(name);
    const auto before = it == open_.counters.end() ? 0 : it->second;
    counters[name] += static_cast<double>(v - before);
  }
  events += static_cast<double>(now.stats.executed - open_.stats.executed);
  cancelled += static_cast<double>(now.stats.cancelled - open_.stats.cancelled);
  update_msgs += static_cast<double>(now.update.messages - open_.update.messages);
  update_bytes += static_cast<double>(now.update.bytes - open_.update.bytes);
  query_msgs += static_cast<double>(now.query.messages - open_.query.messages);
  query_bytes += static_cast<double>(now.query.bytes - open_.query.bytes);
  shard_work_us +=
      static_cast<double>(now.par.window_work_us - open_.par.window_work_us);
  shard_span_us +=
      static_cast<double>(now.par.window_span_us - open_.par.window_span_us);
  shard_serial_us +=
      static_cast<double>(now.par.serial_us - open_.par.serial_us);
  if (auto* p = fed.profiler()) {
    const auto profile = p->take_profile();
    for (const auto& e : profile.categories) prof_s[e.name] += e.self_us * 1e-6;
    for (const auto& s : profile.shards) barrier_wait_us += s.barrier_wait_us;
  }
}

LayerAccum::Cut LayerAccum::cut(core::Federation& fed) {
  Cut c;
  for (const auto& [name, counter] : fed.metrics().counters()) {
    c.counters[name] = counter->value();
  }
  c.stats = fed.engine_stats();
  c.update = fed.network().meter(sim::Channel::kUpdate);
  c.query = fed.network().meter(sim::Channel::kQuery);
  if (auto* sh = fed.sharded()) c.par = sh->parallel_stats();
  return c;
}

std::string Model::describe() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "lat_p50=%.17g lat_p99=%.17g (n=%zu) contacted=%.17g qbytes=%.17g "
      "ubytes/s=%.17g storage=%.17g goodput=%.17g good_frac=%.17g "
      "issued=%zu partial=%zu rejected=%zu incomplete=%zu late=%zu "
      "fp=%016llx",
      sim_latency_ms_p50, sim_latency_ms_p99, latency_samples,
      servers_contacted_mean, query_bytes_mean, update_bytes_per_s,
      storage_bytes_max, goodput_qps, good_frac, issued, partial, rejected,
      incomplete, late, static_cast<unsigned long long>(fingerprint));
  return buf;
}

RunResult run_federation(const Shape& shape, const Inputs& in,
                         const RunOptions& opt) {
  RunResult r;
  auto fed = set_up(shape, in, opt, r);
  try {
    switch (shape.workload) {
      case Workload::kRefreshChurn:
        run_refresh_churn(*fed, shape, in, opt, r);
        break;
      case Workload::kQueryScan:
        run_query_scan(*fed, shape, in, opt, r);
        break;
      case Workload::kServeMixed:
        run_serve_mixed(*fed, in, opt, r);
        break;
    }
  } catch (const std::exception& e) {
    r.failures.push_back(std::string(to_string(shape.workload)) + ": " +
                         e.what());
    return r;
  }
  if (r.model.incomplete > 0) {
    r.failures.push_back(std::to_string(r.model.incomplete) +
                         " queries never completed");
  }
  if (opt.tracer) {
    r.max_depth = fed->engine_stats().max_depth;
    double total = 0.0;
    for (auto* s : fed->servers()) {
      const auto n = static_cast<double>(s->replicas().size());
      total += n;
      r.replicas_max = std::max(r.replicas_max, n);
    }
    r.replicas_mean = total / static_cast<double>(kServers);
    const auto& refresh = fed->metrics().histogram("roads.summary.refresh_us");
    r.refresh_us_p50 = refresh.quantile(0.5);
    r.refresh_us_p99 = refresh.quantile(0.99);
    r.put_us_p50 = fed->metrics().histogram("overlay.put_us").quantile(0.5);
    replay_kernels(*fed, in, opt.tracer, r.kernels);
  }
  if (!opt.model_only) {
    check_invariants(*fed, shape.workload != Workload::kQueryScan, opt.tracer,
                     r.failures);
  }
  return r;
}

}  // namespace rb
