// roads_bench: one workload of the ROADS benchmark per process.
//
//   roads_bench --workload <refresh_churn|query_scan|serve_mixed>
//               --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 (the timed run) sets up the federation kSetups times, runs
// the measured phase on each for a third of --seconds, checks the
// outputs and prints the end-to-end metrics. --trace 1 (the traced
// run) runs a traced federation between two untraced ones, a third of
// --seconds each, replays the layer kernels on the traced one and
// prints the per-layer metrics. Either way the last stdout line is one
// JSON object; any failed check exits 1 without printing it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace rb {
namespace {

constexpr std::size_t kSetups = 3;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Args {
  Workload workload = Workload::kQueryScan;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!parse_workload(val, &a.workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

const std::int64_t g_start_ns = now_ns();

/// Seconds since the process started (progress lines on stderr).
double elapsed_s() { return static_cast<double>(now_ns() - g_start_ns) * 1e-9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The highest percentile with at least ten samples beyond it, capped
/// at p99: p99 from 1000 samples up, lower on sample-starved runs.
double tail_percentile(std::size_t n) {
  if (n <= 10) return 50.0;
  return std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

double median(std::vector<double> xs) {
  util::Samples s;
  s.add_all(xs);
  return s.percentile(50.0);
}

void print_json(const std::vector<Metric>& metrics, std::size_t attempted,
                std::size_t failed) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Fails the run when any model output differs from the reference.
void expect_same_model(const Model& ref, const Model& got, const char* what,
                       std::vector<std::string>& failures) {
  if (ref == got) return;
  failures.push_back(std::string("model determinism (") + what +
                     "):\n  want " + ref.describe() + "\n  got  " +
                     got.describe());
}

/// A sharded workload also runs its first block on the sequential
/// engine, which must give bit-identical model outputs.
void check_thread_counts(const Shape& shape, const Inputs& in,
                         const Model& ref, std::vector<std::string>& failures) {
  if (shape.threads <= 1) return;
  RunOptions opt;
  opt.threads = 1;
  opt.model_only = true;
  const auto seq = run_federation(shape, in, opt);
  std::fprintf(stderr, "[%7.2f s] threads=1 model block done\n", elapsed_s());
  failures.insert(failures.end(), seq.failures.begin(), seq.failures.end());
  expect_same_model(ref, seq.model, "threads=1 vs threads=2", failures);
}

/// Prints every failed check; true when there was one.
bool report_failures(const std::vector<std::string>& failures) {
  for (const auto& f : failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
  return !failures.empty();
}

void model_metrics(const Model& m, std::vector<Metric>& out) {
  out.push_back({"sim_latency_ms_p50", "ms", m.sim_latency_ms_p50});
  out.push_back({"sim_latency_ms_p99", "ms", m.sim_latency_ms_p99});
  out.push_back({"servers_contacted_mean", "count", m.servers_contacted_mean});
  out.push_back({"query_bytes_mean", "B", m.query_bytes_mean});
  out.push_back({"update_bytes_per_s", "B/s", m.update_bytes_per_s});
  out.push_back({"storage_bytes_max", "B", m.storage_bytes_max});
  out.push_back({"goodput_qps", "q/s", m.goodput_qps});
  out.push_back({"good_frac", "ratio", m.good_frac});
}

/// The timed run: end-to-end metrics.
int timed_run(const Args& args, const Shape& shape, const Inputs& in) {
  std::vector<std::string> failures;
  std::vector<RunResult> runs;
  std::vector<std::size_t> expected;
  for (std::size_t f = 0; f < kSetups; ++f) {
    RunOptions opt;
    opt.threads = shape.threads;
    opt.budget_s = args.seconds / static_cast<double>(kSetups);
    opt.expected_matches = &expected;
    runs.push_back(run_federation(shape, in, opt));
    // Hand the destroyed federation's heap back, so every set-up starts
    // from a similar allocator state rather than a fragmented one.
    malloc_trim(0);
    auto& r = runs.back();
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    std::fprintf(stderr,
                 "[%7.2f s] federation %zu: setup %.3f s, %zu ops in %.3f s; "
                 "op_host_us p50 %.0f p90 %.0f p99 %.0f max %.0f\n",
                 elapsed_s(), f, r.setup_s, r.ops, r.measured_s,
                 r.op_host_us.percentile(50.0), r.op_host_us.percentile(90.0),
                 r.op_host_us.percentile(99.0), r.op_host_us.max());
    if (f > 0) {
      expect_same_model(runs[0].model, r.model, "repeated set-up", failures);
    }
  }
  check_thread_counts(shape, in, runs[0].model, failures);
  if (report_failures(failures)) return 1;

  std::vector<double> setups;
  util::Samples op_us;
  std::size_t ops = 0;
  double host_s = 0.0;
  for (const auto& r : runs) {
    setups.push_back(r.setup_s);
    op_us.add_all(r.op_host_us.values());
    ops += r.ops;
    host_s += r.measured_s;
  }
  const auto& m = runs[0].model;
  std::vector<Metric> metrics = {
      {"setup_s", "s", median(setups)},
      {"ops_per_s", "op/s", static_cast<double>(ops) / host_s},
      {"op_host_us_p50", "us", op_us.percentile(50.0)},
      {"op_host_us_tail", "us", op_us.percentile(tail_percentile(op_us.count()))},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  model_metrics(m, metrics);

  std::fprintf(stderr, "%s seed=%llu: %zu set-ups, %zu ops measured\n",
               to_string(args.workload),
               static_cast<unsigned long long>(args.seed), runs.size(), ops);
  std::fprintf(stderr,
               "  op_host_us samples=%zu (tail = p%.1f); sim_latency samples=%zu; "
               "fail_frac=%.6f (partial=%zu rejected=%zu incomplete=%zu of "
               "%zu issued); late=%zu; fingerprint=%016llx\n",
               op_us.count(), tail_percentile(op_us.count()), m.latency_samples,
               1.0 - m.good_frac, m.partial,
               m.rejected, m.incomplete, m.issued, m.late,
               static_cast<unsigned long long>(m.fingerprint));
  for (const auto& x : metrics) {
    std::fprintf(stderr, "  %-24s %16.6f %s\n", x.name.c_str(), x.value,
                 x.unit.c_str());
  }
  print_json(metrics, ops, 0);
  return 0;
}

double counter(const LayerAccum& l, const char* name) {
  const auto it = l.counters.find(name);
  return it == l.counters.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The traced run: per-layer metrics.
int traced_run(const Args& args, const Shape& shape, const Inputs& in) {
  std::vector<std::string> failures;
  std::vector<std::size_t> expected;
  // Untraced federations before and after the traced one: the tracing
  // overhead is measured against their mean, so a drift in machine
  // speed across the run does not show up as overhead.
  RunOptions ref_opt;
  ref_opt.threads = shape.threads;
  ref_opt.budget_s = args.seconds / static_cast<double>(kSetups);
  ref_opt.expected_matches = &expected;
  Tracer tracer;
  RunOptions opt = ref_opt;
  opt.tracer = &tracer;
  std::vector<RunResult> runs;
  for (const auto* o : {&ref_opt, &opt, &ref_opt}) {
    runs.push_back(run_federation(shape, in, *o));
    malloc_trim(0);
    failures.insert(failures.end(), runs.back().failures.begin(),
                    runs.back().failures.end());
  }
  const auto& r = runs[1];
  expect_same_model(runs[0].model, r.model, "traced vs untraced", failures);
  expect_same_model(runs[0].model, runs[2].model, "repeated set-up", failures);
  check_thread_counts(shape, in, runs[0].model, failures);
  if (report_failures(failures)) return 1;

  // Set-up phases and churn updates, from the spans.
  std::map<std::string, double> span_s;
  util::Samples update_ns;
  for (const auto& s : tracer.spans()) {
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    span_s[s.name] += dur * 1e-9;
    if (std::strcmp(s.name, "store.update") == 0) update_ns.add(dur);
  }

  const auto& l = r.layers;
  const double ops = static_cast<double>(r.ops);
  const double suppressed = counter(l, "roads.summary.push_suppressed");
  const double hits = counter(l, "roads.query.cache.hit");
  const double misses = counter(l, "roads.query.cache.miss");
  const double hops = counter(l, "roads.query.hops");
  std::vector<Metric> metrics = {
      {"workload.gen_s", "s", span_s["workload.gen"]},
      {"hierarchy.join_s", "s", span_s["hierarchy.join"]},
      {"store.attach_s", "s", span_s["store.attach"]},
      {"store.update_ns_p50", "ns", update_ns.percentile(50.0)},
      {"store.update_ns_p99", "ns", update_ns.percentile(99.0)},
  };
  for (const auto& [name, v] : r.kernels) metrics.push_back({name, "ns", v});
  const std::vector<Metric> rest = {
      {"summary.push_suppressed_ratio", "ratio",
       ratio(suppressed, suppressed + l.update_msgs)},
      {"summary.delta_slots", "count", counter(l, "roads.summary.delta_slots")},
      {"summary.full_rebuilds", "count",
       counter(l, "roads.summary.full_rebuilds")},
      {"summary.merges", "count", counter(l, "roads.summary.merges")},
      {"summary.refresh_us_p50", "us", r.refresh_us_p50},
      {"summary.refresh_us_p99", "us", r.refresh_us_p99},
      {"overlay.put_us_p50", "us", r.put_us_p50},
      {"overlay.replicas_per_server_mean", "count", r.replicas_mean},
      {"overlay.replicas_per_server_max", "count", r.replicas_max},
      {"sim.events_per_op", "count", ratio(l.events, ops)},
      {"sim.ns_per_event", "ns", ratio(r.measured_s * 1e9, l.events)},
      {"sim.max_depth", "count", static_cast<double>(r.max_depth)},
      {"sim.cancelled", "count", l.cancelled},
      {"sim.shard.parallelism", "ratio",
       l.shard_span_us + l.shard_serial_us > 0.0
           ? (l.shard_serial_us + l.shard_work_us) /
                 (l.shard_serial_us + l.shard_span_us)
           : 1.0},
      {"sim.shard.barrier_wait_us", "us", l.barrier_wait_us},
      {"sim.net.update_msgs", "count", l.update_msgs},
      {"sim.net.update_bytes", "B", l.update_bytes},
      {"sim.net.query_msgs", "count", l.query_msgs},
      {"sim.net.query_bytes", "B", l.query_bytes},
      {"roads.query.false_positive_ratio", "ratio",
       ratio(counter(l, "roads.query.false_positives"), hops)},
      {"roads.query.hops_mean", "count", ratio(hops, ops)},
      {"roads.overlay.shortcut_hits_per_query", "count",
       ratio(counter(l, "roads.overlay.shortcut_hits"), ops)},
      {"roads.cache.hit_ratio", "ratio", ratio(hits, hits + misses)},
      {"roads.cache.invalidate", "count",
       counter(l, "roads.query.cache.invalidate")},
      {"roads.cache.neg_hit", "count", counter(l, "roads.query.cache.neg_hit")},
      {"roads.cache.evicted", "count", counter(l, "roads.query.cache.evicted")},
      {"roads.admission.shed", "count", counter(l, "roads.query.cache.shed")},
      {"roads.admission.rejected", "count", static_cast<double>(r.rejected)},
      {"roads.query.partial", "count", static_cast<double>(r.partial)},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  for (const char* cat : {"join", "summary-push", "replica-cascade",
                          "query-forward", "timer-refresh", "other"}) {
    const auto it = l.prof_s.find(cat);
    metrics.push_back({std::string("roads.prof.") + cat + "_s", "s",
                       it == l.prof_s.end() ? 0.0 : it->second});
  }
  const auto self = tracer.self_seconds();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    metrics.push_back({std::string(to_string(static_cast<Layer>(i))) +
                           ".self_s",
                       "s", self[i]});
  }
  metrics.push_back({"trace.span_coverage", "ratio",
                     tracer.measured_coverage()});
  metrics.push_back(
      {"trace.overhead_frac", "ratio",
       ratio(r.measured_s / ops,
             (runs[0].measured_s + runs[2].measured_s) /
                 static_cast<double>(runs[0].ops + runs[2].ops)) -
           1.0});

  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_trace(args.trace_out)) {
      std::fprintf(stderr, "wrote %zu spans to %s\n", tracer.spans().size(),
                   args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  for (const auto& x : metrics) {
    std::fprintf(stderr, "  %-40s %18.6f %s\n", x.name.c_str(), x.value,
                 x.unit.c_str());
  }
  print_json(metrics, r.ops, 0);
  return 0;
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  rb::Args args;
  if (!rb::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <refresh_churn|query_scan|serve_mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  try {
    const auto shape = rb::shape_for(args.workload);
    const auto inputs = rb::make_inputs(args.workload, args.seed);
    std::fprintf(stderr, "[%7.2f s] inputs generated (seed %llu)\n",
                 rb::elapsed_s(), static_cast<unsigned long long>(args.seed));
    return args.trace ? rb::traced_run(args, shape, inputs)
                      : rb::timed_run(args, shape, inputs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL %s\n", e.what());
    return 1;
  }
}
