// The ROADS benchmark: shared types of the three workloads.
//
// The benchmark drives core::Federation through its public API only.
// Every input (records, queries, the Zipf population, the arrival
// schedule and the churn operations) is generated from the workload
// seed before any timing starts; see README.md for the metric table
// and the reasons behind each workload.
#pragma once

#include <chrono>
#include <ctime>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "record/query.h"
#include "record/schema.h"
#include "roads/federation.h"
#include "sim/time.h"
#include "util/stats.h"
#include "workload/distributions.h"
#include "workload/record_generator.h"

namespace rb {

using namespace roads;

// --- Shared set-up: the paper-default federation (§V) ----------------------
inline constexpr std::size_t kServers = 320;
inline constexpr std::size_t kRecordsPerServer = 500;
inline constexpr std::size_t kAttributes = 16;
inline constexpr std::size_t kBuckets = 1000;
inline constexpr std::size_t kDegree = 8;
inline constexpr std::size_t kKeepaliveRounds = 3;
inline constexpr std::size_t kQueryDims = 6;
inline constexpr double kQueryRange = 0.25;
/// 1% of every server's records change per churn batch.
inline constexpr std::size_t kChurnPerServer = kRecordsPerServer / 100;

enum class Workload { kRefreshChurn, kQueryScan, kServeMixed };
const char* to_string(Workload w);
bool parse_workload(const std::string& name, Workload* out);

using Clock = std::chrono::steady_clock;
/// Wall clock (ns): spans and progress lines.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// This thread's CPU time (ns). Host metrics are CPU time on the
/// critical path, not wall time: with paravirtual steal accounting the
/// kernel keeps time the hypervisor gave to other tenants out of it,
/// and on an otherwise idle machine it equals the wall time.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Host time (ns) of an engine drive (advance, stabilize). The sharded
/// engine's coordinator blocks while the shards run a parallel window,
/// so its critical path is the coordinator's serial CPU plus the
/// longest shard's CPU per window (ShardedSimulator::ParallelStats);
/// the sequential engine's is this thread's CPU.
template <class F>
std::int64_t drive_ns(core::Federation& fed, F&& drive) {
  if (auto* sh = fed.sharded()) {
    const auto p0 = sh->parallel_stats();
    drive();
    const auto p1 = sh->parallel_stats();
    const auto us = (p1.serial_us + p1.window_span_us) -
                    (p0.serial_us + p0.window_span_us);
    return static_cast<std::int64_t>(us) * 1000;
  }
  const auto c0 = cpu_ns();
  drive();
  return cpu_ns() - c0;
}

// --- Workload shape --------------------------------------------------------

/// What differs between the workloads' federations.
struct Shape {
  Workload workload = Workload::kQueryScan;
  /// Engine shards (FederationParams::threads).
  std::size_t threads = 1;
  sim::Time refresh_period = sim::seconds(100);
  bool cache = false;
  std::size_t concurrency_limit = 0;
  std::size_t queue_limit = 64;
  sim::Time processing_delay = sim::ms(1);
};

// refresh_churn: rounds in the first (model) block and in each later
// block. A block is a whole number of keepalive cycles, so the mix of
// keepalive and suppressed rounds does not depend on where time runs out.
inline constexpr std::size_t kFirstBlockRounds = 2 * kKeepaliveRounds;
inline constexpr std::size_t kBlockRounds = kKeepaliveRounds;
/// Closed-loop batch: the paper's §V batch. query_scan replays it;
/// refresh_churn runs it once as the probe behind its query-side
/// model metrics.
inline constexpr std::size_t kBatchQueries = 500;
// serve_mixed: open-loop arrivals per block, blocks the inputs cover,
// offered rate (past the knee at 320 servers), Zipf population, churn
// interval and the simulated latency limit of a good answer (about
// twice the unloaded p99).
inline constexpr std::size_t kBlockArrivals = 2000;
inline constexpr std::size_t kMaxBlocks = 4;
inline constexpr double kOfferedQps = 800.0;
inline constexpr std::size_t kPopulation = 256;
inline constexpr double kZipfS = 1.0;
inline constexpr sim::Time kChurnPeriod = sim::seconds(1);
inline constexpr double kLatencyLimitMs = 1600.0;

Shape shape_for(Workload w);

// --- Seeded, pre-generated inputs ------------------------------------------

struct Arrival {
  sim::Time offset = 0;  // µs after the block start
  std::uint32_t rank = 0;
  std::uint32_t start = 0;
};

/// Churn operations: for each batch, kChurnPerServer distinct record
/// slots per server, plus replacement values drawn from the server's
/// own attribute distributions. Values come from a pool of
/// `value_pool` batches (batch b uses pool slot b % value_pool) so a
/// long run needs no per-batch value storage, while the slots differ
/// per batch so every update is a real change.
struct ChurnPlan {
  std::size_t batches = 0;
  std::size_t value_pool = 0;
  std::vector<std::uint16_t> slots;  // [batch][server][k]
  std::vector<double> values;        // [pool][server][k][attribute]

  std::uint16_t slot(std::size_t batch, std::size_t server,
                     std::size_t k) const {
    return slots[(batch * kServers + server) * kChurnPerServer + k];
  }
  const double* value(std::size_t batch, std::size_t server,
                      std::size_t k) const {
    const std::size_t p = batch % value_pool;
    return &values[((p * kServers + server) * kChurnPerServer + k) *
                   kAttributes];
  }
};

struct Inputs {
  std::uint64_t seed = 0;
  record::Schema schema = record::Schema::uniform_numeric(kAttributes);
  workload::WorkloadSpec spec;
  /// Closed-loop queries (query_scan batch; refresh_churn probe).
  std::vector<record::Query> queries;
  std::vector<std::uint32_t> query_start;
  /// Open-loop population and schedule (serve_mixed).
  std::vector<record::Query> population;
  std::vector<Arrival> arrivals;  // kMaxBlocks * kBlockArrivals
  ChurnPlan churn;
};
Inputs make_inputs(Workload workload, std::uint64_t seed);

/// Record generator for the set-up (records are regenerated on every
/// set-up: generation is part of set-up time).
workload::RecordGenerator record_generator(const Inputs& in);

// --- Spans (traced run only) -----------------------------------------------

enum class Layer : std::uint8_t {
  kBench,  // the benchmark's own loop and glue
  kWorkload,
  kHierarchy,
  kStore,
  kSummary,
  kOverlay,
  kSim,
  kRoads,
  kTesting,
};
inline constexpr std::size_t kLayerCount = 9;
const char* to_string(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::uint32_t parent = 0;  // index + 1; 0 = root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Spans nest strictly (a stack), so a span's
/// self time is its duration minus its direct children's durations.
class Tracer {
 public:
  std::uint32_t begin(const char* name, Layer layer, std::uint64_t op = 0);
  void end(std::uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Per-layer self time (seconds) over every recorded span.
  std::vector<double> self_seconds() const;
  /// Share of the "measure" spans' wall time that lies inside calls
  /// into the program (spans of any layer but kBench, outermost only).
  double measured_coverage() const;
  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Layer layer,
             std::uint64_t op = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, layer, op) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// --- One federation's run ---------------------------------------------------

/// The paper's simulated-time outputs. Bit-identical across repeated
/// runs of one seed (and across engine thread counts): any pure
/// speed-up must leave them untouched.
struct Model {
  double sim_latency_ms_p50 = 0.0;
  double sim_latency_ms_p99 = 0.0;
  std::size_t latency_samples = 0;
  double servers_contacted_mean = 0.0;
  double query_bytes_mean = 0.0;
  double update_bytes_per_s = 0.0;
  double storage_bytes_max = 0.0;
  double goodput_qps = 0.0;
  /// Answers that completed with no shed and no rejection, over
  /// answers issued: 1 - fail_frac.
  double good_frac = 0.0;
  std::size_t issued = 0;
  std::size_t partial = 0;
  std::size_t rejected = 0;
  std::size_t incomplete = 0;
  std::size_t late = 0;
  /// FNV-1a fold of every outcome in issue order.
  std::uint64_t fingerprint = 0;

  bool operator==(const Model&) const = default;
  std::string describe() const;
};

struct RunOptions {
  std::size_t threads = 1;
  /// Measured-phase host-time budget; the first block always runs whole.
  double budget_s = 1.0;
  /// Stop after the first (model) block: the thread-count check.
  bool model_only = false;
  /// Traced run: handler profiler on, spans into `tracer`, layer
  /// counter deltas and kernel replays.
  Tracer* tracer = nullptr;
  /// query_scan recall oracle: per-query sum of count_matching over
  /// every server. Filled from the first federation when empty.
  std::vector<std::size_t>* expected_matches = nullptr;
};

/// Registry counters, engine stats, channel meters and handler
/// profile, accumulated over the windows between begin() and end()
/// (the measured phase, minus the untimed probe batch).
struct LayerAccum {
  std::map<std::string, double> counters;
  double events = 0, cancelled = 0;
  double update_msgs = 0, update_bytes = 0;
  double query_msgs = 0, query_bytes = 0;
  double shard_work_us = 0, shard_span_us = 0, shard_serial_us = 0;
  double barrier_wait_us = 0;
  /// Handler self time per profiler category (seconds).
  std::map<std::string, double> prof_s;

  void begin(core::Federation& fed);
  void end(core::Federation& fed);

 private:
  struct Cut {
    std::map<std::string, std::uint64_t> counters;
    sim::Simulator::Stats stats;
    sim::ChannelMeter update, query;
    sim::ShardedSimulator::ParallelStats par;
  };
  static Cut cut(core::Federation& fed);
  Cut open_;
};

struct RunResult {
  double setup_s = 0.0;
  /// Measured ops (refresh rounds, queries or arrivals) and their host
  /// time in total.
  std::size_t ops = 0;
  double measured_s = 0.0;
  /// Host time of each measured op (µs).
  util::Samples op_host_us;
  Model model;
  /// Check failures (recall, invariants, replay determinism); empty
  /// means every check passed.
  std::vector<std::string> failures;

  // Traced-run extras.
  LayerAccum layers;
  std::size_t max_depth = 0;
  std::size_t partial = 0, rejected = 0;
  double replicas_mean = 0.0, replicas_max = 0.0;
  /// The program's own wall-clock histograms (whole run: they cannot
  /// be cut to the measured phase).
  double refresh_us_p50 = 0.0, refresh_us_p99 = 0.0, put_us_p50 = 0.0;
  std::map<std::string, double> kernels;
};

RunResult run_federation(const Shape& shape, const Inputs& in,
                         const RunOptions& options);

// --- Layer kernels (traced run only) ---------------------------------------

/// Replays each layer's kernels on the run's own summaries, stores and
/// queries and adds their p50/p99 (ns) to `out`.
void replay_kernels(core::Federation& fed, const Inputs& in, Tracer* tracer,
                    std::map<std::string, double>& out);

}  // namespace rb
