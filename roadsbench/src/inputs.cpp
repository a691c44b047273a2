// Workload shapes and the seeded, pre-generated inputs.
#include <algorithm>
#include <numeric>

#include "bench.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/query_generator.h"

namespace rb {

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kRefreshChurn:
      return "refresh_churn";
    case Workload::kQueryScan:
      return "query_scan";
    case Workload::kServeMixed:
      return "serve_mixed";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (auto w : {Workload::kRefreshChurn, Workload::kQueryScan,
                 Workload::kServeMixed}) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Shape shape_for(Workload w) {
  Shape s;
  s.workload = w;
  switch (w) {
    case Workload::kRefreshChurn:
      s.threads = 2;
      break;
    case Workload::kQueryScan:
      break;
    case Workload::kServeMixed:
      // ts and tr scaled 20x down from the paper's 100 s / 10 s so
      // that writes land inside the open-loop run; admission and
      // evaluation time as in exp::LoadConfig.
      s.refresh_period = sim::seconds(5);
      s.cache = true;
      s.concurrency_limit = 1;
      s.queue_limit = 16;
      s.processing_delay = sim::ms(10);
      break;
  }
  return s;
}

workload::RecordGenerator record_generator(const Inputs& in) {
  workload::RecordGenerator gen(in.schema, in.spec, in.seed);
  gen.anchor_by_balanced_tree(kServers, kDegree);
  return gen;
}

namespace {

/// Batches of churn the plan can serve: far more than any run uses
/// (refresh_churn does a few rounds per second of host time; serve_mixed
/// one batch per simulated second).
constexpr std::size_t kChurnBatches = 1024;
constexpr std::size_t kValuePool = 32;
constexpr std::uint64_t kPopulationSeed = 0x5eed'0b5e;

ChurnPlan make_churn(const Inputs& in) {
  ChurnPlan plan;
  plan.batches = kChurnBatches;
  plan.value_pool = kValuePool;
  util::Rng pick(in.seed ^ 0xc4a7u);
  plan.slots.reserve(kChurnBatches * kServers * kChurnPerServer);
  std::vector<std::uint16_t> deck(kRecordsPerServer);
  for (std::size_t b = 0; b < kChurnBatches; ++b) {
    for (std::size_t s = 0; s < kServers; ++s) {
      // Partial Fisher-Yates: kChurnPerServer distinct slots.
      std::iota(deck.begin(), deck.end(), std::uint16_t{0});
      for (std::size_t k = 0; k < kChurnPerServer; ++k) {
        const auto j = static_cast<std::size_t>(pick.uniform_int(
            static_cast<std::int64_t>(k),
            static_cast<std::int64_t>(kRecordsPerServer) - 1));
        std::swap(deck[k], deck[j]);
        plan.slots.push_back(deck[k]);
      }
    }
  }
  const auto gen = record_generator(in);
  util::Rng draw(in.seed ^ 0x7a1eu);
  plan.values.reserve(kValuePool * kServers * kChurnPerServer * kAttributes);
  for (std::size_t p = 0; p < kValuePool; ++p) {
    for (std::size_t s = 0; s < kServers; ++s) {
      for (std::size_t k = 0; k < kChurnPerServer; ++k) {
        for (std::size_t a = 0; a < kAttributes; ++a) {
          plan.values.push_back(workload::sample(
              in.spec.attributes[a],
              gen.node_anchor(static_cast<std::uint32_t>(s), a), draw));
        }
      }
    }
  }
  return plan;
}

}  // namespace

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.spec = workload::WorkloadSpec::paper_default(kAttributes,
                                                  kRecordsPerServer);
  workload::QueryGenerator qgen(in.schema, in.spec, seed ^ 0x9e37u);
  util::Rng start(seed ^ 0x51a7u);
  const auto random_server = [](util::Rng& rng) {
    return static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kServers) - 1));
  };

  switch (workload) {
    case Workload::kQueryScan:
    case Workload::kRefreshChurn: {
      in.queries = qgen.generate_batch(kBatchQueries, kQueryDims, kQueryRange);
      for (std::size_t i = 0; i < kBatchQueries; ++i) {
        in.query_start.push_back(random_server(start));
      }
      break;
    }
    case Workload::kServeMixed: {
      // The population is a fixed query log, the same for every seed:
      // under Zipf(1) a handful of head queries carry most arrivals, so
      // a per-seed population would make fan-out, load and goodput
      // swing with whichever queries land at the head. The seed still
      // drives the records, ranks, arrival times, start servers and
      // churn.
      workload::QueryGenerator log(in.schema, in.spec, kPopulationSeed);
      in.population =
          log.generate_batch(kPopulation, kQueryDims, kQueryRange);
      // The probe batch for the kernel replays: the population itself.
      in.queries = in.population;
      workload::ArrivalSpec spec;
      spec.process = workload::ArrivalProcess::kPoisson;
      spec.rate_qps = kOfferedQps;
      util::Rng arrival_rng(seed ^ 0xa441u);
      const std::size_t total = kMaxBlocks * kBlockArrivals;
      // One schedule per block, each starting at its block's origin.
      std::vector<sim::Time> offsets;
      for (std::size_t b = 0; b < kMaxBlocks; ++b) {
        auto block = workload::generate_arrivals(spec, kBlockArrivals,
                                                 arrival_rng);
        offsets.insert(offsets.end(), block.begin(), block.end());
      }
      workload::ZipfSampler zipf(in.population.size(), kZipfS);
      util::Rng zipf_rng(seed ^ 0x21bfu);
      in.arrivals.reserve(total);
      for (std::size_t i = 0; i < total; ++i) {
        Arrival a;
        a.offset = offsets[i];
        a.rank = static_cast<std::uint32_t>(zipf.sample(zipf_rng));
        a.start = random_server(start);
        in.arrivals.push_back(a);
      }
      break;
    }
  }
  if (workload != Workload::kQueryScan) in.churn = make_churn(in);
  return in;
}

}  // namespace rb
