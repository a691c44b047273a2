// Quickstart: the smallest useful ROADS federation.
//
// Builds five servers, attaches a resource owner with a handful of
// camera records, lets summaries propagate, and resolves one
// multi-dimensional query from a non-root server. Demonstrates the
// public API end to end:
//   Federation -> add_server/add_owner/attach_owner -> start/stabilize
//   -> run_query.
#include <cstdio>

#include "roads/federation.h"
#include "util/log.h"

using namespace roads;

int main() {
  // Schema shared by the whole federation: one categorical attribute
  // and two numeric ones.
  record::Schema schema({
      {"type", record::AttributeType::kCategorical, true, 0, 1},
      {"rate_kbps", record::AttributeType::kNumeric, true, 0.0, 1000.0},
      {"resolution", record::AttributeType::kNumeric, true, 0.0, 2160.0},
  });

  core::FederationParams params;
  params.schema = schema;
  params.seed = 42;
  params.config.max_children = 3;
  params.config.summary.histogram_buckets = 100;

  core::Federation fed(std::move(params));
  // Stamp any log narration with the simulation clock so it lines up
  // with the trace events below.
  util::set_log_clock([&fed] { return fed.simulator().now(); });
  fed.add_servers(5);  // server 0 becomes the root, 1..4 join it
  std::printf("federation: %zu servers, hierarchy height %zu\n",
              fed.server_count(), fed.topology().height());

  // A resource owner hosts its own server (server 3) and exports
  // detailed records there (Fig. 1's owner C pattern).
  auto owner = fed.add_owner(3, core::ExportMode::kDetailedRecords);
  const char* types[] = {"camera", "camera", "camera", "storage", "compute"};
  const double rates[] = {80.0, 160.0, 240.0, 500.0, 900.0};
  for (record::RecordId id = 0; id < 5; ++id) {
    owner->store().insert(record::ResourceRecord(
        id, owner->id(),
        {record::AttributeValue(std::string(types[id])),
         record::AttributeValue(rates[id]),
         record::AttributeValue(1080.0)}));
  }
  fed.server(3).attach_owner(owner, core::ExportMode::kDetailedRecords);

  // Let the bottom-up aggregation and overlay replication settle.
  fed.start();
  fed.stabilize();

  // The paper's example query: type=camera AND rate>150Kbps.
  record::Query query;
  query.add(record::Predicate::equals(0, "camera"));
  query.add(record::Predicate::at_least(1, 150.0));
  std::printf("query: %s\n", query.to_string(schema).c_str());

  // Thanks to the replication overlay, the search can start at ANY
  // server — here server 1, nowhere near the data.
  const auto outcome = fed.run_query(query, /*start_server=*/1);
  std::printf(
      "resolved: %zu matching records, %zu servers contacted, "
      "%.0f ms forwarding latency, %llu query bytes\n",
      outcome.matching_records, outcome.servers_contacted,
      outcome.latency_ms,
      static_cast<unsigned long long>(outcome.query_bytes));

  // Every query roots a causal trace; replay this one hop by hop from
  // the federation's trace buffer.
  std::size_t hops = 0;
  if (const auto* trace = fed.trace()) {
    const auto starts = trace->events_of(obs::TraceKind::kQueryStart);
    if (!starts.empty()) {
      std::printf("\ntrace %llu:\n",
                  static_cast<unsigned long long>(starts.back().trace));
      for (const auto& ev : trace->trace_events(starts.back().trace)) {
        if (ev.kind == obs::TraceKind::kQueryHop) ++hops;
        std::printf("  t=%6.1fms  %-14s node=%u  peer=%u  value=%.1f\n",
                    static_cast<double>(ev.at_us) / 1000.0,
                    obs::to_string(ev.kind), ev.node, ev.peer, ev.value);
      }
    }
  }
  std::printf("query hops counted federation-wide: %llu\n",
              static_cast<unsigned long long>(
                  fed.metrics().counter("roads.query.hops").value()));

  util::set_log_clock(nullptr);
  if (hops == 0) {
    std::fprintf(stderr, "quickstart: the trace replay holds no query hop\n");
    return 1;
  }
  return outcome.matching_records == 2 ? 0 : 1;
}
