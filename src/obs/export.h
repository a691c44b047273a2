// Machine-readable exporters for the obs layer: Chrome trace-event
// JSON (load the file in Perfetto / chrome://tracing to see one track
// per node with nested causal spans), Prometheus text exposition for
// the metrics registry, flight-recorder dumps for chaos/invariant
// failures, and the small JSON formatting helpers the bench reporter
// reuses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.h"
#include "obs/span_tree.h"
#include "obs/trace.h"

namespace roads::obs {

/// Escapes a string for inclusion inside JSON double quotes.
std::string json_escape(const std::string& s);

/// Formats a double as a JSON number: integers lose the trailing ".0",
/// non-finite values become null (JSON has no inf/nan).
std::string json_number(double v);

/// Chrome trace-event JSON ({"traceEvents":[...]}), loadable in
/// Perfetto or chrome://tracing. One track per node (pid 1, tid =
/// node + 1, named via metadata events), every closed span a complete
/// "X" event (ts/dur in microseconds, category + causal ids in args),
/// markers as instant "i" events. Events are emitted in
/// non-decreasing ts order with a stable tie-break, and the pid/tid
/// mapping depends only on node ids — identical runs export identical
/// files.
void write_chrome_trace(const SpanTree& tree, std::ostream& os);
void write_chrome_trace(const TraceBuffer& trace, std::ostream& os);

class Timeline;
struct Profile;

/// Flight-recorder dump for a failing run: the last-N buffered events
/// as a Chrome trace (extra top-level keys are ignored by viewers)
/// plus the failure reason, the seed to replay it with, and how much
/// history the bounded buffer had already evicted. When a Timeline is
/// attached, its last `timeline_windows` windows ride along under a
/// "timeline_windows" key, so the dump shows how staleness/divergence
/// evolved right before the failure. A Profile (obs/profile.h) adds a
/// "hot_handlers" key with the top categories by self-time — where the
/// run was spending CPU when it died.
void write_flight_record(const TraceBuffer& trace, std::ostream& os,
                         const std::string& reason, std::uint64_t seed,
                         const Timeline* timeline = nullptr,
                         std::size_t timeline_windows = 64,
                         const Profile* profile = nullptr);

/// Prometheus text exposition (# HELP + # TYPE comments per metric
/// family + samples; help text comes from MetricsRegistry::set_help,
/// falling back to the dotted metric name). Metric names are sanitized
/// to the Prometheus charset (anything outside [a-zA-Z0-9_:] becomes
/// '_', a leading digit gets a '_' prefix) and prefixed, e.g.
/// "net.query.bytes" -> "roads_net_query_bytes". Histograms emit
/// cumulative _bucket{le="..."} series plus _sum and _count.
void write_prometheus(const MetricsRegistry& registry, std::ostream& os,
                      const std::string& prefix = "roads");

/// Name sanitizer used by write_prometheus, exposed for tests.
std::string prometheus_name(const std::string& prefix,
                            const std::string& name);

}  // namespace roads::obs
