// In-memory span recorder for the traced run.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"

namespace rb {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kWorkload:
      return "workload";
    case Layer::kHierarchy:
      return "hierarchy";
    case Layer::kStore:
      return "store";
    case Layer::kSummary:
      return "summary";
    case Layer::kOverlay:
      return "overlay";
    case Layer::kSim:
      return "sim";
    case Layer::kRoads:
      return "roads";
    case Layer::kTesting:
      return "testing";
  }
  return "?";
}

std::uint32_t Tracer::begin(const char* name, Layer layer, std::uint64_t op) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.op = op;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  // ScopedSpan closes spans innermost first, so `id` is on top.
  spans_[id - 1].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::vector<double> out(kLayerCount, 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

double Tracer::measured_coverage() const {
  // Index of the innermost enclosing "measure" span, and whether a
  // program-layer span already encloses this one.
  std::vector<std::uint32_t> measure(spans_.size(), 0);
  std::vector<bool> inside_layer(spans_.size(), false);
  std::int64_t measured = 0;
  std::int64_t covered = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const auto dur = s.end_ns - s.start_ns;
    if (std::strcmp(s.name, "measure") == 0) {
      measure[i] = static_cast<std::uint32_t>(i + 1);
      measured += dur;
      continue;
    }
    if (s.parent == 0) continue;
    const auto p = s.parent - 1;
    measure[i] = measure[p];
    inside_layer[i] = inside_layer[p] || spans_[p].layer != Layer::kBench;
    if (measure[i] != 0 && s.layer != Layer::kBench && !inside_layer[p] &&
        spans_[p].layer == Layer::kBench) {
      covered += dur;
    }
  }
  return measured > 0 ? static_cast<double>(covered) /
                            static_cast<double>(measured)
                      : 0.0;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%u,\"op\":%llu}}\n",
                  i == 0 ? "" : ",", s.name, to_string(s.layer),
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i + 1,
                  s.parent, static_cast<unsigned long long>(s.op));
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace rb
