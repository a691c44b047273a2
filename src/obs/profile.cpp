#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/export.h"

namespace roads::obs {

namespace detail {
thread_local std::uint8_t t_sched_category = 0;
thread_local std::uint8_t t_exec_category = 0;
}  // namespace detail

const char* to_string(ProfCategory category) {
  switch (category) {
    case ProfCategory::kOther:            return "other";
    case ProfCategory::kJoin:             return "join";
    case ProfCategory::kSummaryPush:      return "summary-push";
    case ProfCategory::kReplicaCascade:   return "replica-cascade";
    case ProfCategory::kQueryForward:     return "query-forward";
    case ProfCategory::kQueryResult:      return "query-result";
    case ProfCategory::kHeartbeat:        return "heartbeat";
    case ProfCategory::kMaintenance:      return "maintenance";
    case ProfCategory::kTimerRefresh:     return "timer-refresh";
    case ProfCategory::kTimerMaintenance: return "timer-maintenance";
    case ProfCategory::kFault:            return "fault";
    case ProfCategory::kTelemetry:        return "telemetry";
  }
  return "other";
}

const char* prof_subsystem(ProfCategory category) {
  switch (category) {
    case ProfCategory::kOther:            return "misc";
    case ProfCategory::kJoin:             return "membership";
    case ProfCategory::kSummaryPush:      return "summary";
    case ProfCategory::kReplicaCascade:   return "summary";
    case ProfCategory::kQueryForward:     return "query";
    case ProfCategory::kQueryResult:      return "query";
    case ProfCategory::kHeartbeat:        return "maintenance";
    case ProfCategory::kMaintenance:      return "maintenance";
    case ProfCategory::kTimerRefresh:     return "timers";
    case ProfCategory::kTimerMaintenance: return "timers";
    case ProfCategory::kFault:            return "faults";
    case ProfCategory::kTelemetry:        return "telemetry";
  }
  return "misc";
}

// Anchor (ticks, steady) captured once; the ratio is computed lazily
// the first time at least 1ms of steady time has elapsed — spinning it
// out if a snapshot is cut earlier — then cached for the process.
double prof_ticks_per_us() {
  struct Anchor {
    std::uint64_t ticks;
    std::chrono::steady_clock::time_point at;
    Anchor() : ticks(prof_ticks()), at(std::chrono::steady_clock::now()) {}
  };
  static const Anchor anchor;
  static std::atomic<double> cached{0.0};
  const double hit = cached.load(std::memory_order_relaxed);
  if (hit > 0.0) return hit;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(now - anchor.at).count();
    if (us >= 1000.0) {
      const std::uint64_t ticks = prof_ticks() - anchor.ticks;
      double rate = static_cast<double>(ticks) / us;
      if (rate <= 0.0) rate = 1.0;  // counter stuck — report raw ticks
      cached.store(rate, std::memory_order_relaxed);
      return rate;
    }
  }
}

double prof_ticks_to_us(std::uint64_t ticks) {
  return static_cast<double>(ticks) / prof_ticks_per_us();
}

Profiler::Profiler() : flush_hist_(exponential_buckets(0.5, 2.0, 14)) {}

ProfSink& Profiler::sink(std::size_t engine_index) {
  while (sinks_.size() <= engine_index) {
    sinks_.push_back(std::make_unique<ProfSink>());
  }
  return *sinks_[engine_index];
}

void Profiler::note_shard_window(std::size_t shard, double busy_us,
                                 double wait_us) {
  if (shards_.size() <= shard) shards_.resize(shard + 1);
  auto& u = shards_[shard];
  u.shard = shard;
  u.busy_us += busy_us;
  u.barrier_wait_us += wait_us;
  ++u.windows;
}

void Profiler::note_shard_idle(std::size_t shard, double idle_us) {
  if (shards_.size() <= shard) shards_.resize(shard + 1);
  shards_[shard].shard = shard;
  shards_[shard].idle_us += idle_us;
}

Profile Profiler::build_profile() const {
  Profile out;
  const double rate = prof_ticks_per_us();
  ProfSink::Bucket merged[kProfCategoryCount] = {};
  std::uint64_t work_ticks = 0;
  for (const auto& sink : sinks_) {
    for (std::size_t c = 0; c < kProfCategoryCount; ++c) {
      merged[c].ticks += sink->buckets[c].ticks;
      merged[c].count += sink->buckets[c].count;
    }
    work_ticks += sink->work_ticks;
  }
  for (std::size_t c = 0; c < kProfCategoryCount; ++c) {
    if (merged[c].count == 0 && merged[c].ticks == 0) continue;
    ProfileEntry entry;
    entry.name = to_string(static_cast<ProfCategory>(c));
    entry.subsystem = prof_subsystem(static_cast<ProfCategory>(c));
    entry.self_us = static_cast<double>(merged[c].ticks) / rate;
    entry.events = merged[c].count;
    out.categories.push_back(std::move(entry));
    out.total_self_us += static_cast<double>(merged[c].ticks) / rate;
    out.total_events += merged[c].count;
  }
  std::sort(out.categories.begin(), out.categories.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });
  for (auto& entry : out.categories) {
    entry.share =
        out.total_self_us > 0.0 ? entry.self_us / out.total_self_us : 0.0;
  }
  out.work_us = static_cast<double>(work_ticks) / rate;
  out.windows = windows_;
  out.shards = shards_;
  out.flush_count = flush_hist_.count();
  out.flush_mean_us = out.flush_count > 0 ? flush_hist_.mean() : 0.0;
  return out;
}

Profile Profiler::profile() const { return build_profile(); }

Profile Profiler::take_profile() {
  Profile out;
  {
    ScopedTimer timer(flush_hist_, ScopedTimer::thread_cpu_clock());
    out = build_profile();
    for (auto& sink : sinks_) sink->clear();
    shards_.clear();
    windows_ = 0;
  }
  // The timer records on scope exit, so re-read the histogram here:
  // the returned snapshot includes its own flush cost.
  out.flush_count = flush_hist_.count();
  out.flush_mean_us = out.flush_count > 0 ? flush_hist_.mean() : 0.0;
  return out;
}

// --- Export ----------------------------------------------------------------

void write_collapsed(const Profile& profile, std::ostream& os) {
  for (const auto& entry : profile.categories) {
    os << "roads;" << entry.subsystem << ";" << entry.name << " "
       << static_cast<std::uint64_t>(entry.self_us + 0.5) << "\n";
  }
}

namespace {

/// Speedscope scaffolding: frames + one sampled profile whose
/// samples are frame-index stacks weighted in microseconds.
struct SpeedscopeBuilder {
  std::vector<std::string> frames;
  std::map<std::string, std::size_t> frame_index;
  std::vector<std::vector<std::size_t>> samples;
  std::vector<double> weights;

  std::size_t frame(const std::string& name) {
    const auto it = frame_index.find(name);
    if (it != frame_index.end()) return it->second;
    const std::size_t index = frames.size();
    frames.push_back(name);
    frame_index.emplace(name, index);
    return index;
  }

  void add(const std::vector<std::string>& stack, double weight_us) {
    if (weight_us <= 0.0) return;
    std::vector<std::size_t> sample;
    sample.reserve(stack.size());
    for (const auto& name : stack) sample.push_back(frame(name));
    samples.push_back(std::move(sample));
    weights.push_back(weight_us);
  }

  void write(std::ostream& os, const std::string& name) const {
    double total = 0.0;
    for (const double w : weights) total += w;
    os << "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\","
       << "\"name\":\"" << json_escape(name) << "\",\"shared\":{\"frames\":[";
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i > 0) os << ",";
      os << "{\"name\":\"" << json_escape(frames[i]) << "\"}";
    }
    os << "]},\"profiles\":[{\"type\":\"sampled\",\"name\":\""
       << json_escape(name) << "\",\"unit\":\"microseconds\","
       << "\"startValue\":0,\"endValue\":" << json_number(total)
       << ",\"samples\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) os << ",";
      os << "[";
      for (std::size_t j = 0; j < samples[i].size(); ++j) {
        if (j > 0) os << ",";
        os << samples[i][j];
      }
      os << "]";
    }
    os << "],\"weights\":[";
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (i > 0) os << ",";
      os << json_number(weights[i]);
    }
    os << "]}]}\n";
  }
};

}  // namespace

void write_speedscope(const Profile& profile, std::ostream& os,
                      const std::string& name) {
  SpeedscopeBuilder b;
  for (const auto& entry : profile.categories) {
    b.add({"roads", entry.subsystem, entry.name}, entry.self_us);
  }
  b.write(os, name);
}

void write_profile_json(const Profile& profile, std::ostream& os,
                        const std::string& name, std::uint64_t seed,
                        std::size_t threads) {
  os << "{\"name\":\"" << json_escape(name) << "\",\"seed\":" << seed
     << ",\"threads\":" << threads << ",\"clock\":{\"ticks_per_us\":"
     << json_number(prof_ticks_per_us()) << "},\"total_self_us\":"
     << json_number(profile.total_self_us)
     << ",\"total_events\":" << profile.total_events
     << ",\"work_us\":" << json_number(profile.work_us)
     << ",\"coverage\":" << json_number(profile.coverage())
     << ",\"windows\":" << profile.windows << ",\"flush\":{\"count\":"
     << profile.flush_count << ",\"mean_us\":"
     << json_number(profile.flush_mean_us) << "},\"categories\":[";
  for (std::size_t i = 0; i < profile.categories.size(); ++i) {
    const auto& entry = profile.categories[i];
    if (i > 0) os << ",";
    os << "{\"category\":\"" << json_escape(entry.name)
       << "\",\"subsystem\":\"" << json_escape(entry.subsystem)
       << "\",\"self_us\":" << json_number(entry.self_us)
       << ",\"events\":" << entry.events
       << ",\"share\":" << json_number(entry.share) << "}";
  }
  os << "],\"shards\":[";
  for (std::size_t i = 0; i < profile.shards.size(); ++i) {
    const auto& shard = profile.shards[i];
    if (i > 0) os << ",";
    os << "{\"shard\":" << shard.shard
       << ",\"busy_us\":" << json_number(shard.busy_us)
       << ",\"barrier_wait_us\":" << json_number(shard.barrier_wait_us)
       << ",\"idle_us\":" << json_number(shard.idle_us)
       << ",\"windows\":" << shard.windows << "}";
  }
  os << "]}\n";
}

std::string profile_top_table(const Profile& profile, std::size_t k) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %-12s %12s %10s %7s\n", "category",
                "subsystem", "self_us", "events", "share");
  os << line;
  const std::size_t n = std::min(k, profile.categories.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& entry = profile.categories[i];
    std::snprintf(line, sizeof line, "%-18s %-12s %12.1f %10llu %6.1f%%\n",
                  entry.name.c_str(), entry.subsystem.c_str(), entry.self_us,
                  static_cast<unsigned long long>(entry.events),
                  100.0 * entry.share);
    os << line;
  }
  return os.str();
}

std::string profile_top_line(const Profile& profile, const std::string& name,
                             std::size_t k) {
  std::ostringstream os;
  os << "PROFILE name=" << name;
  char buf[96];
  std::snprintf(buf, sizeof buf, " self_us=%.0f coverage=%.2f",
                profile.total_self_us, profile.coverage());
  os << buf << " top:";
  const std::size_t n = std::min(k, profile.categories.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& entry = profile.categories[i];
    std::snprintf(buf, sizeof buf, " %s=%.0fus(%.0f%%)", entry.name.c_str(),
                  entry.self_us, 100.0 * entry.share);
    os << buf;
  }
  return os.str();
}

}  // namespace roads::obs
