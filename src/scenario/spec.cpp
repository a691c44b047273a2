#include "scenario/spec.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace roads::scenario {

namespace {

using util::JsonValue;

[[noreturn]] void fail_at(const std::string& where, const std::string& what) {
  throw std::runtime_error("scenario: " + where + ": " + what);
}

/// Per-key range rule. Integers read kPositive as ">= 1".
enum class Rule { kAny, kPositive, kUnit };

// --- The schema: one field list per block ---
//
// Each list names every key of its block once, with its member and
// range rule. The same list drives the strict parse (Reader) and the
// canonical serialization (Writer), so the list order is the emitted
// key order. `name` titles the block's error position; `block` is an
// optional nested object; `list` is a required non-empty array.

template <class F>
void fields(F& f, ChurnSpec& s) {
  f.field("fraction", s.fraction, Rule::kUnit);
  f.field("start_s", s.start_s);
  f.field("spread_s", s.spread_s);
  f.field("down_s", s.down_s);
  f.field("rejoin", s.rejoin);
}

template <class F>
void fields(F& f, FlashCrowdSpec& s) {
  f.field("attribute", s.attribute);
  f.field("center", s.center, Rule::kUnit);
  f.field("width", s.width);
  f.field("weight", s.weight, Rule::kUnit);
  f.field("queries", s.queries);
  f.field("dimensions", s.dimensions);
  f.field("range_length", s.range_length);
}

template <class F>
void fields(F& f, FlapSpec& s) {
  f.field("flaps", s.flaps);
  f.field("period_s", s.period_s, Rule::kPositive);
  f.field("down_s", s.down_s, Rule::kPositive);
}

template <class F>
void fields(F& f, SlowLinksSpec& s) {
  f.field("links", s.links);
  f.field("extra_ms", s.extra_ms, Rule::kPositive);
  f.field("asymmetric", s.asymmetric);
}

template <class F>
void fields(F& f, PartitionSpec& s) {
  f.field("start_s", s.start_s);
  f.field("heal_after_s", s.heal_after_s, Rule::kPositive);
}

template <class F>
void fields(F& f, MessageFaultSpec& s) {
  f.field("loss", s.loss, Rule::kUnit);
  f.field("duplicate", s.duplicate, Rule::kUnit);
  f.field("reorder", s.reorder, Rule::kUnit);
  f.field("max_jitter_ms", s.max_jitter_ms);
}

template <class F>
void fields(F& f, StalenessAttackSpec& s) {
  f.field("fraction", s.fraction, Rule::kUnit);
  f.field("waves", s.waves);
  f.field("queries", s.queries);
}

template <class F>
void fields(F& f, QueryLoadSpec& s) {
  f.field("count", s.count);
  f.field("dimensions", s.dimensions);
  f.field("range_length", s.range_length);
}

template <class F>
void fields(F& f, OpenLoopSpec& s) {
  f.field("rate_qps", s.rate_qps, Rule::kPositive);
  f.field("process", s.process);
  f.field("pareto_alpha", s.pareto_alpha, Rule::kPositive);
  f.field("count", s.count, Rule::kPositive);
  f.field("population", s.population, Rule::kPositive);
  f.field("zipf_s", s.zipf_s);
  f.field("dimensions", s.dimensions);
  f.field("range_length", s.range_length);
}

template <class F>
void fields(F& f, PhaseSpec& s) {
  f.name(s.name);
  f.field("duration_s", s.duration_s, Rule::kPositive);
  f.block("churn", s.churn);
  f.block("flash_crowd", s.flash_crowd);
  f.block("flapping", s.flapping);
  f.block("slow_links", s.slow_links);
  f.block("partition", s.partition);
  f.block("message_faults", s.message_faults);
  f.block("staleness_attack", s.staleness_attack);
  f.block("queries", s.queries);
  f.block("open_loop", s.open_loop);
  f.field("expect_single_root", s.expect_single_root);
  f.field("check_soundness", s.check_soundness);
}

template <class F>
void fields(F& f, ScenarioSpec& s) {
  f.name(s.name);
  f.field("description", s.description);
  f.field("nodes", s.nodes);
  f.field("records_per_node", s.records_per_node);
  f.field("attributes", s.attributes, Rule::kPositive);
  f.field("max_children", s.max_children, Rule::kPositive);
  f.field("seed", s.seed);
  f.field("refresh_period_s", s.refresh_period_s, Rule::kPositive);
  f.field("heartbeat_s", s.heartbeat_s, Rule::kPositive);
  f.field("probe_window_s", s.probe_window_s, Rule::kPositive);
  f.field("query_cache", s.query_cache);
  f.field("query_concurrency", s.query_concurrency);
  f.field("query_queue_limit", s.query_queue_limit);
  f.list("phases", s.phases);
}

// --- Rules that span several keys, run once a block has parsed ---

template <class T>
void check(const T&, const std::string&) {}

void check(const FlapSpec& s, const std::string& where) {
  if (s.down_s >= s.period_s) {
    fail_at(where, "key \"down_s\" must be shorter than \"period_s\"");
  }
}

void check(const MessageFaultSpec& s, const std::string& where) {
  if (s.reorder > 0 && !(s.max_jitter_ms > 0)) {
    fail_at(where, "key \"max_jitter_ms\" must be > 0 when reorder is set");
  }
}

void check(const OpenLoopSpec& s, const std::string& where) {
  if (s.process != "poisson" && s.process != "selfsimilar") {
    fail_at(where, "key \"process\" must be \"poisson\" or \"selfsimilar\"");
  }
  if (s.zipf_s < 0) fail_at(where, "key \"zipf_s\" must be >= 0");
}

void check(const PhaseSpec& s, const std::string& where) {
  // An open-loop client that never gets its reply (the queued query
  // died with a crashed server, the message was dropped) would stall
  // the phase drain forever — fault blocks and the closed-loop query
  // blocks are rejected rather than silently risking that.
  if (s.open_loop && (s.queries || s.staleness_attack || s.churn ||
                      s.flapping || s.partition || s.message_faults)) {
    fail_at(where,
            "key \"open_loop\" cannot combine with fault or closed-loop "
            "query blocks (only flash_crowd and slow_links compose)");
  }
}

void check(const ScenarioSpec& s, const std::string& where) {
  if (s.nodes < 2) fail_at(where, "key \"nodes\" must be >= 2");
  // Blocks that reference an attribute must stay inside the schema.
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const auto& phase = s.phases[i];
    if (phase.flash_crowd && phase.flash_crowd->attribute >= s.attributes) {
      fail_at("phases[" + std::to_string(i) + "] ('" + phase.name +
                  "') flash_crowd",
              "key \"attribute\" is outside the schema (attributes = " +
                  std::to_string(s.attributes) + ")");
    }
  }
}

constexpr char kTopLevel[] = "top level";

/// Strict parse: each field entry consumes its key, type-checked and
/// range-checked; finish() then rejects any key no entry consumed, so a
/// typo ("crash_fractionn") fails loudly, naming the key and its
/// position instead of silently running a weaker scenario.
class Reader {
 public:
  template <class T>
  static T read(const JsonValue& v, std::string where) {
    Reader r(v, std::move(where));
    T out;
    fields(r, out);
    r.finish();
    check(out, r.where_);
    return out;
  }

  void name(std::string& v) {
    field("name", v);
    if (v.empty()) fail("name", "is required");
    where_ = where_ == kTopLevel ? "scenario '" + v + "'"
                                 : where_ + " ('" + v + "')";
  }

  template <class T>
  void field(const char* key, T& v, Rule rule = Rule::kAny) {
    const JsonValue* j = take(key);
    if (j == nullptr) return;
    if constexpr (std::is_same_v<T, bool>) {
      if (!j->is_bool()) fail(key, "must be a boolean");
      v = j->as_bool();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!j->is_string()) fail(key, "must be a string");
      v = j->as_string();
    } else {
      if (!j->is_number()) fail(key, "must be a number");
      const double d = j->as_number();
      if constexpr (std::is_integral_v<T>) {
        // Doubles hold every integer up to 2^53 exactly; past that the
        // cast would round (or overflow) silently.
        if (d < 0 || d != std::floor(d)) {
          fail(key, "must be a non-negative integer");
        }
        if (d > 9007199254740992.0) fail(key, "must be at most 2^53");
        if (rule == Rule::kPositive && d < 1) fail(key, "must be >= 1");
        v = static_cast<T>(d);
      } else {
        if (rule == Rule::kPositive && !(d > 0)) fail(key, "must be > 0");
        if (rule == Rule::kUnit && (d < 0 || d > 1)) {
          fail(key, "must be in [0, 1]");
        }
        if (!std::isfinite(d)) fail(key, "must be finite");
        v = d;
      }
    }
  }

  template <class T>
  void block(const char* key, std::optional<T>& v) {
    if (const JsonValue* j = take(key)) v = read<T>(*j, where_ + " " + key);
  }

  template <class T>
  void list(const char* key, std::vector<T>& v) {
    const JsonValue* j = take(key);
    if (j == nullptr || !j->is_array()) fail(key, "must be an array");
    const auto& items = j->as_array();
    if (items.empty()) fail(key, "must not be empty");
    for (std::size_t i = 0; i < items.size(); ++i) {
      v.push_back(read<T>(items[i],
                          std::string(key) + "[" + std::to_string(i) + "]"));
    }
  }

 private:
  Reader(const JsonValue& v, std::string where) : where_(std::move(where)) {
    if (!v.is_object()) fail_at(where_, "expected an object");
    obj_ = &v;
  }

  const JsonValue* take(const char* key) {
    const JsonValue* j = obj_->find(key);
    if (j != nullptr) taken_.insert(key);
    return j;
  }

  void finish() const {
    for (const auto& entry : obj_->as_object()) {
      if (!taken_.count(entry.first)) {
        fail_at(where_, "unknown key \"" + entry.first + "\"");
      }
    }
  }

  [[noreturn]] void fail(const char* key, const std::string& what) const {
    fail_at(where_, std::string("key \"") + key + "\" " + what);
  }

  const JsonValue* obj_ = nullptr;
  std::string where_;
  std::set<std::string> taken_;
};

/// Formats a double so that parse(format(v)) == v: integers print
/// without a fraction, everything else at max_digits10.
std::string fmt_number(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that still round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

/// Canonical JSON: every field explicit (defaults included) in
/// field-list order, 2-space indent, so the round-trip is
/// byte-identical. Only reads the spec it walks.
class Writer {
 public:
  void name(std::string& v) { field("name", v); }

  template <class T>
  void field(const char* key, const T& v, Rule = Rule::kAny) {
    open_line(key);
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (v ? "true" : "false");
    } else if constexpr (std::is_same_v<T, std::string>) {
      os_ << quote(v);
    } else if constexpr (std::is_integral_v<T>) {
      os_ << std::to_string(static_cast<std::uint64_t>(v));
    } else {
      os_ << fmt_number(v);
    }
  }

  template <class T>
  void block(const char* key, std::optional<T>& v) {
    if (v) object(key, *v);
  }

  template <class T>
  void list(const char* key, std::vector<T>& v) {
    open(key, '[');
    for (auto& item : v) object(nullptr, item);
    close(']');
  }

  template <class T>
  void object(const char* key, T& v) {
    open(key, '{');
    fields(*this, v);
    close('}');
  }

  std::string str() const { return os_.str() + "\n"; }

 private:
  void open_line(const char* key) {
    if (!first_) os_ << ",\n";
    first_ = false;
    for (int i = 0; i < depth_; ++i) os_ << "  ";
    if (key != nullptr) os_ << quote(key) << ": ";
  }
  void open(const char* key, char bracket) {
    open_line(key);
    os_ << bracket << "\n";
    first_ = true;
    ++depth_;
  }
  void close(char bracket) {
    --depth_;
    os_ << "\n";
    for (int i = 0; i < depth_; ++i) os_ << "  ";
    os_ << bracket;
    first_ = false;
  }

  std::ostringstream os_;
  int depth_ = 0;
  bool first_ = true;
};

}  // namespace

ScenarioSpec ScenarioSpec::from_json(const JsonValue& doc) {
  return Reader::read<ScenarioSpec>(doc, kTopLevel);
}

ScenarioSpec ScenarioSpec::from_json_text(const std::string& json_text) {
  return from_json(util::parse_json(json_text));
}

ScenarioSpec ScenarioSpec::from_file(const std::string& path) {
  return from_json(util::parse_json_file(path));
}

std::string ScenarioSpec::to_json() const {
  Writer w;
  // fields() takes a mutable block so one list serves both walkers;
  // the Writer never writes through it.
  w.object(nullptr, const_cast<ScenarioSpec&>(*this));
  return w.str();
}

}  // namespace roads::scenario
