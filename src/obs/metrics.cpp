#include "obs/metrics.hpp"

#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace fsda::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

std::size_t shard_index() noexcept {
  // One hash per thread, cached; threads spread across shards so two pool
  // workers rarely contend on the same cache line.
  thread_local const std::size_t index =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return index;
}

}  // namespace detail

bool telemetry_enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_telemetry_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry.

MetricsRegistry& MetricsRegistry::global() {
  // Leaked singleton: pool workers and static handles may outlive any
  // destruction order the runtime would pick.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  FSDA_CHECK_MSG(!gauges_.count(name) && !hdrs_.count(name),
                 "metric '" << name << "' already registered with another type");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  FSDA_CHECK_MSG(!counters_.count(name) && !hdrs_.count(name),
                 "metric '" << name << "' already registered with another type");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

HdrHistogram& MetricsRegistry::hdr(const std::string& name, HdrOptions options,
                                   const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  FSDA_CHECK_MSG(!counters_.count(name) && !gauges_.count(name),
                 "metric '" << name << "' already registered with another type");
  auto it = hdrs_.find(name);
  if (it == hdrs_.end()) {
    it = hdrs_.emplace(name, std::make_unique<HdrHistogram>(options)).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         hdrs_.count(name) != 0;
}

double MetricsRegistry::gauge_value(const std::string& name,
                                    double fallback) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? fallback : it->second->value();
}

namespace {

/// Splits `drift.psi{feature="17"}` into ("drift.psi", `{feature="17"}`).
std::pair<std::string, std::string> split_label(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, {}};
  return {name.substr(0, brace), name.substr(brace)};
}

/// Prometheus metric name: dots become underscores, `fsda_` prefix.
std::string prom_name(const std::string& base) {
  std::string out = "fsda_";
  for (char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Adds one `key="value"` pair to a (possibly empty) label block.
std::string with_extra_label(const std::string& label, const char* key,
                             const std::string& value) {
  if (label.empty()) {
    return std::string("{") + key + "=\"" + value + "\"}";
  }
  // `{a="b"}` -> `{a="b",key="value"}`
  std::string out = label.substr(0, label.size() - 1);
  out += ",";
  out += key;
  out += "=\"" + value + "\"}";
  return out;
}

}  // namespace

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string metric_with_label(const std::string& base, const std::string& key,
                              const std::string& value) {
  return base + "{" + key + "=\"" + escape_label_value(value) + "\"}";
}

std::string MetricsRegistry::expose_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  const auto help_line = [&](const std::string& name, const char* type) {
    const auto [base, label] = split_label(name);
    (void)label;
    const auto h = help_.find(name);
    if (h != help_.end()) {
      os << "# HELP " << prom_name(base) << " " << h->second << "\n";
    }
    os << "# TYPE " << prom_name(base) << " " << type << "\n";
  };
  for (const auto& [name, c] : counters_) {
    help_line(name, "counter");
    const auto [base, label] = split_label(name);
    os << prom_name(base) << label << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    help_line(name, "gauge");
    const auto [base, label] = split_label(name);
    os << prom_name(base) << label << " " << json_number(g->value()) << "\n";
  }
  for (const auto& [name, h] : hdrs_) {
    help_line(name, "summary");
    const auto [base, label] = split_label(name);
    const std::string pname = prom_name(base);
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      os << pname << with_extra_label(label, "quantile", json_number(q))
         << " " << json_number(h->value_at_quantile(q)) << "\n";
    }
    os << pname << "_sum" << label << " " << json_number(h->sum()) << "\n";
    os << pname << "_count" << label << " " << h->count() << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << json_string(name) << ":" << c->value();
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << json_string(name) << ":"
       << json_number(g->value());
    first = false;
  }
  os << "},\"hdr\":{";
  first = true;
  for (const auto& [name, h] : hdrs_) {
    os << (first ? "" : ",") << json_string(name) << ":{\"count\":"
       << h->count() << ",\"sum\":" << json_number(h->sum())
       << ",\"min\":" << json_number(h->min())
       << ",\"max\":" << json_number(h->max())
       << ",\"p50\":" << json_number(h->value_at_quantile(0.5))
       << ",\"p90\":" << json_number(h->value_at_quantile(0.9))
       << ",\"p99\":" << json_number(h->value_at_quantile(0.99))
       << ",\"p999\":" << json_number(h->value_at_quantile(0.999))
       << ",\"relative_error_bound\":"
       << json_number(h->relative_error_bound()) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : hdrs_) h->reset();
}

}  // namespace fsda::obs
