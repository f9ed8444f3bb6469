#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr int kTailPermilles[] = {999, 990, 900, 500};
constexpr std::size_t kMinBeyond = 10;

/// Nearest rank (1-based) of `permille` among n samples.
std::size_t rank_of(std::size_t n, int permille) {
  return (static_cast<std::size_t>(permille) * n + 999) / 1000;
}

bool supported(std::size_t n, int permille) {
  return n > 0 && n - std::min(n, rank_of(n, permille)) >= kMinBeyond;
}

}  // namespace

double value_at_permille(const std::vector<double>& sorted, int permille) {
  const std::size_t rank = std::max<std::size_t>(rank_of(sorted.size(), permille), 1);
  return sorted[rank - 1];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = value_at_permille(samples, 500);
  for (const int pm : kTailPermilles) {
    if (supported(samples.size(), pm)) {
      s.tail_permille = pm;
      s.tail = value_at_permille(samples, pm);
      break;
    }
  }
  s.sorted = std::move(samples);
  return s;
}

double Summary::at(int permille) const {
  if (!supported(count, permille)) return std::nan("");
  return value_at_permille(sorted, permille);
}

std::string Summary::tail_name() const {
  switch (tail_permille) {
    case 999: return "p99.9";
    case 990: return "p99";
    case 900: return "p90";
    case 500: return "p50";
    default: return "none";
  }
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctxsw_vol = static_cast<double>(ru.ru_nvcsw);
  u.ctxsw_invol = static_cast<double>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

void Report::add(const char* kind, const std::string& name, double value,
                 const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({kind, name, unit, std::isfinite(value) ? value : 0.0});
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  add("e2e", name, value, unit);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  add("layer", name, value, unit);
}

void Report::env(const std::string& key, const std::string& value) {
  env_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::print() const {
  for (const auto& [key, value] : env_) {
    std::printf("env %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("%-5s %-34s %16.6f %s\n", m.kind.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("ops %llu ops_failed %llu correct %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct_ ? "true" : "false");
  // Names and units are plain identifiers: no JSON escaping needed.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
