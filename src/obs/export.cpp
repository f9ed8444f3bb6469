#include "obs/export.hpp"

#include <chrono>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fsda::obs {

std::string build_snapshot_json(const ExtraFields& extra) {
  const auto now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::ostringstream os;
  os << "{\"ts_unix_ms\":" << now_ms
     << ",\"metrics\":" << MetricsRegistry::global().snapshot_json();
  for (const auto& [key, value] : extra) {
    os << "," << json_string(key) << ":" << value;
  }
  os << "}";
  return os.str();
}

bool SnapshotSink::flush(const ExtraFields& extra) const {
  std::ofstream out(path_, std::ios::app);
  if (!out) return false;
  out << build_snapshot_json(extra) << "\n";
  return static_cast<bool>(out);
}

}  // namespace fsda::obs
