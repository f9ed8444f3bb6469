// fsda::obs -- snapshot export: one JSON object per flush, written as a
// JSON-lines stream so a collector (or a test) can tail the file.
//
// Snapshot layout:
//   {"ts_unix_ms": ..., "metrics": {...}, <extra fields>}
//
// `extra` carries caller-supplied raw JSON values (already serialized),
// e.g. {"health", pipeline.health().to_json()} or, under --trace,
// {"trace", to_json(span_tree(journal))}.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace fsda::obs {

/// Caller-supplied (key, raw-JSON-value) pairs appended to the snapshot.
using ExtraFields = std::vector<std::pair<std::string, std::string>>;

/// Serializes the global registry (+ `extra`) into one JSON object string.
[[nodiscard]] std::string build_snapshot_json(const ExtraFields& extra = {});

/// Appends JSON-lines snapshots of the global registry to a file.
class SnapshotSink {
 public:
  explicit SnapshotSink(std::string path) : path_(std::move(path)) {}

  /// Appends one snapshot line; false on I/O failure (never throws --
  /// telemetry export must not take the serving path down).
  bool flush(const ExtraFields& extra = {}) const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace fsda::obs
