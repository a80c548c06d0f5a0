// The SimMR pipeline as the benchmark drives it, one workload at a time:
// testbed run -> history log -> profiles and trace database -> SimMR
// replays under each policy -> Mumak replay -> recorded replay and offline
// analysis. See README.md for the workloads and the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Scratch directory for the history log and the trace database; the
  /// caller creates it and removes it afterwards.
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First failure message of each failing check (for stderr).
  std::vector<std::string> failures;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  /// Traced run only: every span, one JSON object per line.
  std::string spans_jsonl;
};

/// Runs one workload for about `seconds` of whole measurement rounds after
/// a cold set-up. Throws std::invalid_argument on an unknown workload.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench
