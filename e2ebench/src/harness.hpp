// The measurement loop: set-up (several times, median reported), then
// closed-loop ops for the requested seconds, each checked against the
// golden or first-op outputs.  The untraced run reports the end-to-end
// metrics; the traced run (alternating traced and untraced ops, plus one
// untimed count op) reports the per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "golden.hpp"

namespace e2e {

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 11;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20;
  bool trace = false;
  /// Per-run scratch directory for every file the workload writes: must
  /// not exist yet (see ScratchDir).
  std::filesystem::path scratch;
  /// Traced runs: where the spans go at exit ("" = nowhere).
  std::filesystem::path spansOut;
  /// Golden outputs; each op must match them at kDefaultSeed.  Null, or a
  /// seed other than kDefaultSeed, checks every op against the first.
  const Golden* golden = nullptr;
};

/// A scratch directory the run owns: created by the constructor, which
/// throws std::runtime_error when the path already exists (so a run never
/// removes files it did not write), and removed with everything in it by
/// the destructor.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path);
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

/// A run keeps going past `seconds` until the untraced ops (and, traced,
/// the traced ops) are enough for a p10 with kMinBelow ops below it (the
/// gated minimum is taken over at least as many), and fails if that takes
/// longer than this.
inline constexpr double kMaxRunSeconds = 150;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< diagnostics, one line each
  std::string inputs;              ///< the workload's generated inputs

  bool correct() const noexcept { return failed == 0 && attempted > 0; }
  /// The result line: {"correct","attempted","failed","metrics"}.
  std::string resultJson() const;
};

/// Names and units of the traced run's per-layer metrics, in report order.
std::vector<std::pair<std::string, std::string>> perLayerMetrics();

/// Throws std::runtime_error when the run cannot produce its metrics
/// (too few ops for a p10 within kMaxRunSeconds, set-up failed, or the
/// scratch directory already exists).
RunReport runBenchmark(const RunOptions& options);

}  // namespace e2e
