// Named metrics: counters, gauges, and fixed-bucket histograms.
//
// The registry owns its instruments (stable addresses; components cache
// the pointer returned by counter()/gauge()/histogram() so the per-event
// cost is one pointer dereference plus an add).  Rendering iterates a
// name-ordered map, so the CSV output of a deterministic simulation is
// byte-identical across same-seed runs — the property the obs tests pin.
// The same registry renders as Prometheus text exposition for the live
// campaign-engine snapshots (sweep/telemetry.hpp).
//
// Nothing here is thread-safe: a simulation is single-threaded, and the
// campaign engine's telemetry serialises every update under its own
// mutex, so no instrument pays for atomics on the simulation hot path.
//
// Histogram bucket semantics are Prometheus-style cumulative "le" bounds
// made non-cumulative: a value v lands in the first bucket whose upper
// bound satisfies v <= bound; values above the last bound land in the
// overflow bucket (+Inf).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace iop::obs {

class Counter {
 public:
  void add(double delta = 1.0) noexcept {
    value_ += delta;
    ++events_;
  }
  double value() const noexcept { return value_; }
  std::uint64_t events() const noexcept { return events_; }

  /// Fold another counter in: sums both the value and the event count.
  void merge(const Counter& other) noexcept {
    value_ += other.value_;
    events_ += other.events_;
  }

 private:
  double value_ = 0;
  std::uint64_t events_ = 0;
};

class Gauge {
 public:
  void set(double value) noexcept {
    value_ = value;
    if (value > max_) max_ = value;
    if (value < min_) min_ = value;
  }
  void add(double delta) noexcept { set(value_ + delta); }
  double value() const noexcept { return value_; }
  double max() const noexcept { return max_; }
  double min() const noexcept { return min_; }
  /// True once set() has been called at least once.
  bool touched() const noexcept { return max_ >= min_; }

  /// Fold another gauge in: the merged-in value wins if the other gauge
  /// was ever set (merge order = observation order), and the min/max
  /// envelope covers both histories.  Merging an untouched gauge is a
  /// no-op.
  void merge(const Gauge& other) noexcept {
    if (!other.touched()) return;
    value_ = other.value_;
    if (other.max_ > max_) max_ = other.max_;
    if (other.min_ < min_) min_ = other.min_;
  }

 private:
  double value_ = 0;
  double max_ = -std::numeric_limits<double>::infinity();
  double min_ = std::numeric_limits<double>::infinity();
};

class Histogram {
 public:
  /// `bounds` are ascending bucket upper bounds; an implicit +Inf bucket
  /// catches the rest.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is overflow).
  const std::vector<std::uint64_t>& bucketCounts() const noexcept {
    return counts_;
  }
  /// Index of the bucket a value would land in.
  std::size_t bucketIndex(double value) const noexcept;

  /// Fold another histogram in bucket-by-bucket.  Both histograms must
  /// have identical bounds (std::invalid_argument otherwise); merging an
  /// empty histogram is a no-op and leaves min/max untouched.
  void merge(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class MetricsRegistry {
 public:
  /// Get-or-create by name.  A name may hold only one instrument kind;
  /// re-requesting with a different kind throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// For an existing histogram the bounds argument is ignored.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  const Counter* findCounter(const std::string& name) const;
  const Gauge* findGauge(const std::string& name) const;
  const Histogram* findHistogram(const std::string& name) const;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Deterministic CSV: `metric,kind,field,value` rows, name-ordered.
  std::string renderCsv() const;
  void saveCsv(const std::string& path) const;

  /// Prometheus text exposition (version 0.0.4), name-ordered:
  /// `<subsystem>.<quantity>` becomes `iop_<subsystem>_<quantity>`,
  /// counters get a `_total` suffix, histogram buckets are cumulative.
  std::string renderProm() const;

  /// Human-readable summary table for tool output.
  std::string renderSummary() const;

  /// Fold every instrument of `other` into this registry, creating
  /// same-named instruments as needed.  Kind conflicts throw
  /// std::logic_error, mismatched histogram bounds std::invalid_argument;
  /// merging an empty registry is a no-op.  Useful for aggregating
  /// per-shard registries into one report.
  void merge(const MetricsRegistry& other);

 private:
  void checkFree(const std::string& name, const char* wanted) const;

  // node-based maps: instrument addresses are stable across inserts.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Default bucket bounds for second-valued latency histograms (1 us .. 100 s,
/// roughly logarithmic).
std::vector<double> latencyBucketsSeconds();

/// Default bucket bounds for queue-depth style small-integer histograms.
std::vector<double> depthBuckets();

}  // namespace iop::obs
