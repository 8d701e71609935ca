#include "harness.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <system_error>

#include <sched.h>
#include <sys/vfs.h>

#include "obs/trend.hpp"
#include "sim/framepool.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace e2e {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Coroutine frames this thread has allocated so far.  Sweeps run at -j1,
/// where runSweep evaluates cells on the calling thread, so every frame
/// an op allocates lands in this thread's arena.
double framesAllocated() {
  const auto& s = iop::sim::FrameArena::local().stats();
  return static_cast<double>(s.slabCarves + s.reuses + s.fallbacks);
}

/// A "<field>: <n> kB" line of /proc/self/status, in MiB.
double statusMiB(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

std::string fileSystemOf(const fs::path& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext2/3/4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "fs-magic-0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

std::string fmt(double value, const char* format = "%.6g") {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

// Per-layer metrics of the traced run.  Times are the p10 over traced ops
// of a per-op value; counts must be identical in every op.
enum class Source {
  Count,     ///< per-op fact, identical across ops
  CountOp,   ///< from the untimed count op (hub attached)
  Seconds,   ///< p10 over traced ops of a per-op time row entry
  Derived,   ///< computed from the others below
};

struct LayerMetric {
  const char* name;
  const char* unit;
  Source source;
};

// Names follow <layer>.<what>; NOTES.md maps each to the workloads it
// should and should not move.
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.frames", "count", Source::Count},
    {"sim.events", "count", Source::CountOp},
    {"sim.events_per_s", "1/s", Source::Derived},
    {"sim.events_per_mib", "1/MiB", Source::Derived},
    {"storage.net_transfers", "count", Source::CountOp},
    {"storage.disk_accesses", "count", Source::CountOp},
    {"mpi.collectives", "count", Source::CountOp},
    {"mpi.io_mib", "MiB", Source::CountOp},
    {"ior.runs", "count", Source::Count},
    {"analysis.run_and_trace_s", "s", Source::Seconds},
    {"sim.app_run_s", "s", Source::Seconds},
    {"analysis.estimate_s", "s", Source::Seconds},
    {"core.extract_s", "s", Source::Seconds},
    {"core.lap_segment_s", "s", Source::Seconds},
    {"core.phase_group_s", "s", Source::Seconds},
    {"core.save_s", "s", Source::Seconds},
    {"core.phases", "count", Source::Count},
    {"trace.write_s", "s", Source::Seconds},
    {"trace.read_s", "s", Source::Seconds},
    {"trace.records", "count", Source::Count},
    {"sweep.cell_ior_s", "s", Source::Seconds},
    {"sweep.cell_synthetic_s", "s", Source::Seconds},
    {"sweep.fsck_s", "s", Source::Seconds},
    {"sweep.resolve_s", "s", Source::Seconds},
    {"sweep.overhead_s", "s", Source::Seconds},
    {"sweep.rank_s", "s", Source::Seconds},
    {"sweep.cache_hits", "count", Source::Count},
    {"store.cell_loads", "count", Source::Count},
    {"store.cell_commits", "count", Source::Count},
    {"store.capture_commits", "count", Source::Count},
    {"store.cell_bytes", "bytes", Source::Count},
    {"analysis.self_s", "s", Source::Seconds},
    {"bench.self_s", "s", Source::Seconds},
    {"core.self_s", "s", Source::Seconds},
    {"ior.self_s", "s", Source::Seconds},
    {"sim.self_s", "s", Source::Seconds},
    {"sweep.self_s", "s", Source::Seconds},
    {"trace.self_s", "s", Source::Seconds},
    {"bench.trace_overhead_pct", "%", Source::Derived},
};

/// Span (public call or profiler section) each per-call time sums.
const std::map<std::string, std::string> kCallSpans = {
    {"analysis.run_and_trace_s", "analysis::runAndTrace"},
    {"sim.app_run_s", "app.run"},
    {"analysis.estimate_s", "analysis::estimateIoTime"},
    {"core.extract_s", "model.extract"},
    {"core.lap_segment_s", "lap.segment"},
    {"core.phase_group_s", "phase.group"},
    {"core.save_s", "core::IOModel::save"},
    {"trace.write_s", "trace::writeTraces"},
    {"trace.read_s", "trace::readTraces"},
    {"sweep.fsck_s", "sweep::fsckCampaignStore"},
    {"sweep.resolve_s", "sweep::resolveCampaign"},
    {"sweep.rank_s", "sweep::rankOutcome"},
};

/// Sections inside which an engine runs: the denominator of
/// sim.events_per_s.
bool hostsEngine(const std::string& span) {
  return span == "app.run" || span == "replay.measure" ||
         span == "degraded.replica";
}

/// One traced op's time row: every Source::Seconds metric plus the
/// engine-hosting seconds.
std::map<std::string, double> timeRow(std::span<const Span> op,
                                      std::size_t firstIndex,
                                      const Facts& facts) {
  std::map<std::string, double> row;
  for (const auto& m : kLayerMetrics) {
    if (m.source == Source::Seconds) row[m.name] = 0;
  }
  row["engine_s"] = 0;
  std::map<std::string, double> byName;
  const std::vector<double> self = selfSeconds(op, firstIndex);
  for (std::size_t i = 0; i < op.size(); ++i) {
    byName[op[i].name] += op[i].seconds();
    row[op[i].layer + ".self_s"] += self[i];
    if (hostsEngine(op[i].name)) row["engine_s"] += op[i].seconds();
  }
  for (const auto& [metric, span] : kCallSpans) {
    row[metric] = byName.count(span) ? byName[span] : 0;
  }
  auto fact = [&facts](const char* key) {
    const auto it = facts.find(key);
    return it != facts.end() ? it->second : 0.0;
  };
  row["sweep.cell_ior_s"] = fact("sweep.cell_ior_s");
  row["sweep.cell_synthetic_s"] = fact("sweep.cell_synthetic_s");
  if (byName.count("sweep::runSweep")) {
    row["sweep.overhead_s"] =
        byName["sweep::runSweep"] - fact("sweep.cells_s");
  }
  return row;
}

/// Moves the calling thread to the next CPU the process may run on every
/// kOpsPerCpu ops, and puts its original CPU set back when destroyed.  On
/// a shared host one vCPU can run every op 1.6-1.9x slower for seconds at
/// a time while the others run at full speed (NOTES.md, "Noise"); a run
/// that visits every CPU keeps ops from the quiet ones.  A process allowed
/// one CPU stays on it.
class CpuRotation {
 public:
  static constexpr std::size_t kOpsPerCpu = 10;

  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof original_, &original_);
  }

  void beforeOp(std::size_t opIndex) {
    if (cpus_.size() < 2 || opIndex % kOpsPerCpu != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(opIndex / kOpsPerCpu) % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "sched_setaffinity");
    }
  }

  std::string describe() const {
    if (cpus_.size() < 2) return "one CPU, no rotation";
    std::string text;
    for (const int cpu : cpus_) {
      if (!text.empty()) text += ",";
      text += std::to_string(cpu);
    }
    return "rotated over CPUs " + text + ", " + std::to_string(kOpsPerCpu) +
           " ops each turn";
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

bool isCountFact(const std::string& key) {
  return key.size() < 2 || key.compare(key.size() - 2, 2, "_s") != 0;
}

/// Empty when every count in `facts` equals the value the run's first op
/// gave it (recorded in `counts` on first sight); otherwise the first that
/// moved.
std::string countDrift(Facts& counts, const Facts& facts) {
  for (const auto& [key, value] : facts) {
    if (!isCountFact(key)) continue;
    const auto [it, inserted] = counts.emplace(key, value);
    if (!inserted && it->second != value) {
      return "count " + key + " moved from " + fmt(it->second) + " to " +
             fmt(value);
    }
  }
  return {};
}

}  // namespace

ScratchDir::ScratchDir(fs::path path) : path_(std::move(path)) {
  if (path_.empty() || fs::exists(path_)) {
    throw std::runtime_error("scratch directory '" + path_.string() +
                             "' already exists; give a new path");
  }
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  fs::remove_all(path_, ignored);
}

std::vector<std::pair<std::string, std::string>> perLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : kLayerMetrics) out.emplace_back(m.name, m.unit);
  return out;
}

std::string RunReport::resultJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           fmt(m.value, "%.17g") + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

RunReport runBenchmark(const RunOptions& options) {
  RunReport report;
  const ScratchDir scratch(options.scratch);
  const std::size_t minOps = minSamplesFor(0.1);
  const fs::path setupDir = options.scratch / "setup";

  // Set-up, several times over; each ends with the op whose outputs the
  // run checks against (its golden values at the default seed).  The
  // last set-up's workload runs the measured ops.
  std::vector<double> setupSeconds;
  std::unique_ptr<Workload> workload;
  Outputs first;
  for (std::size_t k = 0; k < kSetups; ++k) {
    workload.reset();
    fs::remove_all(setupDir);
    const auto start = Clock::now();
    workload = makeWorkload(options.workload);
    workload->setUp(options.seed, setupDir);
    Spans off(false);
    first = workload->op(off).outputs;
    workload->reset();
    setupSeconds.push_back(since(start));
  }
  report.inputs = workload->inputs();

  const Outputs* expected = &first;
  if (options.golden != nullptr && options.seed == kDefaultSeed) {
    const auto it = options.golden->find(options.workload);
    if (it == options.golden->end()) {
      throw std::runtime_error("no golden values for " + options.workload);
    }
    expected = &it->second;
  }

  // Closed loop: one caller, the next op starts when the previous one
  // returns.  A traced run alternates traced and untraced ops so the two
  // p10s come from the same stretch of host time.
  Spans spans(options.trace);
  Spans off(false);
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<std::map<std::string, double>> rows;
  Facts counts;  ///< every count fact as the first op gave it
  std::string firstFailure;
  CpuRotation rotation;
  const auto start = Clock::now();
  double loopSeconds = 0;
  for (std::size_t opIndex = 0;; ++opIndex) {
    loopSeconds = since(start);
    if (loopSeconds >= options.seconds && plain.size() >= minOps &&
        (!options.trace || traced.size() >= minOps)) {
      break;
    }
    if (loopSeconds >= kMaxRunSeconds) {
      throw std::runtime_error(
          "too few ops for a p10 after " + fmt(loopSeconds) + " s: " +
          std::to_string(plain.size()) + " untraced, " +
          std::to_string(traced.size()) + " traced, need " +
          std::to_string(minOps));
    }
    const bool isTraced = options.trace && opIndex % 2 == 0;
    rotation.beforeOp(opIndex);
    const double frames = framesAllocated();
    if (isTraced) spans.beginOp(static_cast<int>(opIndex));
    OpResult result;
    std::string error;
    bool threw = false;
    const auto opStart = Clock::now();
    try {
      result = workload->op(isTraced ? spans : off);
    } catch (const std::exception& e) {
      error = e.what();
      threw = true;
    }
    const double seconds = since(opStart);
    if (isTraced) spans.endOp();
    result.facts["sim.frames"] = framesAllocated() - frames;
    workload->reset();

    ++report.attempted;
    if (!threw) error = diffOutputs(*expected, result.outputs);
    if (!threw && error.empty()) error = countDrift(counts, result.facts);
    if (!error.empty()) {
      ++report.failed;
      if (firstFailure.empty()) {
        firstFailure = "op " + std::to_string(opIndex) + " failed: " + error;
      }
    }
    if (threw) continue;  // no valid time
    (isTraced ? traced : plain).push_back(seconds);
    if (isTraced) {
      const std::size_t firstIndex =
          spans.spans().size() - spans.lastOp().size();
      rows.push_back(timeRow(spans.lastOp(), firstIndex, result.facts));
    }
  }

  if (!firstFailure.empty()) report.notes.push_back(firstFailure);
  report.notes.push_back("scratch: " + options.scratch.string() + " (" +
                         fileSystemOf(options.scratch) + ")");
  std::string setups;
  for (const double s : setupSeconds) setups += " " + fmt(s);
  report.notes.push_back(
      "set-up x" + std::to_string(setupSeconds.size()) + ":" + setups +
      " s, median " + fmt(iop::obs::medianOf(setupSeconds)) +
      " s, each op checked against " +
      (expected == &first ? "the first op" : "golden values"));
  report.notes.push_back("cpus: " + rotation.describe());
  const double fastest = percentile(plain, 0, 0);
  const double p10 = percentile(plain, 0.1);
  report.notes.push_back(
      "untraced ops: " + std::to_string(plain.size()) + ", min " +
      fmt(fastest) + " s, p10 " + fmt(p10) + " s, p50 " +
      fmt(percentile(plain, 0.5)) + " s, p90 " +
      fmt(percentile(plain, 0.9, 0)) + " s, " +
      fmt(static_cast<double>(plain.size() + traced.size()) / loopSeconds) +
      " ops/s");
  // Drift within the run: nearest-rank p10 of the first and last tenth of
  // the untraced ops (diagnostic only; a tenth is too few for the gate).
  {
    const std::size_t tenth = std::max<std::size_t>(1, plain.size() / 10);
    const std::vector<double> head(plain.begin(), plain.begin() + tenth);
    const std::vector<double> tail(plain.end() - tenth, plain.end());
    report.notes.push_back("drift: p10 of first tenth " +
                           fmt(percentile(head, 0.1, 0)) +
                           " s, of last tenth " +
                           fmt(percentile(tail, 0.1, 0)) + " s (" +
                           std::to_string(tenth) + " ops each)");
  }

  report.notes.push_back("memory: VmHWM " + fmt(statusMiB("VmHWM")) +
                         " MiB, RssAnon " + fmt(statusMiB("RssAnon")) +
                         " MiB, RssFile " + fmt(statusMiB("RssFile")) + " MiB");
  if (!options.trace) {
    report.metrics = {{"op_s.min", fastest, "s"},
                      {"setup_s", iop::obs::medianOf(setupSeconds), "s"},
                      {"peak_rss_mib", statusMiB("VmHWM"), "MiB"}};
    return report;
  }

  // One untimed count op with an obs hub on every cluster it builds.
  ++report.attempted;
  Facts opCounts;
  try {
    opCounts = workload->countOp();
  } catch (const std::exception& e) {
    ++report.failed;
    report.notes.push_back(std::string("count op failed: ") + e.what());
  }
  auto lookup = [](const Facts& facts, const std::string& key) {
    const auto it = facts.find(key);
    return it != facts.end() ? it->second : 0.0;
  };
  std::map<std::string, double> timeP10;
  for (const auto& [metric, value] : rows.front()) {
    std::vector<double> series;
    for (const auto& row : rows) series.push_back(lookup(row, metric));
    timeP10[metric] = percentile(series, 0.1);
  }
  const double tracedP10 = percentile(traced, 0.1);
  report.notes.push_back("traced ops: " + std::to_string(traced.size()) +
                         ", p10 " + fmt(tracedP10) + " s");
  const double events = lookup(opCounts, "sim.events");
  const double ioMiB = lookup(opCounts, "mpi.io_mib");
  for (const auto& m : kLayerMetrics) {
    double value = 0;
    switch (m.source) {
      case Source::Count: value = lookup(counts, m.name); break;
      case Source::CountOp: value = lookup(opCounts, m.name); break;
      case Source::Seconds: value = timeP10[m.name]; break;
      case Source::Derived:
        if (std::string(m.name) == "sim.events_per_s") {
          value = timeP10["engine_s"] > 0 ? events / timeP10["engine_s"] : 0;
        } else if (std::string(m.name) == "sim.events_per_mib") {
          value = ioMiB > 0 ? events / ioMiB : 0;
        } else {  // bench.trace_overhead_pct
          value = 100.0 * (tracedP10 / p10 - 1.0);
        }
        break;
    }
    report.metrics.push_back({m.name, value, m.unit});
  }
  if (!options.spansOut.empty()) {
    fs::create_directories(options.spansOut.parent_path());
    spans.saveChromeJson(options.spansOut);
    report.notes.push_back("spans: " + options.spansOut.string() + " (" +
                           std::to_string(spans.spans().size()) + ")");
  }
  return report;
}

}  // namespace e2e
