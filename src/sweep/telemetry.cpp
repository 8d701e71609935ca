#include "sweep/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "sweep/executor.hpp"

namespace iop::sweep {

namespace {

std::string esc(const std::string& raw) {
  return obs::TraceRecorder::jsonEscape(raw);
}

std::string fmtSec(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string fmtNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

constexpr auto kRenderInterval = std::chrono::milliseconds(100);

}  // namespace

// --------------------------------------------------------- ProgressMeter

ProgressMeter::ProgressMeter(bool enabled, std::FILE* out)
    : enabled_(enabled), out_(out) {}

void ProgressMeter::begin(std::size_t cells, std::size_t cached,
                          std::size_t shared, std::size_t pending,
                          std::size_t workers) {
  cells_ = cells;
  cached_ = cached;
  shared_ = shared;
  pending_ = pending;
  workers_ = std::max<std::size_t>(workers, 1);
  maybeRender();
}

void ProgressMeter::claim() {
  ++busy_;
  maybeRender();
}

void ProgressMeter::cellDone(double seconds, bool failed) {
  ++done_;
  if (failed) ++failed_;
  ewma_ = ewma_ == 0 ? seconds : 0.3 * seconds + 0.7 * ewma_;
  maybeRender();
}

void ProgressMeter::release() {
  if (busy_ > 0) --busy_;
}

double ProgressMeter::etaSeconds() const {
  if (pending_ <= done_ || workers_ == 0) return 0;
  return ewma_ * static_cast<double>(pending_ - done_) /
         static_cast<double>(workers_);
}

double ProgressMeter::hitRate() const {
  return cells_ == 0 ? 0 : static_cast<double>(cached_) /
                               static_cast<double>(cells_);
}

std::string ProgressMeter::renderLine() const {
  char buf[256];
  std::string line;
  std::snprintf(buf, sizeof buf, "[%zu/%zu] ", done_, pending_);
  line += buf;
  std::snprintf(buf, sizeof buf, "computed %zu", done_ - failed_);
  line += buf;
  if (failed_ > 0) {
    std::snprintf(buf, sizeof buf, " failed %zu", failed_);
    line += buf;
  }
  std::snprintf(buf, sizeof buf, " | cached %zu", cached_);
  line += buf;
  if (shared_ > 0) {
    std::snprintf(buf, sizeof buf, " (%zu shared)", shared_);
    line += buf;
  }
  const double eta = etaSeconds();
  if (eta > 0) {
    std::snprintf(buf, sizeof buf, " | eta %.1fs", eta);
    line += buf;
  }
  std::snprintf(buf, sizeof buf, " | workers %zu/%zu busy", busy_,
                workers_);
  line += buf;
  return line;
}

void ProgressMeter::maybeRender() {
  if (!enabled_ || out_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  if (lastRender_.time_since_epoch().count() != 0 &&
      now - lastRender_ < kRenderInterval) {
    return;
  }
  lastRender_ = now;
  std::string line = renderLine();
  const std::size_t width = line.size();
  // Pad with spaces so a shrinking line fully overwrites its predecessor.
  if (width < lastWidth_) line.append(lastWidth_ - width, ' ');
  lastWidth_ = width;
  std::fprintf(out_, "\r%s", line.c_str());
  std::fflush(out_);
}

void ProgressMeter::finish() {
  if (!enabled_ || out_ == nullptr) return;
  std::string line = renderLine();
  if (line.size() < lastWidth_) line.append(lastWidth_ - line.size(), ' ');
  std::fprintf(out_, "\r%s\n", line.c_str());
  std::fflush(out_);
  enabled_ = false;  // finish() renders once
}

// -------------------------------------------------------- SweepTelemetry

/// One event's fields, rendered for both text sinks: the journal gets
/// every field, the log only those that are the same on every run of a
/// campaign — a log line carries nothing that depends on wall-clock time
/// (obs/log.hpp) or on which worker happened to run a cell.
class SweepTelemetry::Fields {
 public:
  Fields& str(const char* key, const std::string& value) {
    return add(key, "\"" + esc(value) + "\"", true);
  }
  Fields& count(const char* key, std::size_t value) {
    return add(key, std::to_string(value), true);
  }
  Fields& real(const char* key, double value) {
    return add(key, fmtNum(value), true);
  }
  Fields& flag(const char* key, bool value) {
    return add(key, value ? "true" : "false", true);
  }
  /// A configured duration (a watchdog deadline): the same every run.
  Fields& deadline(const char* key, double value) {
    return add(key, fmtSec(value), true);
  }
  /// A measured wall-clock duration: journal only.
  Fields& seconds(const char* key, double value) {
    return add(key, fmtSec(value), false);
  }
  /// The worker index: journal only.
  Fields& worker(std::size_t value) {
    return add("worker", std::to_string(value), false);
  }

  const std::string& journal() const { return journal_; }
  const std::string& log() const { return log_; }

 private:
  Fields& add(const char* key, const std::string& json, bool logged) {
    append(journal_, key, json);
    if (logged) append(log_, key, json);
    return *this;
  }
  static void append(std::string& out, const char* key,
                     const std::string& json) {
    if (!out.empty()) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += json;
  }

  std::string journal_;
  std::string log_;
};

SweepTelemetry::SweepTelemetry(const TelemetryConfig& config)
    : progress_(config.progress),
      log_(config.log),
      execTraceOut_(config.execTraceOut),
      epoch_(std::chrono::steady_clock::now()) {
  if (!config.journalPath.empty()) {
    journal_ = std::make_unique<obs::RunJournal>(config.journalPath);
  }
  if (!config.execTraceOut.empty()) {
    trace_ = std::make_unique<obs::TraceRecorder>();
  }
  if (!config.telemetryOut.empty()) {
    snapshotter_ = std::make_unique<obs::TelemetrySnapshotter>(
        [this] {
          std::lock_guard<std::mutex> guard(mutex_);
          return metrics_.renderProm();
        },
        config.telemetryOut, std::max(config.telemetryIntervalMs, 10));
  }
}

SweepTelemetry::~SweepTelemetry() { finish(); }

double SweepTelemetry::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SweepTelemetry::emit(obs::LogLevel level, const char* event,
                          const Fields& fields) {
  if (journal_) {
    journal_->event(event, fields.journal());
    if (journal_->disabled() && !journalDisabledNoted_) {
      // The flight recorder went silent (ENOSPC, typically): the loss
      // shows in the metrics even though the journal cannot record it.
      journalDisabledNoted_ = true;
      metrics_.counter("sweep.journal_disabled").add();
    }
  }
  if (log_ != nullptr) log_->log(level, "sweep", event, fields.log());
}

int SweepTelemetry::workerTrack(std::size_t worker) {
  return trace_->track(obs::TrackKind::Worker,
                       "worker " + std::to_string(worker));
}

void SweepTelemetry::modelCacheHit(const std::string& model) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.model_cache_hits").add();
  emit(obs::LogLevel::Info, "model_cache_hit", Fields().str("model", model));
}

void SweepTelemetry::modelCharacterized(const std::string& model,
                                        std::size_t phases,
                                        double seconds) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.characterized").add();
  metrics_.histogram("sweep.resolve_seconds", obs::latencyBucketsSeconds())
      .observe(seconds);
  emit(obs::LogLevel::Info, "model_characterized",
       Fields()
           .str("model", model)
           .count("phases", phases)
           .seconds("seconds", seconds));
}

void SweepTelemetry::characterizeSpan(std::size_t worker,
                                      const std::string& model,
                                      double beginSec, double endSec) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!trace_) return;
  trace_->span(obs::TrackKind::Worker, workerTrack(worker),
               "characterize " + model, "resolve", beginSec, endSec);
}

void SweepTelemetry::campaignStart(const std::string& name,
                                   const std::string& configHash,
                                   int jobs) {
  std::lock_guard<std::mutex> guard(mutex_);
  emit(obs::LogLevel::Debug, "campaign_start",
       Fields()
           .str("campaign", name)
           .str("config", configHash)
           .count("jobs", static_cast<std::size_t>(jobs)));
}

void SweepTelemetry::execStart(std::size_t cells, std::size_t cached,
                               std::size_t shared, std::size_t pending,
                               std::size_t workers) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.cells").add(static_cast<double>(cells));
  metrics_.counter("sweep.pending").add(static_cast<double>(pending));
  progress_.begin(cells, cached, shared, pending, workers);
  emit(obs::LogLevel::Debug, "exec_start",
       Fields()
           .count("cells", cells)
           .count("cached", cached)
           .count("shared", shared)
           .count("pending", pending)
           .count("workers", workers));
}

void SweepTelemetry::cacheHit(const std::string& cell,
                              const std::string& key, bool shared) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.cache_hits").add();
  if (shared) metrics_.counter("sweep.shared_hits").add();
  emit(obs::LogLevel::Info, shared ? "shared_hit" : "cache_hit",
       Fields().str("cell", cell).str("key", key));
}

void SweepTelemetry::cellQuarantined(const std::string& cell,
                                     const std::string& key,
                                     const std::string& error,
                                     bool shared) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.quarantined").add();
  emit(obs::LogLevel::Warn, "cell_quarantined",
       Fields()
           .str("cell", cell)
           .str("key", key)
           .str("error", error)
           .flag("shared", shared));
  if (trace_) {
    trace_->instant(obs::TrackKind::Worker,
                    trace_->track(obs::TrackKind::Worker, "executor"),
                    "quarantine " + cell, "store", now(),
                    "\"key\":\"" + esc(key) + "\"");
  }
}

void SweepTelemetry::workerSpawn(std::size_t worker) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.worker_spawns").add();
  emit(obs::LogLevel::Debug, "worker_spawn", Fields().worker(worker));
}

void SweepTelemetry::workerIdle(std::size_t worker) {
  std::lock_guard<std::mutex> guard(mutex_);
  emit(obs::LogLevel::Debug, "worker_idle", Fields().worker(worker));
}

void SweepTelemetry::cellClaim(std::size_t worker, const std::string& cell,
                               const std::string& key) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.gauge("sweep.workers_busy").add(1);
  progress_.claim();
  emit(obs::LogLevel::Debug, "cell_claim",
       Fields().worker(worker).str("cell", cell).str("key", key));
}

void SweepTelemetry::cellCommit(std::size_t worker, const std::string& cell,
                                const std::string& key, double claimSec,
                                double evalSec, double commitSec,
                                double timeIo, std::size_t iorRuns,
                                bool faulted) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.computed").add();
  metrics_.counter("sweep.ior_runs").add(static_cast<double>(iorRuns));
  metrics_.histogram("sweep.replay_seconds", obs::latencyBucketsSeconds())
      .observe(evalSec - claimSec);
  metrics_.histogram("sweep.commit_seconds", obs::latencyBucketsSeconds())
      .observe(commitSec - evalSec);
  metrics_.gauge("sweep.workers_busy").add(-1);
  progress_.cellDone(commitSec - claimSec, /*failed=*/false);
  progress_.release();
  emit(obs::LogLevel::Info, "cell_commit",
       Fields()
           .worker(worker)
           .str("cell", cell)
           .str("key", key)
           .seconds("seconds", commitSec - claimSec)
           .seconds("commit_seconds", commitSec - evalSec)
           .real("time_io", timeIo)
           .count("ior_runs", iorRuns)
           .flag("faulted", faulted));
  if (trace_) {
    const int tid = workerTrack(worker);
    const std::string args = "\"key\":\"" + esc(key) + "\"";
    trace_->span(obs::TrackKind::Worker, tid, "replay " + cell, "replay",
                 claimSec, evalSec, args);
    trace_->span(obs::TrackKind::Worker, tid, "commit " + cell, "commit",
                 evalSec, commitSec, args);
    if (faulted) {
      trace_->instant(obs::TrackKind::Worker, tid, "fault " + cell, "fault",
                      claimSec, args);
    }
  }
}

void SweepTelemetry::cellFailed(std::size_t worker, const std::string& cell,
                                const std::string& key, double claimSec,
                                double failSec, const std::string& error) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.failures").add();
  metrics_.gauge("sweep.workers_busy").add(-1);
  progress_.cellDone(failSec - claimSec, /*failed=*/true);
  progress_.release();
  emit(obs::LogLevel::Warn, "cell_failed",
       Fields()
           .worker(worker)
           .str("cell", cell)
           .str("key", key)
           .seconds("seconds", failSec - claimSec)
           .str("error", error));
  if (trace_) {
    const int tid = workerTrack(worker);
    const std::string args = "\"key\":\"" + esc(key) + "\"";
    trace_->span(obs::TrackKind::Worker, tid, "replay " + cell, "replay",
                 claimSec, failSec, args);
    trace_->instant(obs::TrackKind::Worker, tid, "failed " + cell, "fault",
                    failSec, args);
  }
}

void SweepTelemetry::cellSlow(std::size_t worker, const std::string& cell,
                              const std::string& key, double deadlineSec) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.cells_slow").add();
  metrics_.gauge("sweep.slow_cells").add(1);
  emit(obs::LogLevel::Warn, "cell_slow",
       Fields()
           .worker(worker)
           .str("cell", cell)
           .str("key", key)
           .deadline("deadline_s", deadlineSec));
  if (trace_) {
    trace_->instant(obs::TrackKind::Worker, workerTrack(worker),
                    "slow " + cell, "watchdog", now(),
                    "\"key\":\"" + esc(key) + "\"");
  }
}

void SweepTelemetry::cellSlowResolved() {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.gauge("sweep.slow_cells").add(-1);
}

void SweepTelemetry::cellStuck(std::size_t worker, const std::string& cell,
                               const std::string& key, int attempt,
                               double deadlineSec, bool retrying) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.cells_stuck").add();
  metrics_.gauge("sweep.workers_busy").add(-1);
  progress_.release();
  if (!retrying) {
    // The retry stuck too: the cell is terminally failed.
    metrics_.counter("sweep.failures").add();
    progress_.cellDone(deadlineSec, /*failed=*/true);
  }
  emit(obs::LogLevel::Warn, "cell_stuck",
       Fields()
           .worker(worker)
           .str("cell", cell)
           .str("key", key)
           .count("attempt", static_cast<std::size_t>(attempt))
           .deadline("deadline_s", deadlineSec)
           .flag("retry", retrying));
  if (trace_) {
    trace_->instant(obs::TrackKind::Worker, workerTrack(worker),
                    "stuck " + cell, "watchdog", now(),
                    "\"key\":\"" + esc(key) + "\"");
  }
}

void SweepTelemetry::arenaTrimmed(std::size_t worker,
                                  std::size_t releasedBytes,
                                  std::size_t slabBytes) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sim.arena_trim_bytes")
      .add(static_cast<double>(releasedBytes));
  // Last writer wins across workers: the gauge tracks one thread-local
  // arena's footprint, which is representative — workers run the same
  // kind of cells — without needing per-worker metric names.
  metrics_.gauge("sim.arena_bytes").set(static_cast<double>(slabBytes));
  if (trace_ && releasedBytes > 0) {
    trace_->counterSample(obs::TrackKind::Worker, workerTrack(worker),
                          "arena bytes", now(),
                          static_cast<double>(slabBytes));
  }
}

void SweepTelemetry::shutdownNoticed() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (shutdownSeen_) return;
  shutdownSeen_ = true;
  metrics_.counter("sweep.shutdowns").add();
  emit(obs::LogLevel::Debug, "shutdown_requested", Fields());
  if (trace_) {
    trace_->instant(obs::TrackKind::Worker,
                    trace_->track(obs::TrackKind::Worker, "executor"),
                    "shutdown requested", "signal", now());
  }
}

void SweepTelemetry::cellsSkipped(std::size_t count) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.skipped").add(static_cast<double>(count));
  emit(obs::LogLevel::Debug, "cells_skipped", Fields().count("count", count));
}

void SweepTelemetry::runComplete(const SweepOutcome& outcome) {
  std::lock_guard<std::mutex> guard(mutex_);
  const auto topUp = [this](const char* name, std::size_t total) {
    obs::Counter& counter = metrics_.counter(name);
    const double missing = static_cast<double>(total) - counter.value();
    if (missing > 0) counter.add(missing);
  };
  topUp("sweep.cells", outcome.cells.size());
  topUp("sweep.cache_hits", outcome.cacheHits);
  topUp("sweep.shared_hits", outcome.sharedHits);
  topUp("sweep.computed", outcome.computed);
  topUp("sweep.failures", outcome.failures);
  topUp("sweep.skipped", outcome.skipped);
  topUp("sweep.quarantined", outcome.quarantined);
  topUp("sweep.ior_runs", outcome.iorRuns);
  topUp("sweep.cells_stuck", outcome.stuck);
  emit(obs::LogLevel::Info, "run_complete",
       Fields()
           .count("cells", outcome.cells.size())
           .count("cache_hits", outcome.cacheHits)
           .count("shared_hits", outcome.sharedHits)
           .count("computed", outcome.computed)
           .count("failures", outcome.failures)
           .count("skipped", outcome.skipped)
           .count("quarantined", outcome.quarantined)
           .flag("interrupted", outcome.interrupted)
           .seconds("wall_seconds", outcome.wallSeconds));
}

void SweepTelemetry::cellLoaded(const char* store, bool ok) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter(std::string(store) + (ok ? ".cell_loads" : ".quarantines"))
      .add();
}

void SweepTelemetry::cellSaved(const char* store, std::size_t bytes) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter(std::string(store) + ".cell_commits").add();
  metrics_.counter(std::string(store) + ".cell_bytes")
      .add(static_cast<double>(bytes));
}

void SweepTelemetry::captureSaved() {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("store.capture_commits").add();
}

void SweepTelemetry::finish() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (finished_) return;
    finished_ = true;
  }
  // Unlocked: the snapshot thread takes the lock to render.
  if (snapshotter_) snapshotter_->stop();
  std::lock_guard<std::mutex> guard(mutex_);
  progress_.finish();
  if (trace_) trace_->saveJson(execTraceOut_);
}

}  // namespace iop::sweep
