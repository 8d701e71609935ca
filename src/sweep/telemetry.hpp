// Runtime telemetry for campaign execution: the one observer the sweep
// executor, the campaign resolver and the stores report to.
//
// One SweepTelemetry object observes one `iop-sweep run`.  Each hook
// method below is one typed event; the object records it once and
// derives every view from that record:
//
//   * the metrics registry (an obs::MetricsRegistry, `runtime()`): the
//     `sweep.*`, `store.*`, `shared_store.*` and `sim.arena_*`
//     instruments, snapshotted as Prometheus text exposition to
//     --telemetry-out on a timer and rendered as CSV by
//     `iop-sweep --metrics-out`;
//   * the RunJournal flight recorder under <store>/journal/ — every
//     lifecycle event as one flushed JSONL line (schema iop-journal/1),
//     so a crashed or SIGKILLed run leaves a reconstructable timeline
//     (see postmortem.hpp);
//   * the tool's obs::Logger — the same events as JSONL diagnostics,
//     without the fields that depend on wall-clock time or on which
//     worker ran a cell, so log lines are deterministic;
//   * an optional execution trace — one Chrome/Perfetto track per worker
//     (TrackKind::Worker), spans for characterize / replay / commit —
//     saved to --exec-trace-out;
//   * the progress meter (--progress).
//
// Every hook is thread-safe: all sinks are serialised under one mutex.
// Sweep events arrive a few times per cell, so the lock costs nothing
// measurable, and the registry's instruments stay plain (non-atomic)
// for the simulations that share them.
//
// Everything here is observation-only: no sink feeds back into any
// scheduling or result-affecting decision, so a store written with
// telemetry on is byte-identical to one written with it off (the tests
// and CI pin exactly that).  A null SweepTelemetry pointer in
// SweepOptions/ResolveOptions disables the whole subsystem at zero cost.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/runtime.hpp"

namespace iop::sweep {

struct SweepOutcome;

struct TelemetryConfig {
  std::string journalPath;    ///< JSONL flight recorder ("" = off)
  std::string telemetryOut;   ///< Prometheus snapshot file ("" = off)
  int telemetryIntervalMs = 500;
  bool progress = false;      ///< live status line on stderr
  std::string execTraceOut;   ///< Chrome trace of the execution ("" = off)
  obs::Logger* log = nullptr; ///< structured log sink (null = off)
};

/// Progress accounting for one run, with an optional single-line TTY
/// display.  `done` counts evaluated cells only (computed + failed);
/// cached and shared-store hits are tracked separately so a resume that
/// is 100% cache hits reports an honest 0-cells-evaluated, matching the
/// journal, instead of an inflated done count.  The ETA is an EWMA of
/// per-cell wall seconds scaled by the remaining pending cells per
/// worker.  Not thread-safe: SweepTelemetry serialises its calls.
class ProgressMeter {
 public:
  explicit ProgressMeter(bool enabled, std::FILE* out = stderr);

  void begin(std::size_t cells, std::size_t cached, std::size_t shared,
             std::size_t pending, std::size_t workers);
  void claim();
  void cellDone(double seconds, bool failed);
  void release();  ///< a claimed cell finished (busy worker count -1)
  void finish();   ///< final render + newline (enabled only)

  std::size_t doneCells() const { return done_; }
  double ewmaSeconds() const { return ewma_; }
  double etaSeconds() const;
  /// Fraction of the grid served from caches, in [0, 1].
  double hitRate() const;
  std::string renderLine() const;

 private:
  void maybeRender();

  bool enabled_ = false;
  std::FILE* out_ = nullptr;
  std::size_t cells_ = 0;
  std::size_t cached_ = 0;
  std::size_t shared_ = 0;
  std::size_t pending_ = 0;
  std::size_t workers_ = 0;
  std::size_t done_ = 0;
  std::size_t failed_ = 0;
  std::size_t busy_ = 0;
  double ewma_ = 0;  ///< EWMA of per-cell seconds (alpha = 0.3)
  std::chrono::steady_clock::time_point lastRender_{};
  std::size_t lastWidth_ = 0;
};

class SweepTelemetry {
 public:
  explicit SweepTelemetry(const TelemetryConfig& config);
  ~SweepTelemetry();

  SweepTelemetry(const SweepTelemetry&) = delete;
  SweepTelemetry& operator=(const SweepTelemetry&) = delete;

  /// The run's metrics registry.  Hooks update it under the telemetry
  /// lock, so read it only once no hook can run (after runSweep returns).
  obs::MetricsRegistry& runtime() noexcept { return metrics_; }
  obs::RunJournal* journal() noexcept { return journal_.get(); }

  /// Wall-clock seconds since construction (the exec-trace timebase).
  double now() const;

  // ---- campaign resolution (campaign.cpp) ----
  void modelCacheHit(const std::string& model);
  void modelCharacterized(const std::string& model, std::size_t phases,
                          double seconds);
  /// Trace-only: the characterize span on resolver-worker `worker`'s
  /// track.  Safe from any thread while resolution runs.
  void characterizeSpan(std::size_t worker, const std::string& model,
                        double beginSec, double endSec);

  // ---- run lifecycle (iop_sweep.cpp / executor.cpp) ----
  void campaignStart(const std::string& name, const std::string& configHash,
                     int jobs);
  void execStart(std::size_t cells, std::size_t cached, std::size_t shared,
                 std::size_t pending, std::size_t workers);
  void cacheHit(const std::string& cell, const std::string& key,
                bool shared);
  void cellQuarantined(const std::string& cell, const std::string& key,
                       const std::string& error, bool shared);
  void workerSpawn(std::size_t worker);
  void workerIdle(std::size_t worker);
  void cellClaim(std::size_t worker, const std::string& cell,
                 const std::string& key);
  void cellCommit(std::size_t worker, const std::string& cell,
                  const std::string& key, double claimSec, double evalSec,
                  double commitSec, double timeIo, std::size_t iorRuns,
                  bool faulted);
  void cellFailed(std::size_t worker, const std::string& cell,
                  const std::string& key, double claimSec, double failSec,
                  const std::string& error);
  /// Watchdog: a cell crossed its soft deadline (still running).  The
  /// `sweep.slow_cells` gauge goes +1 here and -1 when the attempt ends
  /// (commit, failure or hard-deadline stop).
  void cellSlow(std::size_t worker, const std::string& cell,
                const std::string& key, double deadlineSec);
  void cellSlowResolved();
  /// Watchdog: a cell crossed its hard deadline and was stopped.
  /// `retrying` is true when attempt 1 was quarantined and the same
  /// worker retries the cell at once; false means the retry also stuck
  /// and the cell is terminally failed.
  void cellStuck(std::size_t worker, const std::string& cell,
                 const std::string& key, int attempt, double deadlineSec,
                 bool retrying);
  void arenaTrimmed(std::size_t worker, std::size_t releasedBytes,
                    std::size_t slabBytes);
  void shutdownNoticed();  ///< idempotent: first caller journals it
  void cellsSkipped(std::size_t count);
  /// The run's totals.  Deduplicated cells share their owner's
  /// evaluation and raise no event of their own, so the counters the
  /// totals name are topped up to them here: afterwards `sweep.cells`,
  /// `cache_hits`, `shared_hits`, `computed`, `failures`, `skipped`,
  /// `quarantined`, `ior_runs` and `cells_stuck` equal the outcome's
  /// fields (`stuck` for the last).
  void runComplete(const SweepOutcome& outcome);

  // ---- store operations (store.cpp); `store` is the counter prefix ----
  void cellLoaded(const char* store, bool ok);  ///< ok: a load, else a
                                                ///< quarantine
  void cellSaved(const char* store, std::size_t bytes);
  void captureSaved();

  /// Flush everything: stop the snapshot thread (writing one final
  /// exposition), finish the progress line, save the exec trace.
  /// Idempotent; also runs on destruction.
  void finish();

 private:
  class Fields;
  /// Journal and log one event.  The caller holds mutex_.
  void emit(obs::LogLevel level, const char* event, const Fields& fields);
  int workerTrack(std::size_t worker);

  mutable std::mutex mutex_;  ///< serialises every sink below
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::RunJournal> journal_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::TelemetrySnapshotter> snapshotter_;
  ProgressMeter progress_;
  obs::Logger* log_;
  std::string execTraceOut_;
  std::chrono::steady_clock::time_point epoch_;
  bool shutdownSeen_ = false;
  bool finished_ = false;
  bool journalDisabledNoted_ = false;
};

}  // namespace iop::sweep
