// The campaign executor: a fixed-size worker pool evaluating grid cells.
//
// Threading model: each worker evaluates one cell at a time, inline, with
// a completely private stack — a fresh ClusterConfig (own sim::Engine, own
// topology) built from captured text, a private Replayer, a private
// Estimate.  Workers share only the atomic work cursor, the result slots
// (disjoint per cell), and the store directory (disjoint files, atomic
// renames).  The simulations themselves stay single-threaded and
// deterministic, so a cell's bytes are a pure function of its cache key —
// which is what makes the store byte-identical for any -j and lets a
// second run be 100% cache hits.  No thread outlives runSweep: the
// watchdog stops a stuck cell on its own worker (SweepOptions).
//
// Observation: the executor reports every lifecycle event (cache hits,
// quarantines, claims, commits, failures, watchdog verdicts, the run's
// totals) to one place, the optional SweepTelemetry in SweepOptions,
// which journals, logs, counts and traces it (telemetry.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/campaign.hpp"
#include "sweep/store.hpp"

namespace iop::sweep {

struct CellOutcome;
class SweepTelemetry;

struct SweepOptions {
  int jobs = 1;              ///< worker threads (>= 1)
  bool force = false;        ///< recompute cached cells (and replace a
                             ///< mismatched store)
  bool writeCaptures = true; ///< also commit iop-diff'able captures
  /// Optional campaign-independent shared cache directory (SharedStore):
  /// probed after the campaign store on a miss — a hit is adopted into the
  /// campaign store — and every computed cell is deposited back.  Empty
  /// disables sharing.
  std::string sharedStore;
  /// Cooperative cancellation (SIGINT/SIGTERM in iop-sweep): when the
  /// pointee becomes true, workers stop taking new cells after finishing
  /// — and committing — the one in flight.  Untouched cells are reported
  /// as Skipped and the outcome is marked interrupted; a later resume
  /// picks up exactly the uncommitted remainder.
  const std::atomic<bool>* cancel = nullptr;
  /// Test/progress hook, invoked serially (under a lock) after each cell
  /// is committed or fails.  May flip `cancel` to exercise shutdown.
  std::function<void(const CellOutcome&)> onCellDone;
  /// Optional observer of the run: flight recorder, metrics, log, exec
  /// trace and progress (telemetry.hpp).  Observation-only: the store
  /// bytes are identical with and without it.
  SweepTelemetry* telemetry = nullptr;
  /// Hung-worker watchdog (0 = off, the default): wall seconds per
  /// attempt, polled by every engine of the cell (sim::Deadline).  Past
  /// the soft deadline a cell is journaled as `cell_slow` (and counts on
  /// the `sweep.slow_cells` gauge) but keeps running.  Past the hard
  /// deadline the attempt stops between two engine dispatches, a
  /// `quarantine/<key>.stuck.<attempt>` marker is written, and the cell
  /// is retried once, at once, on the same worker.  A second timeout
  /// fails the cell with a "stuck" error.  Deadlines don't perturb
  /// results: a store written with the watchdog on is byte-identical to
  /// one written with it off (stopped attempts commit nothing).
  double softDeadlineSeconds = 0;
  double hardDeadlineSeconds = 0;
};

struct CellOutcome {
  enum class Status { Cached, Computed, Failed, Skipped };

  CellSpec spec;
  Status status = Status::Failed;
  CellResult result;    ///< valid unless Failed/Skipped
  std::string error;    ///< Failed/Skipped only
  double seconds = 0;   ///< wall time spent computing (0 for cached)
};

struct SweepOutcome {
  std::vector<CellOutcome> cells;  ///< canonical campaign order
  std::size_t cacheHits = 0;
  std::size_t sharedHits = 0;  ///< subset of cacheHits served by the
                               ///< shared store
  std::size_t quarantined = 0;  ///< corrupt cached cells set aside and
                                ///< recomputed
  std::size_t computed = 0;
  std::size_t failures = 0;
  std::size_t skipped = 0;  ///< cells not started before cancellation
  std::size_t stuck = 0;    ///< watchdog hard-deadline abandonments
                            ///< (includes retried attempts)
  std::size_t iorRuns = 0;  ///< IOR executions across computed cells
  double wallSeconds = 0;
  bool interrupted = false;  ///< cancellation stopped the run early

  bool ok() const noexcept {
    return failures == 0 && skipped == 0 && !interrupted;
  }
};

/// Evaluate one cell synchronously (no store involved), with every engine
/// polling `deadline` if given.  The building block workers run; exposed
/// for tests and the micro-benchmark.
CellResult evaluateCell(const ResolvedCampaign& campaign,
                        const CellSpec& cell,
                        sim::Deadline* deadline = nullptr);

/// Run (or resume) a campaign against a store: probe the caches serially,
/// execute the misses on `options.jobs` workers, each committing its cells
/// atomically, then commit the run: tallies and the manifest, rewritten
/// in canonical order.  Every event goes to `options.telemetry` (if any);
/// `store` and the shared store count their operations through it too.
SweepOutcome runSweep(const ResolvedCampaign& campaign, CampaignStore& store,
                      const SweepOptions& options);

}  // namespace iop::sweep
