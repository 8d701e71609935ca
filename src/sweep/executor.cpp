#include "sweep/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/degraded.hpp"
#include "analysis/multiop.hpp"
#include "analysis/replay.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/framepool.hpp"
#include "sweep/telemetry.hpp"
#include "tenant/cosched.hpp"
#include "util/vfs.hpp"

namespace iop::sweep {

CellResult evaluateCell(const ResolvedCampaign& campaign,
                        const CellSpec& cell, sim::Deadline* deadline) {
  const ResolvedModel& model = campaign.models[cell.modelIndex];
  const ResolvedConfig& config = campaign.configs[cell.configIndex];

  // Every measurement runs on a fresh, cold, private instance of the
  // candidate configuration with the cell's fault factors applied, and
  // every engine polls the attempt's deadline.
  analysis::ConfigBuilder builder = [&config, &cell, deadline]() {
    configs::ClusterConfig built =
        config.build(cell.degradeDisks, cell.degradeNet);
    built.engine->setDeadline(deadline);
    return built;
  };

  CellResult result;
  result.key = cell.key;
  result.modelLabel = model.label;
  result.configLabel = config.label;
  result.degradeDisks = cell.degradeDisks;
  result.degradeNet = cell.degradeNet;
  result.np = model.model.np();
  result.weightBytes = model.model.totalWeightBytes();

  if (cell.tenanted()) {
    // Tenanted cell: co-schedule the model as the foreground job of the
    // tenant spec (tenant/cosched.hpp) and estimate its *contended*
    // Time_io.  A fault plan on the cell composes into the same run; the
    // tenant seed drives both the arrival streams and the injector.
    const ResolvedTenant& tenantSrc = campaign.tenants[cell.tenantIndex];
    const ResolvedFault& faultSrc = campaign.faults[cell.faultIndex];
    tenant::TenantRunOptions topt;
    if (!faultSrc.none()) topt.faultPlan = &faultSrc.plan;
    topt.foregroundModel = &model.model;
    const tenant::TenantResult tr =
        tenant::runTenant(tenantSrc.spec, builder, cell.tenantSeed, topt);
    const tenant::TenantJobResult& fg = tr.jobs.front();
    result.estimator = kTenantEstimatorVersion;
    result.tenantLabel = tenantSrc.label;
    result.tenantSeed = cell.tenantSeed;
    result.tenantJain = tr.jain;
    result.tenantSoloTimeIo = fg.soloTimeIo;
    result.tenantSlowdown = fg.slowdown;
    if (!faultSrc.none()) result.faultLabel = faultSrc.label;
    result.timeIo = fg.contendedTimeIo;
    for (const auto& p : fg.phases) {
      const double bw =
          p.seconds > 0
              ? static_cast<double>(p.weightBytes) / p.seconds
              : 0;
      result.phases.push_back(
          {p.id, p.familyId, p.weightBytes, bw, p.seconds});
    }
    for (const auto& job : tr.jobs) {
      result.tenantJobs.push_back({job.id, job.weight, job.soloTimeIo,
                                   job.contendedTimeIo, job.slowdown,
                                   job.waitSeconds});
    }
    return result;
  }

  if (cell.faulted()) {
    // Degraded-mode cell: one seeded replica of the whole-model synthetic
    // replay under the fault plan.  Deterministic, so a replica whose run
    // dies at phase level is still a committable (cacheable) result.
    const ResolvedFault& faultSrc = campaign.faults[cell.faultIndex];
    const auto degraded = analysis::estimateDegraded(
        model.model, builder, faultSrc.plan, {cell.faultSeed});
    const analysis::FaultReplica& replica = degraded.replicas.front();
    result.estimator = kFaultEstimatorVersion;
    result.faultLabel = faultSrc.label;
    result.faultSeed = cell.faultSeed;
    result.faultRetries = replica.retries;
    result.faultFailovers = replica.failovers;
    result.faultStallSeconds = replica.stallSeconds;
    if (replica.ok) {
      result.timeIo = replica.timeIo;
    } else {
      result.faultError = replica.error;
    }
    for (const auto& p : degraded.phases) {
      const double bw = p.medianTimeSec > 0
                            ? static_cast<double>(p.weightBytes) /
                                  p.medianTimeSec
                            : 0;
      result.phases.push_back(
          {p.phaseId, p.familyId, p.weightBytes, bw, p.medianTimeSec});
    }
    return result;
  }

  analysis::Replayer replayer(builder, config.mount);
  analysis::Estimate estimate =
      campaign.spec.multiop
          ? analysis::estimateIoTimeMultiOp(model.model, replayer, builder,
                                            config.mount)
          : analysis::estimateIoTime(model.model, replayer);
  result.estimator = campaign.spec.estimatorVersion();
  result.timeIo = estimate.totalTimeSec;
  result.iorRuns = replayer.benchmarkRuns();
  for (const auto& p : estimate.phases) {
    result.phases.push_back({p.phaseId, p.familyId, p.weightBytes,
                             p.bandwidthCH, p.timeCH});
  }
  return result;
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What one runSweep call works on, shared by its three stages.
struct Sweep {
  const ResolvedCampaign& campaign;
  CampaignStore& store;
  SharedStore* shared;  ///< null without a shared store
  const SweepOptions& options;
  const std::vector<CellSpec>& plan;
  SweepOutcome& outcome;  ///< one slot per plan cell
};

/// The cells the probe could not serve from a store.
struct Pending {
  std::vector<std::size_t> owners;  ///< one cell per distinct key, plan order
  /// (owner, duplicate) pairs: identical cells are evaluated once.
  std::vector<std::pair<std::size_t, std::size_t>> followers;
};

bool cancelled(const SweepOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

/// Probe stage, serial: serve cells from the campaign store, then from the
/// shared store, set corrupt ones aside, and deduplicate the rest by key.
Pending probe(const Sweep& run) {
  SweepTelemetry* tele = run.options.telemetry;
  // A hit from `from` (the shared store when `shared`); tryLoadCell moves
  // a torn/corrupt file to quarantine/ and the cell drops through to the
  // next source, or to recomputation.
  const auto serve = [&](const auto& from, bool shared, std::size_t i) {
    const CellSpec& cell = run.plan[i];
    if (run.options.force || !from.hasCell(cell.key)) return false;
    std::string whyBad;
    auto loaded = from.tryLoadCell(cell.key, &whyBad);
    if (!loaded) {
      ++run.outcome.quarantined;
      if (tele != nullptr) {
        tele->cellQuarantined(run.campaign.cellTitle(cell), cell.key,
                              whyBad, shared);
      }
      return false;
    }
    CellOutcome& out = run.outcome.cells[i];
    out.status = CellOutcome::Status::Cached;
    out.result = std::move(*loaded);
    // Adopt a shared result into the campaign store: cell bytes are a
    // pure function of the key, so render() reproduces them exactly.
    if (shared) run.store.saveCell(out.result);
    // Captures are a pure function of the result too: write the adopted
    // cell's, and regenerate one iop-fsck quarantined, so the store
    // converges back to the bytes an uninterrupted run would have written.
    if (run.options.writeCaptures &&
        (shared ||
         !std::filesystem::exists(run.store.capturePath(cell.key)))) {
      run.store.saveCapture(cell.key, makeCellCapture(out.result));
    }
    ++run.outcome.cacheHits;
    if (shared) ++run.outcome.sharedHits;
    if (tele != nullptr) {
      tele->cacheHit(run.campaign.cellTitle(cell), cell.key, shared);
    }
    return true;
  };

  Pending pending;
  std::map<std::string, std::size_t> ownerOf;
  for (std::size_t i = 0; i < run.plan.size(); ++i) {
    IOP_PROFILE_SCOPE("sweep.probe");
    if (serve(run.store, false, i) ||
        (run.shared != nullptr && serve(*run.shared, true, i))) {
      continue;
    }
    const auto [owner, inserted] = ownerOf.emplace(run.plan[i].key, i);
    if (inserted) {
      pending.owners.push_back(i);
    } else {
      pending.followers.emplace_back(owner->second, i);
    }
  }
  return pending;
}

/// Milliseconds from a test-only environment variable (0 when unset).
int envMillis(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atoi(env) : 0;
}

/// `start` plus `seconds`, or never for a deadline that is off: 0, or a
/// point past the end of the clock's range (+inf included).
Clock::time_point deadlineAt(Clock::time_point start, double seconds) {
  constexpr Clock::time_point never = Clock::time_point::max();
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double>(seconds))
                           .count();
  // Range-check in double: converting a double the rep cannot hold to it
  // is undefined.
  if (!(ticks > 0) ||
      !(ticks < static_cast<double>(std::numeric_limits<Clock::rep>::max()))) {
    return never;
  }
  const Clock::duration budget(static_cast<Clock::rep>(ticks));
  return budget < never - start ? start + budget : never;
}

/// Leave a marker so an operator (and iop-fsck) can tell the attempt was
/// stopped, not merely slow.  Scratch durability: markers are advisory
/// and must not perturb crash-point numbering.
void writeStuckMarker(const Sweep& run, const std::string& title,
                      const std::string& key, int attempt) {
  try {
    const std::filesystem::path marker =
        run.store.root() / "quarantine" /
        (key + ".stuck." + std::to_string(attempt));
    std::filesystem::create_directories(marker.parent_path());
    util::vfs::replaceFile(
        marker,
        "stuck: " + title + " attempt " + std::to_string(attempt) +
            " exceeded hard deadline " +
            std::to_string(run.options.hardDeadlineSeconds) + "s\n",
        util::vfs::Durability::Scratch);
  } catch (const std::exception&) {
    // Best-effort: a marker failure must not fail the run.
  }
}

/// Evaluate and commit one cell on the calling worker.  Each attempt runs
/// inline under its own deadline; an attempt stopped at the hard deadline
/// leaves a stuck marker and is retried once, at once.  Returns the number
/// of stopped attempts.
std::size_t computeCell(const Sweep& run, std::size_t worker,
                        CellOutcome& out) {
  const SweepOptions& options = run.options;
  SweepTelemetry* tele = options.telemetry;
  const std::string title = run.campaign.cellTitle(out.spec);
  const bool armed =
      options.softDeadlineSeconds > 0 || options.hardDeadlineSeconds > 0;
  for (int attempt = 1;; ++attempt) {
    const double tClaim = tele != nullptr ? tele->now() : 0;
    if (tele != nullptr) tele->cellClaim(worker, title, out.spec.key);
    const auto cellStart = Clock::now();
    bool slow = false;
    sim::Deadline deadline(
        deadlineAt(cellStart, options.softDeadlineSeconds),
        deadlineAt(cellStart, options.hardDeadlineSeconds), [&] {
          slow = true;
          if (tele != nullptr) {
            tele->cellSlow(worker, title, out.spec.key,
                           options.softDeadlineSeconds);
          }
        });
    bool evaluated = false;
    bool stuck = false;
    std::string error;
    try {
      // One scope per attempt, stall included: `sweep.cell` counts the
      // stopped attempts too.
      IOP_PROFILE_SCOPE("sweep.cell");
      // Test-only wall-clock stall, so tests and CI can kill a run
      // mid-cell or push an attempt past its deadline: timing only, never
      // results.  The second variable stalls the first attempt only.
      const int stallMs =
          envMillis("IOP_SWEEP_TEST_CELL_DELAY_MS") +
          (attempt == 1 ? envMillis("IOP_SWEEP_TEST_CELL_DELAY_ONCE_MS") : 0);
      if (stallMs > 0) deadline.sleepFor(std::chrono::milliseconds(stallMs));
      out.result = evaluateCell(run.campaign, out.spec,
                                armed ? &deadline : nullptr);
      evaluated = true;
    } catch (const sim::DeadlineExceeded&) {
      stuck = true;
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (slow && tele != nullptr) tele->cellSlowResolved();

    if (stuck) {
      const bool retrying = attempt < 2;
      writeStuckMarker(run, title, out.spec.key, attempt);
      if (tele != nullptr) {
        tele->cellStuck(worker, title, out.spec.key, attempt,
                        options.hardDeadlineSeconds, retrying);
      }
      if (retrying) continue;
      out.status = CellOutcome::Status::Failed;
      out.error = "stuck: evaluation exceeded the hard deadline (" +
                  std::to_string(options.hardDeadlineSeconds) +
                  "s) on attempt " + std::to_string(attempt);
      out.seconds = secondsSince(cellStart);
      return attempt;
    }
    if (evaluated) {
      try {
        const double tEval = tele != nullptr ? tele->now() : 0;
        run.store.saveCell(out.result);
        if (options.writeCaptures) {
          run.store.saveCapture(out.spec.key, makeCellCapture(out.result));
        }
        // Deposit into the shared pool as well; racing processes write
        // identical bytes through unique temp names, so this is safe.
        if (run.shared != nullptr) run.shared->saveCell(out.result);
        out.status = CellOutcome::Status::Computed;
        out.seconds = secondsSince(cellStart);
        if (tele != nullptr) {
          tele->cellCommit(worker, title, out.spec.key, tClaim, tEval,
                           tele->now(), out.result.timeIo,
                           out.result.iorRuns, out.spec.faulted());
        }
        return attempt - 1;
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    out.status = CellOutcome::Status::Failed;
    out.error = error;
    out.seconds = secondsSince(cellStart);
    if (tele != nullptr) {
      tele->cellFailed(worker, title, out.spec.key, tClaim, tele->now(),
                       error);
    }
    return attempt - 1;
  }
}

/// Execute stage: evaluate the owners on a fixed-size pool.  Workers share
/// only the atomic cursor; each owns its cell's outcome slot exclusively.
/// Returns how many owners were claimed — cancellation leaves the rest
/// untouched.
std::size_t execute(const Sweep& run, const std::vector<std::size_t>& owners) {
  const SweepOptions& options = run.options;
  SweepTelemetry* tele = options.telemetry;
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(options.jobs), owners.size());
  if (tele != nullptr) {
    tele->execStart(run.plan.size(), run.outcome.cacheHits,
                    run.outcome.sharedHits, owners.size(), workers);
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> stuck{0};
  std::mutex doneMutex;  // serializes options.onCellDone
  auto workerMain = [&](std::size_t worker) {
    if (tele != nullptr) tele->workerSpawn(worker);
    for (;;) {
      // Check between cells, never mid-cell: a cancelled run keeps every
      // result already committed and leaves no partial files behind.
      if (cancelled(options)) {
        if (tele != nullptr) tele->shutdownNoticed();
        break;
      }
      const std::size_t slot = cursor.fetch_add(1);
      if (slot >= owners.size()) break;
      CellOutcome& out = run.outcome.cells[owners[slot]];
      stuck.fetch_add(computeCell(run, worker, out),
                      std::memory_order_relaxed);
      if (options.onCellDone) {
        std::lock_guard<std::mutex> guard(doneMutex);
        options.onCellDone(out);
      }
      // Between cells the worker's engines are gone, so every coroutine
      // slab with no abandoned daemon frames is dead — hand those back to
      // the OS instead of holding the run's high-water mark.
      auto& arena = sim::FrameArena::local();
      const std::size_t released = arena.trim();
      if (tele != nullptr) {
        tele->arenaTrimmed(worker, released, arena.stats().slabBytes);
      }
    }
    if (tele != nullptr) tele->workerIdle(worker);
  };

  if (workers <= 1) {
    workerMain(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      pool.emplace_back(workerMain, i);
    }
    for (auto& t : pool) t.join();
  }
  run.outcome.stuck = stuck.load(std::memory_order_relaxed);
  return std::min(cursor.load(std::memory_order_relaxed), owners.size());
}

/// Commit stage, serial: mark the untaken owners skipped, hand each
/// owner's verdict to its duplicates, tally the outcome, and rewrite the
/// manifest in canonical order — the last step of a successful run.
void commit(const Sweep& run, const Pending& pending, std::size_t taken) {
  SweepOutcome& outcome = run.outcome;
  SweepTelemetry* tele = run.options.telemetry;
  // Every claimed owner was carried to completion (the cancel check sits
  // before the claim), so the untaken tail was never started and stays
  // resumable.
  for (std::size_t slot = taken; slot < pending.owners.size(); ++slot) {
    CellOutcome& out = outcome.cells[pending.owners[slot]];
    out.status = CellOutcome::Status::Skipped;
    out.error = "interrupted before evaluation; resume to compute";
  }
  if (tele != nullptr && taken < pending.owners.size()) {
    tele->cellsSkipped(pending.owners.size() - taken);
  }
  if (cancelled(run.options)) outcome.interrupted = true;

  for (const auto& [owner, duplicate] : pending.followers) {
    const CellOutcome& from = outcome.cells[owner];
    CellOutcome& to = outcome.cells[duplicate];
    to.status = from.status;
    to.result = from.result;
    to.error = from.error;
  }

  for (const auto& cell : outcome.cells) {
    switch (cell.status) {
      case CellOutcome::Status::Cached:
        break;  // counted at probe time
      case CellOutcome::Status::Computed:
        ++outcome.computed;
        break;
      case CellOutcome::Status::Failed:
        ++outcome.failures;
        break;
      case CellOutcome::Status::Skipped:
        ++outcome.skipped;
        break;
    }
  }
  // IOR cost from owners only: a deduped follower shares its owner's
  // evaluation, so counting it again would overstate the run.
  for (std::size_t index : pending.owners) {
    if (outcome.cells[index].status == CellOutcome::Status::Computed) {
      outcome.iorRuns += outcome.cells[index].result.iorRuns;
    }
  }
  run.store.writeManifest(run.campaign, run.plan);
}

}  // namespace

SweepOutcome runSweep(const ResolvedCampaign& campaign, CampaignStore& store,
                      const SweepOptions& options) {
  IOP_PROFILE_SCOPE("sweep.run");
  if (options.jobs < 1) {
    throw std::invalid_argument("sweep: jobs must be >= 1");
  }
  const auto startedAt = Clock::now();
  store.initialize(campaign.spec.canonicalText(), options.force);
  store.setTelemetry(options.telemetry);
  std::optional<SharedStore> shared;
  if (!options.sharedStore.empty()) {
    shared.emplace(std::filesystem::path(options.sharedStore));
    shared->setTelemetry(options.telemetry);
  }

  const std::vector<CellSpec> plan = campaign.planCells();
  SweepOutcome outcome;
  outcome.cells.resize(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    outcome.cells[i].spec = plan[i];
  }
  const Sweep run{campaign, store, shared ? &*shared : nullptr,
                  options, plan, outcome};
  const Pending pending = probe(run);
  const std::size_t taken = execute(run, pending.owners);
  commit(run, pending, taken);

  outcome.wallSeconds = secondsSince(startedAt);
  if (options.telemetry != nullptr) options.telemetry->runComplete(outcome);
  return outcome;
}

}  // namespace iop::sweep
