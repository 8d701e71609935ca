// iop-sweep: parallel what-if campaigns over (model x configuration x
// fault) grids, with a content-addressed on-disk result cache.
//
//   iop-sweep run    --campaign c.campaign --store out/ -j4
//   iop-sweep resume --campaign c.campaign --store out/ -j4
//   iop-sweep report --campaign c.campaign --store out/
//   iop-sweep gc     --campaign c.campaign --store out/
//   iop-sweep postmortem --store out/
//
// `run` evaluates every cell of the campaign grid, reusing any cell whose
// cache key is already in the store; `resume` is the same operation by a
// clearer name (an interrupted run left whole cells behind, so resuming
// simply recomputes the missing ones).  `report` ranks the stored results
// per model/fault group by estimated Time_io (the paper's configuration
// selection).  `gc` drops cells orphaned by campaign edits.
// `postmortem` reconstructs the newest run's timeline from its flight
// recorder journal (<store>/journal/run-*.jsonl, written by default) and
// names the cells that were in flight when a crashed run ended.
//
// Runtime telemetry: every `run` journals its lifecycle events and logs
// them at --log-level; --telemetry-out FILE additionally snapshots the
// run's metrics registry as Prometheus text on a timer, --metrics-out
// FILE writes the same registry as CSV at the end, --progress draws a
// status line, and --exec-trace-out FILE exports the execution itself
// (one track per worker) as a Chrome/Perfetto trace.  None of this
// perturbs results: the store bytes are identical with telemetry on or
// off.
//
// Exit codes: 0 ok, 1 cell failures (or missing cells in report, or an
// incomplete journal in postmortem), 2 usage or campaign errors.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "obs/archive.hpp"
#include "obs/profiler.hpp"
#include "obs/runtime.hpp"
#include "sweep/campaign.hpp"
#include "sweep/executor.hpp"
#include "sweep/fsck.hpp"
#include "sweep/hash.hpp"
#include "sweep/postmortem.hpp"
#include "sweep/rank.hpp"
#include "sweep/store.hpp"
#include "sweep/telemetry.hpp"
#include "toolkit.hpp"
#include "util/args.hpp"

namespace {

using namespace iop;

/// SIGINT/SIGTERM request graceful shutdown: workers finish and commit
/// the cells in flight, untouched cells stay resumable.  A second signal
/// falls through to the default handler (immediate kill) — the store is
/// safe either way because cells commit via atomic renames.
std::atomic<bool> gCancelRequested{false};

extern "C" void onShutdownSignal(int signum) {
  gCancelRequested.store(true, std::memory_order_relaxed);
  std::signal(signum, SIG_DFL);
}

void installShutdownHandlers() {
  std::signal(SIGINT, onShutdownSignal);
  std::signal(SIGTERM, onShutdownSignal);
}

/// Expand the familiar make-style "-j4" / "-j 4" into "--jobs 4".
std::vector<std::string> expandJobsShorthand(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() > 2 && arg.rfind("-j", 0) == 0) {
      out.push_back("--jobs");
      out.push_back(arg.substr(2));
    } else if (arg == "-j") {
      out.push_back("--jobs");
    } else {
      out.push_back(arg);
    }
  }
  return out;
}

int parseJobs(const util::Args& args) {
  const std::string text = args.getOr("jobs", "1");
  std::size_t used = 0;
  const int jobs = std::stoi(text, &used);
  if (used != text.size() || jobs < 1) {
    throw std::invalid_argument("--jobs must be a positive integer");
  }
  return jobs;
}

/// The shared cache directory: --shared-store, falling back to the
/// IOP_SWEEP_STORE environment variable.  Empty means no sharing.
std::string sharedStorePath(const util::Args& args) {
  std::string path = args.getOr("shared-store", "");
  if (path.empty()) {
    if (const char* env = std::getenv("IOP_SWEEP_STORE")) path = env;
  }
  return path;
}

int parseTelemetryInterval(const util::Args& args) {
  const std::string text = args.getOr("telemetry-interval-ms", "500");
  std::size_t used = 0;
  const int ms = std::stoi(text, &used);
  if (used != text.size() || ms < 10) {
    throw std::invalid_argument(
        "--telemetry-interval-ms must be an integer >= 10");
  }
  return ms;
}

/// A fresh journal filename: run-<unix-ms>-<pid>.jsonl.  The embedded
/// timestamp makes `postmortem` pick the newest run without trusting
/// filesystem mtimes.
std::string journalFileName() {
  const auto unixMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  return "run-" + std::to_string(unixMs) + "-" +
         std::to_string(static_cast<long>(getpid())) + ".jsonl";
}

/// Telemetry knobs shared by `run` and `resume`.  Journaling is on by
/// default: it is cheap (one flushed line per event), lives outside the
/// content-addressed areas of the store, and is the only record of what a
/// crashed run was doing.
sweep::TelemetryConfig telemetryConfig(const util::Args& args,
                                       const sweep::CampaignStore& store,
                                       obs::Logger& log) {
  sweep::TelemetryConfig config;
  config.log = &log;
  if (!args.flag("no-journal")) {
    config.journalPath =
        (store.root() / "journal" / journalFileName()).string();
  }
  config.telemetryOut = args.getOr("telemetry-out", "");
  config.telemetryIntervalMs = parseTelemetryInterval(args);
  config.progress = args.flag("progress");
  config.execTraceOut = args.getOr("exec-trace-out", "");
  return config;
}

/// Load + resolve the campaign named by --campaign (characterizing any
/// `app` entries across `jobs` workers, reusing cached models from the
/// campaign and shared stores) and bind the store.
struct LoadedCampaign {
  sweep::ResolvedCampaign campaign;
  sweep::CampaignStore store;
  std::string sharedStore;  ///< empty: no shared cache
};

LoadedCampaign loadFor(const util::Args& args, obs::Logger& log, int jobs) {
  const std::string campaignPath = args.get("campaign");
  sweep::CampaignStore store(args.get("store"));
  std::string shared = sharedStorePath(args);
  auto spec = sweep::loadCampaign(campaignPath);
  // Log-only telemetry: characterization notices reach --log-level.
  sweep::TelemetryConfig logOnly;
  logOnly.log = &log;
  sweep::SweepTelemetry telemetry(logOnly);
  sweep::ResolveOptions options;
  options.jobs = jobs;
  options.telemetry = &telemetry;
  options.modelCacheDirs.push_back(store.root() / "models");
  if (!shared.empty()) {
    options.modelCacheDirs.push_back(sweep::SharedStore(shared).modelDir());
  }
  return LoadedCampaign{sweep::resolveCampaign(spec, options),
                        std::move(store), std::move(shared)};
}

int cmdRun(const util::Args& args, tools::ObsSession& obs) {
  const int jobs = parseJobs(args);
  sweep::CampaignStore store(args.get("store"));
  const std::string shared = sharedStorePath(args);
  auto spec = sweep::loadCampaign(args.get("campaign"));

  // Quick crash-recovery preflight (iop-fsck's library check): quarantine
  // a torn campaign.txt or cached model, truncate dead writers' journal
  // tails, sweep their temp files — before anything in the store is
  // opened.  Quiet when the store is clean.
  {
    sweep::FsckOptions fsck;
    fsck.expectedCampaign = spec.canonicalText();
    const auto preflight = sweep::fsckCampaignStore(store.root(), fsck);
    if (!preflight.clean()) {
      std::fprintf(
          stderr, "%s",
          preflight.render("preflight " + store.root().string()).c_str());
    }
  }

  // Telemetry comes up before resolution so characterization events land
  // in the journal and on the exec trace too.
  sweep::SweepTelemetry telemetry(telemetryConfig(args, store, obs.log()));
  telemetry.campaignStart(spec.name, sweep::hashHex(spec.canonicalText()),
                          jobs);

  sweep::ResolveOptions resolve;
  resolve.jobs = jobs;
  resolve.telemetry = &telemetry;
  resolve.modelCacheDirs.push_back(store.root() / "models");
  if (!shared.empty()) {
    resolve.modelCacheDirs.push_back(sweep::SharedStore(shared).modelDir());
  }
  const auto campaign = sweep::resolveCampaign(spec, resolve);

  sweep::SweepOptions options;
  options.jobs = jobs;
  options.force = args.flag("force");
  options.writeCaptures = !args.flag("no-captures");
  options.sharedStore = shared;
  options.cancel = &gCancelRequested;
  options.telemetry = &telemetry;
  options.softDeadlineSeconds = args.getDouble("soft-deadline-s", 0.0);
  options.hardDeadlineSeconds = args.getDouble("hard-deadline-s", 0.0);
  if (options.softDeadlineSeconds < 0 || options.hardDeadlineSeconds < 0) {
    throw std::invalid_argument(
        "--soft-deadline-s / --hard-deadline-s must be >= 0");
  }
  installShutdownHandlers();

  const auto outcome = sweep::runSweep(campaign, store, options);
  telemetry.finish();
  // --metrics-out renders the run's one registry (iop-sweep attaches no
  // engine, so the session's own registry is otherwise empty).
  if (obs.active()) obs.session()->metrics().merge(telemetry.runtime());

  std::string note =
      shared.empty()
          ? std::string()
          : ", " + std::to_string(outcome.sharedHits) + " shared hits";
  if (outcome.skipped > 0) {
    note += ", " + std::to_string(outcome.skipped) + " skipped";
  }
  if (outcome.quarantined > 0) {
    note += ", " + std::to_string(outcome.quarantined) + " quarantined";
  }
  if (outcome.stuck > 0) {
    note += ", " + std::to_string(outcome.stuck) + " stuck";
  }
  std::printf("campaign %s: %zu cells, %zu cached, %zu computed, "
              "%zu failed (%.2fs wall, %zu IOR runs, -j%d%s)\n",
              campaign.spec.name.c_str(), outcome.cells.size(),
              outcome.cacheHits, outcome.computed, outcome.failures,
              outcome.wallSeconds, outcome.iorRuns, options.jobs,
              note.c_str());
  for (const auto& cell : outcome.cells) {
    if (cell.status == sweep::CellOutcome::Status::Failed) {
      std::fprintf(stderr, "iop-sweep: cell %s failed: %s\n",
                   campaign.cellTitle(cell.spec).c_str(),
                   cell.error.c_str());
    }
  }
  std::printf("%s", sweep::renderReport(campaign, outcome).c_str());
  if (args.has("archive") && !outcome.interrupted) {
    // Archive each rank group's winning configuration, so iop-trend can
    // watch the selected candidates' Time_io across campaign runs.
    obs::Archive archive(args.get("archive"));
    const std::string label = args.getOr("archive-label", "");
    std::size_t archived = 0;
    for (const auto& group : sweep::rankOutcome(campaign, outcome)) {
      for (const auto& entry : group.entries) {
        if (!entry.selected || entry.cell == nullptr) continue;
        archive.addCapture(sweep::makeCellCapture(entry.cell->result),
                           label);
        ++archived;
      }
    }
    std::printf("archived %zu campaign winner(s) into %s\n", archived,
                args.get("archive").c_str());
  }
  if (outcome.interrupted) {
    std::fprintf(stderr,
                 "iop-sweep: interrupted — %zu completed cells are "
                 "committed; rerun `iop-sweep resume --campaign %s "
                 "--store %s` to finish the remaining %zu\n",
                 outcome.cacheHits + outcome.computed,
                 args.get("campaign").c_str(), args.get("store").c_str(),
                 outcome.skipped);
    return 130;
  }
  return outcome.ok() ? 0 : 1;
}

int cmdReport(const util::Args& args, tools::ObsSession& obs) {
  auto loaded = loadFor(args, obs.log(), parseJobs(args));
  // Build the outcome purely from the store: report never simulates.
  sweep::SweepOutcome outcome;
  std::size_t missing = 0;
  for (const auto& cell : loaded.campaign.planCells()) {
    sweep::CellOutcome out;
    out.spec = cell;
    std::string whyBad;
    std::optional<sweep::CellResult> result;
    if (loaded.store.hasCell(cell.key)) {
      // Corrupt cells are quarantined and reported missing, pointing the
      // user at a resume instead of aborting the whole report.
      result = loaded.store.tryLoadCell(cell.key, &whyBad);
    }
    if (result) {
      out.status = sweep::CellOutcome::Status::Cached;
      out.result = std::move(*result);
      ++outcome.cacheHits;
    } else {
      out.status = sweep::CellOutcome::Status::Failed;
      out.error = whyBad.empty()
                      ? "not in store (run the campaign first)"
                      : "quarantined (" + whyBad + "); resume to recompute";
      ++outcome.failures;
      ++missing;
    }
    outcome.cells.push_back(std::move(out));
  }
  std::printf("%s", sweep::renderReport(loaded.campaign, outcome).c_str());
  if (missing > 0) {
    std::fprintf(stderr,
                 "iop-sweep: %zu of %zu cells missing from %s\n", missing,
                 outcome.cells.size(), loaded.store.root().c_str());
    return 1;
  }
  return 0;
}

int cmdPostmortem(const util::Args& args) {
  std::filesystem::path path = args.getOr("journal", "");
  if (path.empty()) {
    path = sweep::newestJournal(args.get("store"));
    if (path.empty()) {
      std::fprintf(stderr,
                   "iop-sweep: no run journals under %s/journal "
                   "(journaling is on by default for `run`; was "
                   "--no-journal used?)\n",
                   args.get("store").c_str());
      return 2;
    }
  }
  const auto parsed = obs::loadJournal(path);
  const auto pm = sweep::analyzeJournal(parsed);
  std::printf("%s", sweep::renderPostmortem(pm, path).c_str());
  return pm.complete ? 0 : 1;
}

int cmdGc(const util::Args& args, tools::ObsSession& obs) {
  auto loaded = loadFor(args, obs.log(), parseJobs(args));
  std::set<std::string> live;
  for (const auto& cell : loaded.campaign.planCells()) {
    live.insert(cell.key);
  }
  const std::size_t removed = loaded.store.gc(live);
  std::printf("gc: %zu live keys, %zu stale files removed\n", live.size(),
              removed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args;
  args.addOption("campaign", "campaign file (see docs/SWEEP.md)");
  args.addOption("store", "campaign store directory (created on demand)");
  args.addOption("jobs",
                 "worker threads for `run` and characterization (also -jN)",
                 "1");
  args.addOption("shared-store",
                 "campaign-independent shared cache directory reused "
                 "across overlapping campaigns (env: IOP_SWEEP_STORE)");
  args.addFlag("force",
               "recompute cached cells; also replaces a store bound to a "
               "different campaign");
  args.addFlag("no-captures", "skip writing per-cell run captures");
  args.addOption("archive",
                 "after `run`, archive each rank group's winning cell "
                 "into this trend-archive directory (see iop-trend)");
  args.addOption("archive-label",
                 "commit / tag label recorded with --archive entries", "");
  args.addOption("telemetry-out",
                 "snapshot live runtime metrics (Prometheus text "
                 "exposition) to this file on a timer");
  args.addOption("telemetry-interval-ms",
                 "snapshot period for --telemetry-out", "500");
  args.addOption("exec-trace-out",
                 "export the run's execution (one Chrome/Perfetto track "
                 "per worker) to this JSON file");
  args.addOption("journal",
                 "journal file for `postmortem` (default: newest "
                 "run-*.jsonl under <store>/journal)");
  args.addFlag("progress", "live status line on stderr during `run`");
  args.addFlag("no-journal",
               "disable the flight-recorder journal for this run");
  args.addOption("soft-deadline-s",
                 "watchdog: journal `cell_slow` when a cell evaluates "
                 "longer than this many wall seconds (0 = off)",
                 "0");
  args.addOption("hard-deadline-s",
                 "watchdog: stop a cell stuck past this many wall "
                 "seconds, quarantine a .stuck marker, retry it once "
                 "(0 = off)",
                 "0");
  tools::addObsOptions(args);

  const auto expanded = expandJobsShorthand(argc, argv);
  std::vector<char*> argvVec;
  argvVec.reserve(expanded.size());
  for (const auto& arg : expanded) {
    argvVec.push_back(const_cast<char*>(arg.c_str()));
  }

  try {
    args.parse(static_cast<int>(argvVec.size()), argvVec.data());
    const auto& pos = args.positional();
    const std::string usage = args.usage(
        "iop-sweep <run|resume|report|gc|postmortem> --campaign FILE "
        "--store DIR",
        "Parallel what-if campaigns with a content-addressed result "
        "cache.");
    if (args.helpRequested() || pos.size() != 1) {
      std::printf("%s", usage.c_str());
      return args.helpRequested() ? 0 : 2;
    }
    tools::ObsSession obs(args);
    const std::string& command = pos[0];
    int rc = 2;
    if (command == "run" || command == "resume") {
      rc = cmdRun(args, obs);
    } else if (command == "report") {
      rc = cmdReport(args, obs);
    } else if (command == "gc") {
      rc = cmdGc(args, obs);
    } else if (command == "postmortem") {
      rc = cmdPostmortem(args);
    } else {
      std::fprintf(stderr, "iop-sweep: unknown command '%s'\n%s",
                   command.c_str(), usage.c_str());
      return 2;
    }
    obs.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iop-sweep: %s\n", e.what());
    return 2;
  }
}
