#include "workloads.hpp"

#include <chrono>
#include <fstream>
#include <limits>
#include <stdexcept>

#include <unistd.h>

#include "analysis/degraded.hpp"
#include "analysis/evaluate.hpp"
#include "analysis/replay.hpp"
#include "analysis/runner.hpp"
#include "apps/btio.hpp"
#include "apps/madbench.hpp"
#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "obs/hub.hpp"
#include "sweep/campaign.hpp"
#include "sweep/executor.hpp"
#include "sweep/fsck.hpp"
#include "sweep/hash.hpp"
#include "sweep/rank.hpp"
#include "sweep/store.hpp"
#include "sweep/telemetry.hpp"
#include "trace/tracefile.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace iop;

namespace {

/// Attaches a fresh obs hub (its own metrics registry) to every cluster
/// it is handed, and sums what the hubs counted.  One registry per engine
/// keeps each engine's `sim.events_dispatched` gauge apart; sampling at
/// every dispatch makes that gauge the engine's exact final count.
class HubProbe {
 public:
  configs::ClusterConfig attach(configs::ClusterConfig cluster) {
    auto& probe = *probes_.emplace_back(std::make_unique<Probe>());
    probe.hub.metrics = &probe.metrics;
    cluster.engine->setObs(&probe.hub);
    cluster.engine->setObsSampleInterval(
        std::numeric_limits<double>::denorm_min());
    return cluster;
  }

  Facts totals() const {
    Facts out{{"sim.events", 0},
              {"storage.net_transfers", 0},
              {"storage.disk_accesses", 0},
              {"mpi.collectives", 0},
              {"mpi.io_mib", 0}};
    for (const auto& probe : probes_) {
      const obs::MetricsRegistry& m = probe->metrics;
      auto events = [&m](const char* name) {
        const obs::Counter* c = m.findCounter(name);
        return c != nullptr ? static_cast<double>(c->events()) : 0.0;
      };
      auto value = [&m](const char* name) {
        const obs::Counter* c = m.findCounter(name);
        return c != nullptr ? c->value() : 0.0;
      };
      if (const obs::Gauge* g = m.findGauge("sim.events_dispatched")) {
        out["sim.events"] += g->value();
      }
      out["storage.net_transfers"] += events("net.bytes");
      out["storage.disk_accesses"] +=
          events("disk.bytes_read") + events("disk.bytes_written");
      out["mpi.collectives"] += value("mpi.collectives");
      out["mpi.io_mib"] +=
          (value("mpi.io.bytes_written") + value("mpi.io.bytes_read")) /
          (1024.0 * 1024.0);
    }
    return out;
  }

 private:
  struct Probe {
    obs::MetricsRegistry metrics;
    obs::Hub hub;
  };
  std::vector<std::unique_ptr<Probe>> probes_;
};

double traceRecords(const trace::TraceData& data) {
  double records = 0;
  for (const auto& rank : data.perRank) {
    records += static_cast<double>(rank.size());
  }
  return records;
}

std::string traceDigest(const trace::TraceData& data) {
  sweep::ContentHash h;
  h.update(data.appName);
  for (const auto& rank : data.perRank) {
    for (const auto& r : rank) {
      h.update(std::to_string(r.rank) + " " + std::to_string(r.fileId) +
               " " + r.op + " " + std::to_string(r.offsetUnits) + " " +
               std::to_string(r.tick) + " " +
               std::to_string(r.requestBytes) + " " + exact(r.time) + " " +
               exact(r.duration));
    }
  }
  return h.hex();
}

void throwIfChanged(const std::string& what, const std::string& expected,
                    double actual) {
  if (expected != exact(actual)) {
    throw std::runtime_error("count op: " + what + " Time_io " +
                             exact(actual) + " differs from the op's " +
                             expected);
  }
}

// ------------------------------------------------------------ btio-select

/// Table XII at Fig. 9 / Table XI scale: characterize BT-IO FULL class C
/// on 16 processes on configuration A, estimate Time_io on C and on
/// Finisterrae through IOR phase replay, select the faster.  The
/// simulated stack does ~98% of the work.
class BtioSelect final : public Workload {
 public:
  void setUp(std::uint64_t seed, const fs::path& scratch) override {
    fs::create_directories(scratch);
    seed_ = seed;
    for (auto& target : targets_) {
      target.mount = configs::makeConfig(target.id, seed_).mount;
    }
  }

  std::string inputs() const override {
    std::string text = "btio class=C subtype=full np=16 characterize=A "
                       "engine-seed=" + std::to_string(seed_);
    for (const auto& target : targets_) {
      text += " target=" + target.name + ":" + target.mount;
    }
    return text;
  }

  OpResult op(Spans& spans) override {
    OpResult result = runOp(spans, nullptr);
    lastOutputs_ = result.outputs;
    return result;
  }

  Facts countOp() override {
    HubProbe probe;  // outlives every engine it is attached to
    Spans off(false);
    const std::string diff =
        diffOutputs(lastOutputs_, runOp(off, &probe).outputs);
    if (!diff.empty()) {
      throw std::runtime_error("count op: the obs hub changed " + diff);
    }
    return probe.totals();
  }

 private:
  struct Target {
    configs::ConfigId id;
    std::string name;  ///< candidate name in outputs and selection
    std::string mount;
  };

  /// The op.  With a `probe`, every cluster it builds (the Replayers'
  /// included) gets an obs hub.
  OpResult runOp(Spans& spans, HubProbe* probe) {
    auto build = [this, probe](configs::ConfigId id) {
      auto cluster = configs::makeConfig(id, seed_);
      if (probe != nullptr) return probe->attach(std::move(cluster));
      return cluster;
    };
    auto cluster = build(configs::ConfigId::A);
    analysis::AppRun run;
    {
      auto s = spans.scope("analysis::runAndTrace", "analysis");
      run = analysis::runAndTrace(cluster, "btio-C", app(cluster.mount), 16);
    }
    std::vector<analysis::SelectionCandidate> candidates;
    std::size_t iorRuns = 0;
    for (const auto& target : targets_) {
      analysis::Replayer replayer([build, id = target.id] { return build(id); },
                                  target.mount);
      auto s = spans.scope("analysis::estimateIoTime", "analysis");
      candidates.push_back(
          {target.name, analysis::estimateIoTime(run.model, replayer)});
      iorRuns += replayer.benchmarkRuns();
    }
    const analysis::SelectionCandidate* best = nullptr;
    {
      auto s = spans.scope("analysis::selectConfiguration", "analysis");
      best = analysis::selectConfiguration(candidates);
    }

    OpResult result;
    result.outputs = {{"makespan", exact(run.makespanSeconds)},
                      {"phases", std::to_string(run.model.phases().size())}};
    for (const auto& c : candidates) {
      result.outputs.emplace_back("time_io." + c.name,
                                  exact(c.estimate.totalTimeSec));
    }
    result.outputs.emplace_back("selected",
                                best != nullptr ? best->name : "none");
    result.facts = {{"ior.runs", static_cast<double>(iorRuns)},
                    {"core.phases",
                     static_cast<double>(run.model.phases().size())},
                    {"trace.records", traceRecords(run.trace)}};
    return result;
  }

  static mpi::Runtime::RankMain app(const std::string& mount) {
    apps::BtioParams params;
    params.mount = mount;
    params.cls = apps::BtClass::C;
    params.fullSubtype = true;
    return apps::makeBtio(params);
  }

  std::uint64_t seed_ = 0;
  std::vector<Target> targets_{{configs::ConfigId::C, "C", ""},
                               {configs::ConfigId::Finisterrae, "Finisterrae",
                                ""}};
  Outputs lastOutputs_;  ///< the last op's; the count op must repeat them
};

// --------------------------------------------------------- trace-to-model

/// The characterization toolkit with no simulation in the op: write,
/// read, extract and save the model of two traces simulated in set-up —
/// BT-IO class A np=121 (collective, 41 phases) and MADbench2 np=16
/// (independent, multi-op W / W-R phases, 5 phases).  Every op rewrites
/// the same files in place, as re-running the pipeline into one output
/// directory does: creating ~140 files per op on ext4 made the op 1.4x
/// slower and its p10 twice as noisy as overwriting them.
class TraceToModel final : public Workload {
 public:
  void setUp(std::uint64_t seed, const fs::path& scratch) override {
    fs::create_directories(scratch);
    scratch_ = scratch;
    seed_ = seed;
    {
      auto cluster = configs::makeConfig(configs::ConfigId::A, seed);
      apps::BtioParams params;
      params.mount = cluster.mount;
      params.cls = apps::BtClass::A;
      traces_.push_back(analysis::runAndTrace(cluster, "btio-A",
                                              apps::makeBtio(params), 121)
                            .trace);
    }
    {
      auto cluster = configs::makeConfig(configs::ConfigId::A, seed);
      apps::MadbenchParams params;  // the paper's Section IV-A setup
      params.mount = cluster.mount;
      params.kpix = 8;
      params.bins = 8;
      params.busyWorkSeconds = 0.5;
      traces_.push_back(analysis::runAndTrace(cluster, "madbench2",
                                              apps::makeMadbench(params), 16)
                            .trace);
    }
  }

  std::string inputs() const override {
    std::string text = "engine-seed=" + std::to_string(seed_);
    for (const auto& t : traces_) {
      text += " " + t.appName + ":np=" + std::to_string(t.np) +
              ",records=" + exact(traceRecords(t)) +
              ",digest=" + traceDigest(t);
    }
    return text;
  }

  OpResult op(Spans& spans) override {
    OpResult result;
    double records = 0;
    double phases = 0;
    for (const auto& t : traces_) {
      const fs::path dir = opDir() / t.appName;
      {
        auto s = spans.scope("trace::writeTraces", "trace");
        trace::writeTraces(dir, t);
      }
      trace::TraceData data;
      {
        auto s = spans.scope("trace::readTraces", "trace");
        data = trace::readTraces(dir, t.appName);
      }
      core::IOModel model;
      {
        auto s = spans.scope("core::extractModel", "core");
        model = core::extractModel(data);
      }
      {
        auto s = spans.scope("core::IOModel::save", "core");
        model.save(opDir() / (t.appName + ".model"));
      }
      records += traceRecords(data);
      phases += static_cast<double>(model.phases().size());
      result.outputs.emplace_back(t.appName + ".records",
                                  exact(traceRecords(data)));
      result.outputs.emplace_back(t.appName + ".phases",
                                  std::to_string(model.phases().size()));
      result.outputs.emplace_back(t.appName + ".model_digest",
                                  sweep::hashHex(model.renderText()));
    }
    result.facts = {{"core.phases", phases}, {"trace.records", records}};
    return result;
  }

  Facts countOp() override { return {}; }  // no simulation in the op

 private:
  fs::path opDir() const { return scratch_ / "op"; }

  fs::path scratch_;
  std::uint64_t seed_ = 0;
  std::vector<trace::TraceData> traces_;
};

// ------------------------------------------------------- sweep-cold/-warm

/// The `iop-sweep run` sequence, in-process at -j1: quick fsck preflight,
/// journaling telemetry, campaign resolution against a model cache set-up
/// filled, the sweep, the ranking.  The grid is 8 cells: MADbench2 np=16
/// at kpix=2 x configs A, B x degrade-disks 1, 2 x {no faults, one seeded
/// disk-fault plan}.  Cold ops run on a fresh store each; warm ops re-run
/// the store set-up finished (8 cache hits, no simulation).
class Sweep final : public Workload {
 public:
  explicit Sweep(bool warm) : warm_(warm) {}

  void setUp(std::uint64_t seed, const fs::path& scratch) override {
    fs::create_directories(scratch);
    scratch_ = scratch;
    // The seed picks the faulted disk (d0..d2 exist on A and on B).
    planText_ = "disk d" + std::to_string(seed % 3) +
                " transient-error p=0.01\n";
    {
      std::ofstream plan(scratch / "disk.fault");
      plan << planText_;
      plan.close();
      if (!plan) {
        throw std::runtime_error("cannot write " +
                                 (scratch / "disk.fault").string());
      }
    }
    campaignText_ =
        "name e2ebench-sweep\n"
        "app madbench2 np=16 kpix=2\n"
        "config A\n"
        "config B\n"
        "degrade-disks 1 2\n"
        "faultplan none\n"
        "faultplan file=disk.fault\n";
    spec_ = sweep::parseCampaign(campaignText_, scratch);
    canonical_ = spec_.canonicalText();
    sweep::ResolveOptions fill;
    fill.modelCacheDirs.push_back(modelCache());
    sweep::resolveCampaign(spec_, fill);
    if (warm_) {
      Spans off(false);
      op(off);
      reset();
    }
  }

  std::string inputs() const override { return campaignText_ + planText_; }

  OpResult op(Spans& spans) override {
    const fs::path store = scratch_ / "store";
    {
      auto s = spans.scope("sweep::fsckCampaignStore", "sweep");
      sweep::FsckOptions fsck;
      fsck.expectedCampaign = canonical_;
      const auto report = sweep::fsckCampaignStore(store, fsck);
      if (!report.clean()) {
        throw std::runtime_error(report.render("preflight"));
      }
    }
    std::unique_ptr<sweep::SweepTelemetry> telemetry;
    {
      auto s = spans.scope("sweep::SweepTelemetry", "sweep");
      journal_ = store / "journal" / journalFileName();
      sweep::TelemetryConfig config;
      config.journalPath = journal_.string();
      telemetry = std::make_unique<sweep::SweepTelemetry>(config);
      telemetry->campaignStart(spec_.name, sweep::hashHex(canonical_), 1);
    }
    sweep::ResolvedCampaign campaign;
    {
      auto s = spans.scope("sweep::resolveCampaign", "sweep");
      sweep::ResolveOptions options;
      options.telemetry = telemetry.get();
      options.modelCacheDirs = {store / "models", modelCache()};
      campaign = sweep::resolveCampaign(spec_, options);
    }
    sweep::SweepOutcome outcome;
    {
      auto s = spans.scope("sweep::runSweep", "sweep");
      sweep::CampaignStore campaignStore(store);
      sweep::SweepOptions options;
      options.jobs = 1;
      options.telemetry = telemetry.get();
      outcome = sweep::runSweep(campaign, campaignStore, options);
    }
    {
      auto s = spans.scope("sweep::SweepTelemetry::finish", "sweep");
      telemetry->finish();
    }
    std::vector<sweep::RankGroup> groups;
    {
      auto s = spans.scope("sweep::rankOutcome", "sweep");
      groups = sweep::rankOutcome(campaign, outcome);
    }
    if (!outcome.ok()) {
      throw std::runtime_error(
          "sweep outcome not ok: " + std::to_string(outcome.failures) +
          " failed, " + std::to_string(outcome.skipped) + " skipped");
    }

    OpResult result;
    double iorSeconds = 0;
    double syntheticSeconds = 0;
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
      const auto& cell = outcome.cells[i];
      const bool cached = cell.status == sweep::CellOutcome::Status::Cached;
      std::string value = cell.spec.key + (cached ? " cached " : " computed ") +
                          exact(cell.result.timeIo);
      if (cell.result.faultFailed()) value += " fault-failed";
      result.outputs.emplace_back("cell." + std::to_string(i), value);
      lastTimeIo_[cell.spec.key] = exact(cell.result.timeIo);
      (cell.spec.faulted() ? syntheticSeconds : iorSeconds) += cell.seconds;
    }
    result.outputs.emplace_back("cache_hits",
                                std::to_string(outcome.cacheHits));
    result.outputs.emplace_back("computed", std::to_string(outcome.computed));
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::string order;
      for (const auto& entry : groups[g].entries) {
        if (!order.empty()) order += ",";
        order += entry.cell != nullptr
                     ? campaign.configs[entry.cell->spec.configIndex].label
                     : "?";
        if (entry.selected) order += "*";
      }
      result.outputs.emplace_back("rank." + std::to_string(g), order);
    }

    auto storeCount = [&telemetry](const char* name) {
      const auto* c = telemetry->runtime().findCounter(name);
      return c != nullptr ? static_cast<double>(c->value()) : 0.0;
    };
    result.facts = {
        {"ior.runs", static_cast<double>(outcome.iorRuns)},
        {"sweep.cache_hits", static_cast<double>(outcome.cacheHits)},
        {"sweep.cell_ior_s", iorSeconds},
        {"sweep.cell_synthetic_s", syntheticSeconds},
        {"sweep.cells_s", iorSeconds + syntheticSeconds},
        {"store.cell_loads", storeCount("store.cell_loads")},
        {"store.cell_commits", storeCount("store.cell_commits")},
        {"store.capture_commits", storeCount("store.capture_commits")},
        {"store.cell_bytes", storeCount("store.cell_bytes")},
    };
    return result;
  }

  void reset() override {
    // Every `run` adds a journal the next preflight would read; a warm
    // op drops its own so the next one starts from the same store.
    if (warm_) {
      fs::remove(journal_);
    } else {
      fs::remove_all(scratch_ / "store");
    }
  }

  Facts countOp() override {
    if (warm_) return {};  // every cell is a cache hit: no simulation
    sweep::ResolveOptions options;
    options.modelCacheDirs.push_back(modelCache());
    const auto campaign = sweep::resolveCampaign(spec_, options);
    HubProbe probe;
    // The two estimator paths evaluateCell takes for this grid, each on
    // the cell's own fresh clusters, now with a hub attached.
    for (const auto& cell : campaign.planCells()) {
      const auto& model = campaign.models[cell.modelIndex].model;
      const auto& config = campaign.configs[cell.configIndex];
      const analysis::ConfigBuilder builder = [&probe, &config, &cell] {
        return probe.attach(config.build(cell.degradeDisks, cell.degradeNet));
      };
      double timeIo = 0;
      if (cell.faulted()) {
        const auto degraded = analysis::estimateDegraded(
            model, builder, campaign.faults[cell.faultIndex].plan,
            {cell.faultSeed});
        const auto& replica = degraded.replicas.front();
        timeIo = replica.ok ? replica.timeIo : 0;
      } else {
        analysis::Replayer replayer(builder, config.mount);
        timeIo = analysis::estimateIoTime(model, replayer).totalTimeSec;
      }
      throwIfChanged("cell " + cell.key, lastTimeIo_.at(cell.key), timeIo);
    }
    return probe.totals();
  }

 private:
  fs::path modelCache() const { return scratch_ / "models"; }

  /// The name `iop-sweep run` gives a journal: run-<unix-ms>-<pid>.jsonl.
  static std::string journalFileName() {
    const auto unixMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    return "run-" + std::to_string(unixMs) + "-" +
           std::to_string(static_cast<long>(getpid())) + ".jsonl";
  }

  bool warm_;
  fs::path scratch_;
  std::string planText_;
  std::string campaignText_;  ///< as written; the plan path is relative
  sweep::CampaignSpec spec_;
  std::string canonical_;     ///< names the plan by absolute path
  fs::path journal_;
  std::map<std::string, std::string> lastTimeIo_;
};

}  // namespace

std::vector<std::string> workloadNames() {
  return {"btio-select", "trace-to-model", "sweep-cold", "sweep-warm"};
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "btio-select") return std::make_unique<BtioSelect>();
  if (name == "trace-to-model") return std::make_unique<TraceToModel>();
  if (name == "sweep-cold") return std::make_unique<Sweep>(false);
  if (name == "sweep-warm") return std::make_unique<Sweep>(true);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace e2e
