// iop::sweep — campaign parsing, content-addressed caching, executor
// determinism (-j1 == -jN byte-identical stores), resume and gc.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/runtime.hpp"
#include "sweep/campaign.hpp"
#include "sweep/executor.hpp"
#include "sweep/hash.hpp"
#include "sweep/postmortem.hpp"
#include "sweep/rank.hpp"
#include "sweep/store.hpp"
#include "sweep/telemetry.hpp"

namespace {

using namespace iop;

// A 12-cell grid (1 model x 2 configs x 2 disk x 3 net factors) over the
// cheap strided example app: the whole campaign evaluates in milliseconds.
constexpr const char* kCampaignText =
    "# comment\n"
    "name sweep-test\n"
    "app example\n"
    "config A\n"
    "config B\n"
    "degrade-disks 1 4\n"
    "degrade-net 1 2 4\n";

sweep::ResolvedCampaign resolveTestCampaign(
    const std::string& text = kCampaignText) {
  return sweep::resolveCampaign(sweep::parseCampaign(text, "."));
}

/// All files under `root` as relative-path -> bytes.
std::map<std::string, std::string> snapshotTree(
    const std::filesystem::path& root) {
  std::map<std::string, std::string> tree;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    tree[entry.path().lexically_relative(root).string()] = buffer.str();
  }
  return tree;
}

/// `snapshotTree` of a store without its journal and quarantine: what
/// must match byte for byte whatever the watchdog or a repair did.
std::map<std::string, std::string> snapshotResults(
    const std::filesystem::path& root) {
  auto tree = snapshotTree(root);
  std::erase_if(tree, [](const auto& entry) {
    return entry.first.rfind("journal", 0) == 0 ||
           entry.first.rfind("quarantine", 0) == 0;
  });
  return tree;
}

std::string readFileText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("iop_sweep_test_" + name)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(ContentHash, SeparatesFieldBoundaries) {
  sweep::ContentHash ab_c;
  ab_c.update("ab");
  ab_c.update("c");
  sweep::ContentHash a_bc;
  a_bc.update("a");
  a_bc.update("bc");
  EXPECT_NE(ab_c.value(), a_bc.value());
  EXPECT_EQ(ab_c.hex().size(), 16u);
}

TEST(ContentHash, DeterministicAcrossInstances) {
  EXPECT_EQ(sweep::hashHex("payload"), sweep::hashHex("payload"));
  EXPECT_NE(sweep::hashHex("payload"), sweep::hashHex("payloae"));
}

TEST(CampaignParse, GridAndDefaults) {
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  EXPECT_EQ(spec.name, "sweep-test");
  ASSERT_EQ(spec.models.size(), 1u);
  EXPECT_TRUE(spec.models[0].fromApp());
  EXPECT_EQ(spec.models[0].app, "example");
  ASSERT_EQ(spec.configs.size(), 2u);
  EXPECT_EQ(spec.degradeDisks, (std::vector<double>{1, 4}));
  EXPECT_EQ(spec.degradeNet, (std::vector<double>{1, 2, 4}));
  EXPECT_FALSE(spec.multiop);
  EXPECT_EQ(spec.characterize.name, "A");
}

TEST(CampaignParse, RejectsMalformedInput) {
  EXPECT_THROW(sweep::parseCampaign("bogus directive\n", "."),
               std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign("app no-such-app\nconfig A\n", "."),
               std::invalid_argument);
  EXPECT_THROW(
      sweep::parseCampaign("app example\nconfig A\ndegrade-net 0.5\n", "."),
      std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign("app example\nconfig Z\n", "."),
               std::invalid_argument);
  // a campaign without models or configs is unusable
  EXPECT_THROW(sweep::parseCampaign("config A\n", "."),
               std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign("app example\n", "."),
               std::invalid_argument);
}

TEST(CampaignParse, DisambiguatesDuplicateLabels) {
  auto spec = sweep::parseCampaign("app example\nconfig A\nconfig A\n", ".");
  EXPECT_EQ(spec.configs[0].label, "A");
  EXPECT_EQ(spec.configs[1].label, "A#2");
}

TEST(CampaignParse, CanonicalTextIsAFixedPoint) {
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  const std::string canonical = spec.canonicalText();
  // Reparsing the canonical form must not change it (modulo the directives
  // canonicalText intentionally renders differently, so compare via a
  // second render of a fresh parse of the original).
  auto again = sweep::parseCampaign(kCampaignText, ".");
  EXPECT_EQ(canonical, again.canonicalText());
  EXPECT_NE(canonical.find("estimator iop-estimate/2"), std::string::npos);
}

TEST(CellKey, RespondsToEveryInput) {
  const std::string base =
      sweep::cellKey("est/1", "model-text", "config-id", 1.0, 1.0);
  EXPECT_EQ(base,
            sweep::cellKey("est/1", "model-text", "config-id", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/2", "model-text", "config-id", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text2", "config-id", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text", "config-id2", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text", "config-id", 4.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text", "config-id", 1.0, 4.0));
}

TEST(CellResultIo, RoundTripsThroughText) {
  sweep::CellResult cell;
  cell.key = "00deadbeef001234";
  cell.modelLabel = "btio np4";  // labels may contain spaces
  cell.configLabel = "Configuration A";
  cell.degradeDisks = 4;
  cell.degradeNet = 1.5;
  cell.estimator = "iop-estimate/2";
  cell.np = 4;
  cell.weightBytes = 123456789;
  cell.timeIo = 12.25;
  cell.iorRuns = 7;
  cell.phases.push_back({1, 1, 1000, 5.5e6, 0.125});
  cell.phases.push_back({2, 1, 2000, 1.0e7, 0.25});

  const auto parsed = sweep::CellResult::parse(cell.render());
  EXPECT_EQ(parsed.render(), cell.render());
  EXPECT_EQ(parsed.modelLabel, cell.modelLabel);
  EXPECT_EQ(parsed.configLabel, cell.configLabel);
  EXPECT_EQ(parsed.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.timeIo, 12.25);
  EXPECT_DOUBLE_EQ(parsed.phases[0].bandwidthCH, 5.5e6);

  EXPECT_THROW(sweep::CellResult::parse("not a cell"),
               std::invalid_argument);

  const auto capture = sweep::makeCellCapture(parsed);
  EXPECT_EQ(capture.app, cell.modelLabel);
  EXPECT_EQ(capture.config, cell.configLabel);
  EXPECT_DOUBLE_EQ(capture.makespan, cell.timeIo);
  ASSERT_EQ(capture.phases.size(), 2u);
  EXPECT_EQ(capture.phases[1].weightBytes, 2000u);
}

TEST(SweepExecutor, ParallelStoreIsByteIdenticalToSerial) {
  const auto campaign = resolveTestCampaign();
  ASSERT_EQ(campaign.planCells().size(), 12u);

  TempDir serial("serial");
  TempDir parallel("parallel");
  sweep::CampaignStore storeSerial(serial.path());
  sweep::CampaignStore storeParallel(parallel.path());

  sweep::SweepOptions serialOptions;
  serialOptions.jobs = 1;
  const auto serialOutcome =
      sweep::runSweep(campaign, storeSerial, serialOptions);
  EXPECT_EQ(serialOutcome.computed, 12u);
  EXPECT_EQ(serialOutcome.failures, 0u);

  sweep::SweepOptions parallelOptions;
  parallelOptions.jobs = 4;
  const auto parallelOutcome =
      sweep::runSweep(campaign, storeParallel, parallelOptions);
  EXPECT_EQ(parallelOutcome.computed, 12u);
  EXPECT_EQ(parallelOutcome.failures, 0u);

  const auto a = snapshotTree(serial.path());
  const auto b = snapshotTree(parallel.path());
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // identical file sets with identical bytes

  // Identical estimates, cell by cell, in canonical order.
  for (std::size_t i = 0; i < serialOutcome.cells.size(); ++i) {
    EXPECT_EQ(serialOutcome.cells[i].result.render(),
              parallelOutcome.cells[i].result.render());
  }
}

TEST(SweepExecutor, SecondRunIsAllCacheHits) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("cache");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 2;

  const auto first = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(first.computed, 12u);
  EXPECT_EQ(first.cacheHits, 0u);

  const auto before = snapshotTree(dir.path());
  const auto second = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.cacheHits, 12u);
  EXPECT_EQ(second.iorRuns, 0u);
  EXPECT_EQ(snapshotTree(dir.path()), before);  // nothing rewritten

  // --force recomputes everything and still lands on the same bytes.
  options.force = true;
  const auto forced = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(forced.computed, 12u);
  EXPECT_EQ(snapshotTree(dir.path()), before);
}

TEST(SweepExecutor, ResumesAfterInterruption) {
  const auto campaign = resolveTestCampaign();
  TempDir full("full");
  TempDir killed("killed");
  sweep::SweepOptions options;
  options.jobs = 2;

  sweep::CampaignStore fullStore(full.path());
  sweep::runSweep(campaign, fullStore, options);
  const auto expected = snapshotTree(full.path());

  // Simulate a run killed mid-flight: some cells committed, some missing,
  // no manifest yet.
  sweep::CampaignStore killedStore(killed.path());
  sweep::runSweep(campaign, killedStore, options);
  const auto plan = campaign.planCells();
  std::filesystem::remove(killedStore.cellPath(plan[1].key));
  std::filesystem::remove(killedStore.capturePath(plan[1].key));
  std::filesystem::remove(killedStore.cellPath(plan[7].key));
  std::filesystem::remove(killedStore.capturePath(plan[7].key));
  std::filesystem::remove(killedStore.manifestPath());

  const auto resumed = sweep::runSweep(campaign, killedStore, options);
  EXPECT_EQ(resumed.cacheHits, 10u);
  EXPECT_EQ(resumed.computed, 2u);
  EXPECT_EQ(snapshotTree(killed.path()), expected);
}

TEST(SweepExecutor, RejectsMismatchedStoreUnlessForced) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("mismatch");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  sweep::runSweep(campaign, store, options);

  const auto other = resolveTestCampaign(
      "name other\napp example\nconfig A\nconfig B\n");
  sweep::CampaignStore reopened(dir.path());
  EXPECT_THROW(sweep::runSweep(other, reopened, options),
               std::runtime_error);

  options.force = true;  // replaces the store and recomputes
  const auto outcome = sweep::runSweep(other, reopened, options);
  EXPECT_EQ(outcome.computed, 2u);
  EXPECT_EQ(outcome.failures, 0u);
}

TEST(SweepExecutor, DeduplicatesIdenticalCells) {
  // "A" twice: distinct labels, identical cache keys -> one evaluation.
  const auto campaign =
      resolveTestCampaign("name dup\napp example\nconfig A\nconfig A\n");
  const auto plan = campaign.planCells();
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].key, plan[1].key);

  TempDir dir("dedup");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 2;
  const auto outcome = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(outcome.computed, 2u);  // both cells resolved...
  EXPECT_EQ(outcome.cells[0].result.timeIo,
            outcome.cells[1].result.timeIo);
  EXPECT_EQ(outcome.iorRuns, outcome.cells[0].result.iorRuns);  // ...once
}

TEST(SweepExecutor, DegradationSlowsEstimates) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("degrade");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 4;
  const auto outcome = sweep::runSweep(campaign, store, options);

  // For a fixed (model, config), any degradation must not speed I/O up,
  // and degrading both axes must strictly slow the healthy estimate.
  std::map<std::string, std::map<std::pair<double, double>, double>> grid;
  for (const auto& cell : outcome.cells) {
    grid[cell.result.configLabel][{cell.spec.degradeDisks,
                                   cell.spec.degradeNet}] =
        cell.result.timeIo;
  }
  for (const auto& [config, cells] : grid) {
    const double healthy = cells.at({1, 1});
    EXPECT_GT(healthy, 0) << config;
    for (const auto& [factors, timeIo] : cells) {
      EXPECT_GE(timeIo, healthy * 0.999) << config;
    }
    EXPECT_GT(cells.at({4, 4}), healthy) << config;
  }
}

TEST(SweepStore, GcDropsOrphanedCells) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("gc");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  sweep::runSweep(campaign, store, options);

  std::set<std::string> live;
  const auto plan = campaign.planCells();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i % 2 == 0) live.insert(plan[i].key);
  }
  // 6 dropped keys x (cell + capture) = 12 files.
  EXPECT_EQ(store.gc(live), 12u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(store.hasCell(plan[i].key), i % 2 == 0);
  }
  EXPECT_EQ(store.gc(live), 0u);  // idempotent
}

TEST(SweepRank, OrdersByTimeIoAndMarksSelection) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("rank");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 4;
  const auto outcome = sweep::runSweep(campaign, store, options);

  const auto groups = sweep::rankOutcome(campaign, outcome);
  ASSERT_EQ(groups.size(), 6u);  // 2 disk x 3 net fault scenarios
  for (const auto& group : groups) {
    ASSERT_EQ(group.entries.size(), 2u);
    EXPECT_EQ(group.entries[0].rank, 1u);
    EXPECT_TRUE(group.entries[0].selected);
    EXPECT_FALSE(group.entries[1].selected);
    EXPECT_LE(group.entries[0].cell->result.timeIo,
              group.entries[1].cell->result.timeIo);
  }
  const std::string report = sweep::renderReport(campaign, outcome);
  EXPECT_NE(report.find("<== selected"), std::string::npos);
  EXPECT_NE(report.find("Sweep ranking"), std::string::npos);
}

TEST(SweepConfig, BuildRejectsBadDegradation) {
  const auto campaign = resolveTestCampaign();
  const auto& config = campaign.configs[0];
  EXPECT_THROW(config.build(0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(config.build(1.0, 0.5), std::invalid_argument);
  auto healthy = config.build(1.0, 1.0);
  EXPECT_FALSE(healthy.topology->allNodes().empty());
}

TEST(SweepDigest, GoldenCampaignDigestIsStable) {
  // Captured from the binary-heap scheduler before the calendar queue
  // landed: every cell of a 12-cell campaign, characterization included,
  // must render byte-identical results on the new engine.  The trailing
  // `checksum` seal is stripped before hashing — it is derived from the
  // other bytes, and dropping it keeps the golden value comparable all
  // the way back to stores written before cells were checksummed.
  const auto campaign = resolveTestCampaign(
      "name digest-probe\n"
      "app example\n"
      "config A\n"
      "config B\n"
      "degrade-disks 1 4\n"
      "degrade-net 1 2 4\n");
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& cell : campaign.planCells()) {
    std::string bytes = sweep::evaluateCell(campaign, cell).render();
    const auto seal = bytes.find("\nchecksum ");
    if (seal != std::string::npos) {
      const auto lineEnd = bytes.find('\n', seal + 1);
      bytes.erase(seal, lineEnd - seal);
    }
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(h, 0x3a83b0aec3e4ac97ULL);
}

TEST(CampaignResolve, ParallelCharacterizationMatchesSerial) {
  // Two app entries so the worker pool has real fan-out; exercised under
  // TSan in CI (tools/ci.sh) to prove the characterization runs share no
  // state.
  const char* text =
      "name par-resolve\n"
      "app example\n"
      "app example np=2\n"
      "config A\n";
  const auto spec = sweep::parseCampaign(text, ".");

  sweep::ResolveOptions serial;
  serial.jobs = 1;
  const auto a = sweep::resolveCampaign(spec, serial);
  sweep::ResolveOptions parallel;
  parallel.jobs = 4;
  const auto b = sweep::resolveCampaign(spec, parallel);

  EXPECT_EQ(a.characterized, 2u);
  EXPECT_EQ(b.characterized, 2u);
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t i = 0; i < a.models.size(); ++i) {
    EXPECT_EQ(a.models[i].label, b.models[i].label);
    EXPECT_EQ(a.models[i].contentText, b.models[i].contentText);
  }
}

TEST(CampaignResolve, ModelCacheAvoidsRecharacterization) {
  TempDir cache("modelcache");
  const auto spec = sweep::parseCampaign(
      "name cached-resolve\napp example\nconfig A\n", ".");
  sweep::ResolveOptions options;
  options.modelCacheDirs.push_back(cache.path());

  const auto first = sweep::resolveCampaign(spec, options);
  EXPECT_EQ(first.characterized, 1u);
  EXPECT_EQ(first.modelCacheHits, 0u);

  const auto second = sweep::resolveCampaign(spec, options);
  EXPECT_EQ(second.characterized, 0u);
  EXPECT_EQ(second.modelCacheHits, 1u);
  // The cached model round-trips to the same canonical text, so cell keys
  // are unchanged.
  ASSERT_EQ(first.models.size(), 1u);
  ASSERT_EQ(second.models.size(), 1u);
  EXPECT_EQ(first.models[0].contentText, second.models[0].contentText);
  ASSERT_EQ(first.planCells().size(), second.planCells().size());
  EXPECT_EQ(first.planCells()[0].key, second.planCells()[0].key);

  // reuse=false ignores the cache and characterizes again.
  sweep::ResolveOptions fresh = options;
  fresh.reuse = false;
  const auto third = sweep::resolveCampaign(spec, fresh);
  EXPECT_EQ(third.characterized, 1u);
  EXPECT_EQ(third.modelCacheHits, 0u);
  EXPECT_EQ(third.models[0].contentText, first.models[0].contentText);
}

TEST(SweepExecutor, SharedStoreReusesAcrossCampaigns) {
  TempDir shared("sharedpool");
  const auto first = resolveTestCampaign(
      "name shared-a\napp example\nconfig A\nconfig B\n");
  const auto second = resolveTestCampaign(
      "name shared-b\napp example\nconfig B\nconfig C\n");

  sweep::SweepOptions options;
  options.jobs = 2;
  options.sharedStore = shared.path().string();

  TempDir storeA("shared_s1");
  sweep::CampaignStore s1(storeA.path());
  const auto outcomeA = sweep::runSweep(first, s1, options);
  EXPECT_EQ(outcomeA.computed, 2u);
  EXPECT_EQ(outcomeA.sharedHits, 0u);

  // The overlapping cell (example @ B) comes out of the shared pool.
  TempDir storeB("shared_s2");
  sweep::CampaignStore s2(storeB.path());
  const auto outcomeB = sweep::runSweep(second, s2, options);
  EXPECT_EQ(outcomeB.computed, 1u);
  EXPECT_EQ(outcomeB.cacheHits, 1u);
  EXPECT_EQ(outcomeB.sharedHits, 1u);

  // A third store for the same campaign is served entirely from the pool
  // and ends up byte-identical to the computed one.
  TempDir storeC("shared_s3");
  sweep::CampaignStore s3(storeC.path());
  const auto outcomeC = sweep::runSweep(second, s3, options);
  EXPECT_EQ(outcomeC.computed, 0u);
  EXPECT_EQ(outcomeC.cacheHits, 2u);
  EXPECT_EQ(outcomeC.sharedHits, 2u);
  EXPECT_EQ(snapshotTree(storeB.path()), snapshotTree(storeC.path()));

  // Adopted cells pass the store's key check when read back.
  sweep::SharedStore pool(shared.path());
  for (const auto& cell : second.planCells()) {
    ASSERT_TRUE(pool.hasCell(cell.key));
    EXPECT_EQ(pool.loadCell(cell.key).key, cell.key);
  }
}

// ------------------------------------------------------ fault axis

/// Write `text` to `dir/name` and return the path.
std::filesystem::path writeFile(const std::filesystem::path& dir,
                                const std::string& name,
                                const std::string& text) {
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

constexpr const char* kFlakyPlanText =
    "policy timeout=20ms retries=6 backoff=1ms max-backoff=32ms "
    "jitter=0.25\n"
    "disk * transient-error p=0.2\n";

/// A campaign with a fault axis: healthy baseline + 2 seeded replicas of
/// a flaky-disk plan, over 2 configs -> 2 * (1 + 2) = 6 cells.
sweep::ResolvedCampaign resolveFaultCampaign(const TempDir& dir) {
  writeFile(dir.path(), "flaky.fault", kFlakyPlanText);
  const std::string text =
      "name fault-axis\n"
      "app example\n"
      "config A\n"
      "config B\n"
      "faultplan none\n"
      "faultplan file=flaky.fault\n"
      "fault-seeds 2\n";
  return sweep::resolveCampaign(sweep::parseCampaign(text, dir.path()));
}

TEST(CampaignParse, FaultAxisParsesAndCanonicalizes) {
  TempDir dir("faultparse");
  const auto campaign = resolveFaultCampaign(dir);
  ASSERT_EQ(campaign.spec.faults.size(), 2u);
  EXPECT_TRUE(campaign.spec.faults[0].none());
  EXPECT_EQ(campaign.spec.faults[1].label, "flaky");
  EXPECT_EQ(campaign.spec.faultSeeds, 2);
  EXPECT_TRUE(campaign.spec.hasFaultAxis());
  ASSERT_EQ(campaign.faults.size(), 2u);
  EXPECT_FALSE(campaign.faults[1].planText.empty());

  const std::string canonical = campaign.spec.canonicalText();
  EXPECT_NE(canonical.find("faultplan none none"), std::string::npos);
  EXPECT_NE(canonical.find("fault-seeds 2"), std::string::npos);

  // 2 configs x (healthy + 2 seeded flaky replicas).
  const auto plan = campaign.planCells();
  ASSERT_EQ(plan.size(), 6u);
  std::size_t faulted = 0;
  for (const auto& cell : plan) {
    if (!cell.faulted()) continue;
    ++faulted;
    EXPECT_NE(campaign.cellTitle(cell).find("fault=flaky"),
              std::string::npos);
  }
  EXPECT_EQ(faulted, 4u);

  // Malformed fault directives fail loudly.
  EXPECT_THROW(sweep::parseCampaign(
                   "app example\nconfig A\nfaultplan bogus\n", "."),
               std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign(
                   "app example\nconfig A\nfault-seeds 0\n", "."),
               std::invalid_argument);
}

TEST(CampaignParse, NoFaultAxisKeepsLegacyIdentity) {
  // A campaign that never mentions faults must canonicalize and key
  // byte-identically to pre-fault stores (the back-compat gate).
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  EXPECT_FALSE(spec.hasFaultAxis());
  EXPECT_EQ(spec.canonicalText().find("faultplan"), std::string::npos);
  EXPECT_EQ(spec.canonicalText().find("fault-seeds"), std::string::npos);
  EXPECT_EQ(sweep::cellKey("est/1", "m", "c", 1.0, 1.0),
            sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "", 0));
}

TEST(CellKey, RespondsToFaultPlanAndSeed) {
  const std::string base =
      sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-a", 1);
  EXPECT_EQ(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-a", 1));
  EXPECT_NE(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-b", 1));
  EXPECT_NE(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-a", 2));
  EXPECT_NE(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0));
}

TEST(SweepExecutor, FaultAxisEndToEndDeterministicAndCached) {
  TempDir dir("faultaxis");
  const auto campaign = resolveFaultCampaign(dir);

  TempDir serial("fault_serial");
  TempDir parallel("fault_parallel");
  sweep::CampaignStore storeSerial(serial.path());
  sweep::CampaignStore storeParallel(parallel.path());

  sweep::SweepOptions options;
  options.jobs = 1;
  const auto first = sweep::runSweep(campaign, storeSerial, options);
  EXPECT_EQ(first.computed, 6u);
  EXPECT_EQ(first.failures, 0u);

  options.jobs = 4;
  const auto par = sweep::runSweep(campaign, storeParallel, options);
  EXPECT_EQ(par.computed, 6u);
  // Same plan + seed must land on bit-identical stores at any -j.
  EXPECT_EQ(snapshotTree(serial.path()), snapshotTree(parallel.path()));

  // Faulted replicas hit the cache like any other cell.
  const auto second = sweep::runSweep(campaign, storeSerial, options);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.cacheHits, 6u);

  // Faulted cells carry their accounting through the store round-trip.
  bool sawFaulted = false;
  for (const auto& cell : second.cells) {
    if (!cell.spec.faulted()) continue;
    sawFaulted = true;
    EXPECT_EQ(cell.result.estimator, sweep::kFaultEstimatorVersion);
    EXPECT_EQ(cell.result.faultLabel, "flaky");
    EXPECT_EQ(cell.result.faultSeed, cell.spec.faultSeed);
    EXPECT_GT(cell.result.faultRetries, 0u);
    EXPECT_EQ(cell.result.iorRuns, 0u);  // degraded cells never run IOR
  }
  EXPECT_TRUE(sawFaulted);

  // Ranking: healthy group + faulted group, the latter aggregated over
  // seeds and ranked by median degraded Time_io.
  const auto groups = sweep::rankOutcome(campaign, second);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_FALSE(groups[0].faulted);
  EXPECT_TRUE(groups[1].faulted);
  ASSERT_EQ(groups[1].entries.size(), 2u);
  for (const auto& entry : groups[1].entries) {
    EXPECT_EQ(entry.seeds, 2u);
    EXPECT_EQ(entry.okSeeds, 2u);
    EXPECT_GT(entry.timeIo, 0.0);
  }
  EXPECT_LE(groups[1].entries[0].timeIo, groups[1].entries[1].timeIo);
  const std::string report = sweep::renderReport(campaign, second);
  EXPECT_NE(report.find("[fault=flaky]"), std::string::npos);
  EXPECT_NE(report.find("median Time_io (s)"), std::string::npos);
  EXPECT_NE(report.find("seeds ok"), std::string::npos);
}

// -------------------------------------------------- store integrity

TEST(SweepStore, ChecksumSealsEveryCell) {
  sweep::CellResult cell;
  cell.key = "00deadbeef001234";
  cell.modelLabel = "m";
  cell.configLabel = "c";
  cell.estimator = "iop-estimate/2";
  cell.timeIo = 12.25;
  const std::string text = cell.render();
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
  // The rendered text round-trips; a flipped digit inside a value does
  // not parse even though the line itself is still well-formed.
  EXPECT_EQ(sweep::CellResult::parse(text).render(), text);
  std::string tampered = text;
  const auto pos = tampered.find("12.25");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] = '9';
  try {
    sweep::CellResult::parse(tampered);
    FAIL() << "tampered cell must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  // Legacy cells (written before checksums) still load.
  std::string legacy = text;
  const auto sumPos = legacy.find("\nchecksum ");
  legacy = legacy.substr(0, sumPos + 1) + "end\n";
  EXPECT_DOUBLE_EQ(sweep::CellResult::parse(legacy).timeIo, 12.25);
}

TEST(SweepStore, CorruptCellsAreQuarantinedAndRecomputed) {
  const auto campaign = resolveTestCampaign(
      "name quarantine\napp example\nconfig A\nconfig B\n");
  TempDir dir("quarantine");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  sweep::runSweep(campaign, store, options);
  const auto expected = snapshotTree(dir.path());

  // Torn write: truncate one committed cell mid-file.
  const auto plan = campaign.planCells();
  const auto victim = store.cellPath(plan[0].key);
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  std::ofstream(victim, std::ios::binary) << bytes.substr(0, bytes.size() / 2);

  std::string whyBad;
  EXPECT_FALSE(store.tryLoadCell(plan[0].key, &whyBad).has_value());
  EXPECT_FALSE(whyBad.empty());
  EXPECT_FALSE(std::filesystem::exists(victim));  // moved aside...
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine"));

  // ...and the next run recomputes it, converging back on the same bytes
  // (minus the quarantine folder).
  const auto outcome = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(outcome.computed, 1u);
  EXPECT_EQ(outcome.quarantined, 0u);  // already quarantined above
  EXPECT_EQ(outcome.failures, 0u);
  auto after = snapshotTree(dir.path());
  for (auto it = after.begin(); it != after.end();) {
    it = it->first.rfind("quarantine/", 0) == 0 ? after.erase(it) : ++it;
  }
  EXPECT_EQ(after, expected);
}

TEST(SweepStore, ForgedLinesPastTheChecksumAreQuarantinedAndRecomputed) {
  // The checksum seals everything before it; a line slipped in between it
  // and `end`, or appended after `end`, must not be served as a hit.
  const auto campaign = resolveTestCampaign(
      "name forged\napp example\nconfig A\nconfig B\n");
  TempDir dir("forged");
  sweep::CampaignStore store(dir.path());
  sweep::runSweep(campaign, store, {});
  const auto expected = snapshotTree(dir.path());

  const auto plan = campaign.planCells();
  const auto renamed = store.cellPath(plan[0].key);
  std::string bytes = readFileText(renamed);
  ASSERT_EQ(bytes.substr(bytes.size() - 4), "end\n");
  bytes.insert(bytes.size() - 4, "config Z-forged\n");
  std::ofstream(renamed, std::ios::binary) << bytes;
  std::ofstream(store.cellPath(plan[1].key),
                std::ios::binary | std::ios::app)
      << "time-io 0.001\n";

  const auto outcome = sweep::runSweep(campaign, store, {});
  EXPECT_EQ(outcome.quarantined, 2u);
  EXPECT_EQ(outcome.computed, 2u);
  EXPECT_EQ(outcome.cacheHits, 0u);
  for (const auto& cell : outcome.cells) {
    EXPECT_NE(cell.result.configLabel, "Z-forged");
  }
  EXPECT_EQ(snapshotResults(dir.path()), expected);
}

// ------------------------------------------------- graceful shutdown

TEST(SweepExecutor, CancelSkipsUntakenCellsAndResumeConverges) {
  const auto campaign = resolveTestCampaign(
      "name cancel\napp example\nconfig A\nconfig B\n"
      "degrade-disks 1 4\n");
  ASSERT_EQ(campaign.planCells().size(), 4u);

  TempDir full("cancel_full");
  sweep::CampaignStore fullStore(full.path());
  sweep::SweepOptions plain;
  sweep::runSweep(campaign, fullStore, plain);
  const auto expected = snapshotTree(full.path());

  // Cancel after the first completed cell: in-flight work is committed,
  // untaken cells are reported skipped, and the exit is resumable.
  TempDir killed("cancel_killed");
  sweep::CampaignStore killedStore(killed.path());
  std::atomic<bool> cancel{false};
  sweep::SweepOptions interruptible;
  interruptible.jobs = 1;
  interruptible.cancel = &cancel;
  interruptible.onCellDone = [&](const sweep::CellOutcome&) {
    cancel.store(true);
  };
  const auto interrupted =
      sweep::runSweep(campaign, killedStore, interruptible);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.computed, 1u);
  EXPECT_EQ(interrupted.skipped, 3u);
  std::size_t skippedCells = 0;
  for (const auto& cell : interrupted.cells) {
    if (cell.status == sweep::CellOutcome::Status::Skipped) {
      ++skippedCells;
      EXPECT_NE(cell.error.find("resume"), std::string::npos);
    }
  }
  EXPECT_EQ(skippedCells, 3u);

  // Resume finishes the remainder and lands on the uninterrupted bytes.
  const auto resumed = sweep::runSweep(campaign, killedStore, plain);
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.cacheHits, 1u);
  EXPECT_EQ(resumed.computed, 3u);
  EXPECT_EQ(snapshotTree(killed.path()), expected);
}

// --- runtime telemetry --------------------------------------------------

/// `name`'s counter value, or -1 when the registry has no such counter.
double counterValue(const obs::MetricsRegistry& metrics,
                    const std::string& name) {
  const auto* counter = metrics.findCounter(name);
  return counter != nullptr ? counter->value() : -1;
}

/// After a run, the registry's run totals equal the outcome's fields.
void expectRegistryMatchesOutcome(const obs::MetricsRegistry& metrics,
                                  const sweep::SweepOutcome& outcome) {
  const auto expect = [&](const char* name, std::size_t value) {
    EXPECT_DOUBLE_EQ(counterValue(metrics, name),
                     static_cast<double>(value))
        << name;
  };
  expect("sweep.cells", outcome.cells.size());
  expect("sweep.cache_hits", outcome.cacheHits);
  expect("sweep.shared_hits", outcome.sharedHits);
  expect("sweep.computed", outcome.computed);
  expect("sweep.failures", outcome.failures);
  expect("sweep.skipped", outcome.skipped);
  expect("sweep.quarantined", outcome.quarantined);
  expect("sweep.ior_runs", outcome.iorRuns);
  expect("sweep.cells_stuck", outcome.stuck);
}

/// The sorted member names of every line of `jsonl`, one
/// "<event>: <names>" entry per line.  `prefix` turns a log line into a
/// journal-shaped one so obs::parseJournal can read both.
std::vector<std::string> fieldNamesPerLine(const std::string& jsonl,
                                           const std::string& prefix = {}) {
  std::vector<std::string> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (!prefix.empty()) line = prefix + line.substr(1);
    const auto parsed = obs::parseJournal(line + "\n");
    EXPECT_EQ(parsed.badLines, 0u) << line;
    if (parsed.events.empty()) continue;
    std::string entry = parsed.events[0].name + ":";
    for (const auto& [key, value] : parsed.events[0].fields) {
      if (!prefix.empty() && key == "t") continue;
      entry += " " + key;
    }
    out.push_back(entry);
  }
  return out;
}

/// Every hook once, in lifecycle order, against `telemetry`.
void callEveryHook(sweep::SweepTelemetry& telemetry, std::size_t worker) {
  telemetry.campaignStart("vocab", "0123456789abcdef", 2);
  telemetry.modelCacheHit("m-cached");
  telemetry.modelCharacterized("m", 4, 0.25);
  telemetry.characterizeSpan(worker, "m", 0.0, 0.25);
  telemetry.execStart(4, 1, 1, 2, 2);
  telemetry.cacheHit("m @ A", "k0", /*shared=*/false);
  telemetry.cacheHit("m @ B", "k1", /*shared=*/true);
  telemetry.cellQuarantined("m @ C", "k2", "checksum mismatch",
                            /*shared=*/false);
  telemetry.cellLoaded("store", true);
  telemetry.cellLoaded("store", false);
  telemetry.workerSpawn(worker);
  telemetry.cellClaim(worker, "m @ C", "k2");
  telemetry.cellCommit(worker, "m @ C", "k2", 0.5, 0.75, 0.8, 12.5, 3,
                       /*faulted=*/true);
  telemetry.cellSaved("store", 100);
  telemetry.captureSaved();
  telemetry.cellClaim(worker, "m @ D", "k3");
  telemetry.cellFailed(worker, "m @ D", "k3", 0.8, 0.9, "boom");
  telemetry.cellClaim(worker, "m @ E", "k4");
  telemetry.cellSlow(worker, "m @ E", "k4", 0.05);
  telemetry.cellSlowResolved();
  telemetry.cellStuck(worker, "m @ E", "k4", 1, 0.1, /*retrying=*/true);
  telemetry.cellClaim(worker, "m @ E", "k4");
  telemetry.cellStuck(worker, "m @ E", "k4", 2, 0.1, /*retrying=*/false);
  telemetry.arenaTrimmed(worker, 16, 64);
  telemetry.shutdownNoticed();
  telemetry.cellsSkipped(1);
  telemetry.workerIdle(worker);
  telemetry.runComplete(sweep::SweepOutcome{});
}

TEST(RuntimeTelemetry, JournalAndLogVocabularyIsPinned) {
  // The iop-journal/1 schema: every event name with its sorted field
  // names.  A change here is a schema change — bump kSchema with it.
  const std::vector<std::string> journalTable = {
      "journal_start: event pid schema t unix_ms",
      "campaign_start: campaign config event jobs t",
      "model_cache_hit: event model t",
      "model_characterized: event model phases seconds t",
      "exec_start: cached cells event pending shared t workers",
      "cache_hit: cell event key t",
      "shared_hit: cell event key t",
      "cell_quarantined: cell error event key shared t",
      "worker_spawn: event t worker",
      "cell_claim: cell event key t worker",
      "cell_commit: cell commit_seconds event faulted ior_runs key seconds "
      "t time_io worker",
      "cell_claim: cell event key t worker",
      "cell_failed: cell error event key seconds t worker",
      "cell_claim: cell event key t worker",
      "cell_slow: cell deadline_s event key t worker",
      "cell_stuck: attempt cell deadline_s event key retry t worker",
      "cell_claim: cell event key t worker",
      "cell_stuck: attempt cell deadline_s event key retry t worker",
      "shutdown_requested: event t",
      "cells_skipped: count event t",
      "worker_idle: event t worker",
      "run_complete: cache_hits cells computed event failures interrupted "
      "quarantined shared_hits skipped t wall_seconds",
  };
  // The log carries the same events at their levels, without the fields
  // that depend on wall-clock time (seconds, commit_seconds,
  // wall_seconds) or on scheduling (worker).
  const std::vector<std::string> logTable = {
      "campaign_start: campaign component config event jobs level",
      "model_cache_hit: component event level model",
      "model_characterized: component event level model phases",
      "exec_start: cached cells component event level pending shared "
      "workers",
      "cache_hit: cell component event key level",
      "shared_hit: cell component event key level",
      "cell_quarantined: cell component error event key level shared",
      "worker_spawn: component event level",
      "cell_claim: cell component event key level",
      "cell_commit: cell component event faulted ior_runs key level "
      "time_io",
      "cell_claim: cell component event key level",
      "cell_failed: cell component error event key level",
      "cell_claim: cell component event key level",
      "cell_slow: cell component deadline_s event key level",
      "cell_stuck: attempt cell component deadline_s event key level retry",
      "cell_claim: cell component event key level",
      "cell_stuck: attempt cell component deadline_s event key level retry",
      "shutdown_requested: component event level",
      "cells_skipped: component count event level",
      "worker_idle: component event level",
      "run_complete: cache_hits cells component computed event failures "
      "interrupted level quarantined shared_hits skipped",
  };

  TempDir dir("vocabulary");
  obs::Logger log(obs::LogLevel::Debug);
  std::string logText;
  log.captureTo(&logText);
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  config.log = &log;
  {
    sweep::SweepTelemetry telemetry(config);
    callEveryHook(telemetry, 0);
  }
  EXPECT_EQ(fieldNamesPerLine(readFileText(config.journalPath)),
            journalTable);
  EXPECT_EQ(fieldNamesPerLine(logText, "{\"t\":0,"), logTable);

  // Levels: events logged before the one event path keep theirs.
  std::map<std::string, std::string> levels;
  std::istringstream in(logText);
  for (std::string line; std::getline(in, line);) {
    const auto parsed = obs::parseJournal("{\"t\":0," + line.substr(1) + "\n");
    ASSERT_EQ(parsed.events.size(), 1u) << line;
    levels[parsed.events[0].name] = *parsed.events[0].field("level");
  }
  for (const char* info : {"model_cache_hit", "model_characterized",
                           "cache_hit", "shared_hit", "cell_commit",
                           "run_complete"}) {
    EXPECT_EQ(levels[info], "info") << info;
  }
  for (const char* warn :
       {"cell_quarantined", "cell_failed", "cell_slow", "cell_stuck"}) {
    EXPECT_EQ(levels[warn], "warn") << warn;
  }
}

TEST(RuntimeTelemetry, ConcurrentHooksKeepExactTotals) {
  // Every hook from 8 threads at once, with the journal, exec trace,
  // snapshotter and logger on: one lock serialises the sinks, so no
  // update is lost and no journal line is torn or out of order.  (The
  // TSan CI flavor builds exactly this test binary.)
  TempDir dir("concurrent_hooks");
  obs::Logger log(obs::LogLevel::Debug);
  std::string logText;
  log.captureTo(&logText);
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  config.telemetryOut = (dir.path() / "metrics.prom").string();
  config.telemetryIntervalMs = 10;
  config.execTraceOut = (dir.path() / "trace.json").string();
  config.log = &log;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10;
  constexpr std::size_t kCalls = kThreads * kPerThread;
  sweep::SweepTelemetry telemetry(config);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&telemetry, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        callEveryHook(telemetry, t);
      }
    });
  }
  for (auto& th : pool) th.join();
  telemetry.finish();

  const obs::MetricsRegistry& metrics = telemetry.runtime();
  const auto expect = [&](const char* name, std::size_t perCall) {
    EXPECT_DOUBLE_EQ(counterValue(metrics, name),
                     static_cast<double>(perCall * kCalls))
        << name;
  };
  expect("sweep.model_cache_hits", 1);
  expect("sweep.characterized", 1);
  expect("sweep.cells", 4);
  expect("sweep.pending", 2);
  expect("sweep.cache_hits", 2);
  expect("sweep.shared_hits", 1);
  expect("sweep.quarantined", 1);
  expect("sweep.worker_spawns", 1);
  expect("sweep.computed", 1);
  expect("sweep.ior_runs", 3);
  expect("sweep.failures", 2);  // cell_failed + the terminal cell_stuck
  expect("sweep.cells_slow", 1);
  expect("sweep.cells_stuck", 2);
  expect("sweep.skipped", 1);
  expect("sim.arena_trim_bytes", 16);
  expect("store.cell_loads", 1);
  expect("store.quarantines", 1);
  expect("store.cell_commits", 1);
  expect("store.cell_bytes", 100);
  expect("store.capture_commits", 1);
  EXPECT_DOUBLE_EQ(counterValue(metrics, "sweep.shutdowns"), 1);
  EXPECT_DOUBLE_EQ(metrics.findGauge("sweep.workers_busy")->value(), 0);
  EXPECT_DOUBLE_EQ(metrics.findGauge("sweep.slow_cells")->value(), 0);
  EXPECT_EQ(metrics.findHistogram("sweep.replay_seconds")->count(), kCalls);
  EXPECT_EQ(metrics.findHistogram("sweep.resolve_seconds")->count(),
            kCalls);

  // 20 journaled events per call; journal_start and one
  // shutdown_requested on top.  Every line whole, `t` never decreasing.
  const auto parsed = obs::loadJournal(config.journalPath);
  EXPECT_EQ(parsed.badLines, 0u);
  EXPECT_EQ(parsed.events.size(), 20 * kCalls + 2);
  for (std::size_t i = 1; i < parsed.events.size(); ++i) {
    ASSERT_LE(parsed.events[i - 1].t, parsed.events[i].t) << "line " << i;
  }
  // The log has the same events, journal_start aside.
  std::size_t logLines = 0;
  for (const char c : logText) logLines += c == '\n' ? 1 : 0;
  EXPECT_EQ(logLines, 20 * kCalls + 1);
  EXPECT_EQ(log.lineCount(), logLines);

  // Trace: 4 spans, 6 instants and 1 counter sample per call (plus the
  // one shutdown instant); the final snapshot holds the final state.
  const std::string trace = readFileText(config.execTraceOut);
  const auto occurrences = [&trace](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"ph\":\"X\""), 4 * kCalls);
  EXPECT_EQ(occurrences("\"ph\":\"i\""), 6 * kCalls + 1);
  EXPECT_EQ(occurrences("\"ph\":\"C\""), kCalls);
  EXPECT_NE(readFileText(config.telemetryOut)
                .find("iop_sweep_computed_total " + std::to_string(kCalls) +
                      "\n"),
            std::string::npos);
}

TEST(RuntimeTelemetry, ProgressMeterCountsEvaluatedCellsOnly) {
  // Satellite invariant: cache/shared hits never inflate `done`, so a
  // resume that recomputes 4 of 10 cells reports 0..4, not 6..10.
  sweep::ProgressMeter meter(false);
  // 10 cells, 6 already served from caches (2 of those via the shared
  // store), 4 pending for evaluation on 2 workers.
  meter.begin(/*cells=*/10, /*cached=*/6, /*shared=*/2, /*pending=*/4,
              /*workers=*/2);
  EXPECT_EQ(meter.doneCells(), 0u);
  EXPECT_DOUBLE_EQ(meter.hitRate(), 0.6);
  meter.claim();
  meter.cellDone(2.0, /*failed=*/false);
  meter.release();
  meter.claim();
  meter.cellDone(4.0, /*failed=*/true);  // failures still count as done
  meter.release();
  EXPECT_EQ(meter.doneCells(), 2u);
  // EWMA (alpha = 0.3) seeded by the first sample: 0.3*4 + 0.7*2 = 2.6.
  EXPECT_NEAR(meter.ewmaSeconds(), 2.6, 1e-9);
  // 2 pending cells left across 2 workers -> one EWMA interval.
  EXPECT_NEAR(meter.etaSeconds(), 2.6, 1e-9);
  const std::string line = meter.renderLine();
  EXPECT_NE(line.find("2/4"), std::string::npos);
  meter.finish();
}

TEST(RuntimeTelemetry, SweepWithTelemetryIsByteIdenticalToWithout) {
  // The subsystem's reason to exist is that it may not exist: a store
  // written with the full telemetry stack on must be byte-identical to
  // one written with it off, journal directory aside.
  const auto campaign = resolveTestCampaign();
  TempDir plainDir("tele_off");
  TempDir teleDir("tele_on");
  TempDir sidecars("tele_sidecars");
  std::filesystem::create_directories(sidecars.path());

  sweep::CampaignStore plainStore(plainDir.path());
  sweep::SweepOptions plainOptions;
  plainOptions.jobs = 3;
  const auto plain = sweep::runSweep(campaign, plainStore, plainOptions);
  EXPECT_EQ(plain.computed, 12u);

  sweep::TelemetryConfig config;
  config.journalPath =
      (teleDir.path() / "journal" / "run-1-1.jsonl").string();
  config.telemetryOut = (sidecars.path() / "metrics.prom").string();
  config.telemetryIntervalMs = 10;
  config.execTraceOut = (sidecars.path() / "trace.json").string();
  sweep::SweepTelemetry telemetry(config);
  telemetry.campaignStart(campaign.spec.name,
                          sweep::hashHex(campaign.spec.canonicalText()),
                          3);
  sweep::CampaignStore teleStore(teleDir.path());
  sweep::SweepOptions teleOptions;
  teleOptions.jobs = 3;
  teleOptions.telemetry = &telemetry;
  const auto instrumented =
      sweep::runSweep(campaign, teleStore, teleOptions);
  EXPECT_EQ(instrumented.computed, 12u);
  telemetry.finish();

  auto observed = snapshotTree(teleDir.path());
  std::size_t journalFiles = 0;
  for (auto it = observed.begin(); it != observed.end();) {
    if (it->first.rfind("journal", 0) == 0) {
      ++journalFiles;
      it = observed.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(journalFiles, 1u);
  EXPECT_EQ(observed, snapshotTree(plainDir.path()));

  // Identical estimates cell by cell, and the sidecar files materialized.
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(plain.cells[i].result.render(),
              instrumented.cells[i].result.render());
  }
  EXPECT_TRUE(
      std::filesystem::exists(sidecars.path() / "metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(sidecars.path() / "trace.json"));

  // The journal both parses and analyzes as a complete, healthy run.
  const auto parsed = obs::loadJournal(config.journalPath);
  EXPECT_EQ(parsed.badLines, 0u);
  const auto pm = sweep::analyzeJournal(parsed);
  EXPECT_TRUE(pm.complete);
  EXPECT_FALSE(pm.interrupted);
  EXPECT_EQ(pm.commits, 12u);
  EXPECT_EQ(pm.campaign, "sweep-test");
  EXPECT_TRUE(pm.inFlight.empty());

  // Metrics agree with the executor's own accounting.
  expectRegistryMatchesOutcome(telemetry.runtime(), instrumented);
  EXPECT_DOUBLE_EQ(counterValue(telemetry.runtime(), "store.cell_commits"),
                   12);
}

TEST(RuntimeTelemetry, JournalTimeNeverDecreasesAtJ4) {
  // Four workers journal concurrently; `t` is stamped under the
  // journal's lock, so lines land in time order.
  const auto campaign = resolveTestCampaign();
  TempDir dir("journal_order");
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  sweep::SweepTelemetry telemetry(config);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 4;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  telemetry.finish();
  EXPECT_EQ(outcome.computed, 12u);
  const auto parsed = obs::loadJournal(config.journalPath);
  EXPECT_EQ(parsed.badLines, 0u);
  ASSERT_GT(parsed.events.size(), 24u);  // claims + commits at least
  for (std::size_t i = 1; i < parsed.events.size(); ++i) {
    EXPECT_LE(parsed.events[i - 1].t, parsed.events[i].t) << "line " << i;
  }
}

TEST(RuntimeTelemetry, RegistryMatchesOutcomeOnFaultedAndDedupedRuns) {
  // Faulted cells (seeded replicas) at -j4, then a campaign whose two
  // cells share one key: the follower has no events of its own, and the
  // run totals still land in the registry.
  TempDir dir("registry_faulted");
  const auto faulted = resolveFaultCampaign(dir);
  {
    sweep::SweepTelemetry telemetry(sweep::TelemetryConfig{});
    TempDir storeDir("registry_faulted_store");
    sweep::CampaignStore store(storeDir.path());
    sweep::SweepOptions options;
    options.jobs = 4;
    options.telemetry = &telemetry;
    const auto outcome = sweep::runSweep(faulted, store, options);
    telemetry.finish();
    EXPECT_EQ(outcome.computed, 6u);
    expectRegistryMatchesOutcome(telemetry.runtime(), outcome);
  }
  const auto dup =
      resolveTestCampaign("name dup\napp example\nconfig A\nconfig A\n");
  sweep::SweepTelemetry telemetry(sweep::TelemetryConfig{});
  TempDir storeDir("registry_dedup_store");
  sweep::CampaignStore store(storeDir.path());
  sweep::SweepOptions options;
  options.jobs = 2;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(dup, store, options);
  telemetry.finish();
  EXPECT_EQ(outcome.computed, 2u);
  expectRegistryMatchesOutcome(telemetry.runtime(), outcome);
  EXPECT_DOUBLE_EQ(counterValue(telemetry.runtime(), "store.cell_commits"),
                   1);  // one evaluation, one commit
}

TEST(Postmortem, ReconstructsInFlightCellsFromTornJournal) {
  // A journal as a SIGKILLed -j2 run leaves it: two claims open, one
  // commit, one failure, and a torn final line.
  const std::string journal =
      "{\"t\":0.0,\"event\":\"journal_start\",\"schema\":\"iop-journal/1\","
      "\"unix_ms\":1700000000000,\"pid\":4242}\n"
      "{\"t\":0.1,\"event\":\"campaign_start\",\"campaign\":\"pm-test\","
      "\"config\":\"deadbeefdeadbeef\",\"jobs\":2}\n"
      "{\"t\":0.2,\"event\":\"exec_start\",\"cells\":6,\"cached\":1,"
      "\"shared\":0,\"pending\":5,\"workers\":2}\n"
      "{\"t\":0.2,\"event\":\"cache_hit\",\"cell\":\"m @ A\",\"key\":\"k0\"}\n"
      "{\"t\":0.3,\"event\":\"worker_spawn\",\"worker\":0}\n"
      "{\"t\":0.3,\"event\":\"cell_claim\",\"worker\":0,\"cell\":\"m @ B\","
      "\"key\":\"k1\"}\n"
      "{\"t\":0.3,\"event\":\"worker_spawn\",\"worker\":1}\n"
      "{\"t\":0.4,\"event\":\"cell_claim\",\"worker\":1,\"cell\":\"m @ C\","
      "\"key\":\"k2\"}\n"
      "{\"t\":0.9,\"event\":\"cell_commit\",\"worker\":0,\"cell\":\"m @ B\","
      "\"key\":\"k1\",\"seconds\":0.6,\"commit_seconds\":0.01,"
      "\"time_io\":12.5,\"ior_runs\":2,\"faulted\":false}\n"
      "{\"t\":1.0,\"event\":\"cell_claim\",\"worker\":0,\"cell\":\"m @ D\","
      "\"key\":\"k3\"}\n"
      "{\"t\":1.1,\"event\":\"cell_failed\",\"worker\":1,\"cell\":\"m @ C\","
      "\"key\":\"k2\",\"seconds\":0.7,\"error\":\"boom\"}\n"
      "{\"t\":1.2,\"event\":\"cell_claim\",\"worker\":1,\"cell\":\"m @ E\","
      "\"key\":\"k4\"}\n"
      "{\"t\":1.3,\"event\":\"cell_com";  // torn by the kill
  const auto pm = sweep::analyzeJournal(obs::parseJournal(journal));
  EXPECT_EQ(pm.schema, "iop-journal/1");
  EXPECT_EQ(pm.pid, 4242);
  EXPECT_EQ(pm.campaign, "pm-test");
  EXPECT_EQ(pm.jobs, 2);
  EXPECT_EQ(pm.cells, 6u);
  EXPECT_EQ(pm.pending, 5u);
  EXPECT_EQ(pm.workers, 2u);
  EXPECT_EQ(pm.cacheHits, 1u);
  EXPECT_EQ(pm.claims, 4u);
  EXPECT_EQ(pm.commits, 1u);
  EXPECT_EQ(pm.failures, 1u);
  EXPECT_EQ(pm.badLines, 1u);
  EXPECT_FALSE(pm.complete);
  EXPECT_EQ(pm.lastEventName, "cell_claim");
  ASSERT_EQ(pm.inFlight.size(), 2u);  // claimed, never resolved
  EXPECT_EQ(pm.inFlight[0].cell, "m @ D");
  EXPECT_EQ(pm.inFlight[0].worker, 0u);
  EXPECT_EQ(pm.inFlight[1].cell, "m @ E");
  EXPECT_EQ(pm.inFlight[1].worker, 1u);

  const std::string report = sweep::renderPostmortem(pm, "j.jsonl");
  EXPECT_NE(report.find("INCOMPLETE"), std::string::npos);
  EXPECT_NE(report.find("m @ D"), std::string::npos);
  EXPECT_NE(report.find("m @ E"), std::string::npos);
  EXPECT_NE(report.find("resume"), std::string::npos);

  // A journal ending in run_complete analyzes as complete.
  const auto done = sweep::analyzeJournal(obs::parseJournal(
      "{\"t\":0.0,\"event\":\"journal_start\",\"schema\":\"iop-journal/1\","
      "\"unix_ms\":1,\"pid\":1}\n"
      "{\"t\":0.5,\"event\":\"run_complete\",\"cells\":6,\"cache_hits\":1,"
      "\"shared_hits\":0,\"computed\":5,\"failures\":0,\"skipped\":0,"
      "\"quarantined\":0,\"interrupted\":false,\"wall_seconds\":0.5}\n"));
  EXPECT_TRUE(done.complete);
  EXPECT_FALSE(done.interrupted);
  const std::string okReport = sweep::renderPostmortem(done, "j.jsonl");
  EXPECT_NE(okReport.find("run complete"), std::string::npos);
}

TEST(Postmortem, NewestJournalPicksLargestTimestamp) {
  TempDir dir("journal_pick");
  const auto journalDir = dir.path() / "journal";
  std::filesystem::create_directories(journalDir);
  EXPECT_EQ(sweep::newestJournal(dir.path()), std::filesystem::path{});
  std::ofstream(journalDir / "run-999-1.jsonl") << "";
  std::ofstream(journalDir / "run-1700000000001-9.jsonl") << "";
  std::ofstream(journalDir / "run-1700000000002-3.jsonl") << "";
  std::ofstream(journalDir / "notes.txt") << "";  // ignored
  EXPECT_EQ(sweep::newestJournal(dir.path()).filename().string(),
            "run-1700000000002-3.jsonl");
}

TEST(Postmortem, HostileJournalsNeverCrash) {
  // Numbers no integer field can hold read as absent, and a line whose
  // `t` is not finite is a bad line (in-flight cells are sorted by it).
  const auto hostile = sweep::analyzeJournal(obs::parseJournal(
      "{\"t\":0.0,\"event\":\"journal_start\",\"schema\":\"iop-journal/1\","
      "\"unix_ms\":1e300,\"pid\":1e300}\n"
      "{\"t\":0.1,\"event\":\"campaign_start\",\"campaign\":\"h\","
      "\"jobs\":-99999999999999999999}\n"
      "{\"t\":0.2,\"event\":\"exec_start\",\"cells\":nan,\"pending\":-1,"
      "\"workers\":2.5}\n"
      "{\"t\":0.3,\"event\":\"cell_claim\",\"worker\":-5,\"cell\":\"a\","
      "\"key\":\"k0\"}\n"
      "{\"t\":nan,\"event\":\"cell_claim\",\"worker\":1,\"cell\":\"b\","
      "\"key\":\"k1\"}\n"
      "{\"t\":inf,\"event\":\"cell_claim\",\"worker\":1,\"cell\":\"c\","
      "\"key\":\"k2\"}\n"
      "{\"t\":0.4,\"event\":\"cells_skipped\",\"count\":1e19}\n"));
  EXPECT_EQ(hostile.badLines, 2u);
  EXPECT_EQ(hostile.startUnixMs, 0);
  EXPECT_EQ(hostile.pid, 0);
  EXPECT_EQ(hostile.jobs, 0);
  EXPECT_EQ(hostile.cells, 0u);
  EXPECT_EQ(hostile.pending, 0u);
  EXPECT_EQ(hostile.workers, 0u);
  EXPECT_EQ(hostile.skippedCells, 0u);
  ASSERT_EQ(hostile.inFlight.size(), 1u);
  EXPECT_EQ(hostile.inFlight[0].worker, 0u);
  EXPECT_FALSE(sweep::renderPostmortem(hostile, "h.jsonl").empty());

  // A real -j2 journal: every truncation and every single-bit flip goes
  // through parse -> analyze -> render without crashing (the sanitizer
  // flavors turn any undefined conversion into a failure).
  const auto campaign = resolveTestCampaign(
      "name pm-corpus\napp example\nconfig A\nconfig B\n"
      "degrade-disks 1 4\n");
  TempDir dir("postmortem_corpus");
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  sweep::SweepTelemetry telemetry(config);
  telemetry.campaignStart(campaign.spec.name, "0123456789abcdef", 2);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 2;
  options.telemetry = &telemetry;
  sweep::runSweep(campaign, store, options);
  telemetry.finish();
  const std::string full = readFileText(config.journalPath);
  const auto whole = sweep::analyzeJournal(obs::parseJournal(full));
  ASSERT_TRUE(whole.complete);
  ASSERT_EQ(whole.commits, 4u);

  std::size_t survived = 0;
  const auto digest = [&survived](const std::string& text) {
    const auto pm = sweep::analyzeJournal(obs::parseJournal(text));
    survived += sweep::renderPostmortem(pm, "corpus.jsonl").empty() ? 0 : 1;
    return pm;
  };
  for (std::size_t len = 0; len < full.size(); ++len) {
    const auto pm = digest(full.substr(0, len));
    EXPECT_LE(pm.commits, whole.commits);
  }
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      digest(flipped);
    }
  }
  EXPECT_EQ(survived, full.size() * 9);
}

/// Set an environment variable for the lifetime of one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

/// Journal events named `name`.
std::size_t journalEvents(const std::string& path, const std::string& name) {
  std::size_t count = 0;
  for (const auto& event : obs::loadJournal(path).events) {
    count += event.name == name ? 1 : 0;
  }
  return count;
}

TEST(SweepWatchdog, SoftDeadlineJournalsSlowCellsWithoutFailingThem) {
  // One cell, delayed 300ms past a 50ms soft deadline: the run journals
  // cell_slow (and bumps the slow-cell instruments) but the cell still
  // commits normally.
  const auto campaign =
      resolveTestCampaign("name tiny\napp example\nconfig A\n");
  ASSERT_EQ(campaign.planCells().size(), 1u);
  TempDir dir("watchdog_soft");
  ScopedEnv delay("IOP_SWEEP_TEST_CELL_DELAY_ONCE_MS", "300");
  auto& profiler = obs::Profiler::global();
  const std::uint64_t attemptsBefore = profiler.stats()["sweep.cell"].calls;

  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  sweep::SweepTelemetry telemetry(config);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.softDeadlineSeconds = 0.05;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  // Every attempt has ended by the time runSweep returns.
  EXPECT_EQ(profiler.stats()["sweep.cell"].calls, attemptsBefore + 1);
  telemetry.finish();

  EXPECT_EQ(outcome.computed, 1u);
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_EQ(outcome.stuck, 0u);
  const std::string journal = readFileText(config.journalPath);
  EXPECT_NE(journal.find("cell_slow"), std::string::npos);
  EXPECT_EQ(journal.find("cell_stuck"), std::string::npos);
  const auto* slow = telemetry.runtime().findCounter("sweep.cells_slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->value(), 1u);
}

TEST(SweepWatchdog, SoftDeadlineFiresInsideTheSimulation) {
  // No stall: only the engines' dispatch-loop polls can notice the soft
  // deadline.  The callback fires once, from inside the evaluation, and
  // neither it nor the armed, never-reached hard deadline changes a byte.
  const auto campaign =
      resolveTestCampaign("name tiny\napp example\nconfig A\n");
  TempDir plain("watchdog_soft_off");
  sweep::CampaignStore plainStore(plain.path());
  sweep::runSweep(campaign, plainStore, {});

  TempDir dir("watchdog_soft_sim");
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  sweep::SweepTelemetry telemetry(config);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.softDeadlineSeconds = 1e-9;
  options.hardDeadlineSeconds = 3600;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  telemetry.finish();

  EXPECT_EQ(outcome.computed, 1u);
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_EQ(journalEvents(config.journalPath, "cell_slow"), 1u);
  const auto* slowNow = telemetry.runtime().findGauge("sweep.slow_cells");
  ASSERT_NE(slowNow, nullptr);
  EXPECT_EQ(slowNow->value(), 0.0);
  EXPECT_EQ(snapshotResults(dir.path()), snapshotTree(plain.path()));
}

TEST(SweepWatchdog, HardDeadlineAbandonsOnceThenRetrySucceeds) {
  // Attempt 1 sleeps 2s against a 1.5s hard deadline and is stopped
  // there; the retry (no delay; the deadline leaves room for the TSan
  // build's ~0.7s evaluation) succeeds, so the run completes with
  // stuck=1, no failures, a quarantine marker, and — the core invariant —
  // a store byte-identical to one written with the watchdog off.
  const auto campaign =
      resolveTestCampaign("name tiny\napp example\nconfig A\n");
  TempDir plain("watchdog_off");
  sweep::CampaignStore plainStore(plain.path());
  sweep::runSweep(campaign, plainStore, {});

  TempDir dir("watchdog_hard");
  ScopedEnv delay("IOP_SWEEP_TEST_CELL_DELAY_ONCE_MS", "2000");
  auto& profiler = obs::Profiler::global();
  const std::uint64_t attemptsBefore = profiler.stats()["sweep.cell"].calls;
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  sweep::SweepTelemetry telemetry(config);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.hardDeadlineSeconds = 1.5;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  // Both attempts have ended by the time runSweep returns: nothing of the
  // stopped one is left running.
  EXPECT_EQ(profiler.stats()["sweep.cell"].calls, attemptsBefore + 2);
  telemetry.finish();

  EXPECT_EQ(outcome.stuck, 1u);
  EXPECT_EQ(outcome.computed, 1u);
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_EQ(outcome.cells[0].status,
            sweep::CellOutcome::Status::Computed);
  const std::string key = campaign.planCells()[0].key;
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine" /
                                      (key + ".stuck.1")));

  // Byte-identical store, the stuck marker and journal aside.
  EXPECT_EQ(snapshotResults(dir.path()), snapshotTree(plain.path()));

  // The journal records the abandonment and the postmortem counts it
  // without leaving the claim open.
  const std::string journal = readFileText(config.journalPath);
  EXPECT_NE(journal.find("cell_stuck"), std::string::npos);
  const auto pm =
      sweep::analyzeJournal(obs::loadJournal(config.journalPath));
  EXPECT_EQ(pm.stuck, 1u);
  EXPECT_TRUE(pm.inFlight.empty());
  const auto* stuck = telemetry.runtime().findCounter("sweep.cells_stuck");
  ASSERT_NE(stuck, nullptr);
  EXPECT_EQ(stuck->value(), 1u);
}

TEST(SweepWatchdog, SecondTimeoutFailsTheCellTerminally) {
  // Both attempts overrun the deadline: the cell fails with a "stuck"
  // error instead of retrying forever, and the registry counts the
  // failure like any other.
  const auto campaign =
      resolveTestCampaign("name tiny\napp example\nconfig A\n");
  TempDir dir("watchdog_terminal");
  ScopedEnv delay("IOP_SWEEP_TEST_CELL_DELAY_MS", "500");
  auto& profiler = obs::Profiler::global();
  const std::uint64_t attemptsBefore = profiler.stats()["sweep.cell"].calls;
  sweep::SweepTelemetry telemetry(sweep::TelemetryConfig{});
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.hardDeadlineSeconds = 0.1;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(profiler.stats()["sweep.cell"].calls, attemptsBefore + 2);
  telemetry.finish();
  expectRegistryMatchesOutcome(telemetry.runtime(), outcome);
  EXPECT_NE(telemetry.runtime().renderProm().find(
                "iop_sweep_failures_total 1\n"),
            std::string::npos);

  EXPECT_EQ(outcome.stuck, 2u);  // both attempts
  EXPECT_EQ(outcome.failures, 1u);
  EXPECT_EQ(outcome.cells[0].status, sweep::CellOutcome::Status::Failed);
  EXPECT_NE(outcome.cells[0].error.find("stuck"), std::string::npos);
  const std::string key = campaign.planCells()[0].key;
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine" /
                                      (key + ".stuck.2")));
}

TEST(SweepWatchdog, HardDeadlineStopsASimulatingFaultedCell) {
  // No stall: the engine's dispatch-loop poll stops the simulation, and
  // the degraded estimator lets the deadline through instead of
  // committing it as a failed fault replica.
  TempDir dir("watchdog_faulted");
  writeFile(dir.path(), "flaky.fault", kFlakyPlanText);
  const auto campaign = sweep::resolveCampaign(sweep::parseCampaign(
      "name stuck-fault\napp example\nconfig A\n"
      "faultplan file=flaky.fault\n",
      dir.path()));
  ASSERT_EQ(campaign.planCells().size(), 1u);
  ASSERT_TRUE(campaign.planCells()[0].faulted());
  const std::string key = campaign.planCells()[0].key;

  sweep::CampaignStore store(dir.path() / "store");
  sweep::SweepOptions options;
  options.hardDeadlineSeconds = 1e-6;
  const auto outcome = sweep::runSweep(campaign, store, options);

  EXPECT_EQ(outcome.stuck, 2u);
  EXPECT_EQ(outcome.failures, 1u);
  EXPECT_EQ(outcome.cells[0].status, sweep::CellOutcome::Status::Failed);
  EXPECT_NE(outcome.cells[0].error.find("stuck"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(store.cellPath(key)));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "store" / "quarantine" /
                                      (key + ".stuck.1")));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "store" / "quarantine" /
                                      (key + ".stuck.2")));
}

#ifdef __linux__
TEST(RuntimeTelemetry, JournalDisablesItselfOnDiskFullInsteadOfThrowing) {
  // /dev/full accepts the open and fails every flush with ENOSPC — the
  // exact failure mode the journal must absorb: one stderr warning, the
  // disabled flag, and the run carries on.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  obs::RunJournal journal("/dev/full");
  journal.event("campaign_start", "\"campaign\":\"x\"");
  EXPECT_TRUE(journal.disabled());
  journal.event("cell_commit");  // silently dropped, no throw
  EXPECT_TRUE(journal.disabled());
}

TEST(RuntimeTelemetry, SweepSurvivesJournalOnFullDisk) {
  // End to end: a full-disk journal never fails the campaign, and the
  // one-time sweep.journal_disabled counter records that it happened.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const auto campaign = resolveTestCampaign();
  TempDir dir("journal_enospc");
  sweep::TelemetryConfig config;
  config.journalPath = "/dev/full";
  sweep::SweepTelemetry telemetry(config);
  telemetry.campaignStart(campaign.spec.name, "cfg", 2);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 2;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  telemetry.finish();

  EXPECT_EQ(outcome.computed, 12u);
  EXPECT_EQ(outcome.failures, 0u);
  ASSERT_NE(telemetry.journal(), nullptr);
  EXPECT_TRUE(telemetry.journal()->disabled());
  const auto* disabled =
      telemetry.runtime().findCounter("sweep.journal_disabled");
  ASSERT_NE(disabled, nullptr);
  EXPECT_EQ(disabled->value(), 1u);  // noted once, not once per event
}
#endif  // __linux__

}  // namespace
