// Edge cases and error paths across modules: the inputs a downstream user
// will eventually feed the library by accident.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "core/lap.hpp"
#include "core/offsetfn.hpp"
#include "ior/ior.hpp"
#include "monitor/monitor.hpp"
#include "storage/disk.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "storage/blockdev.hpp"
#include "storage/cache.hpp"
#include "storage/filesystem.hpp"
#include "storage/topology.hpp"
#include "util/units.hpp"

namespace iop {
namespace {

using iop::util::KiB;
using iop::util::MiB;

// ------------------------------------------------------------------- sim

TEST(EngineEdge, DrainToleratesBlockedDaemons) {
  sim::Engine eng;
  sim::Event never(eng);
  eng.spawn([](sim::Event& ev) -> sim::Task<void> {
    co_await ev.wait();  // blocks forever
  }(never));
  eng.spawn([](sim::Engine& e) -> sim::Task<void> {
    co_await e.delay(1.0);
  }(eng));
  EXPECT_NO_THROW(eng.drain());  // run() would report a deadlock
  EXPECT_EQ(eng.liveProcesses(), 1);
}

TEST(EngineEdge, SpawnAtPastTimeClampsToNow) {
  sim::Engine eng;
  double ranAt = -1;
  eng.spawn([](sim::Engine& e) -> sim::Task<void> {
    co_await e.delay(5.0);
  }(eng));
  eng.runUntil(3.0);
  eng.spawnAt(1.0, [](sim::Engine& e, double& at) -> sim::Task<void> {
    at = e.now();
    co_return;
  }(eng, ranAt));
  eng.run();
  EXPECT_DOUBLE_EQ(ranAt, 3.0);  // not in the past
}

TEST(EngineEdge, RunUntilExactEventTimeIncludesEvent) {
  sim::Engine eng;
  bool ran = false;
  eng.spawn([](sim::Engine& e, bool& ran) -> sim::Task<void> {
    co_await e.delay(2.0);
    ran = true;
  }(eng, ran));
  eng.runUntil(2.0);
  EXPECT_TRUE(ran);
}

TEST(CondVarEdge, NotifyWithoutWaitersIsNoop) {
  sim::Engine eng;
  sim::CondVar cv(eng);
  cv.notifyAll();
  EXPECT_EQ(cv.waiterCount(), 0u);
  eng.run();
}

TEST(CondVarEdge, WaitersRecheckPredicate) {
  sim::Engine eng;
  sim::CondVar cv(eng);
  int value = 0;
  int observed = -1;
  eng.spawn([](sim::CondVar& cv, int& value, int& observed)
                -> sim::Task<void> {
    while (value < 3) co_await cv.wait();
    observed = value;
  }(cv, value, observed));
  eng.spawn([](sim::Engine& e, sim::CondVar& cv, int& value)
                -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.delay(1.0);
      ++value;
      cv.notifyAll();  // spurious for the first two
    }
  }(eng, cv, value));
  eng.run();
  EXPECT_EQ(observed, 3);
}

// --------------------------------------------------------------- storage

TEST(ConcatEdge, RequestCrossingMemberBoundarySplits) {
  sim::Engine eng;
  storage::DiskParams dp;
  std::vector<storage::DiskParams> members{dp, dp};
  storage::Concat jbod(eng, members, 10 * MiB);
  eng.spawn([](storage::Concat& dev) -> sim::Task<void> {
    co_await dev.access(9 * MiB, 2 * MiB, storage::IoOp::Write);
  }(jbod));
  eng.run();
  std::vector<storage::Disk*> disks;
  jbod.collectDisks(disks);
  EXPECT_EQ(disks[0]->counters().bytesWritten, MiB);
  EXPECT_EQ(disks[1]->counters().bytesWritten, MiB);
}

TEST(DiskEdge, SeqWindowBoundaryIsInclusive) {
  sim::Engine eng;
  storage::DiskParams dp;
  dp.seqWindow = 1000;
  storage::Disk disk(eng, dp);
  eng.spawn([](storage::Disk& d) -> sim::Task<void> {
    co_await d.access(0, 500, storage::IoOp::Read);
    co_await d.access(500 + 1000, 500, storage::IoOp::Read);  // at window
    co_await d.access(2000 + 1001, 500, storage::IoOp::Read);  // past it
  }(disk));
  eng.run();
  EXPECT_EQ(disk.counters().positionEvents, 1u);
}

TEST(CacheEdge, WriteThroughReachesDeviceSynchronously) {
  sim::Engine eng;
  storage::DiskParams dp;
  dp.seqWriteBw = 100.0e6;
  dp.perRequestOverhead = 0;
  storage::SingleDisk dev(eng, dp);
  storage::CacheParams cp;
  cp.writeThrough = true;
  storage::PageCache cache(eng, dev, cp);
  double done = -1;
  eng.spawn([](sim::Engine& e, storage::PageCache& c, double& done)
                -> sim::Task<void> {
    co_await c.write(0, 10 * MiB);
    done = e.now();
  }(eng, cache, done));
  eng.run();  // no flusher daemon exists in write-through mode
  EXPECT_GE(done, 10.0 * MiB / 100.0e6);
  EXPECT_EQ(dev.disk().counters().bytesWritten, 10 * MiB);
  EXPECT_EQ(cache.dirtyBytes(), 0u);
}

TEST(CacheEdge, WriteThroughStillServesReadHits) {
  sim::Engine eng;
  storage::SingleDisk dev(eng, storage::DiskParams{});
  storage::CacheParams cp;
  cp.writeThrough = true;
  storage::PageCache cache(eng, dev, cp);
  eng.spawn([](storage::PageCache& c) -> sim::Task<void> {
    co_await c.write(0, MiB);
    co_await c.read(0, MiB);
    EXPECT_EQ(c.readMissBytes(), 0u);
  }(cache));
  eng.run();
}

TEST(StripedEdge, FilePlacementRotatesFirstServer) {
  sim::Engine eng;
  storage::Topology topo(eng);
  std::vector<storage::IoServer*> ions;
  for (int i = 0; i < 3; ++i) {
    auto& node = topo.addNode("ion" + std::to_string(i),
                              storage::gigabitEthernet());
    ions.push_back(&topo.addServer(
        node,
        std::make_unique<storage::SingleDisk>(eng, storage::DiskParams{}),
        storage::ServerParams{}));
  }
  storage::StripedParams params;
  params.stripeCount = 1;  // one server per file -> placement visible
  auto& fs = topo.mount("/p", std::make_unique<storage::StripedFS>(
                                  eng, ions, nullptr, params));
  auto& client = topo.addNode("c", storage::gigabitEthernet());
  eng.spawn([](storage::Topology& topo, storage::FileSystem& fs,
               storage::Node& client) -> sim::Task<void> {
    for (int fileId = 0; fileId < 3; ++fileId) {
      co_await fs.write(client, fileId, 0, MiB);
    }
    topo.shutdown();
  }(topo, fs, client));
  eng.run();
  for (auto* server : ions) {
    std::vector<storage::Disk*> disks;
    server->device().collectDisks(disks);
    EXPECT_GT(disks[0]->counters().bytesWritten, 0u)
        << server->node().name();
  }
}

TEST(MonitorEdge, TracksMultipleDisksIndependently) {
  sim::Engine eng;
  storage::DiskParams dp;
  dp.perRequestOverhead = 0;
  dp.positionTime = 0;
  storage::SingleDisk a(eng, dp);
  storage::SingleDisk b(eng, dp);
  monitor::DeviceMonitor mon(eng, {&a.disk(), &b.disk()}, 1.0);
  mon.start();
  eng.spawn([](storage::SingleDisk& a, storage::SingleDisk& b,
               monitor::DeviceMonitor& mon) -> sim::Task<void> {
    co_await a.access(0, 50000000, storage::IoOp::Write);
    co_await b.access(0, 50000000, storage::IoOp::Read);
    mon.stop();
  }(a, b, mon));
  eng.run();
  const auto& first = mon.samples().front();
  EXPECT_GT(first.disks[0].sectorsWrittenPerSec, 0);
  EXPECT_DOUBLE_EQ(first.disks[1].sectorsWrittenPerSec, 0);
}

TEST(FaultInjection, DegradedDiskSlowsRequests) {
  sim::Engine eng;
  storage::DiskParams dp;
  dp.seqReadBw = 100.0e6;
  dp.positionTime = 0;
  dp.perRequestOverhead = 0;
  storage::Disk disk(eng, dp);
  double healthy = 0, degraded = 0;
  eng.spawn([](sim::Engine& e, storage::Disk& d, double& healthy,
               double& degraded) -> sim::Task<void> {
    double t0 = e.now();
    co_await d.access(0, 10 * MiB, storage::IoOp::Read);
    healthy = e.now() - t0;
    d.setDegradation(4.0);
    t0 = e.now();
    co_await d.access(10 * MiB, 10 * MiB, storage::IoOp::Read);
    degraded = e.now() - t0;
    d.setDegradation(1.0);
  }(eng, disk, healthy, degraded));
  eng.run();
  EXPECT_NEAR(degraded, healthy * 4, 1e-9);
  EXPECT_THROW(disk.setDegradation(0.5), std::invalid_argument);
}

TEST(FaultInjection, StragglerMemberDragsDownTheArray) {
  // A RAID0 is as fast as its slowest member: degrade one disk 8x and the
  // striped array's large-request service time follows it.
  auto measure = [](double degradeFactor) {
    sim::Engine eng;
    storage::DiskParams dp;
    dp.seqReadBw = 100.0e6;
    dp.positionTime = 0;
    dp.perRequestOverhead = 0;
    std::vector<storage::DiskParams> members(4, dp);
    storage::Raid0 raid(eng, members, 256 * 1024);
    std::vector<storage::Disk*> disks;
    raid.collectDisks(disks);
    disks[2]->setDegradation(degradeFactor);
    double t = -1;
    eng.spawn([](sim::Engine& e, storage::Raid0& r, double& t)
                  -> sim::Task<void> {
      co_await r.access(0, 40 * MiB, storage::IoOp::Read);
      t = e.now();
    }(eng, raid, t));
    eng.run();
    return t;
  };
  const double healthy = measure(1.0);
  const double withStraggler = measure(8.0);
  EXPECT_NEAR(withStraggler, healthy * 8, healthy * 0.01);
}

TEST(FaultInjection, MonitorSpotsTheDegradedDisk) {
  // The iostat view makes the straggler obvious: it stays busy far longer
  // than its peers for the same per-member byte count.
  sim::Engine eng;
  storage::DiskParams dp;
  dp.positionTime = 0;
  dp.perRequestOverhead = 0;
  std::vector<storage::DiskParams> members(3, dp);
  storage::Raid0 raid(eng, members, 256 * 1024);
  std::vector<storage::Disk*> disks;
  raid.collectDisks(disks);
  disks[1]->setDegradation(6.0);
  monitor::DeviceMonitor mon(eng, disks, 0.5);
  mon.start();
  eng.spawn([](storage::Raid0& r, monitor::DeviceMonitor& mon)
                -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await r.access(static_cast<std::uint64_t>(i) * 30 * MiB, 30 * MiB,
                        storage::IoOp::Write);
    }
    mon.stop();
  }(raid, mon));
  eng.run();
  double busy[3] = {0, 0, 0};
  for (const auto& sample : mon.samples()) {
    for (int d = 0; d < 3; ++d) busy[d] += sample.disks[d].utilization;
  }
  EXPECT_GT(busy[1], busy[0] * 3);
  EXPECT_GT(busy[1], busy[2] * 3);
}

// ------------------------------------------------------------------ core

TEST(SegmentEdge, MaxCycleOneDisablesCycleDetection) {
  std::vector<trace::Record> recs;
  for (int i = 0; i < 6; ++i) {
    trace::Record r;
    r.rank = 0;
    r.fileId = 1;
    r.op = i % 2 == 0 ? "MPI_File_read" : "MPI_File_write";
    r.offsetUnits = static_cast<std::uint64_t>(i / 2) * 100;
    r.tick = static_cast<std::uint64_t>(i) + 1;
    r.requestBytes = 100;
    recs.push_back(r);
  }
  core::SegmentOptions opt;
  opt.maxCycle = 1;
  auto segs = core::segmentRecords(recs, opt);
  EXPECT_EQ(segs.size(), 6u);  // no (R,W) cycle allowed
  opt.maxCycle = 2;
  EXPECT_EQ(core::segmentRecords(recs, opt).size(), 1u);
}

TEST(SegmentEdge, EmptyInputGivesNoSegments) {
  EXPECT_TRUE(core::segmentRecords({}).empty());
  EXPECT_TRUE(core::extractLaps({}).empty());
}

TEST(SegmentEdge, InvalidMaxCycleRejected) {
  std::vector<trace::Record> recs(1);
  recs[0].op = "MPI_File_write";
  core::SegmentOptions opt;
  opt.maxCycle = 0;
  EXPECT_THROW(core::segmentRecords(recs, opt), std::invalid_argument);
}

TEST(OffsetFnEdge, RendersIrregularAndZero) {
  core::OffsetFn irregular;
  EXPECT_EQ(irregular.render(1024, 4), "(irregular)");
  core::OffsetFn zero;
  zero.exact = true;
  EXPECT_EQ(zero.render(1024, 4), "0");
}

TEST(OffsetFnEdge, EvalClampsNegativeToZero) {
  core::OffsetFn fn;
  fn.exact = true;
  fn.aBytes = -100;
  fn.bBytes = 50;
  EXPECT_EQ(fn.eval(3, 0), 0u);
}

TEST(OffsetFnEdge, FitRejectsEmptyAndMismatchedInput) {
  EXPECT_THROW(core::fitRankOffsets({}, {}), std::invalid_argument);
  EXPECT_THROW(core::fitRankOffsets({0, 1}, {5}), std::invalid_argument);
  EXPECT_THROW(core::fitPhaseFamily({}), std::invalid_argument);
}

TEST(ModelEdge, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(core::IOModel::load("/nonexistent/m.model"),
               std::runtime_error);
  const auto path =
      std::filesystem::temp_directory_path() / "malformed.model";
  {
    std::ofstream out(path);
    out << "# iop-model v1\napp broken\n";  // no np
  }
  EXPECT_THROW(core::IOModel::load(path), std::runtime_error);
  std::filesystem::remove(path);
}

/// IOModel::load must reject `text` with a diagnostic naming `where`
/// (path:line) and carrying `why`.
void expectModelLoadError(const std::string& text, const std::string& where,
                          const std::string& why) {
  // One file per test: ctest runs the tests that call this in parallel
  // processes, which must not overwrite each other's model.
  const auto path =
      std::filesystem::temp_directory_path() /
      (std::string("iop_edge_hostile_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() +
       ".model");
  {
    std::ofstream out(path);
    out << text;
  }
  try {
    core::IOModel::load(path);
    ADD_FAILURE() << "loaded a damaged model:\n" << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path.string() + ":" + where + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

constexpr const char* kModelHead =
    "# iop-model v1\n"
    "app m\n"
    "np 2\n"
    "phase 1 1 1 0 0 1 1 0 1 1 1 1 200\n"
    "ranks 1 0 1\n";

TEST(ModelEdge, LoadRejectsOpsWithTooFewOffsetsForTheirRanks) {
  // The estimators index initOffsetBytes by rank position; one offset for
  // two ranks would be read out of bounds.
  expectModelLoadError(std::string(kModelHead) +
                           "op 1 0 MPI_File_write 100 0 1 0 100 0 0\n",
                       "6", "1 initial offsets for the 2 ranks of phase 1");
}

TEST(ModelEdge, LoadRejectsLinesNamingUnknownPhases) {
  expectModelLoadError(std::string(kModelHead) + "ranks 7 0 1\n", "6",
                       "unknown phase 7");
  expectModelLoadError(std::string(kModelHead) +
                           "op 7 0 MPI_File_write 100 0 1 0 100 0 0 100\n",
                       "6", "unknown phase 7");
  expectModelLoadError(std::string(kModelHead) +
                           "phase 1 1 1 0 0 1 1 0 1 1 1 1 200\n",
                       "6", "duplicate phase 1");
}

TEST(ModelEdge, LoadNamesTheLineOfABadNumber) {
  expectModelLoadError("app m\nnp 2\nphase 1 1 banana\n", "3",
                       "malformed model record");
  expectModelLoadError("app m\nnp 2\nphase 1 1 1\n", "3",
                       "malformed model record");
}

TEST(ModelEdge, LoadAcceptsASavedModelUnchanged) {
  const auto path =
      std::filesystem::temp_directory_path() / "iop_edge_valid.model";
  {
    std::ofstream out(path);
    out << kModelHead << "op 1 0 MPI_File_write 100 0 1 0 100 0 0 100\n";
  }
  const auto model = core::IOModel::load(path);
  std::filesystem::remove(path);
  ASSERT_EQ(model.phases().size(), 1u);
  EXPECT_EQ(model.phases()[0].ranks, (std::vector<int>{0, 1}));
  EXPECT_EQ(model.phases()[0].ops[0].initOffsetBytes,
            (std::vector<std::uint64_t>{0, 100}));
}

TEST(ModelEdge, EmptyTraceYieldsEmptyModel) {
  trace::TraceData data;
  data.appName = "empty";
  data.np = 2;
  data.perRank.resize(2);
  data.commEventsPerRank.assign(2, 0);
  auto model = core::extractModel(data);
  EXPECT_TRUE(model.phases().empty());
  EXPECT_EQ(model.totalWeightBytes(), 0u);
  EXPECT_FALSE(model.renderSummary().empty());
}

// ------------------------------------------------------------------- ior

TEST(IorEdge, MultiSegmentOffsetsStayDisjoint) {
  auto cfg = configs::makeConfig(configs::ConfigId::A);
  trace::Tracer tracer("ior", 2);
  ior::IorParams p;
  p.mount = cfg.mount;
  p.np = 2;
  p.segments = 2;
  p.blockSize = 4 * MiB;
  p.transferSize = 2 * MiB;
  p.doRead = false;
  ior::runIor(cfg, p, &tracer);
  // Segment layout: s*np*b + r*b + i*t — all offsets distinct.
  std::set<std::uint64_t> offsets;
  for (const auto& recs : tracer.data().perRank) {
    for (const auto& rec : recs) offsets.insert(rec.offsetUnits);
  }
  EXPECT_EQ(offsets.size(), 8u);  // 2 ranks * 2 segments * 2 transfers
}

TEST(IorEdge, ReadOnlyModeStillHasDataToRead) {
  // doWrite is forced on when reads are requested (data must exist), so
  // a "read-only" configuration measures only the read pass.
  auto cfg = configs::makeConfig(configs::ConfigId::A);
  ior::IorParams p;
  p.mount = cfg.mount;
  p.np = 2;
  p.blockSize = 4 * MiB;
  p.transferSize = MiB;
  p.doWrite = true;
  p.doRead = true;
  auto r = ior::runIor(cfg, p);
  EXPECT_GT(r.readTimeSec, 0.0);
}

// ----------------------------------------------------------------- units

TEST(UnitsEdge, FormatApproxScalesAllMagnitudes) {
  EXPECT_EQ(util::formatBytesApprox(512), "512.00B");
  EXPECT_EQ(util::formatBytesApprox(1536), "1.50KB");
  EXPECT_EQ(util::formatBytesApprox(3ull * 1024 * 1024 * 1024 * 1024 / 2),
            "1.50TB");
}

}  // namespace
}  // namespace iop
