// Property-based tests (parameterized gtest): invariants that must hold
// for *any* workload, checked over randomized inputs.
//
//  * Phase detection: conservation of bytes, SPMD coverage, exactness of
//    fitted offset functions, ordering, and save/load round-trips — over
//    randomly generated application schedules.
//  * IOR: accounting and bandwidth sanity over the full parameter cross
//    product (config x collective x unique).
//  * Storage: payload conservation through cache + array onto disks.
//  * Determinism: identical seeds give identical simulations.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "analysis/runner.hpp"
#include "analysis/synthesize.hpp"
#include "apps/registry.hpp"
#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "core/lap.hpp"
#include "core/phase.hpp"
#include "ior/ior.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "storage/blockdev.hpp"
#include "storage/cache.hpp"
#include "trace/tracefile.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace iop {
namespace {

using iop::util::KiB;
using iop::util::MiB;

// ---------------------------------------------------------------- phases

/// Generate a random SPMD application trace: every rank executes the same
/// random sequence of bursts; each burst is a repeated op with a
/// rank-linear base offset, either tick-contiguous or separated by
/// communication events.
trace::TraceData randomTrace(std::uint64_t seed) {
  util::Rng rng(seed);
  const int np = 2 + static_cast<int>(rng.below(7));  // 2..8 ranks
  const int bursts = 1 + static_cast<int>(rng.below(6));

  struct Burst {
    const char* op;
    std::uint64_t rs;
    std::uint64_t rep;
    std::uint64_t rankStride;  // multiples of rs between rank bases
    bool contiguousTicks;
    std::uint64_t base;
  };
  static const char* kOps[] = {"MPI_File_write", "MPI_File_read",
                               "MPI_File_write_at_all",
                               "MPI_File_read_at_all"};
  static const std::uint64_t kSizes[] = {64 * KiB, 1 * MiB, 10 * MiB};

  std::vector<Burst> plan;
  std::uint64_t base = 0;
  for (int b = 0; b < bursts; ++b) {
    Burst burst;
    burst.op = kOps[rng.below(4)];
    burst.rs = kSizes[rng.below(3)];
    burst.rep = 1 + rng.below(9);
    burst.rankStride = rng.below(3) * 4;  // 0, 4 or 8 request sizes
    burst.contiguousTicks = rng.below(2) == 0;
    burst.base = base;
    base += burst.rs * burst.rep * static_cast<std::uint64_t>(np) * 16;
    plan.push_back(burst);
  }

  trace::TraceData data;
  data.appName = "random-" + std::to_string(seed);
  data.np = np;
  data.perRank.resize(static_cast<std::size_t>(np));
  data.commEventsPerRank.assign(static_cast<std::size_t>(np), 0);
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.path = "random.dat";
  meta.np = np;
  data.files.push_back(meta);

  for (int r = 0; r < np; ++r) {
    std::uint64_t tick = 1;
    double time = 0;
    auto& recs = data.perRank[static_cast<std::size_t>(r)];
    for (const auto& burst : plan) {
      const std::uint64_t rankBase =
          burst.base +
          burst.rankStride * burst.rs * static_cast<std::uint64_t>(r);
      for (std::uint64_t m = 0; m < burst.rep; ++m) {
        trace::Record rec;
        rec.rank = r;
        rec.fileId = 1;
        rec.op = burst.op;
        rec.offsetUnits = rankBase + m * burst.rs;
        rec.tick = tick;
        rec.requestBytes = burst.rs;
        rec.time = time;
        rec.duration = 0.05;
        recs.push_back(std::move(rec));
        tick += burst.contiguousTicks ? 1 : 7;  // 7: comm in between
        time += 0.1;
      }
      tick += 3;  // bursts always separated by some MPI activity
      time += 1.0;
    }
  }
  return data;
}

class PhaseProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhaseProperties, WeightsConserveTracedBytes) {
  auto data = randomTrace(GetParam());
  auto model = core::extractModel(data);
  EXPECT_EQ(model.totalWeightBytes(), data.totalBytes());
}

TEST_P(PhaseProperties, PhasesPartitionEachRanksRecords) {
  // A phase may cover a subset of the ranks (the paper: "a number of
  // processes of the parallel application") — e.g. when one rank's
  // adjacent bursts coincidentally continue the same stride and merge.
  // But collectively the phases must account for every rank's traced
  // operations exactly once.
  auto data = randomTrace(GetParam());
  auto model = core::extractModel(data);
  std::vector<std::uint64_t> opsPerRank(
      static_cast<std::size_t>(data.np), 0);
  for (const auto& phase : model.phases()) {
    std::set<int> ranks(phase.ranks.begin(), phase.ranks.end());
    EXPECT_EQ(ranks.size(), phase.ranks.size()) << "phase " << phase.id;
    EXPECT_FALSE(phase.ranks.empty());
    for (int r : phase.ranks) {
      opsPerRank[static_cast<std::size_t>(r)] +=
          phase.rep * phase.ops.size();
    }
  }
  for (int r = 0; r < data.np; ++r) {
    EXPECT_EQ(opsPerRank[static_cast<std::size_t>(r)],
              data.perRank[static_cast<std::size_t>(r)].size())
        << "rank " << r;
  }
}

TEST_P(PhaseProperties, ExactOffsetFunctionsReproduceOffsets) {
  auto data = randomTrace(GetParam());
  auto model = core::extractModel(data);
  for (const auto& phase : model.phases()) {
    for (const auto& op : phase.ops) {
      if (!op.offsetFn.exact) continue;
      for (std::size_t r = 0; r < phase.ranks.size(); ++r) {
        EXPECT_EQ(op.offsetFn.eval(phase.ranks[r], phase.familyIndex),
                  op.initOffsetBytes[r])
            << "phase " << phase.id << " rank " << phase.ranks[r];
      }
    }
  }
}

TEST_P(PhaseProperties, RankLinearOffsetsAreAlwaysFittedExactly) {
  // The generator only produces offsets linear in idP, so every op's
  // offset function must come out exact.
  auto data = randomTrace(GetParam());
  auto model = core::extractModel(data);
  for (const auto& phase : model.phases()) {
    for (const auto& op : phase.ops) {
      EXPECT_TRUE(op.offsetFn.exact) << "phase " << phase.id;
    }
  }
}

TEST_P(PhaseProperties, PhasesOrderedByFirstTick) {
  auto data = randomTrace(GetParam());
  auto model = core::extractModel(data);
  for (std::size_t i = 1; i < model.phases().size(); ++i) {
    EXPECT_LE(model.phases()[i - 1].firstTick,
              model.phases()[i].firstTick);
    EXPECT_EQ(model.phases()[i].id,
              model.phases()[i - 1].id + 1);
  }
}

TEST_P(PhaseProperties, SaveLoadRoundTripIsLossless) {
  auto data = randomTrace(GetParam());
  auto model = core::extractModel(data);
  const auto path = std::filesystem::temp_directory_path() /
                    ("prop_" + std::to_string(GetParam()) + ".model");
  model.save(path);
  auto loaded = core::IOModel::load(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.phases().size(), model.phases().size());
  for (std::size_t i = 0; i < model.phases().size(); ++i) {
    const auto& a = model.phases()[i];
    const auto& b = loaded.phases()[i];
    EXPECT_EQ(a.weightBytes, b.weightBytes);
    EXPECT_EQ(a.rep, b.rep);
    EXPECT_EQ(a.familyId, b.familyId);
    EXPECT_EQ(a.familyIndex, b.familyIndex);
    EXPECT_NEAR(a.measuredIoTime(), b.measuredIoTime(), 1e-6);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t j = 0; j < a.ops.size(); ++j) {
      EXPECT_EQ(a.ops[j].op, b.ops[j].op);
      EXPECT_EQ(a.ops[j].rsBytes, b.ops[j].rsBytes);
      EXPECT_EQ(a.ops[j].dispBytes, b.ops[j].dispBytes);
      EXPECT_EQ(a.ops[j].initOffsetBytes, b.ops[j].initOffsetBytes);
    }
  }
}

TEST_P(PhaseProperties, TraceFileRoundTripPreservesModel) {
  auto data = randomTrace(GetParam());
  const auto dir = std::filesystem::temp_directory_path() /
                   ("prop_traces_" + std::to_string(GetParam()));
  trace::writeTraces(dir, data);
  auto reloaded = trace::readTraces(dir, data.appName);
  std::filesystem::remove_all(dir);
  auto a = core::extractModel(data);
  auto b = core::extractModel(reloaded);
  ASSERT_EQ(a.phases().size(), b.phases().size());
  for (std::size_t i = 0; i < a.phases().size(); ++i) {
    EXPECT_EQ(a.phases()[i].weightBytes, b.phases()[i].weightBytes);
    EXPECT_EQ(a.phases()[i].firstTick, b.phases()[i].firstTick);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, PhaseProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------------------ model digest
//
// Golden FNV-1a digests of IOModel::renderText — the model's canonical
// content identity, which the sweep cache hashes — over models extracted
// from traced registry applications, from the random schedules above and
// from perturbed multi-file traces.  Captured before segmentation moved to
// run-length cycle tables and phase grouping to index sorts: any change to
// phase ids, families, member order, offsets or measured times moves them.

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// Random SPMD-ish trace over two files and a small (op, rs) alphabet:
/// every rank runs the same cycle plan, but offsets may drift per rank,
/// single records are perturbed and tick gaps vary — the shapes that
/// exercise multi-op cycles, tick splitting, partial phases and ties in
/// the phase order.
trace::TraceData perturbedTrace(std::uint64_t seed) {
  util::Rng rng(seed);
  const int np = 1 + static_cast<int>(rng.below(6));
  static const char* kOps[] = {"MPI_File_write_at", "MPI_File_read_at",
                               "MPI_File_write_at_all"};
  static const std::uint64_t kSizes[] = {4 * KiB, 64 * KiB};

  struct Block {
    int file;
    std::vector<std::pair<int, int>> cycle;  // (op, size) indices
    std::uint64_t rep;
    std::uint64_t tickGap;
    bool drift;
  };
  std::vector<Block> plan(1 + rng.below(5));
  for (auto& block : plan) {
    block.file = 1 + static_cast<int>(rng.below(2));
    const std::uint64_t k = 1 + rng.below(3);
    for (std::uint64_t j = 0; j < k; ++j) {
      block.cycle.emplace_back(static_cast<int>(rng.below(3)),
                               static_cast<int>(rng.below(2)));
    }
    block.rep = 1 + rng.below(12);
    block.tickGap = rng.below(3) == 0 ? 2 : 1;
    block.drift = rng.below(4) == 0;
  }

  trace::TraceData data;
  data.appName = "perturbed-" + std::to_string(seed);
  data.np = np;
  data.perRank.resize(static_cast<std::size_t>(np));
  data.commEventsPerRank.assign(static_cast<std::size_t>(np), 0);
  for (int f = 1; f <= 2; ++f) {
    trace::FileMeta meta;
    meta.fileId = f;
    meta.path = "perturbed" + std::to_string(f) + ".dat";
    meta.etypeBytes = f == 2 ? 8 : 1;
    meta.np = np;
    data.files.push_back(meta);
  }
  for (int r = 0; r < np; ++r) {
    std::uint64_t tick = 1;
    double time = 0;
    std::uint64_t offset[3] = {0, 0, 0};
    auto& recs = data.perRank[static_cast<std::size_t>(r)];
    for (const auto& block : plan) {
      for (std::uint64_t m = 0; m < block.rep; ++m) {
        for (const auto& [op, size] : block.cycle) {
          trace::Record rec;
          rec.rank = r;
          rec.fileId = block.file;
          rec.op = kOps[op];
          rec.requestBytes = kSizes[size];
          rec.offsetUnits =
              offset[block.file] +
              static_cast<std::uint64_t>(r) * 1024 * KiB +
              (block.drift ? static_cast<std::uint64_t>(r) * m * 4 : 0);
          if (rng.below(16) == 0) rec.offsetUnits += 512;  // perturbation
          offset[block.file] += rec.requestBytes;
          rec.tick = tick;
          rec.time = time;
          rec.duration = 0.01 * static_cast<double>(1 + rng.below(5));
          recs.push_back(std::move(rec));
          tick += block.tickGap;
          time += 0.05;
        }
      }
      tick += rng.below(3);
      time += 0.5;
    }
  }
  return data;
}

/// Every registry application, traced at np=4 on configuration A with
/// parameters small enough for the sanitizer flavors.
std::vector<std::pair<std::string, apps::AppParams>> registryCasesAtSmallNp() {
  return {
      {"btio", {{"class", "A"}}},
      {"btio", {{"class", "A"}, {"subtype", "simple"}}},
      {"madbench2", {{"kpix", "2"}}},
      {"roms", {{"steps", "20"}}},
      {"flash-io", {{"unknowns", "4"}}},
      {"example", {}},
  };
}

TEST(ModelDigest, RegistryAppsAtSmallNp) {
  std::set<std::string> covered;
  std::uint64_t h = kFnvOffset;
  for (const auto& [app, params] : registryCasesAtSmallNp()) {
    auto cluster = configs::makeConfig(configs::ConfigId::A);
    const auto run = analysis::runAndTrace(
        cluster, app, apps::makeApp(app, cluster.mount, params), 4);
    h = fnv1a(h, run.model.renderText());
    covered.insert(app);
  }
  const auto known = apps::knownApps();
  EXPECT_EQ(covered, std::set<std::string>(known.begin(), known.end()));
  EXPECT_EQ(h, 0xdd398eb44fa9eadcULL);
}

TEST(ModelDigest, RandomSchedules) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    h = fnv1a(h, core::extractModel(randomTrace(seed)).renderText());
  }
  EXPECT_EQ(h, 0x3effcae284da5947ULL);
}

TEST(ModelDigest, PerturbedMultiFileSchedules) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    h = fnv1a(h, core::extractModel(perturbedTrace(seed)).renderText());
  }
  EXPECT_EQ(h, 0x97a9cdd5610be742ULL);
}

// ------------------------------------------------- shared stream shapes
//
// segmentTrace chooses cuts once per distinct (op, size, offset-delta)
// shape and reuses them for every view with that shape; segmenting each
// (rank, file) view on its own is the reference.

/// Each (rank, file) view of `data` in segmentTrace's order — ranks in
/// order, a rank's files in id order — segmented on its own.
std::vector<core::Segment> perViewSegments(
    const trace::TraceData& data, const core::PhaseDetectionOptions& options) {
  std::vector<core::Segment> out;
  for (int rank = 0; rank < data.np; ++rank) {
    std::map<int, std::vector<const trace::Record*>> byFile;
    for (const auto& r : data.perRank[static_cast<std::size_t>(rank)]) {
      if (r.requestBytes >= options.ignoreOpsSmallerThan) {
        byFile[r.fileId].push_back(&r);
      }
    }
    for (const auto& [fileId, view] : byFile) {
      for (auto& seg : core::segmentRecordView(view, options.segmentation)) {
        out.push_back(std::move(seg));
      }
    }
  }
  return out;
}

/// (k, c) of each segment, front to back.
std::vector<std::pair<std::size_t, std::uint64_t>> cutsOf(
    const std::vector<core::Segment>& segs) {
  std::vector<std::pair<std::size_t, std::uint64_t>> cuts;
  for (const auto& seg : segs) cuts.emplace_back(seg.ops.size(), seg.rep);
  return cuts;
}

void expectSharedShapesMatch(const trace::TraceData& data,
                             const std::string& name) {
  core::PhaseDetectionOptions options;
  core::PhaseDetectionOptions greedy;
  greedy.segmentation.dpLimit = 8;
  core::PhaseDetectionOptions filtered;
  filtered.ignoreOpsSmallerThan = 8 * KiB;
  for (const auto& opts : {options, greedy, filtered}) {
    const std::string where =
        name + " dpLimit " + std::to_string(opts.segmentation.dpLimit) +
        " ignore " + std::to_string(opts.ignoreOpsSmallerThan);
    const auto got = core::segmentTrace(data, opts);
    const auto want = perViewSegments(data, opts);
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t s = 0; s < got.size(); ++s) {
      const auto& g = got[s];
      const auto& w = want[s];
      const std::string at = where + " segment " + std::to_string(s);
      EXPECT_EQ(g.idP, w.idP) << at;
      EXPECT_EQ(g.idF, w.idF) << at;
      EXPECT_EQ(g.rep, w.rep) << at;
      ASSERT_EQ(g.ops.size(), w.ops.size()) << at;
      for (std::size_t j = 0; j < g.ops.size(); ++j) {
        EXPECT_EQ(g.ops[j].op, w.ops[j].op) << at;
        EXPECT_EQ(g.ops[j].rsBytes, w.ops[j].rsBytes) << at;
        EXPECT_EQ(g.ops[j].dispUnits, w.ops[j].dispUnits) << at;
        EXPECT_EQ(g.ops[j].initOffsetUnits, w.ops[j].initOffsetUnits) << at;
      }
      EXPECT_EQ(g.repFirstTicks, w.repFirstTicks) << at;
      EXPECT_EQ(g.repLastTicks, w.repLastTicks) << at;
      EXPECT_EQ(g.repStartTimes, w.repStartTimes) << at;
      EXPECT_EQ(g.repEndTimes, w.repEndTimes) << at;
      EXPECT_EQ(g.repIoDurations, w.repIoDurations) << at;
      EXPECT_EQ(g.opWindows, w.opWindows) << at;
    }
  }
}

/// One rank's stream: a (write, read) cycle six times, then four writes,
/// all 16 KiB, offsets from `base`.
std::vector<trace::Record> pairStream(int rank, std::uint64_t base) {
  std::vector<trace::Record> recs;
  auto add = [&](const char* op, std::uint64_t offset) {
    trace::Record r;
    r.rank = rank;
    r.fileId = 1;
    r.op = op;
    r.offsetUnits = base + offset;
    r.tick = recs.size() + 1;
    r.requestBytes = 16 * KiB;
    r.time = 0.25 * static_cast<double>(recs.size()) + rank;
    r.duration = 0.125 + 0.0625 * rank;
    recs.push_back(std::move(r));
  };
  for (std::uint64_t m = 0; m < 6; ++m) {
    add("MPI_File_write_at", m * 64 * KiB);
    add("MPI_File_read_at", m * 64 * KiB + 32 * KiB);
  }
  for (std::uint64_t m = 0; m < 4; ++m) {
    add("MPI_File_write_at", (6 + m) * 64 * KiB);
  }
  return recs;
}

TEST(SegmentEquivalence, SharedShapesMatchPerRankSegmentation) {
  for (const auto& [app, params] : registryCasesAtSmallNp()) {
    auto cluster = configs::makeConfig(configs::ConfigId::A);
    expectSharedShapesMatch(
        analysis::runAndTrace(cluster, app,
                              apps::makeApp(app, cluster.mount, params), 4)
            .trace,
        app);
  }
  {
    auto cluster = configs::makeConfig(configs::ConfigId::A);
    expectSharedShapesMatch(
        analysis::runAndTrace(cluster, "btio",
                              apps::makeApp("btio", cluster.mount,
                                            {{"class", "A"}}),
                              121)
            .trace,
        "btio np=121");
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expectSharedShapesMatch(perturbedTrace(seed),
                            "perturbed " + std::to_string(seed));
  }

  // Rank pairs whose shapes differ in one place each: rank 1 must get
  // cuts of its own, not rank 0's.  Rank 2 repeats rank 0's shape from
  // another base, and rank 1 of the last pair repeats it with offsets
  // that wrap past 2^64: those share rank 0's cuts.
  const std::uint64_t wrapBase = ~std::uint64_t{0} - 100 * KiB;
  const std::vector<std::pair<std::string, std::function<void(
                                               std::vector<trace::Record>&)>>>
      pairs = {
          {"last offset delta",
           [](auto& recs) { recs.back().offsetUnits += 1; }},
          {"one op name",
           [](auto& recs) { recs[5].op = "MPI_File_read_at_all"; }},
          {"one request size",
           [](auto& recs) { recs[7].requestBytes += 1; }},
          {"offsets wrapping past 2^64",
           [wrapBase](auto& recs) {
             for (auto& r : recs) r.offsetUnits += wrapBase;
           }},
      };
  for (const auto& [name, change] : pairs) {
    trace::TraceData data;
    data.appName = "pair";
    data.np = 3;
    data.commEventsPerRank.assign(3, 0);
    data.perRank = {pairStream(0, 0), pairStream(1, 0),
                    pairStream(2, 1024 * KiB)};
    change(data.perRank[1]);
    const auto own0 = cutsOf(core::segmentRecords(data.perRank[0]));
    const auto own1 = cutsOf(core::segmentRecords(data.perRank[1]));
    if (name == "offsets wrapping past 2^64") {
      EXPECT_EQ(own1, own0) << name;
    } else {
      EXPECT_NE(own1, own0) << name << ": the pair must need its own cuts";
    }
    expectSharedShapesMatch(data, name);
  }

  // Twelve op names, more than the op-name interner finds by scanning:
  // rank 1 differs from rank 0 in one name, rank 2 repeats rank 0.
  trace::TraceData manyNames;
  manyNames.appName = "many-names";
  manyNames.np = 3;
  manyNames.commEventsPerRank.assign(3, 0);
  manyNames.perRank = {pairStream(0, 0), pairStream(1, 0),
                       pairStream(2, 1024 * KiB)};
  for (auto& recs : manyNames.perRank) {
    for (std::size_t q = 0; q < recs.size(); ++q) {
      recs[q].op = "MPI_File_op_" + std::to_string(q % 12);
    }
  }
  manyNames.perRank[1][14].op = "MPI_File_op_3";
  EXPECT_NE(cutsOf(core::segmentRecords(manyNames.perRank[1])),
            cutsOf(core::segmentRecords(manyNames.perRank[0])));
  expectSharedShapesMatch(manyNames, "many op names");
}

/// Synthesis round trip: model -> synthetic app -> traced model must be
/// structurally identical.  The generator above uses collective ops too;
/// when coincidental merges produce a partial collective phase the model
/// is not synthesizable, which makeSyntheticApp reports — skip those.
class SynthesizeProperties
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthesizeProperties, ModelRoundTripsThroughSyntheticApp) {
  auto data = randomTrace(GetParam());
  auto model = core::extractModel(data);
  mpi::Runtime::RankMain main;
  try {
    auto cfg = configs::makeConfig(configs::ConfigId::A);
    main = analysis::makeSyntheticApp(model, cfg.mount);
    trace::Tracer tracer("synth", model.np());
    auto opts = cfg.runtimeOptions(model.np(), &tracer);
    mpi::Runtime runtime(*cfg.topology, opts);
    runtime.runToCompletion(std::move(main));
    auto replayed = core::extractModel(tracer.takeData());
    ASSERT_EQ(replayed.phases().size(), model.phases().size());
    for (std::size_t i = 0; i < model.phases().size(); ++i) {
      const auto& a = model.phases()[i];
      const auto& b = replayed.phases()[i];
      EXPECT_EQ(a.weightBytes, b.weightBytes) << "phase " << a.id;
      EXPECT_EQ(a.rep, b.rep) << "phase " << a.id;
      EXPECT_EQ(a.ranks, b.ranks) << "phase " << a.id;
      ASSERT_EQ(a.ops.size(), b.ops.size());
      for (std::size_t j = 0; j < a.ops.size(); ++j) {
        EXPECT_EQ(a.ops[j].op, b.ops[j].op);
        EXPECT_EQ(a.ops[j].initOffsetBytes, b.ops[j].initOffsetBytes);
      }
    }
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << "model not synthesizable (partial collective phase)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesizeProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------------- IOR

struct IorCase {
  configs::ConfigId config;
  bool collective;
  bool unique;
};

class IorProperties : public ::testing::TestWithParam<IorCase> {};

TEST_P(IorProperties, AccountingAndBandwidthSanity) {
  const auto& param = GetParam();
  auto cfg = configs::makeConfig(param.config);
  ior::IorParams p;
  p.mount = cfg.mount;
  p.np = 4;
  p.blockSize = 16 * MiB;
  p.transferSize = 2 * MiB;
  p.collective = param.collective;
  p.uniqueFilePerProc = param.unique;
  auto result = ior::runIor(cfg, p);
  EXPECT_EQ(result.totalBytes, 4ull * 16 * MiB);
  EXPECT_GT(result.writeBandwidth, util::fromMiBs(1));
  EXPECT_LT(result.writeBandwidth, util::fromMiBs(10000));
  EXPECT_GT(result.readBandwidth, util::fromMiBs(1));
  EXPECT_LT(result.readBandwidth, util::fromMiBs(10000));
  EXPECT_GT(result.writeTimeSec, 0.0);
  EXPECT_GT(result.readTimeSec, 0.0);
}

TEST_P(IorProperties, Deterministic) {
  const auto& param = GetParam();
  auto run = [&param] {
    auto cfg = configs::makeConfig(param.config);
    ior::IorParams p;
    p.mount = cfg.mount;
    p.np = 4;
    p.blockSize = 8 * MiB;
    p.transferSize = 1 * MiB;
    p.collective = param.collective;
    p.uniqueFilePerProc = param.unique;
    p.accessMode = ior::AccessMode::Random;
    return ior::runIor(cfg, p);
  };
  auto a = run();
  auto b = run();
  EXPECT_DOUBLE_EQ(a.writeBandwidth, b.writeBandwidth);
  EXPECT_DOUBLE_EQ(a.readBandwidth, b.readBandwidth);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, IorProperties,
    ::testing::Values(IorCase{configs::ConfigId::A, false, false},
                      IorCase{configs::ConfigId::A, true, false},
                      IorCase{configs::ConfigId::A, false, true},
                      IorCase{configs::ConfigId::B, false, false},
                      IorCase{configs::ConfigId::B, true, true},
                      IorCase{configs::ConfigId::C, true, false},
                      IorCase{configs::ConfigId::Finisterrae, true, false},
                      IorCase{configs::ConfigId::Finisterrae, false,
                              true}));

// --------------------------------------------------------------- storage

class ConservationProperties
    : public ::testing::TestWithParam<configs::ConfigId> {};

TEST_P(ConservationProperties, DisksReceiveAtLeastThePayload) {
  // Everything a workload writes must reach the member disks once caches
  // drain; parity/RMW may amplify but never lose bytes.
  auto cfg = configs::makeConfig(GetParam());
  ior::IorParams p;
  p.mount = cfg.mount;
  p.np = 4;
  p.blockSize = 32 * MiB;
  p.transferSize = 4 * MiB;
  p.doRead = false;
  auto result = ior::runIor(cfg, p);
  // runIor shuts the topology down; flushers drained before run() ended.
  std::uint64_t onDisk = 0;
  auto& fs = cfg.topology->fs(cfg.mount);
  for (auto* server : fs.dataServers()) {
    std::vector<storage::Disk*> disks;
    server->device().collectDisks(disks);
    for (auto* d : disks) onDisk += d->counters().bytesWritten;
  }
  EXPECT_GE(onDisk, result.totalBytes);
  EXPECT_LE(onDisk, result.totalBytes * 3);  // bounded amplification
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConservationProperties,
                         ::testing::Values(configs::ConfigId::A,
                                           configs::ConfigId::B,
                                           configs::ConfigId::C,
                                           configs::ConfigId::Finisterrae));

// ------------------------------------------------------------- filesystems

/// NFS aggregate bandwidth must not grow past the single server's link as
/// clients are added (it is the bottleneck), while a striped filesystem
/// over several servers keeps scaling until its servers saturate.
class ScalingProperties : public ::testing::TestWithParam<int> {};

TEST_P(ScalingProperties, NfsSaturatesAtOneLink) {
  const int np = GetParam();
  auto cfg = configs::makeConfig(configs::ConfigId::A);
  ior::IorParams p;
  p.mount = cfg.mount;
  p.np = np;
  p.blockSize = 32 * MiB;
  p.transferSize = 4 * MiB;
  p.doRead = false;
  auto r = ior::runIor(cfg, p);
  EXPECT_LT(r.writeBandwidth, 117.0e6 * 1.15) << "np=" << np;
}

TEST_P(ScalingProperties, SeekBoundWritesDegradeGracefullyUnderSharing) {
  // Configuration B's write-through JBOD is seek-bound: interleaved
  // streams from more clients cost seeks, so the aggregate must not
  // exceed the single-stream rate — but the degradation is bounded (the
  // elevator at the disk keeps some locality).
  const int np = GetParam();
  auto measure = [](int clients) {
    auto cfg = configs::makeConfig(configs::ConfigId::B);
    ior::IorParams p;
    p.mount = cfg.mount;
    p.np = clients;
    p.blockSize = 32 * MiB;
    p.transferSize = 4 * MiB;
    p.doRead = false;
    return ior::runIor(cfg, p).writeBandwidth;
  };
  if (np <= 1) GTEST_SKIP();
  const double solo = measure(1);
  const double shared = measure(np);
  EXPECT_LE(shared, solo * 1.1) << "np=" << np;
  EXPECT_GE(shared, solo * 0.3) << "np=" << np;
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, ScalingProperties,
                         ::testing::Values(1, 2, 4, 8, 16));

// ----------------------------------------------------------- determinism

class DeterminismProperties
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperties, SameSeedSameSimulation) {
  auto run = [](std::uint64_t seed) {
    sim::Engine eng(seed);
    storage::SingleDisk disk(eng, storage::DiskParams{});
    storage::CacheParams cp;
    cp.sizeBytes = 32 * MiB;
    storage::PageCache cache(eng, disk, cp);
    eng.spawn([](sim::Engine& e, storage::PageCache& c)
                  -> sim::Task<void> {
      for (int i = 0; i < 50; ++i) {
        const auto offset = e.rng().below(1ULL << 30);
        co_await c.write(offset, 256 * KiB);
        co_await c.read(e.rng().below(1ULL << 30), 128 * KiB);
      }
      c.shutdown();
    }(eng, cache));
    eng.run();
    return std::make_tuple(eng.now(), eng.eventsDispatched(),
                           disk.disk().counters().bytesWritten,
                           disk.disk().counters().bytesRead);
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperties,
                         ::testing::Values(1u, 7u, 42u, 1234567u));

// ----------------------------------------------------------- interval set

class IntervalProperties : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IntervalProperties, MatchesBitmapReference) {
  util::IntervalSet set;
  std::vector<bool> ref(2048, false);
  std::uint64_t state = GetParam();
  for (int i = 0; i < 300; ++i) {
    std::uint64_t a = util::splitmix64(state) % 2048;
    std::uint64_t b = util::splitmix64(state) % 2048;
    if (a > b) std::swap(a, b);
    if (util::splitmix64(state) % 4 == 0) {
      set.erase(a, b);
      for (std::uint64_t k = a; k < b; ++k) ref[k] = false;
    } else {
      set.insert(a, b);
      for (std::uint64_t k = a; k < b; ++k) ref[k] = true;
    }
  }
  std::uint64_t expected = 0;
  for (bool v : ref) expected += v;
  ASSERT_EQ(set.totalBytes(), expected);
  // gaps() and coveredBytes() agree with the bitmap on random probes.
  for (int probe = 0; probe < 50; ++probe) {
    std::uint64_t a = util::splitmix64(state) % 2048;
    std::uint64_t b = util::splitmix64(state) % 2048;
    if (a > b) std::swap(a, b);
    std::uint64_t covered = 0;
    for (std::uint64_t k = a; k < b; ++k) covered += ref[k];
    EXPECT_EQ(set.coveredBytes(a, b), covered);
    std::uint64_t gapBytes = 0;
    for (const auto& [gb, ge] : set.gaps(a, b)) gapBytes += ge - gb;
    EXPECT_EQ(gapBytes, (b - a) - covered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalProperties,
                         ::testing::Range<std::uint64_t>(100, 110));

}  // namespace
}  // namespace iop
