#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include "core/compare.hpp"
#include "core/iomodel.hpp"
#include "core/lap.hpp"
#include "core/offsetfn.hpp"
#include "core/phase.hpp"
#include "trace/tracefile.hpp"
#include "trace/tracer.hpp"
#include "util/units.hpp"

namespace iop::core {
namespace {

using iop::util::MiB;
using trace::Record;
using trace::TraceData;

Record mkRec(int rank, int file, const char* op, std::uint64_t offset,
             std::uint64_t tick, std::uint64_t rs, double time = 0,
             double duration = 0.1) {
  Record r;
  r.rank = rank;
  r.fileId = file;
  r.op = op;
  r.offsetUnits = offset;
  r.tick = tick;
  r.requestBytes = rs;
  r.time = time;
  r.duration = duration;
  return r;
}

// ----------------------------------------------------------------- LAPs

TEST(Lap, CollapsesConstantStrideRun) {
  std::vector<Record> recs;
  for (int i = 0; i < 40; ++i) {
    recs.push_back(mkRec(0, 1, "MPI_File_write_at_all",
                         static_cast<std::uint64_t>(i) * 265302,
                         148 + static_cast<std::uint64_t>(i) * 121,
                         10612080));
  }
  auto laps = extractLaps(recs);
  ASSERT_EQ(laps.size(), 1u);
  EXPECT_EQ(laps[0].rep, 40u);
  EXPECT_EQ(laps[0].dispUnits, 265302);
  EXPECT_EQ(laps[0].initOffsetUnits, 0u);
  EXPECT_EQ(laps[0].rsBytes, 10612080u);
}

TEST(Lap, SplitsOnOperationChange) {
  std::vector<Record> recs;
  for (int i = 0; i < 3; ++i) {
    recs.push_back(mkRec(0, 1, "MPI_File_write", i * 100, 1 + i, 100));
  }
  for (int i = 0; i < 3; ++i) {
    recs.push_back(mkRec(0, 1, "MPI_File_read", i * 100, 4 + i, 100));
  }
  auto laps = extractLaps(recs);
  ASSERT_EQ(laps.size(), 2u);
  EXPECT_EQ(laps[0].op, "MPI_File_write");
  EXPECT_EQ(laps[1].op, "MPI_File_read");
  EXPECT_EQ(laps[0].rep, 3u);
}

TEST(Lap, SplitsOnStrideChange) {
  std::vector<Record> recs;
  recs.push_back(mkRec(0, 1, "MPI_File_write", 0, 1, 100));
  recs.push_back(mkRec(0, 1, "MPI_File_write", 100, 2, 100));
  recs.push_back(mkRec(0, 1, "MPI_File_write", 200, 3, 100));
  recs.push_back(mkRec(0, 1, "MPI_File_write", 1000, 4, 100));
  recs.push_back(mkRec(0, 1, "MPI_File_write", 1800, 5, 100));
  auto laps = extractLaps(recs);
  ASSERT_EQ(laps.size(), 2u);
  EXPECT_EQ(laps[0].rep, 3u);
  EXPECT_EQ(laps[1].rep, 2u);
  EXPECT_EQ(laps[1].dispUnits, 800);
}

TEST(Lap, SplitsOnRequestSizeChange) {
  std::vector<Record> recs;
  recs.push_back(mkRec(0, 1, "MPI_File_write", 0, 1, 100));
  recs.push_back(mkRec(0, 1, "MPI_File_write", 100, 2, 200));
  auto laps = extractLaps(recs);
  EXPECT_EQ(laps.size(), 2u);
}

TEST(Lap, RejectsMixedRanks) {
  std::vector<Record> recs;
  recs.push_back(mkRec(0, 1, "MPI_File_write", 0, 1, 100));
  recs.push_back(mkRec(1, 1, "MPI_File_write", 0, 1, 100));
  EXPECT_THROW(extractLaps(recs), std::invalid_argument);
}

TEST(Lap, RenderTableShowsColumns) {
  std::vector<Record> recs{mkRec(0, 1, "MPI_File_write_at_all", 0, 1, 100)};
  auto laps = extractLaps(recs);
  auto text = renderLapTable(laps);
  EXPECT_NE(text.find("OffsetInit"), std::string::npos);
  EXPECT_NE(text.find("MPI_File_write_at_all"), std::string::npos);
}

// ------------------------------------------------------------- Segments

TEST(Segment, SingleRunIsOneSegment) {
  std::vector<Record> recs;
  for (int i = 0; i < 8; ++i) {
    recs.push_back(mkRec(0, 1, "MPI_File_write", i * 32, 1 + i, 32));
  }
  auto segs = segmentRecords(recs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].rep, 8u);
  EXPECT_EQ(segs[0].ops.size(), 1u);
}

TEST(Segment, MadbenchWFunctionMatchesPaperGrouping) {
  // R0 R1 (R2 W0) (R3 W1) ... (R7 W5) W6 W7: the paper's Table VIII
  // phases 2..4 structure: [R x2] [(R,W) x6] [W x2].
  std::vector<Record> recs;
  std::uint64_t tick = 1;
  const std::uint64_t rs = 32 * MiB;
  int nextRead = 0, nextWrite = 0;
  for (int step = 0; step < 10; ++step) {
    if (nextRead < 8) {
      recs.push_back(mkRec(0, 1, "MPI_File_read",
                           static_cast<std::uint64_t>(nextRead) * rs, tick++,
                           rs));
      ++nextRead;
    }
    if (step >= 2) {
      recs.push_back(mkRec(0, 1, "MPI_File_write",
                           static_cast<std::uint64_t>(nextWrite) * rs,
                           tick++, rs));
      ++nextWrite;
    }
  }
  ASSERT_EQ(recs.size(), 16u);
  auto segs = segmentRecords(recs);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].ops.size(), 1u);
  EXPECT_EQ(segs[0].ops[0].op, "MPI_File_read");
  EXPECT_EQ(segs[0].rep, 2u);
  EXPECT_EQ(segs[1].ops.size(), 2u);
  EXPECT_EQ(segs[1].rep, 6u);
  EXPECT_EQ(segs[1].ops[0].op, "MPI_File_read");
  EXPECT_EQ(segs[1].ops[1].op, "MPI_File_write");
  EXPECT_EQ(segs[2].ops[0].op, "MPI_File_write");
  EXPECT_EQ(segs[2].rep, 2u);
}

TEST(Segment, CycleOffsetsProgressIndependently) {
  // (R at 0,rs,2rs...; W at 100rs,101rs,...) x4
  std::vector<Record> recs;
  std::uint64_t tick = 1;
  for (int i = 0; i < 4; ++i) {
    recs.push_back(mkRec(0, 1, "MPI_File_read",
                         static_cast<std::uint64_t>(i) * 32, tick++, 32));
    recs.push_back(mkRec(0, 1, "MPI_File_write",
                         3200 + static_cast<std::uint64_t>(i) * 32, tick++,
                         32));
  }
  auto segs = segmentRecords(recs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].rep, 4u);
  EXPECT_EQ(segs[0].ops[0].dispUnits, 32);
  EXPECT_EQ(segs[0].ops[1].dispUnits, 32);
  EXPECT_EQ(segs[0].ops[1].initOffsetUnits, 3200u);
}

TEST(Segment, GreedyFallbackMatchesDpOnSimpleRuns) {
  std::vector<Record> recs;
  for (int i = 0; i < 100; ++i) {
    recs.push_back(mkRec(0, 1, "MPI_File_write", i * 32, 1 + i, 32));
  }
  SegmentOptions tiny;
  tiny.dpLimit = 10;  // force greedy
  auto greedy = segmentRecords(recs, tiny);
  auto dp = segmentRecords(recs);
  ASSERT_EQ(greedy.size(), dp.size());
  EXPECT_EQ(greedy[0].rep, dp[0].rep);
}

TEST(Segment, TimesAndDurationsAggregatedPerRep) {
  std::vector<Record> recs;
  recs.push_back(mkRec(0, 1, "MPI_File_read", 0, 1, 32, 10.0, 0.5));
  recs.push_back(mkRec(0, 1, "MPI_File_write", 100, 2, 32, 10.5, 0.25));
  recs.push_back(mkRec(0, 1, "MPI_File_read", 32, 3, 32, 11.0, 0.5));
  recs.push_back(mkRec(0, 1, "MPI_File_write", 132, 4, 32, 11.5, 0.25));
  auto segs = segmentRecords(recs);
  ASSERT_EQ(segs.size(), 1u);
  ASSERT_EQ(segs[0].rep, 2u);
  EXPECT_DOUBLE_EQ(segs[0].repIoDurations[0], 0.75);
  EXPECT_DOUBLE_EQ(segs[0].repStartTimes[1], 11.0);
  EXPECT_DOUBLE_EQ(segs[0].repEndTimes[1], 11.75);
}

// ------------------------------------------- segmentation reference model
//
// segmentRecords answers "how many times does the k-cycle starting at i
// repeat?" from run-length tables.  The reference below answers it the
// direct way — scan forward block by block, comparing (op, rs) and the
// per-position offset deltas — and runs the same DP and greedy choices on
// top, so any disagreement is a table bug.

/// Largest c such that r[i, i + c*k) is c repetitions of the cycle
/// r[i, i+k) with per-position constant offset deltas.
std::uint64_t referenceMaxCycles(const std::vector<Record>& r, std::size_t i,
                                 std::size_t k) {
  std::uint64_t c = 1;
  for (;;) {
    const std::size_t base = i + static_cast<std::size_t>(c) * k;
    if (base + k > r.size()) return c;
    for (std::size_t j = 0; j < k; ++j) {
      const Record& now = r[base + j];
      if (now.op != r[i + j].op || now.requestBytes != r[i + j].requestBytes ||
          now.offsetUnits - r[base + j - k].offsetUnits !=
              r[i + k + j].offsetUnits - r[i + j].offsetUnits) {
        return c;
      }
    }
    ++c;
  }
}

/// (cycle length, repetitions) of each segment, front to back.
using Cuts = std::vector<std::pair<std::size_t, std::uint64_t>>;

Cuts referenceSegmentation(const std::vector<Record>& r,
                           const SegmentOptions& options) {
  const std::size_t n = r.size();
  const auto maxK = static_cast<std::size_t>(options.maxCycle);
  Cuts cuts;
  if (n > options.dpLimit) {  // greedy: longest coverage, shortest cycle
    for (std::size_t i = 0; i < n;) {
      std::size_t bestK = 1;
      std::uint64_t bestC = 1;
      for (std::size_t k = 1; k <= maxK && i + k <= n; ++k) {
        const std::uint64_t c = referenceMaxCycles(r, i, k);
        if ((k == 1 || c >= 2) && c * k > bestC * bestK) {
          bestK = k;
          bestC = c;
        }
      }
      cuts.emplace_back(bestK, bestC);
      i += bestK * bestC;
    }
    return cuts;
  }
  // DP: fewest segments, then largest sum of squared lengths, then the
  // shortest cycle.
  struct Best {
    std::uint64_t segments = ~std::uint64_t{0};
    std::uint64_t score = 0;
    std::size_t k = 1;
    std::uint64_t c = 1;
  };
  std::vector<Best> best(n + 1);
  best[n] = Best{0, 0, 1, 0};
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t k = 1; k <= maxK && i + k <= n; ++k) {
      const std::uint64_t cMax = referenceMaxCycles(r, i, k);
      for (std::uint64_t c = k == 1 ? 1 : 2; c <= cMax; ++c) {
        const Best& next = best[i + c * k];
        const std::uint64_t segs = next.segments + 1;
        const std::uint64_t score = next.score + c * k * c * k;
        Best& cur = best[i];
        if (segs < cur.segments ||
            (segs == cur.segments &&
             (score > cur.score || (score == cur.score && k < cur.k)))) {
          cur = Best{segs, score, k, c};
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; i += best[i].k * best[i].c) {
    cuts.emplace_back(best[i].k, best[i].c);
  }
  return cuts;
}

/// One rank's stream over a small (op, rs) alphabet: periodic cycles of
/// length 1..6, some with per-record offset perturbations, mixed with
/// stretches of random records and random offsets.
std::vector<Record> randomStream(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto below = [&rng](std::uint64_t n) { return rng() % n; };
  static const char* kOps[] = {"MPI_File_read_at", "MPI_File_write_at"};
  std::vector<Record> recs;
  std::uint64_t tick = 1;
  const std::uint64_t target = 1 + below(90);
  while (recs.size() < target) {
    const std::uint64_t shape = below(3);
    const std::size_t k = 1 + below(6);
    std::vector<std::pair<int, std::uint64_t>> cycle;
    for (std::size_t j = 0; j < k; ++j) {
      cycle.emplace_back(static_cast<int>(below(2)), 1 + below(2));
    }
    const std::uint64_t reps = 1 + below(8);
    const std::uint64_t start = below(4) * 64;
    const std::uint64_t disp = below(3) * 8;
    for (std::uint64_t m = 0; m < reps; ++m) {
      for (std::size_t j = 0; j < k; ++j) {
        std::uint64_t offset = start + j * 1000 + m * disp;
        if (shape == 1 && below(5) == 0) offset += 1 + below(3);
        if (shape == 2) offset = below(4) * 8;  // random offsets
        const auto& [op, rs] = shape == 2 && below(2) == 0
                                   ? std::pair<int, std::uint64_t>(
                                         static_cast<int>(below(2)),
                                         1 + below(2))
                                   : cycle[j];
        recs.push_back(mkRec(0, 1, kOps[op], offset, tick++, rs));
      }
    }
  }
  return recs;
}

TEST(SegmentEquivalence, MatchesBruteForceReferenceOnRandomStreams) {
  std::uint64_t segmentsSeen = 0;
  std::uint64_t multiOpSeen = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const auto recs = randomStream(seed);
    for (int maxCycle = 1; maxCycle <= 6; ++maxCycle) {
      for (const std::size_t dpLimit : {std::size_t{4000}, std::size_t{8}}) {
        SegmentOptions options;
        options.maxCycle = maxCycle;
        options.dpLimit = dpLimit;
        const Cuts want = referenceSegmentation(recs, options);
        const auto got = segmentRecords(recs, options);
        ASSERT_EQ(got.size(), want.size())
            << "seed " << seed << " maxCycle " << maxCycle << " dpLimit "
            << dpLimit;
        std::size_t at = 0;
        for (std::size_t s = 0; s < got.size(); ++s) {
          const auto [k, c] = want[s];
          ASSERT_EQ(got[s].ops.size(), k) << "seed " << seed << " seg " << s;
          ASSERT_EQ(got[s].rep, c) << "seed " << seed << " seg " << s;
          for (std::size_t j = 0; j < k; ++j) {
            EXPECT_EQ(got[s].ops[j].initOffsetUnits,
                      recs[at + j].offsetUnits);
          }
          at += k * c;
          ++segmentsSeen;
          if (k > 1) ++multiOpSeen;
        }
        EXPECT_EQ(at, recs.size());
      }
    }
  }
  // The generator must actually exercise multi-op cycles.
  EXPECT_GT(multiOpSeen, segmentsSeen / 50);
}

// ------------------------------------------------------------ OffsetFn

TEST(OffsetFn, FitsLinearRankOffsets) {
  const std::uint64_t rs = 32 * MiB;
  std::vector<int> ranks{0, 1, 2, 3};
  std::vector<std::uint64_t> offsets;
  for (int r : ranks) {
    offsets.push_back(static_cast<std::uint64_t>(r) * 8 * rs);
  }
  auto fn = fitRankOffsets(ranks, offsets);
  EXPECT_TRUE(fn.exact);
  EXPECT_DOUBLE_EQ(fn.aBytes, 8.0 * rs);
  EXPECT_DOUBLE_EQ(fn.bBytes, 0.0);
  EXPECT_EQ(fn.eval(3, 0), offsets[3]);
}

TEST(OffsetFn, DetectsNonLinearOffsets) {
  std::vector<int> ranks{0, 1, 2};
  std::vector<std::uint64_t> offsets{0, 100, 500};
  auto fn = fitRankOffsets(ranks, offsets);
  EXPECT_FALSE(fn.exact);
}

TEST(OffsetFn, RendersPaperStyleMadbench) {
  const std::uint64_t rs = 32 * MiB;
  OffsetFn fn;
  fn.exact = true;
  fn.aBytes = 8.0 * rs;
  fn.bBytes = 2.0 * rs;
  EXPECT_EQ(fn.render(rs, 16), "idP*8*32MB + 2*32MB");
}

TEST(OffsetFn, RendersTableXiStyleWithPhaseTerm) {
  const std::uint64_t rs = 10 * MiB;
  OffsetFn fn;
  fn.exact = true;
  fn.aBytes = static_cast<double>(rs);
  fn.cBytes = static_cast<double>(rs) * 16;  // rs * np
  EXPECT_EQ(fn.render(rs, 16), "idP*10MB + 10MB*np*(ph-1)");
}

TEST(OffsetFn, FamilyFitRecoverPhaseStride) {
  const std::uint64_t rs = 10 * MiB;
  std::vector<OffsetFn> fns;
  for (int ph = 0; ph < 5; ++ph) {
    OffsetFn fn;
    fn.exact = true;
    fn.aBytes = static_cast<double>(rs);
    fn.bBytes = static_cast<double>(rs) * 16 * ph;
    fns.push_back(fn);
  }
  auto family = fitPhaseFamily(fns);
  EXPECT_TRUE(family.exact);
  EXPECT_DOUBLE_EQ(family.cBytes, static_cast<double>(rs) * 16);
  EXPECT_DOUBLE_EQ(family.bBytes, 0.0);
}

TEST(OffsetFn, FamilyFitRejectsIrregularProgression) {
  std::vector<OffsetFn> fns(3);
  for (auto& fn : fns) fn.exact = true;
  fns[0].bBytes = 0;
  fns[1].bBytes = 100;
  fns[2].bBytes = 300;  // not linear
  EXPECT_FALSE(fitPhaseFamily(fns).exact);
}

// --------------------------------------------------------------- Phases

/// Build a BT-IO style trace: nDumps collective writes per rank with comm
/// between dumps (tick gaps), then nDumps back-to-back reads.
TraceData btioTrace(int np, int nDumps, std::uint64_t rs) {
  TraceData data;
  data.appName = "btio-test";
  data.np = np;
  data.perRank.resize(static_cast<std::size_t>(np));
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.path = "btio.out";
  meta.etypeBytes = 1;
  meta.sawCollective = true;
  meta.sawExplicitOffsets = true;
  meta.np = np;
  data.files.push_back(meta);
  for (int r = 0; r < np; ++r) {
    std::uint64_t tick = 5;
    double time = 1.0;
    auto& recs = data.perRank[static_cast<std::size_t>(r)];
    for (int d = 0; d < nDumps; ++d) {
      recs.push_back(mkRec(r, 1, "MPI_File_write_at_all",
                           rs * static_cast<std::uint64_t>(r) +
                               rs * static_cast<std::uint64_t>(np) *
                                   static_cast<std::uint64_t>(d),
                           tick, rs, time, 0.2));
      tick += 30;  // solver communication between dumps
      time += 1.0;
    }
    for (int d = 0; d < nDumps; ++d) {
      recs.push_back(mkRec(r, 1, "MPI_File_read_at_all",
                           rs * static_cast<std::uint64_t>(r) +
                               rs * static_cast<std::uint64_t>(np) *
                                   static_cast<std::uint64_t>(d),
                           tick++, rs, time, 0.2));
      time += 0.25;
    }
  }
  return data;
}

TEST(Phase, BtioStructureMatchesTableXI) {
  const std::uint64_t rs = 10 * MiB;
  auto data = btioTrace(4, 40, rs);
  auto phases = detectPhases(data);
  // 40 write phases (tick gaps) + 1 read phase (contiguous ticks).
  ASSERT_EQ(phases.size(), 41u);
  for (int i = 0; i < 40; ++i) {
    const auto& p = phases[static_cast<std::size_t>(i)];
    EXPECT_EQ(p.rep, 1u);
    EXPECT_EQ(p.np(), 4);
    ASSERT_EQ(p.ops.size(), 1u);
    EXPECT_TRUE(p.ops[0].isWrite());
    EXPECT_EQ(p.weightBytes, 4 * rs);
  }
  const auto& readPhase = phases[40];
  EXPECT_EQ(readPhase.rep, 40u);
  EXPECT_FALSE(readPhase.ops[0].isWrite());
  EXPECT_EQ(readPhase.weightBytes, 4ull * 40 * rs);
  EXPECT_EQ(readPhase.ops[0].dispBytes, static_cast<std::int64_t>(4 * rs));
}

TEST(Phase, BtioWritePhasesShareOneFamilyWithPhaseTerm) {
  const std::uint64_t rs = 10 * MiB;
  auto data = btioTrace(4, 40, rs);
  auto phases = detectPhases(data);
  const int family = phases[0].familyId;
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(phases[static_cast<std::size_t>(i)].familyId, family);
    EXPECT_EQ(phases[static_cast<std::size_t>(i)].familyIndex, i);
  }
  const auto& fn = phases[0].ops[0].offsetFn;
  EXPECT_TRUE(fn.exact);
  EXPECT_DOUBLE_EQ(fn.aBytes, static_cast<double>(rs));
  EXPECT_DOUBLE_EQ(fn.cBytes, static_cast<double>(rs) * 4);
  // Phase 17, rank 2: idP*rs + rs*np*(ph-1).
  EXPECT_EQ(phases[16].ops[0].offsetFn.eval(2, phases[16].familyIndex),
            rs * 2 + rs * 4 * 16);
}

TEST(Phase, MeasuredWindowSpansRanks) {
  auto data = btioTrace(2, 3, MiB);
  auto phases = detectPhases(data);
  ASSERT_GE(phases.size(), 1u);
  const auto& p = phases[0];
  EXPECT_DOUBLE_EQ(p.startTime, 1.0);
  EXPECT_DOUBLE_EQ(p.endTime, 1.2);
  EXPECT_GT(p.measuredBandwidth(), 0.0);
}

/// MADbench2-style trace for np ranks: S (8 writes), W (2R,(RW)x6,2W),
/// C (8 reads), all contiguous ticks, offsets idP*8*rs + bin*rs.
TraceData madbenchTrace(int np, std::uint64_t rs) {
  TraceData data;
  data.appName = "madbench-test";
  data.np = np;
  data.perRank.resize(static_cast<std::size_t>(np));
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.path = "mad.out";
  meta.etypeBytes = 1;
  meta.sawIndividualPointers = true;
  meta.np = np;
  data.files.push_back(meta);
  for (int r = 0; r < np; ++r) {
    auto& recs = data.perRank[static_cast<std::size_t>(r)];
    const std::uint64_t base = static_cast<std::uint64_t>(r) * 8 * rs;
    std::uint64_t tick = 1;
    double time = 0;
    auto add = [&](const char* op, int bin) {
      recs.push_back(mkRec(r, 1, op, base + static_cast<std::uint64_t>(bin) * rs,
                           tick++, rs, time, 0.05));
      time += 0.1;
    };
    for (int i = 0; i < 8; ++i) add("MPI_File_write", i);   // S
    int nextRead = 0, nextWrite = 0;
    for (int step = 0; step < 10; ++step) {                 // W
      if (nextRead < 8) add("MPI_File_read", nextRead++);
      if (step >= 2) add("MPI_File_write", nextWrite++);
    }
    for (int i = 0; i < 8; ++i) add("MPI_File_read", i);    // C
  }
  return data;
}

TEST(Phase, MadbenchFivePhaseStructure) {
  const std::uint64_t rs = 32 * MiB;
  auto data = madbenchTrace(16, rs);
  auto phases = detectPhases(data);
  ASSERT_EQ(phases.size(), 5u);
  // Phase 1: 16 writes, rep 8, weight 4GB.
  EXPECT_EQ(phases[0].opTypeLabel(), "W");
  EXPECT_EQ(phases[0].rep, 8u);
  EXPECT_EQ(phases[0].weightBytes, 16ull * 8 * rs);
  // Phase 2: reads, rep 2, weight 1GB.
  EXPECT_EQ(phases[1].opTypeLabel(), "R");
  EXPECT_EQ(phases[1].rep, 2u);
  EXPECT_EQ(phases[1].weightBytes, 16ull * 2 * rs);
  // Phase 3: interleaved W-R, rep 6, weight 6GB total.
  EXPECT_EQ(phases[2].opTypeLabel(), "W-R");
  EXPECT_EQ(phases[2].rep, 6u);
  EXPECT_EQ(phases[2].ops.size(), 2u);
  EXPECT_EQ(phases[2].weightBytes, 16ull * 6 * 2 * rs);
  // Phase 4: writes, rep 2.
  EXPECT_EQ(phases[3].opTypeLabel(), "W");
  EXPECT_EQ(phases[3].rep, 2u);
  // Phase 5: reads, rep 8, weight 4GB.
  EXPECT_EQ(phases[4].opTypeLabel(), "R");
  EXPECT_EQ(phases[4].rep, 8u);
  EXPECT_EQ(phases[4].weightBytes, 16ull * 8 * rs);
}

TEST(Phase, MadbenchOffsetsMatchTableVIII) {
  const std::uint64_t rs = 32 * MiB;
  auto data = madbenchTrace(16, rs);
  auto phases = detectPhases(data);
  ASSERT_EQ(phases.size(), 5u);
  // Phase 1 initOffset = idP*8*32MB.
  const auto& fn1 = phases[0].ops[0].offsetFn;
  EXPECT_TRUE(fn1.exact);
  EXPECT_DOUBLE_EQ(fn1.aBytes, 8.0 * rs);
  EXPECT_EQ(fn1.render(rs, 16), "idP*8*32MB");
  // Phase 3 read op starts at idP*8*32MB + 2*32MB.
  const auto& readOp = phases[2].ops[0].isWrite() ? phases[2].ops[1]
                                                  : phases[2].ops[0];
  EXPECT_DOUBLE_EQ(readOp.offsetFn.bBytes, 2.0 * rs);
  EXPECT_EQ(readOp.offsetFn.render(rs, 16), "idP*8*32MB + 2*32MB");
}

TEST(Phase, OpCountMatchesTableIX) {
  auto data = madbenchTrace(16, 32 * MiB);
  auto phases = detectPhases(data);
  ASSERT_EQ(phases.size(), 5u);
  EXPECT_EQ(phases[0].opCount(), 128u);  // "128 W"
  EXPECT_EQ(phases[1].opCount(), 32u);   // "32 R"
  EXPECT_EQ(phases[2].opCount(), 192u);  // "192 W-R"
}

TEST(Phase, TickGapOptionMergesBtioWrites) {
  // Ablation: with a huge intra-phase gap allowance, BT-IO's 40 write
  // phases collapse into a single rep-40 phase.
  auto data = btioTrace(4, 40, MiB);
  PhaseDetectionOptions opt;
  opt.maxIntraPhaseTickGap = 1000;
  auto phases = detectPhases(data, opt);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].rep, 40u);
}

TEST(Phase, DistantTickClustersSplitDespiteSameSignature) {
  // Ranks 0-1 and ranks 2-3 execute the same pattern, but thousands of
  // ticks apart — they are different phases in application time, not one.
  TraceData data;
  data.appName = "skewed";
  data.np = 4;
  data.perRank.resize(4);
  data.commEventsPerRank.assign(4, 0);
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.np = 4;
  data.files.push_back(meta);
  for (int r = 0; r < 4; ++r) {
    const std::uint64_t baseTick = r < 2 ? 10 : 5000;
    data.perRank[static_cast<std::size_t>(r)].push_back(
        mkRec(r, 1, "MPI_File_write", static_cast<std::uint64_t>(r) * 100,
              baseTick, 100));
  }
  auto phases = detectPhases(data);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].ranks, (std::vector<int>{0, 1}));
  EXPECT_EQ(phases[1].ranks, (std::vector<int>{2, 3}));

  // A huge tolerance merges them back into one phase.
  PhaseDetectionOptions loose;
  loose.crossRankTickTolerance = 100000;
  EXPECT_EQ(detectPhases(data, loose).size(), 1u);
}

TEST(Phase, SmallTickSkewStaysOnePhase) {
  // The paper's +-1 tick skew between ranks must not split phases.
  TraceData data;
  data.appName = "skew1";
  data.np = 4;
  data.perRank.resize(4);
  data.commEventsPerRank.assign(4, 0);
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.np = 4;
  data.files.push_back(meta);
  const std::uint64_t ticks[] = {148, 147, 147, 147};  // Figure 2's skew
  for (int r = 0; r < 4; ++r) {
    data.perRank[static_cast<std::size_t>(r)].push_back(
        mkRec(r, 1, "MPI_File_write_at_all", 0, ticks[r], 10612080));
  }
  auto phases = detectPhases(data);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].np(), 4);
}

TEST(Phase, RenderTableContainsOffsetFormula) {
  auto data = madbenchTrace(4, 32 * MiB);
  auto phases = detectPhases(data);
  auto text = renderPhaseTable(phases, "Table");
  EXPECT_NE(text.find("idP*8*32MB"), std::string::npos);
  EXPECT_NE(text.find("InitOffset"), std::string::npos);
}

// --------------------------------------------------------------- Model

TEST(Model, NonBlockingMetadataSurvivesDerivation) {
  auto data = madbenchTrace(2, MiB);
  data.files[0].sawNonBlocking = true;
  auto model = extractModel(data);
  auto meta = model.metadataFor(1);
  EXPECT_FALSE(meta.blockingIo);
  EXPECT_NE(meta.describe().find("Non-blocking"), std::string::npos);
}

TEST(Model, NonBlockingMetadataSurvivesTraceAndModelFiles) {
  // trace -> writeTraces/readTraces -> extract -> save/load must keep the
  // non-blocking flag: both text formats once dropped it on disk.
  TraceData data;
  data.appName = "nb";
  data.np = 2;
  data.perRank.resize(2);
  data.commEventsPerRank.assign(2, 0);
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.path = "nb.out";
  meta.sawExplicitOffsets = true;
  meta.sawNonBlocking = true;
  meta.np = 2;
  data.files.push_back(meta);
  for (int r = 0; r < 2; ++r) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      data.perRank[static_cast<std::size_t>(r)].push_back(
          mkRec(r, 1, "MPI_File_iwrite_at",
                (static_cast<std::uint64_t>(r) * 4 + i) * MiB, 1 + i, MiB,
                0.1 * static_cast<double>(i), 0.05));
    }
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "iop_model_nonblocking";
  std::filesystem::remove_all(dir);
  trace::writeTraces(dir, data);
  const auto model = extractModel(trace::readTraces(dir, "nb"));
  EXPECT_FALSE(model.metadataFor(1).blockingIo);
  model.save(dir / "nb.model");
  const auto loaded = IOModel::load(dir / "nb.model");
  std::filesystem::remove_all(dir);
  const auto loadedMeta = loaded.metadataFor(1);
  EXPECT_FALSE(loadedMeta.blockingIo);
  EXPECT_NE(loadedMeta.describe().find("Non-blocking"), std::string::npos);
}

TEST(Model, MetadataDerivation) {
  auto data = madbenchTrace(4, 32 * MiB);
  auto model = extractModel(data);
  auto meta = model.metadataFor(1);
  EXPECT_EQ(meta.accessType, "Shared");
  EXPECT_EQ(meta.accessMode, "Sequential");
  EXPECT_FALSE(meta.collectiveIo);
  EXPECT_TRUE(meta.individualPointers);
}

TEST(Model, BtioMetadataIsStridedCollective) {
  auto data = btioTrace(4, 10, MiB);
  auto model = extractModel(data);
  auto meta = model.metadataFor(1);
  EXPECT_EQ(meta.accessMode, "Strided");
  EXPECT_TRUE(meta.collectiveIo);
  EXPECT_TRUE(meta.explicitOffsets);
}

TEST(Model, TotalWeightEqualsTraceBytes) {
  auto data = madbenchTrace(8, MiB);
  auto model = extractModel(data);
  EXPECT_EQ(model.totalWeightBytes(), data.totalBytes());
}

TEST(Model, SaveLoadRoundTrip) {
  auto data = btioTrace(4, 10, MiB);
  auto model = extractModel(data);
  const auto path = std::filesystem::temp_directory_path() /
                    "iop_model_test.model";
  model.save(path);
  auto loaded = IOModel::load(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.phases().size(), model.phases().size());
  EXPECT_EQ(loaded.np(), model.np());
  EXPECT_EQ(loaded.appName(), model.appName());
  for (std::size_t i = 0; i < model.phases().size(); ++i) {
    const auto& a = model.phases()[i];
    const auto& b = loaded.phases()[i];
    EXPECT_EQ(a.weightBytes, b.weightBytes);
    EXPECT_EQ(a.rep, b.rep);
    EXPECT_EQ(a.ranks, b.ranks);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    EXPECT_EQ(a.ops[0].rsBytes, b.ops[0].rsBytes);
    EXPECT_EQ(a.ops[0].initOffsetBytes, b.ops[0].initOffsetBytes);
  }
}

TEST(Model, GlobalPatternSeriesEmitsPoints) {
  auto data = btioTrace(2, 3, MiB);
  auto model = extractModel(data);
  auto series = model.renderGlobalPatternSeries();
  // 2 ranks * (3 write phases + 3 read reps) = 12 points + header.
  int lines = 0;
  for (char c : series) lines += c == '\n';
  EXPECT_EQ(lines, 13);
}

TEST(Compare, IdenticalModelsCompareEqual) {
  auto data = btioTrace(4, 6, MiB);
  auto a = extractModel(data);
  auto b = extractModel(data);
  auto diff = compareModels(a, b);
  EXPECT_TRUE(static_cast<bool>(diff));
  EXPECT_TRUE(diff.differences.empty());
}

TEST(Compare, DetectsStructuralDifferences) {
  auto a = extractModel(btioTrace(4, 6, MiB));
  auto b = extractModel(btioTrace(4, 6, 2 * MiB));  // different rs
  auto diff = compareModels(a, b);
  EXPECT_FALSE(static_cast<bool>(diff));
  EXPECT_FALSE(diff.differences.empty());
  auto c = extractModel(btioTrace(4, 5, MiB));  // different phase count
  auto diff2 = compareModels(a, c);
  EXPECT_FALSE(static_cast<bool>(diff2));
  EXPECT_NE(diff2.differences.front().find("phase counts"),
            std::string::npos);
}

TEST(Compare, IgnoresTimings) {
  auto data = btioTrace(4, 4, MiB);
  auto a = extractModel(data);
  // Same structure, different measured durations.
  for (auto& rankRecs : data.perRank) {
    for (auto& rec : rankRecs) rec.duration *= 10;
  }
  auto b = extractModel(data);
  EXPECT_TRUE(static_cast<bool>(compareModels(a, b)));
}

TEST(Model, SummaryMentionsAppAndPhases) {
  auto data = madbenchTrace(4, MiB);
  auto model = extractModel(data);
  auto text = model.renderSummary();
  EXPECT_NE(text.find("madbench-test"), std::string::npos);
  EXPECT_NE(text.find("Sequential"), std::string::npos);
}

}  // namespace
}  // namespace iop::core
