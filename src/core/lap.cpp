#include "core/lap.hpp"

#include "obs/profiler.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "util/table.hpp"

namespace iop::core {

namespace {

using RecordView = std::span<const trace::Record* const>;

const trace::Record& deref(const trace::Record& r) { return r; }
const trace::Record& deref(const trace::Record* r) { return *r; }

/// Works on record vectors and record views alike.
template <typename Records>
void requireHomogeneous(const Records& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (deref(records[i]).rank != deref(records[0]).rank ||
        deref(records[i]).fileId != deref(records[0]).fileId) {
      throw std::invalid_argument(
          "records must belong to a single (rank, file) pair");
    }
  }
}

bool sameSig(const trace::Record& a, const trace::Record& b) {
  return a.requestBytes == b.requestBytes && a.op == b.op;
}

/// Offset delta in the int64 domain; computed unsigned so that hostile
/// offsets wrap instead of overflowing.
std::int64_t offsetDelta(const trace::Record& later,
                         const trace::Record& earlier) {
  return static_cast<std::int64_t>(later.offsetUnits - earlier.offsetUnits);
}

}  // namespace

std::vector<Lap> extractLaps(const std::vector<trace::Record>& records) {
  requireHomogeneous(records);
  std::vector<Lap> laps;
  std::size_t i = 0;
  const std::size_t n = records.size();
  while (i < n) {
    Lap lap;
    lap.idP = records[i].rank;
    lap.idF = records[i].fileId;
    lap.op = records[i].op;
    lap.rsBytes = records[i].requestBytes;
    lap.initOffsetUnits = records[i].offsetUnits;
    lap.firstTick = records[i].tick;
    lap.lastTick = records[i].tick;
    lap.rep = 1;
    std::size_t j = i + 1;
    while (j < n && sameSig(records[j], records[i])) {
      const std::int64_t delta = offsetDelta(records[j], records[j - 1]);
      if (lap.rep == 1) {
        lap.dispUnits = delta;
      } else if (delta != lap.dispUnits) {
        break;
      }
      lap.lastTick = records[j].tick;
      ++lap.rep;
      ++j;
    }
    laps.push_back(std::move(lap));
    i = j;
  }
  return laps;
}

std::uint64_t Segment::bytesPerRep() const {
  std::uint64_t total = 0;
  for (const auto& op : ops) total += op.rsBytes;
  return total;
}

namespace {

/// Run-length tables that answer maxCycles(i, k) — the largest c such that
/// r[i, i + c*k) is c repetitions of the cycle r[i, i+k) with per-position
/// constant offset deltas — in O(1).  For each cycle length k and position
/// q, built in one backward pass:
///   sig(q, k):  how many positions p = q, q+1, ... in a row have
///               sig(p) == sig(p-k), sig being (op, request size);
///   disp(q, k): how many positions p = q, q+1, ... (p >= 2k) in a row have
///               delta(p) == delta(p-k), delta(p) = off(p) - off(p-k).
/// Equality is transitive, so the cycle at i repeats while records from
/// i+k on match the signature k back (hence the first block's) and
/// records from i+2k on keep the delta k back (hence the one the second
/// block set).  Table cost O(maxCycle * n), one (op, rs) compare per cell.
class CycleRuns {
 public:
  CycleRuns(RecordView r, std::size_t maxCycle)
      : n_(r.size()),
        width_(std::min(maxCycle, n_)),
        runs_((n_ + 1) * width_) {
    for (std::size_t q = n_; q-- > 0;) {
      for (std::size_t k = 1; k <= width_ && k <= q; ++k) {
        Run& run = at(q, k);
        const Run& next = at(q + 1, k);
        if (sameSig(*r[q], *r[q - k])) run.sig = next.sig + 1;
        if (q >= 2 * k && offsetDelta(*r[q], *r[q - k]) ==
                              offsetDelta(*r[q - k], *r[q - 2 * k])) {
          run.disp = next.disp + 1;
        }
      }
    }
  }

  std::uint64_t maxCycles(std::size_t i, std::size_t k) const {
    const std::size_t sig = i + k < n_ ? at(i + k, k).sig : 0;
    const std::size_t disp = i + 2 * k < n_ ? at(i + 2 * k, k).disp : 0;
    return 1 + std::min(sig, k + disp) / k;
  }

 private:
  struct Run {
    std::size_t sig = 0;
    std::size_t disp = 0;
  };

  Run& at(std::size_t q, std::size_t k) { return runs_[q * width_ + k - 1]; }
  const Run& at(std::size_t q, std::size_t k) const {
    return runs_[q * width_ + k - 1];
  }

  std::size_t n_;
  std::size_t width_;
  std::vector<Run> runs_;  ///< row q (0..n, row n all zero), column k-1
};

Segment makeSegment(RecordView r, std::size_t i, std::size_t k,
                    std::uint64_t c) {
  Segment seg;
  seg.idP = r[i]->rank;
  seg.idF = r[i]->fileId;
  seg.ops.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    CycleOp op;
    op.op = r[i + j]->op;
    op.rsBytes = r[i + j]->requestBytes;
    op.initOffsetUnits = r[i + j]->offsetUnits;
    op.dispUnits = c >= 2 ? offsetDelta(*r[i + k + j], *r[i + j]) : 0;
    seg.ops.push_back(std::move(op));
  }
  seg.rep = c;
  const auto reps = static_cast<std::size_t>(c);
  seg.repFirstTicks.reserve(reps);
  seg.repLastTicks.reserve(reps);
  seg.repStartTimes.reserve(reps);
  seg.repEndTimes.reserve(reps);
  seg.repIoDurations.reserve(reps);
  seg.opWindows.reserve(reps * k);
  for (std::size_t m = 0; m < reps; ++m) {
    const trace::Record& first = *r[i + m * k];
    const trace::Record& last = *r[i + m * k + k - 1];
    seg.repFirstTicks.push_back(first.tick);
    seg.repLastTicks.push_back(last.tick);
    seg.repStartTimes.push_back(first.time);
    seg.repEndTimes.push_back(last.time + last.duration);
    double io = 0;
    for (std::size_t p = i + m * k; p < i + m * k + k; ++p) {
      io += r[p]->duration;
      seg.opWindows.emplace_back(r[p]->time, r[p]->time + r[p]->duration);
    }
    seg.repIoDurations.push_back(io);
  }
  return seg;
}

std::vector<Segment> segmentGreedy(RecordView r, const CycleRuns& runs,
                                   std::size_t maxCycle) {
  std::vector<Segment> out;
  std::size_t i = 0;
  const std::size_t n = r.size();
  while (i < n) {
    std::size_t bestK = 1;
    std::uint64_t bestC = 1;
    std::uint64_t bestCoverage = 1;
    for (std::size_t k = 1; k <= maxCycle && i + k <= n; ++k) {
      const std::uint64_t c = runs.maxCycles(i, k);
      if (k > 1 && c < 2) continue;
      const std::uint64_t coverage = c * k;
      if (coverage > bestCoverage) {
        bestCoverage = coverage;
        bestK = k;
        bestC = c;
      }
    }
    out.push_back(makeSegment(r, i, bestK, bestC));
    i += static_cast<std::size_t>(bestCoverage);
  }
  return out;
}

}  // namespace

std::vector<Segment> segmentRecords(const std::vector<trace::Record>& records,
                                    const SegmentOptions& options) {
  std::vector<const trace::Record*> view;
  view.reserve(records.size());
  for (const auto& r : records) view.push_back(&r);
  return segmentRecordView(view, options);
}

std::vector<Segment> segmentRecordView(RecordView records,
                                       const SegmentOptions& options) {
  IOP_PROFILE_SCOPE("lap.segment");
  requireHomogeneous(records);
  if (options.maxCycle < 1) {
    throw std::invalid_argument("maxCycle must be >= 1");
  }
  const std::size_t n = records.size();
  if (n == 0) return {};
  const auto maxCycle = static_cast<std::size_t>(options.maxCycle);
  const CycleRuns runs(records, maxCycle);
  if (n > options.dpLimit) return segmentGreedy(records, runs, maxCycle);

  // DP over suffixes: minimize segment count, tie-break on maximal
  // sum-of-squared segment lengths (prefers long cycles — e.g. the paper's
  // [R x2][(R,W) x6][W x2] split of MADbench2's W function over the greedy
  // [R x3][(W,R) x5][W x3]).  Every suffix is reachable (k = 1, c = 1
  // always applies); transitions read the run tables, never the records.
  struct Best {
    std::uint64_t segments = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t score = 0;  // sum of squared lengths
    std::size_t k = 1;
    std::uint64_t c = 1;
  };
  std::vector<Best> best(n + 1);
  best[n] = Best{0, 0, 1, 0};
  for (std::size_t i = n; i-- > 0;) {
    Best& cur = best[i];
    for (std::size_t k = 1; k <= maxCycle && i + k <= n; ++k) {
      const std::uint64_t cMax = runs.maxCycles(i, k);
      for (std::uint64_t c = k == 1 ? 1 : 2; c <= cMax; ++c) {
        const Best& next = best[i + static_cast<std::size_t>(c) * k];
        const std::uint64_t len = c * k;
        const std::uint64_t segs = next.segments + 1;
        const std::uint64_t score = next.score + len * len;
        if (segs < cur.segments ||
            (segs == cur.segments && score > cur.score) ||
            (segs == cur.segments && score == cur.score && k < cur.k)) {
          cur = Best{segs, score, k, c};
        }
      }
    }
  }

  std::vector<Segment> out;
  std::size_t i = 0;
  while (i < n) {
    const Best& b = best[i];
    out.push_back(makeSegment(records, i, b.k, b.c));
    i += static_cast<std::size_t>(b.c) * b.k;
  }
  return out;
}

std::string renderLapTable(const std::vector<Lap>& laps) {
  util::Table table;
  table.setHeader({"IdP", "IdF", "MPI-Operation", "Rep", "RequestSize",
                   "Disp", "OffsetInit"},
                  {util::Align::Right, util::Align::Right, util::Align::Left,
                   util::Align::Right, util::Align::Right, util::Align::Right,
                   util::Align::Right});
  for (const auto& lap : laps) {
    table.addRow({std::to_string(lap.idP), std::to_string(lap.idF), lap.op,
                  std::to_string(lap.rep), std::to_string(lap.rsBytes),
                  std::to_string(lap.dispUnits),
                  std::to_string(lap.initOffsetUnits)});
  }
  return table.render();
}

}  // namespace iop::core
