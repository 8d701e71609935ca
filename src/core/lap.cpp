#include "core/lap.hpp"

#include "obs/profiler.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "core/phase.hpp"
#include "util/table.hpp"

namespace iop::core {

namespace {

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
  seg.repFirstTicks.resize(reps);
  seg.repLastTicks.resize(reps);
  seg.repStartTimes.resize(reps);
  seg.repEndTimes.resize(reps);
  seg.repIoDurations.resize(reps);
  seg.opWindows.resize(reps * k);
  for (std::size_t m = 0; m < reps; ++m) {
    const trace::Record& first = *r[i + m * k];
    const trace::Record& last = *r[i + m * k + k - 1];
    seg.repFirstTicks[m] = first.tick;
    seg.repLastTicks[m] = last.tick;
    seg.repStartTimes[m] = first.time;
    seg.repEndTimes[m] = last.time + last.duration;
    double io = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const trace::Record& op = *r[i + m * k + j];
      io += op.duration;
      seg.opWindows[m * k + j] = {op.time, op.time + op.duration};
    }
    seg.repIoDurations[m] = io;
  }
  return seg;
}

void appendSegments(RecordView records, const std::vector<Cut>& cuts,
                    std::vector<Segment>& out) {
  requireHomogeneous(records);
  std::size_t i = 0;
  for (const Cut& cut : cuts) {
    if (cut.k == 0 || cut.c == 0 || cut.c > (records.size() - i) / cut.k) {
      throw std::invalid_argument("cuts must tile the records");
    }
    out.push_back(makeSegment(records, i, cut.k, cut.c));
    i += cut.k * static_cast<std::size_t>(cut.c);
  }
  if (i != records.size()) {
    throw std::invalid_argument("cuts must tile the records");
  }
}

/// Dense ids for op names in order of first appearance, so scans and
/// shape hashes compare integers instead of strings.  A trace uses a
/// handful of names, found by a short scan without hashing; the map
/// bounds the cost of a hostile trace with many.  Entries point to the
/// records' own strings, which outlive the table.
class OpIds {
 public:
  std::uint32_t operator()(const std::string& op) {
    for (std::size_t i = 0; i < few_.size(); ++i) {
      if (*few_[i] == op) return static_cast<std::uint32_t>(i);
    }
    if (few_.size() < kFew) {
      few_.push_back(&op);
      return static_cast<std::uint32_t>(few_.size() - 1);
    }
    return many_
        .try_emplace(op, static_cast<std::uint32_t>(kFew + many_.size()))
        .first->second;
  }

 private:
  static constexpr std::size_t kFew = 8;
  std::vector<const std::string*> few_;
  std::unordered_map<std::string_view, std::uint32_t> many_;
};

/// Greedy segmentation for streams above dpLimit: at each start take the
/// cycle with the longest coverage (then the shortest cycle), counting
/// its repetitions by a forward scan.  The scan from `i` with cycle `k`
/// stops at the first record whose (op, size) differs from the one k back
/// or, from the third repetition on, whose delta to the record k back
/// differs from that record's own — the conditions CycleRuns tabulates.
/// Each scan stops within k records of the coverage the start picks, so
/// the whole pass costs O(maxCycle * n) with no per-record table.
std::vector<Cut> greedyCuts(RecordView r, std::size_t maxCycle) {
  const std::size_t n = r.size();
  std::vector<std::uint32_t> ops(n);
  OpIds opIds;
  for (std::size_t q = 0; q < n; ++q) ops[q] = opIds(r[q]->op);
  const auto repeats = [&](std::size_t i, std::size_t k) {
    std::size_t q = i + k;
    while (q < n && ops[q] == ops[q - k] &&
           r[q]->requestBytes == r[q - k]->requestBytes &&
           (q < i + 2 * k || offsetDelta(*r[q], *r[q - k]) ==
                                 offsetDelta(*r[q - k], *r[q - 2 * k]))) {
      ++q;
    }
    return static_cast<std::uint64_t>(1 + (q - i - k) / k);
  };
  std::vector<Cut> cuts;
  for (std::size_t i = 0; i < n;) {
    Cut best;
    std::uint64_t bestCoverage = 1;
    for (std::size_t k = 1; k <= maxCycle && i + k <= n; ++k) {
      const std::uint64_t c = repeats(i, k);
      if (k > 1 && c < 2) continue;
      if (c * k > bestCoverage) {
        bestCoverage = c * k;
        best = Cut{k, c};
      }
    }
    cuts.push_back(best);
    i += static_cast<std::size_t>(bestCoverage);
  }
  return cuts;
}

/// Hash of a view's shape: its length and, per record, the op id, the
/// request size and the offset delta to the previous record.  Leaves the
/// op ids in `ops`.
std::uint64_t shapeHash(RecordView r, OpIds& opIds,
                        std::vector<std::uint32_t>& ops) {
  ops.resize(r.size());
  std::uint64_t h = r.size();
  std::uint64_t prevOffset = r.empty() ? 0 : r[0]->offsetUnits;
  for (std::size_t q = 0; q < r.size(); ++q) {
    ops[q] = opIds(r[q]->op);
    const std::uint64_t v = ops[q] +
                            r[q]->requestBytes * 0xff51afd7ed558ccdULL +
                            (r[q]->offsetUnits - prevOffset) *
                                0xc4ceb9fe1a85ec53ULL;
    prevOffset = r[q]->offsetUnits;
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
  }
  return h ^ (h >> 32);
}

/// Whether views `a` and `b`, with op ids `aOps` and `bOps`, have one
/// shape.
bool sameShape(RecordView a, const std::vector<std::uint32_t>& aOps,
               RecordView b, const std::vector<std::uint32_t>& bOps) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (aOps[q] != bOps[q] || a[q]->requestBytes != b[q]->requestBytes ||
        (q > 0 && a[q]->offsetUnits - a[q - 1]->offsetUnits !=
                      b[q]->offsetUnits - b[q - 1]->offsetUnits)) {
      return false;
    }
  }
  return true;
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
  return makeSegments(records, segmentCuts(records, options));
}

std::vector<Segment> makeSegments(RecordView records,
                                  const std::vector<Cut>& cuts) {
  std::vector<Segment> out;
  out.reserve(cuts.size());
  appendSegments(records, cuts, out);
  return out;
}

std::vector<Cut> segmentCuts(RecordView records,
                             const SegmentOptions& options) {
  if (options.maxCycle < 1) {
    throw std::invalid_argument("maxCycle must be >= 1");
  }
  const std::size_t n = records.size();
  if (n == 0) return {};
  const auto maxCycle = static_cast<std::size_t>(options.maxCycle);
  if (n > options.dpLimit) return greedyCuts(records, maxCycle);
  const CycleRuns runs(records, maxCycle);

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

  std::vector<Cut> cuts;
  for (std::size_t i = 0; i < n;) {
    const Best& b = best[i];
    cuts.push_back(Cut{b.k, b.c});
    i += static_cast<std::size_t>(b.c) * b.k;
  }
  return cuts;
}

std::vector<Segment> segmentTrace(const trace::TraceData& data,
                                  const PhaseDetectionOptions& options) {
  IOP_PROFILE_SCOPE("lap.segment");
  /// The first view met with a shape hash — its record pointers into
  /// `data` and its op ids — and its cuts.
  struct Shape {
    std::vector<const trace::Record*> view;
    std::vector<std::uint32_t> ops;
    std::vector<Cut> cuts;
  };
  std::unordered_map<std::uint64_t, Shape> shapes;
  OpIds opIds;
  std::vector<std::uint32_t> ops;
  std::vector<Segment> segments;
  std::vector<const trace::Record*> rankRecords;
  const auto byFile = [](const trace::Record* a, const trace::Record* b) {
    return a->fileId < b->fileId;
  };
  for (int rank = 0; rank < data.np; ++rank) {
    rankRecords.clear();
    for (const auto& r : data.perRank[static_cast<std::size_t>(rank)]) {
      if (r.requestBytes >= options.ignoreOpsSmallerThan) {
        rankRecords.push_back(&r);
      }
    }
    // One view per file, in file-id order, records in stream order.
    if (!std::is_sorted(rankRecords.begin(), rankRecords.end(), byFile)) {
      std::stable_sort(rankRecords.begin(), rankRecords.end(), byFile);
    }
    for (auto begin = rankRecords.begin(); begin != rankRecords.end();) {
      const auto end = std::upper_bound(begin, rankRecords.end(), *begin,
                                        byFile);
      const RecordView view(std::to_address(begin),
                            static_cast<std::size_t>(end - begin));
      const auto [it, fresh] =
          shapes.try_emplace(shapeHash(view, opIds, ops));
      Shape& shape = it->second;
      if (fresh) {
        shape.view.assign(begin, end);
        shape.ops = ops;
        shape.cuts = segmentCuts(view, options.segmentation);
        appendSegments(view, shape.cuts, segments);
      } else if (sameShape(view, ops, shape.view, shape.ops)) {
        appendSegments(view, shape.cuts, segments);
      } else {  // a hash collision: segment this view on its own
        appendSegments(view, segmentCuts(view, options.segmentation),
                       segments);
      }
      begin = end;
    }
  }
  return segments;
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
