#include "core/phase.hpp"

#include "obs/profiler.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/table.hpp"
#include "util/text.hpp"
#include "util/units.hpp"

namespace iop::core {

namespace {

/// A tick-contiguous slice — repetitions [repBegin, repEnd) — of one rank's
/// segment: a candidate phase member.  Slices refer to their segment
/// instead of copying its ops and windows.
struct LocalPhase {
  const Segment* seg = nullptr;
  std::uint64_t repBegin = 0;
  std::uint64_t repEnd = 0;

  int idP() const { return seg->idP; }
  int idF() const { return seg->idF; }
  std::uint64_t rep() const { return repEnd - repBegin; }
  std::uint64_t firstTick() const { return seg->repFirstTicks[repBegin]; }
  std::uint64_t lastTick() const { return seg->repLastTicks[repEnd - 1]; }
  double startTime() const { return seg->repStartTimes[repBegin]; }
  double endTime() const { return seg->repEndTimes[repEnd - 1]; }
  /// Offset of cycle position j in the slice's first repetition (modular,
  /// so hostile offsets wrap instead of overflowing).
  std::uint64_t initOffsetUnits(std::size_t j) const {
    const CycleOp& op = seg->ops[j];
    return op.initOffsetUnits +
           static_cast<std::uint64_t>(op.dispUnits) * repBegin;
  }
  double ioDuration() const {
    double total = 0;
    for (std::uint64_t m = repBegin; m < repEnd; ++m) {
      total += seg->repIoDurations[m];
    }
    return total;
  }
};

/// The grouping key text "rep|op:rs:disp;...": local phases group only
/// with equal text, and groups are ordered by it.
void appendSignature(std::string& out, const std::vector<CycleOp>& ops,
                     std::uint64_t rep) {
  util::appendChars(out, rep);
  out += '|';
  for (const auto& op : ops) {
    out += op.op;
    out += ':';
    util::appendChars(out, op.rsBytes);
    out += ':';
    util::appendChars(out, op.dispUnits);
    out += ';';
  }
}

/// Split one segment at tick gaps into local phases.
void splitSegment(const Segment& seg, std::uint64_t maxGap,
                  std::vector<LocalPhase>& out) {
  std::uint64_t m = 0;
  while (m < seg.rep) {
    std::uint64_t end = m + 1;
    while (end < seg.rep &&
           seg.repFirstTicks[end] - seg.repLastTicks[end - 1] <= maxGap) {
      ++end;
    }
    LocalPhase lp;
    lp.seg = &seg;
    lp.repBegin = m;
    lp.repEnd = end;
    out.push_back(lp);
    m = end;
  }
}

/// Total length of the union of wall windows (sorts them in place).
double unionSeconds(std::vector<std::pair<double, double>>& windows) {
  if (windows.empty()) return 0;
  std::sort(windows.begin(), windows.end());
  double total = 0;
  double curBegin = windows.front().first;
  double curEnd = windows.front().second;
  for (const auto& [b, e] : windows) {
    if (b > curEnd) {
      total += curEnd - curBegin;
      curBegin = b;
      curEnd = e;
    } else {
      curEnd = std::max(curEnd, e);
    }
  }
  total += curEnd - curBegin;
  return total;
}

}  // namespace

bool Phase::anyCollective() const {
  for (const auto& op : ops) {
    if (trace::isCollectiveOp(op.op)) return true;
  }
  return false;
}

std::string Phase::opTypeLabel() const {
  bool hasWrite = false;
  bool hasRead = false;
  for (const auto& op : ops) {
    if (op.isWrite()) {
      hasWrite = true;
    } else {
      hasRead = true;
    }
  }
  if (hasWrite && hasRead) return "W-R";
  return hasWrite ? "W" : "R";
}

std::vector<Phase> detectPhases(const trace::TraceData& data,
                                const PhaseDetectionOptions& options) {
  IOP_PROFILE_SCOPE("phase.group");
  // 1. Segment every (rank, file) view, then tick-split into local
  // phases.  Locals come out rank-major, file- then tick-ordered within a
  // rank.
  const std::vector<Segment> segments = segmentTrace(data, options);
  std::vector<LocalPhase> locals;
  for (const auto& seg : segments) {
    splitSegment(seg, options.maxIntraPhaseTickGap, locals);
  }

  // 2. Bucket locals by (file, signature, occurrence): the k-th local
  // phase of a rank with a given (file, signature) groups with the other
  // ranks' k-th occurrence.  Each (file, signature) stream keeps one
  // bucket of local indices per occurrence; locals arrive rank-major and a
  // rank has at most one member per bucket, so each bucket fills in rank
  // order.  A rank's occurrence counts restart whenever the rank changes
  // from one local to the next.  Streams are keyed by (file, signature
  // text), so iterating the map visits the groups in key order.  Locals of
  // one segment with equal rep share their text, so only a change of
  // segment or rep builds it anew.
  struct Stream {
    std::size_t epoch = std::numeric_limits<std::size_t>::max();
    std::size_t seen = 0;  ///< this epoch's occurrences so far
    std::vector<std::vector<std::size_t>> buckets;
  };
  std::map<std::pair<int, std::string>, Stream> streams;
  Stream* stream = nullptr;
  std::size_t epoch = 0;  ///< bumps when the rank changes between locals
  for (std::size_t i = 0; i < locals.size(); ++i) {
    const LocalPhase& lp = locals[i];
    if (i > 0 && lp.idP() != locals[i - 1].idP()) ++epoch;
    if (i == 0 || lp.seg != locals[i - 1].seg ||
        lp.rep() != locals[i - 1].rep()) {
      std::pair<int, std::string> key(lp.idF(), std::string());
      appendSignature(key.second, lp.seg->ops, lp.rep());
      stream = &streams[std::move(key)];
    }
    Stream& s = *stream;
    if (s.epoch != epoch) {
      s.epoch = epoch;
      s.seen = 0;
    }
    if (s.seen == s.buckets.size()) s.buckets.emplace_back();
    s.buckets[s.seen++].push_back(i);
  }

  // 3. Order each bucket by (first tick, local index), i.e. by first tick
  // and then rank; a bucket whose ranks start together is in that order
  // already.  Temporal validation: members of one phase must overlap in
  // logical time (the paper's traces show +-1 tick of skew).  If a
  // bucket's members cluster at distant ticks — ranks executing the same
  // pattern at truly different times — it splits into tick clusters
  // separated by more than the tolerance.
  const auto tickOrder = [&locals](std::size_t a, std::size_t b) {
    return std::pair(locals[a].firstTick(), a) <
           std::pair(locals[b].firstTick(), b);
  };
  // 4. Build global phases, one per tick cluster, members in rank order.
  std::vector<Phase> phases;
  std::vector<std::pair<double, double>> windows;
  auto buildPhase = [&](std::span<std::size_t> members) {
    std::sort(members.begin(), members.end(),
              [&locals](std::size_t a, std::size_t b) {
                return std::pair(locals[a].idP(), a) <
                       std::pair(locals[b].idP(), b);
              });
    const LocalPhase& first = locals[members.front()];
    Phase phase;
    phase.idF = first.idF();
    phase.rep = first.rep();
    phase.firstTick = first.firstTick();
    phase.lastTick = first.lastTick();
    phase.startTime = first.startTime();
    phase.endTime = first.endTime();
    const std::uint64_t etype =
        data.fileMeta(phase.idF) != nullptr
            ? data.fileMeta(phase.idF)->etypeBytes
            : 1;
    const std::size_t k = first.seg->ops.size();
    for (const auto& op : first.seg->ops) {
      PhaseOp po;
      po.op = op.op;
      po.rsBytes = op.rsBytes;
      po.dispBytes = op.dispUnits * static_cast<std::int64_t>(etype);
      po.initOffsetBytes.reserve(members.size());
      phase.ops.push_back(std::move(po));
    }
    phase.ranks.reserve(members.size());
    windows.clear();
    for (const std::size_t idx : members) {
      const LocalPhase& lp = locals[idx];
      const double ioDuration = lp.ioDuration();
      phase.ranks.push_back(lp.idP());
      phase.firstTick = std::min(phase.firstTick, lp.firstTick());
      phase.lastTick = std::max(phase.lastTick, lp.lastTick());
      phase.startTime = std::min(phase.startTime, lp.startTime());
      phase.endTime = std::max(phase.endTime, lp.endTime());
      phase.sumIoDuration += ioDuration;
      phase.maxRankIoDuration = std::max(phase.maxRankIoDuration,
                                         ioDuration);
      for (std::size_t j = 0; j < k; ++j) {
        phase.ops[j].initOffsetBytes.push_back(lp.initOffsetUnits(j) *
                                               etype);
      }
      const auto& opWindows = lp.seg->opWindows;
      windows.insert(windows.end(),
                     opWindows.begin() +
                         static_cast<std::ptrdiff_t>(lp.repBegin * k),
                     opWindows.begin() +
                         static_cast<std::ptrdiff_t>(lp.repEnd * k));
    }
    phase.ioUnionSeconds = unionSeconds(windows);
    std::uint64_t cycleBytes = 0;
    for (const auto& op : phase.ops) cycleBytes += op.rsBytes;
    phase.weightBytes = static_cast<std::uint64_t>(phase.ranks.size()) *
                        phase.rep * cycleBytes;
    phases.push_back(std::move(phase));
  };
  for (auto& entry : streams) {
    for (auto& bucket : entry.second.buckets) {
      if (!std::is_sorted(bucket.begin(), bucket.end(), tickOrder)) {
        std::sort(bucket.begin(), bucket.end(), tickOrder);
      }
      std::size_t clusterBegin = 0;
      for (std::size_t i = 1; i <= bucket.size(); ++i) {
        if (i < bucket.size() &&
            locals[bucket[i]].firstTick() - locals[bucket[i - 1]].firstTick() <=
                options.crossRankTickTolerance) {
          continue;
        }
        buildPhase(std::span(bucket).subspan(clusterBegin, i - clusterBegin));
        clusterBegin = i;
      }
    }
  }

  // 5. Order by first tick (stable on weight/file for determinism).
  std::sort(phases.begin(), phases.end(), [](const Phase& a, const Phase& b) {
    if (a.firstTick != b.firstTick) return a.firstTick < b.firstTick;
    if (a.idF != b.idF) return a.idF < b.idF;
    return a.weightBytes > b.weightBytes;
  });

  // 6. Assign ids, then families and offset functions.  Families group
  // consecutive same-signature phases *of the same file*, so interleaved
  // multi-file timelines (e.g. a restart record between history records)
  // do not break a file's progression.
  for (std::size_t i = 0; i < phases.size(); ++i) {
    phases[i].id = static_cast<int>(i) + 1;
  }
  auto sameFamily = [](const Phase& a, const Phase& b) {
    if (a.rep != b.rep || a.ranks != b.ranks ||
        a.ops.size() != b.ops.size()) {
      return false;
    }
    for (std::size_t j = 0; j < a.ops.size(); ++j) {
      if (a.ops[j].op != b.ops[j].op ||
          a.ops[j].rsBytes != b.ops[j].rsBytes) {
        return false;
      }
    }
    return true;
  };
  std::map<int, std::vector<std::size_t>> byFile;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    byFile[phases[i].idF].push_back(i);
  }
  int nextFamily = 0;
  auto closeFamily = [&phases, &nextFamily](
                         const std::vector<std::size_t>& members) {
    const std::size_t opCount = phases[members.front()].ops.size();
    for (std::size_t j = 0; j < opCount; ++j) {
      std::vector<OffsetFn> fns;
      for (std::size_t p : members) {
        fns.push_back(fitRankOffsets(phases[p].ranks,
                                     phases[p].ops[j].initOffsetBytes));
      }
      const OffsetFn family = fitPhaseFamily(fns);
      for (std::size_t m = 0; m < members.size(); ++m) {
        const std::size_t p = members[m];
        phases[p].ops[j].offsetFn = family.exact ? family : fns[m];
        phases[p].familyId = nextFamily;
        phases[p].familyIndex = static_cast<int>(m);
      }
    }
    ++nextFamily;
  };
  for (auto& [fileId, indices] : byFile) {
    std::vector<std::size_t> family;
    for (std::size_t idx : indices) {
      if (!family.empty() &&
          !sameFamily(phases[family.back()], phases[idx])) {
        closeFamily(family);
        family.clear();
      }
      family.push_back(idx);
    }
    if (!family.empty()) closeFamily(family);
  }
  return phases;
}

std::string renderPhaseTable(const std::vector<Phase>& phases,
                             const std::string& title) {
  util::Table table(title);
  table.setHeader({"Phase", "#Oper.", "InitOffset", "Rep", "weight"},
                  {util::Align::Left, util::Align::Left, util::Align::Left,
                   util::Align::Right, util::Align::Right});
  for (const auto& phase : phases) {
    for (std::size_t j = 0; j < phase.ops.size(); ++j) {
      const auto& op = phase.ops[j];
      const std::string phaseLabel =
          j == 0 ? std::to_string(phase.id) : std::string{};
      table.addRow(
          {phaseLabel,
           std::to_string(phase.np()) + " " + (op.isWrite() ? "write"
                                                            : "read"),
           op.offsetFn.render(op.rsBytes, phase.np()),
           std::to_string(phase.rep),
           util::formatBytes(static_cast<std::uint64_t>(phase.np()) *
                             phase.rep * op.rsBytes)});
    }
  }
  return table.render();
}

}  // namespace iop::core
