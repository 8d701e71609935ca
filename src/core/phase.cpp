#include "core/phase.hpp"

#include "obs/profiler.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>

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
  std::size_t signature = 0;   ///< signature id, then its rank (steps 2-3)
  std::size_t occurrence = 0;  ///< n-th of this rank's (file, signature)

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
  // 1. Per (rank, file): segment, then tick-split into local phases.
  // Locals come out rank-major, file- then tick-ordered within a rank.
  std::vector<Segment> segments;
  for (int rank = 0; rank < data.np; ++rank) {
    const auto& records = data.perRank[static_cast<std::size_t>(rank)];
    // Partition this rank's records by file, preserving order; drop
    // metadata noise when a threshold is configured.
    std::map<int, std::vector<const trace::Record*>> byFile;
    for (const auto& r : records) {
      if (r.requestBytes < options.ignoreOpsSmallerThan) continue;
      byFile[r.fileId].push_back(&r);
    }
    for (const auto& [fileId, fileRecords] : byFile) {
      auto segs = segmentRecordView(fileRecords, options.segmentation);
      std::move(segs.begin(), segs.end(), std::back_inserter(segments));
    }
  }
  std::vector<LocalPhase> locals;
  for (const auto& seg : segments) {
    splitSegment(seg, options.maxIntraPhaseTickGap, locals);
  }

  // 2. Intern signature texts; a signature's id becomes its rank in text
  // order, so (file, signature, occurrence) keys compare as integers.
  std::map<std::string, std::size_t> textIds;
  {
    std::string text;
    for (auto& lp : locals) {
      text.clear();
      appendSignature(text, lp.seg->ops, lp.rep());
      auto it = textIds.find(text);
      if (it == textIds.end()) {
        it = textIds.emplace(text, textIds.size()).first;
      }
      lp.signature = it->second;
    }
  }
  std::vector<std::size_t> textRank(textIds.size());
  {
    std::size_t rank = 0;
    for (const auto& entry : textIds) textRank[entry.second] = rank++;
  }

  // 3. Assign per-rank occurrence counters so the k-th local phase with a
  // given (file, signature) groups with the other ranks' k-th occurrence.
  std::map<std::pair<int, std::size_t>, std::size_t> occurrenceCounter;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    auto& lp = locals[i];
    if (i > 0 && lp.idP() != locals[i - 1].idP()) occurrenceCounter.clear();
    lp.signature = textRank[lp.signature];
    lp.occurrence = occurrenceCounter[{lp.idF(), lp.signature}]++;
  }

  // 4. Group by (file, signature, occurrence), members in tick order.
  // Temporal validation: members of one phase must overlap in logical time
  // (the paper's traces show +-1 tick of skew).  If a group's members
  // cluster at distant ticks — ranks executing the same pattern at truly
  // different times — split it into tick clusters separated by more than
  // the tolerance.  A rank has at most one member per group, so idP
  // completes a total order.
  auto groupKey = [&locals](std::size_t i) {
    const LocalPhase& lp = locals[i];
    return std::make_tuple(lp.idF(), lp.signature, lp.occurrence);
  };
  std::vector<std::size_t> order(locals.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tuple_cat(groupKey(a), std::make_tuple(locals[a].firstTick(),
                                                       locals[a].idP())) <
           std::tuple_cat(groupKey(b), std::make_tuple(locals[b].firstTick(),
                                                       locals[b].idP()));
  });

  // 5. Build global phases, one per tick cluster, members in rank order.
  std::vector<Phase> phases;
  std::vector<std::pair<double, double>> windows;
  auto buildPhase = [&](std::span<std::size_t> members) {
    std::sort(members.begin(), members.end(),
              [&locals](std::size_t a, std::size_t b) {
                return locals[a].idP() < locals[b].idP();
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
  std::size_t clusterBegin = 0;
  for (std::size_t i = 1; i <= order.size(); ++i) {
    if (i < order.size() && groupKey(order[i]) == groupKey(order[i - 1]) &&
        locals[order[i]].firstTick() - locals[order[i - 1]].firstTick() <=
            options.crossRankTickTolerance) {
      continue;
    }
    buildPhase(std::span(order).subspan(clusterBegin, i - clusterBegin));
    clusterBegin = i;
  }

  // 6. Order by first tick (stable on weight/file for determinism).
  std::sort(phases.begin(), phases.end(), [](const Phase& a, const Phase& b) {
    if (a.firstTick != b.firstTick) return a.firstTick < b.firstTick;
    if (a.idF != b.idF) return a.idF < b.idF;
    return a.weightBytes > b.weightBytes;
  });

  // 7. Assign ids, then families and offset functions.  Families group
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
