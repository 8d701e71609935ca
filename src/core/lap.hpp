// Local access patterns (LAPs) and per-process pattern segmentation.
//
// Two related compressions of a process's I/O record stream:
//
//  * extractLaps — the paper's Figure-3 view: maximal runs of one
//    operation with constant request size and constant displacement,
//    collapsed to (op, rep, rs, disp, initOffset).  Ticks are ignored; this
//    is the human-readable pattern summary.
//
//  * segmentRecords — the input to phase detection: an optimal (fewest
//    segments, then longest cycles) segmentation of the record stream into
//    repeating cycles of up to K distinct operations, so interleaved
//    patterns like MADbench2's read/write pipeline in its W function
//    compress to one multi-op segment instead of 2N single-op fragments.
//
// Segmentation runs in two steps.  segmentCuts chooses where segments end
// from each record's (op, request size, offset - previous offset) alone —
// the stream's *shape*; makeSegments fills in the rest (initial offsets,
// ticks, times, durations) from the records.  The ranks of an SPMD run
// usually differ only in their initial offsets (the paper's "similar ...
// except initialOffset") and so share one shape: segmentTrace chooses the
// cuts once per distinct shape of a trace and reuses them for every rank
// with that shape.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/tracer.hpp"

namespace iop::core {

struct PhaseDetectionOptions;  // core/phase.hpp

/// One Figure-3 row: a repeated single-operation access pattern local to a
/// process.  Offsets/displacements are in the trace's offset units (etypes
/// of the file view); byte conversion happens at the phase level using the
/// file metadata.
struct Lap {
  int idP = 0;
  int idF = 0;
  std::string op;
  std::uint64_t rep = 0;
  std::uint64_t rsBytes = 0;
  std::int64_t dispUnits = 0;       ///< offset delta per repetition
  std::uint64_t initOffsetUnits = 0;
  std::uint64_t firstTick = 0;
  std::uint64_t lastTick = 0;
};

/// Extract Figure-3 LAPs from one rank's records of one file (records must
/// be in tick order, as traced).
std::vector<Lap> extractLaps(const std::vector<trace::Record>& records);

/// One position of a segment's operation cycle.
struct CycleOp {
  std::string op;
  std::uint64_t rsBytes = 0;
  /// Offset delta between consecutive cycle repetitions at this position
  /// (offset units).  Meaningless when the segment has rep == 1.
  std::int64_t dispUnits = 0;
  std::uint64_t initOffsetUnits = 0;  ///< offset of the first repetition
};

/// A maximal repeated cycle in one rank's record stream.
struct Segment {
  int idP = 0;
  int idF = 0;
  std::vector<CycleOp> ops;  ///< the cycle (size 1 for plain runs)
  std::uint64_t rep = 0;     ///< number of cycle repetitions
  /// tick / time of each repetition boundary: tick of the first op of each
  /// repetition, used by phase splitting.
  std::vector<std::uint64_t> repFirstTicks;
  std::vector<std::uint64_t> repLastTicks;
  std::vector<double> repStartTimes;
  std::vector<double> repEndTimes;
  /// Sum of per-repetition durations (all ops), for measured bandwidth.
  std::vector<double> repIoDurations;
  /// [start, end) wall window of every individual operation, rep-major
  /// (rep * ops.size() entries): the raw material for exact busy-time
  /// union computations.
  std::vector<std::pair<double, double>> opWindows;

  std::uint64_t bytesPerRep() const;
};

struct SegmentOptions {
  /// Maximum cycle length considered (>= 1).
  int maxCycle = 4;
  /// Above this record count the exact DP is replaced by a greedy scan.
  std::size_t dpLimit = 4000;
};

/// Where one segment ends: `c` repetitions of a `k`-record cycle, so it
/// covers `k * c` records.
struct Cut {
  std::size_t k = 1;
  std::uint64_t c = 1;
};

using RecordView = std::span<const trace::Record* const>;

/// Segment one rank's records of one file into repeated cycles.
std::vector<Segment> segmentRecords(const std::vector<trace::Record>& records,
                                    const SegmentOptions& options = {});

/// segmentRecords over a view of records held elsewhere (e.g. one file's
/// slice of a rank's multi-file stream), so callers need not copy them:
/// makeSegments(records, segmentCuts(records, options)).
std::vector<Segment> segmentRecordView(RecordView records,
                                       const SegmentOptions& options = {});

/// The segmentation's cuts, front to back.  They depend only on each
/// record's op, request size and offset delta to the previous record, so
/// two views with equal such sequences get equal cuts.
std::vector<Cut> segmentCuts(RecordView records,
                             const SegmentOptions& options = {});

/// The segments `cuts` (from segmentCuts) make of `records`.  Throws
/// std::invalid_argument unless the records belong to one (rank, file)
/// and the cuts cover them exactly.
std::vector<Segment> makeSegments(RecordView records,
                                  const std::vector<Cut>& cuts);

/// Step 1 of detectPhases: the segments of every (rank, file) view of
/// `data` — ranks in order, a rank's files in id order, records smaller
/// than options.ignoreOpsSmallerThan dropped — with segmentCuts run once
/// per distinct view shape, not once per view.
std::vector<Segment> segmentTrace(const trace::TraceData& data,
                                  const PhaseDetectionOptions& options);

/// Render LAPs as the paper's Figure-3 table.
std::string renderLapTable(const std::vector<Lap>& laps);

}  // namespace iop::core
