// Timeline recorder with Chrome trace-event JSON export.
//
// Captures begin/end spans, instant events, and counter samples keyed to
// *simulated* time (or, for the wall-clock profiler track, microseconds
// since the profiler epoch) and serializes them in the Trace Event Format
// that Perfetto and chrome://tracing load natively.
//
// Track model: a track is one (pid, tid) pair.  Track kinds map to fixed
// pids so Perfetto groups related timelines — one process group for MPI
// ranks (one thread per rank), one for storage devices, one for the
// analysis profiler, one for the engine itself.  Metadata events name the
// groups and tracks.
//
// The recorder is deliberately passive: it never reads the engine RNG and
// never schedules anything, so attaching it cannot perturb a simulation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace iop::obs {

/// Track kind == Chrome trace "process" group.  Values are the exported
/// pids (stable, part of the file format the tests check).
enum class TrackKind : int {
  Rank = 1,      ///< one track per MPI rank
  Device = 2,    ///< one track per storage device / cache
  Profiler = 3,  ///< wall-clock analysis-pipeline spans
  Sim = 4,       ///< engine-level counters (queue depth, dispatch rate)
  Worker = 5,    ///< wall-clock sweep-executor workers (SweepTelemetry)
};

/// Event phases we emit (subset of the Trace Event Format).
enum class EventPhase : char {
  Complete = 'X',  ///< span with ts + dur
  Instant = 'i',
  Counter = 'C',
};

struct TraceEvent {
  std::string name;
  std::string cat;
  EventPhase phase = EventPhase::Instant;
  int pid = 0;
  int tid = 0;
  double tsUs = 0;   ///< microseconds (simulated or wall, by track kind)
  double durUs = 0;  ///< Complete events only
  /// Pre-rendered JSON args object body ("\"k\":1,..."), empty = no args.
  std::string argsJson;
};

class TraceRecorder {
 public:
  /// Get-or-create the track for (kind, name); returns its tid.  Names are
  /// unique per kind; re-registering an existing name returns the same
  /// track.
  int track(TrackKind kind, const std::string& name);

  /// Convenience for the per-rank tracks ("rank 0", "rank 1", ...).
  int rankTrack(int rank);

  /// Span over [beginSec, endSec] in the track's timebase (seconds).
  void span(TrackKind kind, int tid, const std::string& name,
            const std::string& cat, double beginSec, double endSec,
            std::string argsJson = {});

  void instant(TrackKind kind, int tid, const std::string& name,
               const std::string& cat, double atSec,
               std::string argsJson = {});

  /// One sample of a counter series.  Chrome plots one series per
  /// (track, name); `value` lands in args as {"value": v}.
  void counterSample(TrackKind kind, int tid, const std::string& name,
                     double atSec, double value);

  std::size_t eventCount() const noexcept { return events_.size(); }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }

  /// Serialize as a Chrome trace JSON object.  Events are emitted sorted
  /// by timestamp (stable: insertion order breaks ties), so the output is
  /// strictly time-ordered and deterministic for a deterministic run.
  void writeJson(std::ostream& out) const;
  void saveJson(const std::string& path) const;

  /// Escape a string for embedding in a JSON string literal (exposed for
  /// callers pre-rendering argsJson).
  static std::string jsonEscape(const std::string& raw);

 private:
  struct Track {
    TrackKind kind;
    int tid = 0;
    std::string name;
  };

  std::map<std::pair<int, std::string>, int> trackIds_;  ///< (pid,name)->tid
  std::vector<Track> tracks_;
  std::map<int, int> nextTid_;  ///< per pid
  std::vector<TraceEvent> events_;
};

}  // namespace iop::obs
