// Spans of the traced run.
//
// The benchmark records one span around every public call an op makes
// (name, layer, start, end, parent, op id), plus the op's root span.
// While an op is open it also mirrors the program's own obs::Profiler
// sections ("app.run", "lap.segment", "replay.measure", ...) in as child
// spans, which splits a public call where the split lives inside the
// library.  Everything stays in memory until saveChromeJson() at exit.
//
// A disabled recorder (the untraced run) records nothing and reads no
// clock, so the untraced ops pay one branch per call.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace e2e {

struct Span {
  int parent = -1;  ///< index into Spans::spans(); -1 for an op root
  int op = 0;
  std::string name;
  std::string layer;  ///< repository module the time is charged to
  double start = 0;   ///< seconds since the recorder was created
  double end = 0;

  double seconds() const noexcept { return end - start; }
};

class Spans {
 public:
  explicit Spans(bool enabled);
  ~Spans();

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  class Scope {
   public:
    Scope(Spans* owner, const char* name, const char* layer);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Spans* owner_;  ///< null when the recorder is disabled
    int index_ = -1;
  };

  /// Span one public call: `auto s = spans.scope("trace::writeTraces",
  /// "trace");`
  [[nodiscard]] Scope scope(const char* name, const char* layer) {
    return Scope(enabled_ ? this : nullptr, name, layer);
  }

  /// Open op `op`'s root span (layer "bench") and start mirroring the
  /// program's profiler sections.
  void beginOp(int op);
  /// Close the root span and adopt the profiler sections recorded since
  /// beginOp() as children of the innermost enclosing span.
  void endOp();

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Spans of the most recently ended op, root first.
  std::span<const Span> lastOp() const noexcept {
    return std::span<const Span>(spans_).subspan(opBegin_);
  }

  /// Chrome/Perfetto trace-event JSON (obs::TraceRecorder): one complete
  /// event per span, its layer as category, and its index, parent and op
  /// id in args.
  void saveChromeJson(const std::filesystem::path& path) const;

 private:
  double now() const;
  int open(const char* name, const char* layer);
  void close(int index);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  ///< open benchmark spans, innermost last
  std::size_t opBegin_ = 0;
  int op_ = 0;
  iop::obs::TraceRecorder sections_;  ///< profiler mirror
  std::size_t sectionsSeen_ = 0;
  double sectionsEpoch_ = 0;  ///< profiler timebase in our seconds
};

/// Self time of every span in `opSpans` (one op, parents relative to the
/// op's first span): its duration minus its direct children's, floored at
/// zero.
std::vector<double> selfSeconds(std::span<const Span> opSpans,
                                std::size_t firstIndex);

/// Repository module a profiler section's time belongs to.
std::string layerOfSection(const std::string& section);

}  // namespace e2e
