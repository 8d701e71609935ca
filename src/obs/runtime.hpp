// Wall-clock runtime telemetry: the operational counterpart of the
// simulated-time sinks in hub.hpp.
//
// Two pieces, both safe to share between threads:
//
//  * TelemetrySnapshotter — a timer thread that atomically rewrites a
//    file with a rendered snapshot (Prometheus text exposition of the
//    campaign engine's MetricsRegistry, in practice), so a scraper or a
//    human tailing the file never sees a partial state.
//
//  * RunJournal — the flight recorder: an append-only JSONL event stream
//    ({"t":<seconds since open>,"event":...,...}), one fflush()ed line
//    per event so a SIGKILLed process leaves at most one torn final
//    line.  loadJournal()/parseJournal() read a journal back tolerantly
//    (torn tails are counted, not fatal) for postmortem reconstruction.
//
// sweep::SweepTelemetry (sweep/telemetry.hpp) owns one of each, plus the
// metrics registry and the execution trace they observe.  None of this
// may perturb results: nothing here is consulted by any decision the
// sweep executor or the simulation makes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/vfs.hpp"

namespace iop::obs {

/// Background thread re-writing `path` with `render()` every
/// `intervalMs`.  stop() (or destruction) joins the thread and writes one
/// final snapshot, so the file always ends at the run's last state.
/// `render` runs on the snapshot thread and must do its own locking.
class TelemetrySnapshotter {
 public:
  TelemetrySnapshotter(std::function<std::string()> render,
                       std::filesystem::path path, int intervalMs);
  ~TelemetrySnapshotter();

  void stop();

 private:
  void writeOnce();

  std::function<std::string()> render_;
  std::filesystem::path path_;
  int intervalMs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

/// Append-only JSONL flight recorder.  Each event is one line
///   {"t":12.345678,"event":"cell_claim","worker":0,...}
/// where `t` is wall-clock seconds since the journal was opened.  The
/// first line is always a `journal_start` event carrying the schema
/// version and the wall epoch, so a journal is self-describing.
class RunJournal {
 public:
  static constexpr const char* kSchema = "iop-journal/1";

  /// Creates parent directories and truncates/creates `path`.
  explicit RunJournal(std::filesystem::path path);
  ~RunJournal();

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

  /// Seconds since the journal was opened (the `t` of an event recorded
  /// now).  Thread-safe.
  double elapsedSeconds() const;

  /// Append one event line, flushed and fsync()ed (util::vfs barrier
  /// semantics).  `fieldsJson` is a pre-rendered `"k":v,...` tail
  /// (TraceRecorder::jsonEscape strings first); may be empty.
  /// Thread-safe.  A write failure (ENOSPC, typically) disables the
  /// journal with a one-time stderr warning instead of throwing — the
  /// flight recorder must never take the campaign down.
  void event(const std::string& name, const std::string& fieldsJson = {});

  /// True once a write failure silenced the journal.
  bool disabled() const noexcept {
    return disabled_.load(std::memory_order_relaxed);
  }

 private:
  std::filesystem::path path_;
  std::unique_ptr<util::vfs::AppendStream> stream_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  std::atomic<bool> disabled_{false};
};

/// One parsed journal line.  `fields` holds every member of the JSON
/// object keyed by name: string values are unescaped, everything else
/// (numbers, booleans, null) keeps its literal JSON text.
struct JournalEvent {
  double t = 0;
  std::string name;                          ///< the "event" field
  std::map<std::string, std::string> fields; ///< includes "t" and "event"

  const std::string* field(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

struct JournalParse {
  std::vector<JournalEvent> events;
  std::size_t badLines = 0;  ///< torn/malformed lines skipped (a SIGKILL
                             ///< mid-write leaves at most one)
};

/// Parse journal text tolerantly: malformed lines are counted in
/// badLines, not fatal — a crashed process's journal must still load.
JournalParse parseJournal(const std::string& text);
JournalParse loadJournal(const std::filesystem::path& path);

}  // namespace iop::obs
