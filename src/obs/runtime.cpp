#include "obs/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/recorder.hpp"
#include "util/vfs.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace iop::obs {

// ------------------------------------------------------------ snapshotter

TelemetrySnapshotter::TelemetrySnapshotter(
    std::function<std::string()> render, std::filesystem::path path,
    int intervalMs)
    : render_(std::move(render)),
      path_(std::move(path)),
      intervalMs_(std::max(1, intervalMs)) {
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  writeOnce();  // the file exists from t=0, not only after one interval
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                   [this] { return stopping_; });
      if (stopping_) return;
      lock.unlock();
      writeOnce();
      lock.lock();
    }
  });
}

TelemetrySnapshotter::~TelemetrySnapshotter() {
  try {
    stop();
  } catch (...) {
    // Destructor must not throw; the final snapshot is best-effort here.
  }
}

void TelemetrySnapshotter::stop() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  writeOnce();  // final state always lands on disk
}

void TelemetrySnapshotter::writeOnce() {
  // Scratch durability: snapshots are observational, re-written on a
  // timer from a background thread, and must not perturb the
  // deterministic barrier-op numbering the crash injector counts.
  util::vfs::replaceFile(path_, render_(), util::vfs::Durability::Scratch);
}

// ---------------------------------------------------------------- journal

RunJournal::RunJournal(std::filesystem::path path)
    : path_(std::move(path)), epoch_(std::chrono::steady_clock::now()) {
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  stream_ = std::make_unique<util::vfs::AppendStream>(
      path_, util::vfs::Durability::Durable, /*truncate=*/true);
  const auto unixMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  event("journal_start",
        "\"schema\":\"" + std::string(kSchema) +
            "\",\"unix_ms\":" + std::to_string(unixMs) +
            ",\"pid\":" + std::to_string(static_cast<long>(getpid())));
}

RunJournal::~RunJournal() {
  std::lock_guard<std::mutex> guard(mutex_);
  stream_.reset();
}

double RunJournal::elapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void RunJournal::event(const std::string& name,
                       const std::string& fieldsJson) {
  std::string line = ",\"event\":\"";
  line += TraceRecorder::jsonEscape(name);
  line += "\"";
  if (!fieldsJson.empty()) {
    line += ",";
    line += fieldsJson;
  }
  line += "}\n";
  std::lock_guard<std::mutex> guard(mutex_);
  if (!stream_ || disabled_.load(std::memory_order_relaxed)) return;
  // Stamped under the lock, so `t` never decreases from line to line.
  char ts[48];
  std::snprintf(ts, sizeof ts, "{\"t\":%.6f", elapsedSeconds());
  line.insert(0, ts);
  // One durable append per event: the whole point of a flight recorder
  // is that a SIGKILL loses at most the line being written.
  if (stream_->append(line)) return;
  // A journal that cannot write (ENOSPC, typically) must never take the
  // campaign down: warn once, stop journaling, let the run finish.  The
  // campaign's results are content-addressed store files — losing the
  // flight recorder loses observability, not data.
  disabled_.store(true, std::memory_order_relaxed);
  std::fprintf(stderr,
               "iop: journal %s disabled after write failure: %s "
               "(disk full?); the run continues without it\n",
               path_.string().c_str(), stream_->lastError().c_str());
  stream_->close();
}

// --------------------------------------------------------- journal parser

namespace {

/// Decode a JSON string literal starting at text[i] == '"'.  Returns
/// false on malformed input; on success `i` is one past the closing
/// quote.
bool parseJsonString(const std::string& text, std::size_t& i,
                     std::string& out) {
  if (i >= text.size() || text[i] != '"') return false;
  ++i;
  out.clear();
  while (i < text.size()) {
    const char c = text[i];
    if (c == '"') {
      ++i;
      return true;
    }
    if (c != '\\') {
      out += c;
      ++i;
      continue;
    }
    if (i + 1 >= text.size()) return false;
    const char esc = text[i + 1];
    i += 2;
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 > text.size()) return false;
        unsigned cp = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = text[i + static_cast<std::size_t>(k)];
          cp <<= 4;
          if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        i += 4;
        // Encode as UTF-8; lone surrogates become U+FFFD (the journal
        // writer never emits them, but the parser must not crash).
        if (cp >= 0xd800 && cp <= 0xdfff) cp = 0xfffd;
        if (cp < 0x80) {
          out += static_cast<char>(cp);
        } else if (cp < 0x800) {
          out += static_cast<char>(0xc0 | (cp >> 6));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
          out += static_cast<char>(0xe0 | (cp >> 12));
          out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
          out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

void skipSpace(const std::string& text, std::size_t& i) {
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\r')) {
    ++i;
  }
}

/// Parse one flat JSON object line into a JournalEvent.  The journal only
/// ever writes flat objects (no nesting), so nested values are rejected.
bool parseJournalLine(const std::string& line, JournalEvent& out) {
  out = JournalEvent{};
  std::size_t i = 0;
  skipSpace(line, i);
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skipSpace(line, i);
  if (i < line.size() && line[i] == '}') return false;  // an empty event
  for (;;) {
    skipSpace(line, i);
    std::string key;
    if (!parseJsonString(line, i, key)) return false;
    skipSpace(line, i);
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skipSpace(line, i);
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parseJsonString(line, i, value)) return false;
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        if (line[i] == '{' || line[i] == '[') return false;
        ++i;
      }
      value = line.substr(start, i - start);
      while (!value.empty() &&
             (value.back() == ' ' || value.back() == '\t')) {
        value.pop_back();
      }
      if (value.empty()) return false;
    }
    out.fields[key] = value;
    skipSpace(line, i);
    if (i >= line.size()) return false;
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') {
      ++i;
      break;
    }
    return false;
  }
  skipSpace(line, i);
  if (i != line.size()) return false;
  const std::string* name = out.field("event");
  const std::string* t = out.field("t");
  if (name == nullptr || t == nullptr) return false;
  out.name = *name;
  char* end = nullptr;
  out.t = std::strtod(t->c_str(), &end);
  // A non-finite `t` ("nan", "inf", "1e999") is not a time: postmortem
  // sorts in-flight cells by it.
  return end == t->c_str() + t->size() && std::isfinite(out.t);
}

}  // namespace

JournalParse parseJournal(const std::string& text) {
  JournalParse out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    const bool torn = end == std::string::npos;
    if (torn) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    JournalEvent ev;
    // A file that doesn't end in '\n' was cut mid-write: its final line
    // is torn by definition, whether or not it happens to parse.
    if (!torn && parseJournalLine(line, ev)) {
      out.events.push_back(std::move(ev));
    } else {
      ++out.badLines;
    }
  }
  return out;
}

JournalParse loadJournal(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("obs: cannot open journal " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseJournal(buffer.str());
}

}  // namespace iop::obs
