#include "trace/tracefile.hpp"
#include "obs/profiler.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/table.hpp"
#include "util/text.hpp"

namespace iop::trace {

namespace fs = std::filesystem;

namespace {

std::string traceFileName(const std::string& app, int rank) {
  return app + ".trace." + std::to_string(rank);
}

/// Format the whole rank file into one buffer and write it at once.
void writeRankFile(const fs::path& path,
                   const std::vector<Record>& records) {
  std::string text =
      "# iop-trace v1\n"
      "# IdP IdF MPI-Operation Offset tick RequestSize time duration\n";
  text.reserve(text.size() + records.size() * 96);  // lines run 60-90 bytes
  using util::appendChars;
  for (const auto& r : records) {
    appendChars(text, r.rank);
    text += ' ';
    appendChars(text, r.fileId);
    text += ' ';
    text += r.op;
    text += ' ';
    appendChars(text, r.offsetUnits);
    text += ' ';
    appendChars(text, r.tick);
    text += ' ';
    appendChars(text, r.requestBytes);
    text += ' ';
    appendChars(text, r.time, std::chars_format::fixed, 9);
    text += ' ';
    appendChars(text, r.duration, std::chars_format::fixed, 9);
    text += '\n';
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path.string());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

// --------------------------------------------------------------- parsing
//
// Rank files are parsed in a single pass over one whole-file buffer with
// std::from_chars — no per-line streams, no per-token string copies.  A
// trace directory is read back once per characterization, and on large
// apps this path dominated model extraction.

constexpr bool isSpace(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Advance past blanks; the cursor stops at a token, '\n', or `end`.
const char* skipBlanks(const char* p, const char* end) noexcept {
  while (p != end && isSpace(*p)) ++p;
  return p;
}

std::string_view nextToken(const char*& p, const char* end) noexcept {
  p = skipBlanks(p, end);
  const char* start = p;
  while (p != end && !isSpace(*p) && *p != '\n') ++p;
  return {start, static_cast<std::size_t>(p - start)};
}

template <typename T>
bool parseNumber(std::string_view token, T& out) noexcept {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

std::string readWholeFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::string text;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(text.data(), size);
  }
  if (in.bad()) throw std::runtime_error("read failed: " + path.string());
  return text;
}

/// Render a (possibly hostile) input line for an error message: control
/// bytes — including NULs, which would silently truncate the excerpt —
/// are escaped as \xNN, and long lines are cut at 80 characters.  Error
/// text must be safe to print to a terminal no matter what was in the
/// file.
std::string sanitizeExcerpt(const char* lineStart, const char* end) {
  constexpr std::size_t kMaxExcerpt = 80;
  const char* lineEnd = lineStart;
  while (lineEnd != end && *lineEnd != '\n') ++lineEnd;
  std::string out;
  out.reserve(kMaxExcerpt + 16);
  for (const char* p = lineStart; p != lineEnd; ++p) {
    if (out.size() >= kMaxExcerpt) {
      out += "... (";
      out += std::to_string(static_cast<std::size_t>(lineEnd - lineStart));
      out += " bytes)";
      return out;
    }
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

std::vector<Record> readRankFile(const fs::path& path) {
  const std::string text = readWholeFile(path);
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n')));
  const char* p = text.data();
  const char* const end = p + text.size();
  std::size_t lineNo = 1;
  while (p != end) {
    const char* const lineStart = p;
    p = skipBlanks(p, end);
    if (p == end) break;
    if (*p == '\n') {
      ++p;
      ++lineNo;
      continue;
    }
    if (*p == '#') {  // comment line
      while (p != end && *p != '\n') ++p;
      continue;  // the '\n' (if any) is consumed by the next iteration
    }
    Record r;
    const std::string_view t0 = nextToken(p, end);
    const std::string_view t1 = nextToken(p, end);
    const std::string_view op = nextToken(p, end);
    const std::string_view t3 = nextToken(p, end);
    const std::string_view t4 = nextToken(p, end);
    const std::string_view t5 = nextToken(p, end);
    const std::string_view t6 = nextToken(p, end);
    const std::string_view t7 = nextToken(p, end);
    const char* const afterFields = skipBlanks(p, end);
    const bool ok = parseNumber(t0, r.rank) && parseNumber(t1, r.fileId) &&
                    !op.empty() && parseNumber(t3, r.offsetUnits) &&
                    parseNumber(t4, r.tick) &&
                    parseNumber(t5, r.requestBytes) &&
                    parseNumber(t6, r.time) && parseNumber(t7, r.duration) &&
                    (afterFields == end || *afterFields == '\n');
    if (!ok) {
      // A truncated final record (mid-write kill) and a corrupted line
      // land here alike; file:line plus a sanitized excerpt makes the
      // defect findable with a text editor.
      throw std::runtime_error(
          path.string() + ":" + std::to_string(lineNo) +
          ": malformed trace record (want 'IdP IdF op Offset tick "
          "RequestSize time duration'): " +
          sanitizeExcerpt(lineStart, end));
    }
    r.op.assign(op);
    p = afterFields;
    if (p != end) {
      ++p;  // consume '\n'
      ++lineNo;
    }
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace

void writeTraces(const fs::path& dir, const TraceData& data) {
  IOP_PROFILE_SCOPE("trace.write");
  fs::create_directories(dir);
  for (int rank = 0; rank < data.np; ++rank) {
    writeRankFile(dir / traceFileName(data.appName, rank),
                  data.perRank[static_cast<std::size_t>(rank)]);
  }
  std::ofstream meta(dir / (data.appName + ".meta"));
  if (!meta) throw std::runtime_error("cannot open meta file");
  meta << "# iop-trace-meta v1\n";
  meta << "app " << data.appName << "\n";
  meta << "np " << data.np << "\n";
  for (const auto& f : data.files) {
    meta << "file " << f.fileId << ' ' << f.path << ' ' << (f.shared ? 1 : 0)
         << ' ' << f.etypeBytes << ' ' << f.viewDisp << ' '
         << f.filetypeBlock << ' ' << f.filetypeStride << ' '
         << (f.sawCollective ? 1 : 0) << ' ' << (f.sawExplicitOffsets ? 1 : 0)
         << ' ' << (f.sawIndividualPointers ? 1 : 0) << ' ' << f.np << "\n";
  }
  for (std::size_t i = 0; i < data.commEventsPerRank.size(); ++i) {
    meta << "comm " << i << ' ' << data.commEventsPerRank[i] << "\n";
  }
  if (!meta) throw std::runtime_error("meta write failed");
}

TraceData readTraces(const fs::path& dir, const std::string& appName) {
  IOP_PROFILE_SCOPE("trace.parse");
  TraceData data;
  data.appName = appName;
  const fs::path metaPath = dir / (appName + ".meta");
  std::ifstream meta(metaPath);
  if (!meta) {
    throw std::runtime_error("cannot open meta file for " + appName);
  }
  // std::sto* throw bare "stoi"/out-of-range on hostile tokens; every
  // error is rewrapped with the file:line so the bad record is findable.
  auto malformed = [&metaPath](std::size_t lineNo, const std::string& why) {
    return std::runtime_error(metaPath.string() + ":" +
                              std::to_string(lineNo) +
                              ": malformed meta record (" + why + ")");
  };
  struct Comm {
    int rank;
    std::uint64_t events;
    std::size_t lineNo;
  };
  std::vector<Comm> comms;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(meta, line)) {
    ++lineNo;
    auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    auto tokens = util::splitWhitespace(trimmed);
    try {
      if (tokens[0] == "np") {
        data.np = std::stoi(tokens.at(1));
      } else if (tokens[0] == "file") {
        if (tokens.size() < 12) {
          throw std::runtime_error("needs at least 12 fields");
        }
        FileMeta f;
        f.fileId = std::stoi(tokens[1]);
        f.path = tokens[2];
        f.shared = tokens[3] == "1";
        f.etypeBytes = std::stoull(tokens[4]);
        f.viewDisp = std::stoull(tokens[5]);
        f.filetypeBlock = std::stoull(tokens[6]);
        f.filetypeStride = std::stoull(tokens[7]);
        f.sawCollective = tokens[8] == "1";
        f.sawExplicitOffsets = tokens[9] == "1";
        f.sawIndividualPointers = tokens[10] == "1";
        f.np = std::stoi(tokens[11]);
        if (tokens.size() > 12) f.sawNonBlocking = tokens[12] == "1";
        data.files.push_back(std::move(f));
      } else if (tokens[0] == "comm") {
        // Checked against np once the whole file is read: np may follow.
        comms.push_back(
            {std::stoi(tokens.at(1)), std::stoull(tokens.at(2)), lineNo});
      }
    } catch (const std::exception& e) {
      throw malformed(lineNo, e.what());
    }
  }
  if (data.np <= 0) throw std::runtime_error("meta file missing np");
  for (const auto& comm : comms) {
    if (comm.rank < 0 || comm.rank >= data.np) {
      throw malformed(comm.lineNo, "comm rank " + std::to_string(comm.rank) +
                                       " outside [0, np)");
    }
  }
  // Nothing is sized from np before its rank files turn up, so a hostile
  // np fails on the first missing file instead of allocating.
  for (int rank = 0; rank < data.np; ++rank) {
    data.perRank.push_back(readRankFile(dir / traceFileName(appName, rank)));
  }
  data.commEventsPerRank.assign(static_cast<std::size_t>(data.np), 0);
  for (const auto& comm : comms) {
    data.commEventsPerRank[static_cast<std::size_t>(comm.rank)] =
        comm.events;
  }
  return data;
}

std::string renderTraceTable(const TraceData& data, int rank,
                             std::size_t maxRows) {
  util::Table table("TraceFile of process " + std::to_string(rank) + " (" +
                    data.appName + ")");
  table.setHeader({"IdP", "IdF", "MPI-Operation", "Offset", "tick",
                   "RequestSize", "time", "duration"},
                  {util::Align::Right, util::Align::Right, util::Align::Left,
                   util::Align::Right, util::Align::Right, util::Align::Right,
                   util::Align::Right, util::Align::Right});
  const auto& records = data.perRank.at(static_cast<std::size_t>(rank));
  std::size_t count = 0;
  for (const auto& r : records) {
    if (maxRows != 0 && count++ >= maxRows) break;
    char timeBuf[32], durBuf[32];
    std::snprintf(timeBuf, sizeof timeBuf, "%.6f", r.time);
    std::snprintf(durBuf, sizeof durBuf, "%.6f", r.duration);
    table.addRow({std::to_string(r.rank), std::to_string(r.fileId), r.op,
                  std::to_string(r.offsetUnits), std::to_string(r.tick),
                  std::to_string(r.requestBytes), timeBuf, durBuf});
  }
  return table.render();
}

}  // namespace iop::trace
