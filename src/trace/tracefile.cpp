#include "trace/tracefile.hpp"
#include "obs/profiler.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "obs/codec.hpp"
#include "util/table.hpp"
#include "util/text.hpp"
#include "util/vfs.hpp"

namespace iop::trace {

namespace fs = std::filesystem;

namespace {

std::string traceFileName(const std::string& app, int rank) {
  return app + ".trace." + std::to_string(rank);
}

// ------------------------------------------------------- v1 (Figure 2)
//
// The paper's text format, read only: one file per rank
// (`<app>.trace.<rank>`) with columns
//   IdP IdF MPI-Operation Offset tick RequestSize time duration
// plus `<app>.meta` holding np, the per-file characteristics and the comm
// counts.  Rank files are parsed in a single pass over one whole-file
// buffer with std::from_chars — no per-line streams, no per-token string
// copies.

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

TraceData readV1(const fs::path& dir, const std::string& appName) {
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

// ------------------------------------------------------- v2 (container)
//
// One file per run, `<app>.trace`: the sniffable first line
// "iop-trace v2\n", then the checksummed blocks of obs/codec.hpp in a
// fixed order:
//
//   'H'  app, np, the file table (every FileMeta field), np comm counts
//   'S'  signature table: the distinct (op, file id, request size)
//   'D'  time dictionary, then duration dictionary (IEEE-754 doubles)
//   'R'  one record stream per rank: the rank once, the record count,
//        then per record { signature index, offset delta, zigzag tick
//        delta, time index, duration index }; the offset delta is stored
//        zigzagged as its change from the previous delta, so a strided
//        run, the access the paper models, costs one byte per offset
//   'E'  end
//
// Tables and dictionaries are built in order of first appearance, so the
// bytes are a function of the trace alone.  The dictionaries hold the
// value v1's nine-decimal text reads back as (v1Value), not the raw
// double: models extracted from a v2 trace are then bit-identical to
// models extracted from the same trace round-tripped through v1 text.

constexpr const char* kMagicV2 = "iop-trace v2\n";
constexpr obs::codec::Format kFormatV2{"trace v2", "trace"};
constexpr char kBlockHeader = 'H';
constexpr char kBlockSignatures = 'S';
constexpr char kBlockDictionaries = 'D';
constexpr char kBlockRecords = 'R';
constexpr char kBlockEnd = obs::codec::kEndTag;

// Smallest encodings, which bound every count before it sizes anything.
constexpr std::size_t kMinFileBytes = 8;  // id, path length, flags, 5 ints
constexpr std::size_t kMinSignatureBytes = 3;  // op length, file id, size
constexpr std::size_t kMinRecordBytes = 5;     // five varints

/// The value a v1 trace reads back for `x`: its "%.9f" text, parsed.
double v1Value(double x) {
  char buf[352];  // DBL_MAX in fixed notation: 309 digits + sign + decimals
  const auto end =
      std::to_chars(buf, buf + sizeof buf, x, std::chars_format::fixed, 9)
          .ptr;
  double back = 0;
  std::from_chars(buf, end, back);
  return back;
}

/// Distinct keys in order of first appearance — the table a decoder
/// indexes — with the index of each.
template <typename Key, typename Hash = std::hash<Key>>
struct FirstSeen {
  std::vector<Key> keys;
  std::unordered_map<Key, std::uint32_t, Hash> index;

  std::uint32_t indexOf(const Key& key) {
    const auto [it, fresh] =
        index.try_emplace(key, static_cast<std::uint32_t>(keys.size()));
    if (fresh) keys.push_back(key);
    return it->second;
  }
};

struct Signature {
  std::uint32_t op = 0;  ///< index into the encoder's op names
  int fileId = 0;
  std::uint64_t requestBytes = 0;
  bool operator==(const Signature&) const = default;
};

struct SignatureHash {
  std::size_t operator()(const Signature& s) const noexcept {
    return std::hash<std::uint64_t>{}(
        s.requestBytes * 0x9e3779b97f4a7c15ULL ^
        (std::uint64_t{s.op} << 32 | static_cast<std::uint32_t>(s.fileId)));
  }
};

}  // namespace

std::string encodeTrace(const TraceData& data) {
  if (data.np <= 0 ||
      data.perRank.size() != static_cast<std::size_t>(data.np) ||
      data.commEventsPerRank.size() > data.perRank.size()) {
    throw std::invalid_argument(
        "writeTraces: np, per-rank streams and comm counts disagree");
  }
  FirstSeen<std::string_view> opNames;
  std::uint32_t lastOp = 0;
  FirstSeen<Signature, SignatureHash> signatures;
  FirstSeen<std::uint64_t> times;
  FirstSeen<std::uint64_t> durations;

  std::vector<std::string> streams(data.perRank.size());
  for (std::size_t rank = 0; rank < data.perRank.size(); ++rank) {
    const auto& records = data.perRank[rank];
    std::string& out = streams[rank];
    out.reserve(records.size() * 8 + 8);
    const int streamRank =
        records.empty() ? static_cast<int>(rank) : records.front().rank;
    obs::codec::putZigzag(out, streamRank);
    obs::codec::putVarint(out, records.size());
    std::uint64_t prevOffset = 0;
    std::uint64_t stride = 0;  // the previous offset delta
    std::uint64_t prevTick = 0;
    for (const auto& r : records) {
      if (r.rank != streamRank) {
        throw std::invalid_argument("writeTraces: stream " +
                                    std::to_string(rank) + " mixes ranks " +
                                    std::to_string(streamRank) + " and " +
                                    std::to_string(r.rank));
      }
      // Runs of one op are the rule: hash its name only when it changes.
      if (opNames.keys.empty() || opNames.keys[lastOp] != r.op) {
        lastOp = opNames.indexOf(r.op);
      }
      obs::codec::putVarint(
          out, signatures.indexOf({lastOp, r.fileId, r.requestBytes}));
      // Deltas wrap modulo 2^64, so any offset or tick sequence encodes.
      const std::uint64_t delta = r.offsetUnits - prevOffset;
      obs::codec::putZigzag(out, static_cast<std::int64_t>(delta - stride));
      obs::codec::putZigzag(out, static_cast<std::int64_t>(r.tick - prevTick));
      stride = delta;
      obs::codec::putVarint(
          out, times.indexOf(std::bit_cast<std::uint64_t>(r.time)));
      obs::codec::putVarint(
          out, durations.indexOf(std::bit_cast<std::uint64_t>(r.duration)));
      prevOffset = r.offsetUnits;
      prevTick = r.tick;
    }
  }

  std::string header;
  obs::codec::putString(header, data.appName);
  obs::codec::putVarint(header, static_cast<std::uint64_t>(data.np));
  obs::codec::putVarint(header, data.files.size());
  for (const auto& f : data.files) {
    obs::codec::putZigzag(header, f.fileId);
    obs::codec::putString(header, f.path);
    obs::codec::putVarint(header, (f.shared ? 1u : 0u) |
                                      (f.sawCollective ? 2u : 0u) |
                                      (f.sawExplicitOffsets ? 4u : 0u) |
                                      (f.sawIndividualPointers ? 8u : 0u) |
                                      (f.sawNonBlocking ? 16u : 0u));
    obs::codec::putVarint(header, f.etypeBytes);
    obs::codec::putVarint(header, f.viewDisp);
    obs::codec::putVarint(header, f.filetypeBlock);
    obs::codec::putVarint(header, f.filetypeStride);
    obs::codec::putZigzag(header, f.np);
  }
  for (std::size_t rank = 0; rank < data.perRank.size(); ++rank) {
    obs::codec::putVarint(header, rank < data.commEventsPerRank.size()
                                      ? data.commEventsPerRank[rank]
                                      : 0);
  }

  std::string table;
  obs::codec::putVarint(table, signatures.keys.size());
  for (const auto& sig : signatures.keys) {
    obs::codec::putString(table, std::string(opNames.keys[sig.op]));
    obs::codec::putZigzag(table, sig.fileId);
    obs::codec::putVarint(table, sig.requestBytes);
  }

  std::string dictionaries;
  for (const auto* dict : {&times, &durations}) {
    obs::codec::putVarint(dictionaries, dict->keys.size());
    for (const std::uint64_t bits : dict->keys) {
      obs::codec::putF64(dictionaries, v1Value(std::bit_cast<double>(bits)));
    }
  }

  std::string out(kMagicV2);
  obs::codec::appendBlock(out, kBlockHeader, header);
  obs::codec::appendBlock(out, kBlockSignatures, table);
  obs::codec::appendBlock(out, kBlockDictionaries, dictionaries);
  for (const auto& stream : streams) {
    obs::codec::appendBlock(out, kBlockRecords, stream);
  }
  obs::codec::appendBlock(out, kBlockEnd, std::string());
  return out;
}

namespace {

[[noreturn]] void badV2(const std::string& what, std::size_t offset) {
  obs::codec::fail(kFormatV2, what, offset);
}

/// A decoded count, checked against the bytes its items must occupy
/// before anything is sized from it.
std::size_t boundedCount(obs::codec::PayloadReader& in, const char* what,
                         std::size_t minItemBytes) {
  const std::size_t at = in.offset();
  const std::uint64_t n = in.varint(what);
  if (n > in.remaining() / minItemBytes) {
    badV2(std::string(what) + " " + std::to_string(n) +
              " exceeds what its block can hold",
          at);
  }
  return static_cast<std::size_t>(n);
}

int intField(obs::codec::PayloadReader& in, const char* what) {
  const std::size_t at = in.offset();
  const std::int64_t v = in.zigzag(what);
  if (v < INT_MIN || v > INT_MAX) {
    badV2(std::string(what) + " out of range", at);
  }
  return static_cast<int>(v);
}

}  // namespace

TraceData decodeTrace(const std::string& bytes) {
  const std::size_t magicLen = std::strlen(kMagicV2);
  if (bytes.compare(0, magicLen, kMagicV2) != 0) {
    badV2("missing 'iop-trace v2' header line", 0);
  }
  obs::codec::BlockReader blocks(kFormatV2, bytes, magicLen);
  obs::codec::Block block;
  const auto expect = [&](char tag, const char* what) {
    if (!blocks.next(block) || block.tag != tag) {
      badV2(std::string("expected the ") + what + " block", block.offset);
    }
    return obs::codec::PayloadReader(kFormatV2, block);
  };

  TraceData data;
  {
    auto in = expect(kBlockHeader, "header");
    data.appName = in.str("app name");
    const std::size_t at = in.offset();
    const std::uint64_t np = in.varint("np");
    // Each rank owns a comm count in this block and a stream after it.
    if (np == 0 || np > in.remaining() || np > INT_MAX) {
      badV2("np " + std::to_string(np) + " exceeds what the header can hold",
            at);
    }
    data.np = static_cast<int>(np);
    data.files.resize(boundedCount(in, "file count", kMinFileBytes));
    for (auto& f : data.files) {
      f.fileId = intField(in, "file id");
      f.path = in.str("file path");
      const std::size_t flagsAt = in.offset();
      const std::uint64_t flags = in.varint("file flags");
      if (flags >= 32) badV2("unknown file flags", flagsAt);
      f.shared = (flags & 1) != 0;
      f.sawCollective = (flags & 2) != 0;
      f.sawExplicitOffsets = (flags & 4) != 0;
      f.sawIndividualPointers = (flags & 8) != 0;
      f.sawNonBlocking = (flags & 16) != 0;
      f.etypeBytes = in.varint("etype size");
      f.viewDisp = in.varint("view displacement");
      f.filetypeBlock = in.varint("filetype block");
      f.filetypeStride = in.varint("filetype stride");
      f.np = intField(in, "file np");
    }
    data.commEventsPerRank.resize(static_cast<std::size_t>(np));
    for (auto& events : data.commEventsPerRank) {
      events = in.varint("comm count");
    }
    in.expectExhausted("header");
  }

  struct DecodedSignature {
    std::string op;
    int fileId;
    std::uint64_t requestBytes;
  };
  std::vector<DecodedSignature> signatures;
  {
    auto in = expect(kBlockSignatures, "signature table");
    signatures.resize(
        boundedCount(in, "signature count", kMinSignatureBytes));
    for (auto& sig : signatures) {
      sig.op = in.str("op name");
      sig.fileId = intField(in, "signature file id");
      sig.requestBytes = in.varint("request size");
    }
    in.expectExhausted("signature table");
  }

  std::vector<double> times, durations;
  {
    auto in = expect(kBlockDictionaries, "dictionaries");
    for (auto* dict : {&times, &durations}) {
      dict->resize(boundedCount(in, "dictionary size", 8));
      for (double& v : *dict) v = in.f64("dictionary entry");
    }
    in.expectExhausted("dictionaries");
  }

  data.perRank.resize(static_cast<std::size_t>(data.np));
  for (auto& records : data.perRank) {
    auto in = expect(kBlockRecords, "record stream");
    const int rank = intField(in, "stream rank");
    records.resize(boundedCount(in, "record count", kMinRecordBytes));
    std::uint64_t offset = 0;
    std::uint64_t stride = 0;
    std::uint64_t tick = 0;
    for (auto& r : records) {
      const std::size_t at = in.offset();
      const std::uint64_t sig = in.varint("signature index");
      stride += static_cast<std::uint64_t>(in.zigzag("offset delta"));
      offset += stride;
      tick += static_cast<std::uint64_t>(in.zigzag("tick delta"));
      const std::uint64_t time = in.varint("time index");
      const std::uint64_t duration = in.varint("duration index");
      if (sig >= signatures.size() || time >= times.size() ||
          duration >= durations.size()) {
        badV2("record index outside its table", at);
      }
      const auto& s = signatures[static_cast<std::size_t>(sig)];
      r.rank = rank;
      r.fileId = s.fileId;
      r.op = s.op;
      r.offsetUnits = offset;
      r.tick = tick;
      r.requestBytes = s.requestBytes;
      r.time = times[static_cast<std::size_t>(time)];
      r.duration = durations[static_cast<std::size_t>(duration)];
    }
    in.expectExhausted("record stream");
  }
  expect(kBlockEnd, "end").expectExhausted("end");
  blocks.next(block);  // throws on any byte after the end block
  return data;
}

fs::path traceFilePath(const fs::path& dir, const std::string& appName) {
  return dir / (appName + ".trace");
}

void writeTraces(const fs::path& dir, const TraceData& data) {
  IOP_PROFILE_SCOPE("trace.write");
  const std::string bytes = encodeTrace(data);
  fs::create_directories(dir);
  // Atomic replace without fsync: a trace is regenerated, not recovered.
  util::vfs::replaceFile(traceFilePath(dir, data.appName), bytes,
                         util::vfs::Durability::Scratch);
}

TraceData readTraces(const fs::path& dir, const std::string& appName) {
  IOP_PROFILE_SCOPE("trace.parse");
  const fs::path path = traceFilePath(dir, appName);
  if (!fs::exists(path)) return readV1(dir, appName);
  const std::string bytes = readWholeFile(path);
  try {
    return decodeTrace(bytes);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path.string() + ": " + e.what());
  }
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
