#include "obs/archive.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/codec.hpp"
#include "obs/recorder.hpp"
#include "util/vfs.hpp"

namespace iop::obs {

namespace {

constexpr const char* kSchema = "iop-archive/1";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("archive: " + what);
}

std::string hashHex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    codec::fnv1a(bytes.data(), bytes.size())));
  return buf;
}

std::string readFileText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void skipSpace(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

bool parseJsonString(const std::string& s, std::size_t& i,
                     std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out.clear();
  while (i < s.size()) {
    const char c = s[i++];
    if (c == '"') return true;
    if (c == '\\') {
      if (i >= s.size()) return false;
      const char esc = s[i++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default: return false;
      }
    } else {
      out += c;
    }
  }
  return false;
}

/// One flat manifest line `{"k":"v"|number,...}` -> field map.  Returns
/// false on anything torn or nested; list() skips such lines the way the
/// run journal does.
bool parseManifestLine(const std::string& line,
                       std::map<std::string, std::string>& fields) {
  fields.clear();
  std::size_t i = 0;
  skipSpace(line, i);
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
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
      while (!value.empty() && value.back() == ' ') value.pop_back();
      if (value.empty()) return false;
    }
    fields[key] = value;
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
  return i == line.size();
}

bool toU64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end == text.c_str() + text.size();
}

bool entryFromFields(const std::map<std::string, std::string>& fields,
                     ArchiveEntry& out) {
  const auto get = [&fields](const char* key) -> const std::string* {
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  };
  const std::string* schema = get("schema");
  const std::string* seq = get("seq");
  const std::string* kind = get("kind");
  const std::string* app = get("app");
  const std::string* config = get("config");
  const std::string* np = get("np");
  const std::string* label = get("label");
  const std::string* hash = get("hash");
  const std::string* bytes = get("bytes");
  if (schema == nullptr || *schema != kSchema || seq == nullptr ||
      kind == nullptr || app == nullptr || config == nullptr ||
      np == nullptr || label == nullptr || hash == nullptr ||
      bytes == nullptr) {
    return false;
  }
  if (*kind != "capture" && *kind != "bench") return false;
  std::uint64_t seqV = 0, npV = 0, bytesV = 0;
  if (!toU64(*seq, seqV) || !toU64(*np, npV) || !toU64(*bytes, bytesV)) {
    return false;
  }
  if (hash->size() != 16 ||
      hash->find_first_not_of("0123456789abcdef") != std::string::npos) {
    return false;
  }
  out.seq = seqV;
  out.kind = *kind;
  out.app = *app;
  out.config = *config;
  out.np = static_cast<int>(npV);
  out.label = *label;
  out.hash = *hash;
  out.bytes = bytesV;
  return true;
}

}  // namespace

std::string archivePayloadHash(const std::string& bytes) {
  return hashHex(bytes);
}

std::string renderArchiveManifestLine(const ArchiveEntry& e) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kSchema << "\",\"seq\":" << e.seq
      << ",\"kind\":\"" << e.kind << "\",\"app\":\""
      << TraceRecorder::jsonEscape(e.app) << "\",\"config\":\""
      << TraceRecorder::jsonEscape(e.config) << "\",\"np\":" << e.np
      << ",\"label\":\"" << TraceRecorder::jsonEscape(e.label)
      << "\",\"hash\":\"" << e.hash << "\",\"bytes\":" << e.bytes << "}\n";
  return out.str();
}

bool parseArchiveManifestLine(const std::string& line, ArchiveEntry& out) {
  // Tolerate the trailing newline render emits, so render/parse round-
  // trip without the caller having to strip it.
  std::string trimmed = line;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == '\r')) {
    trimmed.pop_back();
  }
  std::map<std::string, std::string> fields;
  return parseManifestLine(trimmed, fields) && entryFromFields(fields, out);
}

std::string ArchiveEntry::seriesKey() const {
  return app + "/" + config + "/" + std::to_string(np);
}

std::string ArchiveEntry::objectName() const {
  return hash + (kind == "capture" ? ".capv2" : ".bench.json");
}

Archive::Archive(std::filesystem::path root) : root_(std::move(root)) {}

std::filesystem::path Archive::manifestPath() const {
  return root_ / "MANIFEST.jsonl";
}

std::filesystem::path Archive::objectPath(const ArchiveEntry& entry) const {
  return root_ / "objects" / entry.objectName();
}

std::vector<ArchiveEntry> Archive::list(std::size_t* badLines) const {
  std::vector<ArchiveEntry> entries;
  std::size_t bad = 0;
  std::ifstream in(manifestPath(), std::ios::binary);
  if (in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      const bool torn = end == std::string::npos;
      if (torn) end = text.size();
      const std::string line = text.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      std::map<std::string, std::string> fields;
      ArchiveEntry entry;
      // A line without its newline was cut mid-append: torn by
      // definition, whether or not it happens to parse.
      if (!torn && parseManifestLine(line, fields) &&
          entryFromFields(fields, entry)) {
        entries.push_back(std::move(entry));
      } else {
        ++bad;
      }
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ArchiveEntry& a, const ArchiveEntry& b) {
                     return a.seq < b.seq;
                   });
  if (badLines != nullptr) *badLines = bad;
  return entries;
}

ArchiveEntry Archive::append(std::string kind, std::string app,
                             std::string config, int np, std::string label,
                             const std::string& payload,
                             const std::string& extension) {
  std::filesystem::create_directories(root_ / "objects");
  ArchiveEntry entry;
  entry.kind = std::move(kind);
  entry.app = std::move(app);
  entry.config = std::move(config);
  entry.np = np;
  entry.label = std::move(label);
  entry.hash = hashHex(payload);
  entry.bytes = payload.size();
  std::uint64_t maxSeq = 0;
  for (const auto& existing : list()) maxSeq = existing.seq;  // seq-sorted
  entry.seq = maxSeq + 1;

  const std::filesystem::path object =
      root_ / "objects" / (entry.hash + extension);
  // Content-addressed: identical payloads dedup; racing writers of the
  // same bytes rename identical files into place.
  if (!std::filesystem::exists(object)) {
    util::vfs::replaceFile(object, payload);
  }

  // A writer that died mid-line left the manifest without a trailing
  // newline; terminate that torn tail first so this entry starts on a
  // fresh line instead of gluing onto the fragment (which would lose
  // both).  Live concurrent writers always emit whole lines, so a
  // missing newline can only come from a crash.
  bool tornTail = false;
  {
    std::ifstream tail(manifestPath(), std::ios::binary | std::ios::ate);
    if (tail && tail.tellg() > 0) {
      tail.seekg(-1, std::ios::end);
      char last = '\n';
      tornTail = tail.get(last) && last != '\n';
    }
  }

  // Append-only manifest: one short line per entry, appended with full
  // durability barriers (flush + fsync, parent-dir fsync on creation) so
  // a crash costs at most this line.
  std::string line = renderArchiveManifestLine(entry);
  if (tornTail) line.insert(line.begin(), '\n');
  try {
    util::vfs::appendFile(manifestPath(), line, util::vfs::Durability::Durable);
  } catch (const std::exception& e) {
    fail("failed appending to " + manifestPath().string() + ": " + e.what());
  }
  return entry;
}

ArchiveEntry Archive::addCapture(const RunCapture& capture,
                                 const std::string& label) {
  return append("capture", capture.app, capture.config, capture.np, label,
                capture.serialize(CaptureFormat::V2), ".capv2");
}

ArchiveEntry Archive::addBench(const std::string& benchJson,
                               const std::string& name,
                               const std::string& label) {
  parseBenchJson(benchJson);  // reject malformed snapshots up front
  return append("bench", name, "bench", 0, label, benchJson, ".bench.json");
}

std::string Archive::loadObject(const ArchiveEntry& entry) const {
  const std::string bytes = readFileText(objectPath(entry));
  if (hashHex(bytes) != entry.hash) {
    fail("object " + entry.objectName() +
         " does not match its manifest hash (corrupt or clobbered)");
  }
  return bytes;
}

RunCapture Archive::loadCapture(const ArchiveEntry& entry) const {
  if (entry.kind != "capture") {
    fail("entry seq " + std::to_string(entry.seq) + " is a " + entry.kind +
         ", not a capture");
  }
  return RunCapture::parse(loadObject(entry));
}

std::vector<BenchEntry> Archive::loadBench(const ArchiveEntry& entry) const {
  if (entry.kind != "bench") {
    fail("entry seq " + std::to_string(entry.seq) + " is a " + entry.kind +
         ", not a bench snapshot");
  }
  return parseBenchJson(loadObject(entry));
}

Archive::GcResult Archive::gc(std::size_t keepLastPerSeries) {
  GcResult result;
  const auto entries = list();
  std::vector<ArchiveEntry> kept;
  if (keepLastPerSeries == 0) {
    kept = entries;
  } else {
    // Newest-first within each series, keep the first K, restore order.
    std::map<std::string, std::size_t> seen;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (seen[it->kind + ":" + it->seriesKey()]++ < keepLastPerSeries) {
        kept.push_back(*it);
      }
    }
    std::reverse(kept.begin(), kept.end());
    result.prunedEntries = entries.size() - kept.size();
    std::string manifest;
    for (const auto& e : kept) manifest += renderArchiveManifestLine(e);
    util::vfs::replaceFile(manifestPath(), manifest);
  }
  std::set<std::string> live;
  for (const auto& e : kept) live.insert(e.objectName());
  const auto objectsDir = root_ / "objects";
  std::error_code ec;
  for (const auto& file :
       std::filesystem::directory_iterator(objectsDir, ec)) {
    if (!file.is_regular_file()) continue;
    if (live.count(file.path().filename().string()) == 0) {
      std::filesystem::remove(file.path(), ec);
      if (!ec) ++result.removedFiles;
    }
  }
  return result;
}

}  // namespace iop::obs
