#include "sweep/store.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sweep/hash.hpp"
#include "sweep/telemetry.hpp"
#include "util/text.hpp"

namespace iop::sweep {

namespace {

/// Shortest round-trip-exact rendering: cell files must be byte-identical
/// for identical results, and parse back to the same double.
std::string fmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = std::strtod(buf, nullptr);
  if (back == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[40];
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
      if (std::strtod(shorter, nullptr) == v) return shorter;
    }
  }
  return buf;
}

[[noreturn]] void badCell(const std::string& message) {
  throw std::invalid_argument("cell file: " + message);
}

double toDouble(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    badCell("bad number '" + token + "'");
  }
  return v;
}

std::uint64_t toU64(const std::string& token) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    badCell("bad integer '" + token + "'");
  }
  return v;
}

/// The rest of the line after the directive: labels may contain spaces.
std::string restOfLine(const std::string& line) {
  const auto space = line.find(' ');
  return space == std::string::npos ? std::string() : line.substr(space + 1);
}

std::string readFileText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Load a cell file, treating any defect — unreadable, unparsable, failed
/// checksum, wrong key — as a cache miss: the bad file is moved into
/// `quarantineDir` (kept for forensics, never silently deleted) and
/// std::nullopt tells the caller to recompute.  A cell result is a pure
/// function of its key, so recomputation always repairs the store.
std::optional<CellResult> tryLoadCellFile(
    const std::filesystem::path& path,
    const std::filesystem::path& quarantineDir, const std::string& key,
    std::string* whyBad) {
  try {
    auto cell = CellResult::parse(readFileText(path));
    if (cell.key != key) {
      badCell("holds key " + cell.key + ", expected " + key);
    }
    return cell;
  } catch (const std::exception& e) {
    if (whyBad != nullptr) *whyBad = e.what();
  }
  std::error_code ec;
  std::filesystem::create_directories(quarantineDir, ec);
  std::filesystem::path dst = quarantineDir / path.filename();
  for (int n = 2; std::filesystem::exists(dst); ++n) {
    dst = quarantineDir /
          (path.stem().string() + "." + std::to_string(n) +
           path.extension().string());
  }
  std::filesystem::rename(path, dst, ec);
  if (ec) {
    // Rename can fail (e.g. cross-device); removing still unblocks the
    // recompute, losing only the forensic copy.
    std::filesystem::remove(path, ec);
  }
  return std::nullopt;
}

}  // namespace

std::string CellResult::render() const {
  std::ostringstream out;
  out << "iop-cell v1\n";
  out << "key " << key << "\n";
  out << "degrade-disks " << fmtDouble(degradeDisks) << "\n";
  out << "degrade-net " << fmtDouble(degradeNet) << "\n";
  if (faulted()) {
    // Only degraded cells carry fault lines: healthy cells must render
    // byte-identically to stores written before the fault axis existed.
    out << "fault " << faultLabel << "\n";
    out << "fault-seed " << faultSeed << "\n";
    out << "fault-retries " << faultRetries << "\n";
    out << "fault-failovers " << faultFailovers << "\n";
    out << "fault-stall " << fmtDouble(faultStallSeconds) << "\n";
    if (faultFailed()) out << "fault-error " << faultError << "\n";
  }
  if (tenanted()) {
    // Same compat rule as fault lines: only tenanted cells carry these.
    out << "tenant " << tenantLabel << "\n";
    out << "tenant-seed " << tenantSeed << "\n";
    out << "tenant-jain " << fmtDouble(tenantJain) << "\n";
    out << "tenant-solo " << fmtDouble(tenantSoloTimeIo) << "\n";
    out << "tenant-slowdown " << fmtDouble(tenantSlowdown) << "\n";
    // A fault plan composed into the tenant run has no seed fan-out of
    // its own, so the label travels on its own line.
    if (!faultLabel.empty()) out << "tenant-fault " << faultLabel << "\n";
    out << "tenant-jobs " << tenantJobs.size() << "\n";
    for (const auto& j : tenantJobs) {
      out << "tenant-job " << j.id << " " << fmtDouble(j.weight) << " "
          << fmtDouble(j.soloTimeIo) << " " << fmtDouble(j.contendedTimeIo)
          << " " << fmtDouble(j.slowdown) << " " << fmtDouble(j.waitSeconds)
          << "\n";
    }
  }
  out << "estimator " << estimator << "\n";
  out << "np " << np << "\n";
  out << "weight " << weightBytes << "\n";
  out << "time-io " << fmtDouble(timeIo) << "\n";
  out << "ior-runs " << iorRuns << "\n";
  out << "phases " << phases.size() << "\n";
  for (const auto& p : phases) {
    out << "phase " << p.id << " " << p.familyId << " " << p.weightBytes
        << " " << fmtDouble(p.bandwidthCH) << " " << fmtDouble(p.timeCH)
        << "\n";
  }
  out << "model " << modelLabel << "\n";
  out << "config " << configLabel << "\n";
  // Integrity seal over everything above: a torn write, truncation or
  // bit flip flips the checksum and the loader quarantines the file.
  const std::string sealed = out.str();
  out << "checksum " << hashHex(sealed) << "\n";
  out << "end\n";
  return out.str();
}

CellResult CellResult::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "iop-cell v1") {
    badCell("missing 'iop-cell v1' header");
  }
  CellResult cell;
  bool sawEnd = false;
  bool sealed = false;  // past the checksum: only `end` may follow
  std::size_t expectedPhases = 0;
  std::size_t expectedTenantJobs = 0;
  // Byte offset of the current line within `text`, maintained manually:
  // the checksum line seals every byte before it.
  std::size_t lineStart = text.find('\n') + 1;  // past the header
  while (std::getline(in, line)) {
    const std::size_t thisLineStart = lineStart;
    lineStart += line.size() + 1;
    if (line == "end") {
      if (lineStart < text.size()) badCell("bytes after 'end'");
      sawEnd = true;
      break;
    }
    if (sealed) badCell("unsealed line '" + line + "' after the checksum");
    auto tokens = util::splitWhitespace(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    if (directive == "key" && tokens.size() == 2) {
      cell.key = tokens[1];
    } else if (directive == "degrade-disks" && tokens.size() == 2) {
      cell.degradeDisks = toDouble(tokens[1]);
    } else if (directive == "degrade-net" && tokens.size() == 2) {
      cell.degradeNet = toDouble(tokens[1]);
    } else if (directive == "checksum" && tokens.size() == 2) {
      const std::string actual = hashHex(
          std::string_view(text).substr(0, thisLineStart));
      if (actual != tokens[1]) {
        badCell("checksum mismatch (stored " + tokens[1] + ", computed " +
                actual + "): file is torn or corrupt");
      }
      sealed = true;
    } else if (directive == "fault") {
      cell.faultLabel = restOfLine(line);
    } else if (directive == "fault-seed" && tokens.size() == 2) {
      cell.faultSeed = toU64(tokens[1]);
    } else if (directive == "fault-retries" && tokens.size() == 2) {
      cell.faultRetries = toU64(tokens[1]);
    } else if (directive == "fault-failovers" && tokens.size() == 2) {
      cell.faultFailovers = toU64(tokens[1]);
    } else if (directive == "fault-stall" && tokens.size() == 2) {
      cell.faultStallSeconds = toDouble(tokens[1]);
    } else if (directive == "fault-error") {
      cell.faultError = restOfLine(line);
    } else if (directive == "tenant") {
      cell.tenantLabel = restOfLine(line);
    } else if (directive == "tenant-seed" && tokens.size() == 2) {
      cell.tenantSeed = toU64(tokens[1]);
    } else if (directive == "tenant-jain" && tokens.size() == 2) {
      cell.tenantJain = toDouble(tokens[1]);
    } else if (directive == "tenant-solo" && tokens.size() == 2) {
      cell.tenantSoloTimeIo = toDouble(tokens[1]);
    } else if (directive == "tenant-slowdown" && tokens.size() == 2) {
      cell.tenantSlowdown = toDouble(tokens[1]);
    } else if (directive == "tenant-fault") {
      cell.faultLabel = restOfLine(line);
    } else if (directive == "tenant-jobs" && tokens.size() == 2) {
      expectedTenantJobs = toU64(tokens[1]);
    } else if (directive == "tenant-job" && tokens.size() == 7) {
      TenantJobRow row;
      row.id = tokens[1];
      row.weight = toDouble(tokens[2]);
      row.soloTimeIo = toDouble(tokens[3]);
      row.contendedTimeIo = toDouble(tokens[4]);
      row.slowdown = toDouble(tokens[5]);
      row.waitSeconds = toDouble(tokens[6]);
      cell.tenantJobs.push_back(std::move(row));
    } else if (directive == "estimator" && tokens.size() == 2) {
      cell.estimator = tokens[1];
    } else if (directive == "np" && tokens.size() == 2) {
      cell.np = static_cast<int>(toU64(tokens[1]));
    } else if (directive == "weight" && tokens.size() == 2) {
      cell.weightBytes = toU64(tokens[1]);
    } else if (directive == "time-io" && tokens.size() == 2) {
      cell.timeIo = toDouble(tokens[1]);
    } else if (directive == "ior-runs" && tokens.size() == 2) {
      cell.iorRuns = toU64(tokens[1]);
    } else if (directive == "phases" && tokens.size() == 2) {
      expectedPhases = toU64(tokens[1]);
    } else if (directive == "phase" && tokens.size() == 6) {
      PhaseRow row;
      row.id = static_cast<int>(toU64(tokens[1]));
      row.familyId = static_cast<int>(toU64(tokens[2]));
      row.weightBytes = toU64(tokens[3]);
      row.bandwidthCH = toDouble(tokens[4]);
      row.timeCH = toDouble(tokens[5]);
      cell.phases.push_back(row);
    } else if (directive == "model") {
      cell.modelLabel = restOfLine(line);
    } else if (directive == "config") {
      cell.configLabel = restOfLine(line);
    } else {
      badCell("unknown line '" + line + "'");
    }
  }
  if (!sawEnd) badCell("missing 'end'");
  if (cell.key.empty()) badCell("missing key");
  if (cell.phases.size() != expectedPhases) {
    badCell("phase count mismatch");
  }
  if (cell.tenantJobs.size() != expectedTenantJobs) {
    badCell("tenant job count mismatch");
  }
  return cell;
}

obs::RunCapture makeCellCapture(const CellResult& cell) {
  obs::RunCapture capture;
  capture.app = cell.modelLabel;
  capture.np = cell.np;
  capture.config = cell.configLabel;
  capture.makespan = cell.timeIo;
  for (const auto& p : cell.phases) {
    obs::CapturePhase phase;
    phase.id = p.id;
    phase.familyId = p.familyId;
    phase.weightBytes = p.weightBytes;
    phase.ioSeconds = p.timeCH;
    phase.bandwidth = p.bandwidthCH;
    phase.label = "family " + std::to_string(p.familyId);
    capture.phases.push_back(std::move(phase));
  }
  return capture;
}

CampaignStore::CampaignStore(std::filesystem::path root)
    : root_(std::move(root)) {}

std::filesystem::path CampaignStore::cellPath(const std::string& key) const {
  return root_ / "cells" / (key + ".cell");
}

std::filesystem::path CampaignStore::capturePath(
    const std::string& key) const {
  return root_ / "captures" / (key + ".cap");
}

std::filesystem::path CampaignStore::manifestPath() const {
  return root_ / "MANIFEST.txt";
}

CampaignStore::InitResult CampaignStore::initialize(
    const std::string& canonicalText, bool replaceOnMismatch) {
  const auto campaignFile = root_ / "campaign.txt";
  InitResult result = InitResult::Created;
  if (std::filesystem::exists(campaignFile)) {
    if (readFileText(campaignFile) == canonicalText) {
      result = InitResult::Matched;
    } else if (replaceOnMismatch) {
      std::filesystem::remove_all(root_ / "cells");
      std::filesystem::remove_all(root_ / "captures");
      std::filesystem::remove(manifestPath());
      result = InitResult::Replaced;
    } else {
      throw std::runtime_error(
          "store " + root_.string() +
          " holds a different campaign; use --force to replace it or "
          "choose another --store directory");
    }
  }
  std::filesystem::create_directories(root_ / "cells");
  std::filesystem::create_directories(root_ / "captures");
  if (result != InitResult::Matched) {
    writeFileAtomically(campaignFile, canonicalText);
  }
  return result;
}

bool CampaignStore::hasCell(const std::string& key) const {
  return std::filesystem::exists(cellPath(key));
}

CellResult CampaignStore::loadCell(const std::string& key) const {
  auto cell = CellResult::parse(readFileText(cellPath(key)));
  if (cell.key != key) {
    throw std::runtime_error("cell " + key + " holds key " + cell.key);
  }
  return cell;
}

std::optional<CellResult> CampaignStore::tryLoadCell(
    const std::string& key, std::string* whyBad) const {
  auto loaded =
      tryLoadCellFile(cellPath(key), root_ / "quarantine", key, whyBad);
  if (telemetry_ != nullptr) {
    telemetry_->cellLoaded("store", loaded.has_value());
  }
  return loaded;
}

void CampaignStore::saveCell(const CellResult& cell) const {
  const std::string text = cell.render();
  writeFileAtomically(cellPath(cell.key), text);
  if (telemetry_ != nullptr) telemetry_->cellSaved("store", text.size());
}

void CampaignStore::saveCapture(const std::string& key,
                                const obs::RunCapture& capture) const {
  std::ostringstream out;
  capture.write(out);
  writeFileAtomically(capturePath(key), out.str());
  if (telemetry_ != nullptr) telemetry_->captureSaved();
}

void CampaignStore::writeManifest(const ResolvedCampaign& campaign,
                                  const std::vector<CellSpec>& cells) const {
  std::ostringstream out;
  out << "iop-sweep-manifest v1\n";
  out << "campaign " << campaign.spec.name << "\n";
  out << "estimator " << campaign.spec.estimatorVersion() << "\n";
  out << "cells " << cells.size() << "\n";
  for (const auto& cell : cells) {
    out << "cell " << cell.key << " dd=" << fmtDouble(cell.degradeDisks)
        << " dn=" << fmtDouble(cell.degradeNet) << " "
        << campaign.cellTitle(cell) << "\n";
  }
  out << "end\n";
  writeFileAtomically(manifestPath(), out.str());
}

std::size_t CampaignStore::gc(const std::set<std::string>& liveKeys) const {
  std::size_t removed = 0;
  for (const char* sub : {"cells", "captures"}) {
    const auto dir = root_ / sub;
    if (!std::filesystem::exists(dir)) continue;
    std::vector<std::filesystem::path> dead;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string key = entry.path().stem().string();
      if (liveKeys.count(key) == 0) dead.push_back(entry.path());
    }
    for (const auto& path : dead) {
      std::filesystem::remove(path);
      ++removed;
    }
  }
  return removed;
}

SharedStore::SharedStore(std::filesystem::path root)
    : root_(std::move(root)) {}

std::filesystem::path SharedStore::cellPath(const std::string& key) const {
  return root_ / "cells" / (key + ".cell");
}

std::filesystem::path SharedStore::modelDir() const {
  return root_ / "models";
}

bool SharedStore::hasCell(const std::string& key) const {
  return std::filesystem::exists(cellPath(key));
}

CellResult SharedStore::loadCell(const std::string& key) const {
  auto cell = CellResult::parse(readFileText(cellPath(key)));
  if (cell.key != key) {
    throw std::runtime_error("shared cell " + key + " holds key " +
                             cell.key);
  }
  return cell;
}

std::optional<CellResult> SharedStore::tryLoadCell(
    const std::string& key, std::string* whyBad) const {
  auto loaded =
      tryLoadCellFile(cellPath(key), root_ / "quarantine", key, whyBad);
  if (telemetry_ != nullptr) {
    telemetry_->cellLoaded("shared_store", loaded.has_value());
  }
  return loaded;
}

void SharedStore::saveCell(const CellResult& cell) const {
  std::filesystem::create_directories(root_ / "cells");
  const std::string text = cell.render();
  writeFileAtomically(cellPath(cell.key), text);
  if (telemetry_ != nullptr) {
    telemetry_->cellSaved("shared_store", text.size());
  }
}

}  // namespace iop::sweep
