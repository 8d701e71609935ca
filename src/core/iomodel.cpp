#include "core/iomodel.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "util/text.hpp"
#include "util/units.hpp"

namespace iop::core {

std::string ModelMetadata::describe() const {
  std::ostringstream out;
  out << (explicitOffsets ? "Explicit offset" : "Individual file pointers")
      << ", " << (collectiveIo ? "Collective" : "Non-collective")
      << " I/O operations, "
      << (blockingIo ? "Blocking" : "Non-blocking") << " I/O operations\n";
  out << accessMode << " access mode, " << accessType << " access type\n";
  if (etypeBytes != 1) out << "etype of " << etypeBytes << "\n";
  return out.str();
}

IOModel::IOModel(std::string appName, int np,
                 std::vector<trace::FileMeta> files,
                 std::vector<Phase> phases)
    : appName_(std::move(appName)), np_(np), files_(std::move(files)),
      phases_(std::move(phases)) {}

ModelMetadata IOModel::metadataFor(int fileId) const {
  ModelMetadata meta;
  const trace::FileMeta* fm = nullptr;
  for (const auto& f : files_) {
    if (f.fileId == fileId) fm = &f;
  }
  if (fm != nullptr) {
    meta.collectiveIo = fm->sawCollective;
    meta.blockingIo = !fm->sawNonBlocking;
    meta.explicitOffsets = fm->sawExplicitOffsets;
    meta.individualPointers = fm->sawIndividualPointers;
    meta.accessType = fm->shared ? "Shared" : "Unique";
    meta.etypeBytes = fm->etypeBytes;
  }
  // Access mode: a strided file view, or per-process strides larger than
  // the request size (each process leaves holes for the others), means
  // strided; a constant displacement equal to rs means sequential;
  // anything irregular is random.
  bool strided = fm != nullptr && fm->filetypeStride > fm->filetypeBlock;
  bool irregular = false;
  for (const auto& phase : phases_) {
    if (phase.idF != fileId) continue;
    for (const auto& op : phase.ops) {
      if (!op.offsetFn.exact) irregular = true;
      const std::int64_t rs = static_cast<std::int64_t>(op.rsBytes);
      if (phase.rep > 1 && op.dispBytes != rs) {
        if (op.dispBytes > rs) {
          strided = true;
        } else {
          irregular = true;
        }
      }
      if (phase.rep == 1 && op.offsetFn.exact &&
          op.offsetFn.cBytes > static_cast<double>(op.rsBytes)) {
        strided = true;  // consecutive single-shot phases striding the file
      }
    }
  }
  meta.accessMode = irregular ? "Random" : (strided ? "Strided"
                                                    : "Sequential");
  return meta;
}

std::uint64_t IOModel::totalWeightBytes() const {
  std::uint64_t total = 0;
  for (const auto& p : phases_) total += p.weightBytes;
  return total;
}

std::string IOModel::renderSummary() const {
  std::ostringstream out;
  out << "I/O model of " << appName_ << " for " << np_ << " processes\n";
  for (const auto& f : files_) {
    out << "file " << f.fileId << " (" << f.path << "):\n"
        << metadataFor(f.fileId).describe();
  }
  out << renderPhaseTable(phases_);
  return out.str();
}

std::string IOModel::renderGlobalPatternSeries(std::size_t maxPoints) const {
  std::ostringstream out;
  out << "# phase idP tick fileOffsetBytes requestBytes opType\n";
  std::size_t points = 0;
  for (const auto& phase : phases_) {
    // Approximate per-repetition ticks by linear interpolation over the
    // phase's tick window (exact for the common gap-free case).
    const double tickStep =
        phase.rep > 1 ? static_cast<double>(phase.lastTick -
                                            phase.firstTick) /
                            static_cast<double>(phase.rep - 1)
                      : 0.0;
    for (std::size_t r = 0; r < phase.ranks.size(); ++r) {
      for (std::uint64_t m = 0; m < phase.rep; ++m) {
        for (const auto& op : phase.ops) {
          if (maxPoints != 0 && points >= maxPoints) return out.str();
          const std::uint64_t offset = static_cast<std::uint64_t>(
              static_cast<std::int64_t>(op.initOffsetBytes[r]) +
              op.dispBytes * static_cast<std::int64_t>(m));
          out << phase.id << ' ' << phase.ranks[r] << ' '
              << static_cast<std::uint64_t>(
                     static_cast<double>(phase.firstTick) + tickStep * m)
              << ' ' << offset << ' ' << op.rsBytes << ' '
              << (op.isWrite() ? 'W' : 'R') << '\n';
          ++points;
        }
      }
    }
  }
  return out.str();
}

void IOModel::save(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path.string());
  write(out);
  if (!out) throw std::runtime_error("model write failed");
}

std::string IOModel::renderText() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

void IOModel::write(std::ostream& out) const {
  out << "# iop-model v1\n";
  out << "app " << appName_ << "\n";
  out << "np " << np_ << "\n";
  for (const auto& f : files_) {
    out << "file " << f.fileId << ' ' << f.path << ' ' << (f.shared ? 1 : 0)
        << ' ' << f.etypeBytes << ' ' << f.viewDisp << ' ' << f.filetypeBlock
        << ' ' << f.filetypeStride << ' ' << (f.sawCollective ? 1 : 0) << ' '
        << (f.sawExplicitOffsets ? 1 : 0) << ' '
        << (f.sawIndividualPointers ? 1 : 0) << ' ' << f.np;
    // The 13th field appears only when set, so every blocking model keeps
    // its text and with it its digest and sweep cache key.
    if (f.sawNonBlocking) out << " 1";
    out << "\n";
  }
  char buf[512];
  for (const auto& p : phases_) {
    std::snprintf(buf, sizeof buf,
                  "phase %d %d %" PRIu64 " %d %d %" PRIu64 " %" PRIu64
                  " %.9f %.9f %.9f %.9f %.9f %" PRIu64 "\n",
                  p.id, p.idF, p.rep, p.familyId, p.familyIndex, p.firstTick,
                  p.lastTick, p.startTime, p.endTime, p.sumIoDuration,
                  p.maxRankIoDuration, p.ioUnionSeconds, p.weightBytes);
    out << buf;
    out << "ranks " << p.id;
    for (int r : p.ranks) out << ' ' << r;
    out << "\n";
    for (std::size_t j = 0; j < p.ops.size(); ++j) {
      const auto& op = p.ops[j];
      std::snprintf(buf, sizeof buf,
                    "op %d %zu %s %" PRIu64 " %" PRId64 " %d %.6f %.6f %.6f",
                    p.id, j, op.op.c_str(), op.rsBytes, op.dispBytes,
                    op.offsetFn.exact ? 1 : 0, op.offsetFn.aBytes,
                    op.offsetFn.bBytes, op.offsetFn.cBytes);
      out << buf;
      for (auto o : op.initOffsetBytes) out << ' ' << o;
      out << "\n";
    }
  }
}

IOModel IOModel::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  // Every error names path:line: std::sto* alone throws a bare "stoi".
  auto malformed = [&path](std::size_t lineNo, const std::string& why) {
    return std::runtime_error(path.string() + ":" + std::to_string(lineNo) +
                              ": malformed model record (" + why + ")");
  };
  std::string appName;
  int np = 0;
  std::vector<trace::FileMeta> files;
  std::vector<Phase> phases;
  std::map<int, std::size_t> phaseIndex;        // phase id -> phases[]
  std::vector<std::vector<std::size_t>> opLines;  // per phase, per op
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    auto t = util::splitWhitespace(trimmed);
    try {
      if (t[0] == "app") {
        appName = t.at(1);
      } else if (t[0] == "np") {
        np = std::stoi(t.at(1));
      } else if (t[0] == "file") {
        trace::FileMeta f;
        f.fileId = std::stoi(t.at(1));
        f.path = t.at(2);
        f.shared = t.at(3) == "1";
        f.etypeBytes = std::stoull(t.at(4));
        f.viewDisp = std::stoull(t.at(5));
        f.filetypeBlock = std::stoull(t.at(6));
        f.filetypeStride = std::stoull(t.at(7));
        f.sawCollective = t.at(8) == "1";
        f.sawExplicitOffsets = t.at(9) == "1";
        f.sawIndividualPointers = t.at(10) == "1";
        f.np = std::stoi(t.at(11));
        if (t.size() > 12) f.sawNonBlocking = t[12] == "1";
        files.push_back(std::move(f));
      } else if (t[0] == "phase") {
        Phase p;
        p.id = std::stoi(t.at(1));
        p.idF = std::stoi(t.at(2));
        p.rep = std::stoull(t.at(3));
        p.familyId = std::stoi(t.at(4));
        p.familyIndex = std::stoi(t.at(5));
        p.firstTick = std::stoull(t.at(6));
        p.lastTick = std::stoull(t.at(7));
        p.startTime = std::stod(t.at(8));
        p.endTime = std::stod(t.at(9));
        p.sumIoDuration = std::stod(t.at(10));
        p.maxRankIoDuration = std::stod(t.at(11));
        p.ioUnionSeconds = std::stod(t.at(12));
        p.weightBytes = std::stoull(t.at(13));
        if (!phaseIndex.emplace(p.id, phases.size()).second) {
          throw std::runtime_error("duplicate phase " + t[1]);
        }
        phases.push_back(std::move(p));
        opLines.emplace_back();
      } else if (t[0] == "ranks" || t[0] == "op") {
        const auto it = phaseIndex.find(std::stoi(t.at(1)));
        if (it == phaseIndex.end()) {
          throw std::runtime_error("unknown phase " + t[1]);
        }
        Phase& p = phases[it->second];
        if (t[0] == "ranks") {
          for (std::size_t i = 2; i < t.size(); ++i) {
            p.ranks.push_back(std::stoi(t[i]));
          }
        } else {
          PhaseOp op;
          op.op = t.at(3);
          op.rsBytes = std::stoull(t.at(4));
          op.dispBytes = std::stoll(t.at(5));
          op.offsetFn.exact = t.at(6) == "1";
          op.offsetFn.aBytes = std::stod(t.at(7));
          op.offsetFn.bBytes = std::stod(t.at(8));
          op.offsetFn.cBytes = std::stod(t.at(9));
          for (std::size_t i = 10; i < t.size(); ++i) {
            op.initOffsetBytes.push_back(std::stoull(t[i]));
          }
          p.ops.push_back(std::move(op));
          opLines[it->second].push_back(lineNo);
        }
      }
    } catch (const std::exception& e) {
      throw malformed(lineNo, e.what());
    }
  }
  if (np <= 0) throw std::runtime_error("model file missing np");
  // The estimators index initOffsetBytes by rank position: an op with
  // fewer (or more) offsets than its phase has ranks is a damaged model.
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    for (std::size_t j = 0; j < p.ops.size(); ++j) {
      if (p.ops[j].initOffsetBytes.size() != p.ranks.size()) {
        throw malformed(opLines[i][j],
                        std::to_string(p.ops[j].initOffsetBytes.size()) +
                            " initial offsets for the " +
                            std::to_string(p.ranks.size()) +
                            " ranks of phase " + std::to_string(p.id));
      }
    }
  }
  return IOModel(appName, np, std::move(files), std::move(phases));
}

IOModel extractModel(const trace::TraceData& data,
                     const PhaseDetectionOptions& options) {
  IOP_PROFILE_SCOPE("model.extract");
  return IOModel(data.appName, data.np, data.files,
                 detectPhases(data, options));
}

}  // namespace iop::core
