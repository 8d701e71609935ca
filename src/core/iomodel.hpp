// The application's I/O abstract model (Section III-A1).
//
// An IOModel = metadata + spatial global pattern + temporal global pattern,
// expressed as an ordered sequence of I/O phases.  It is extracted once,
// offline, from a trace, and is *independent of the I/O subsystem*: the
// same model drives IOR-based replay on any number of target
// configurations (the paper's key claim).  save()/load() demonstrate that
// decoupling concretely.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/phase.hpp"
#include "trace/tracer.hpp"

namespace iop::core {

/// Flattened per-file metadata in the paper's bullet-list vocabulary.
struct ModelMetadata {
  bool collectiveIo = false;
  bool blockingIo = true;  ///< this runtime only models blocking I/O
  bool explicitOffsets = false;
  bool individualPointers = false;
  std::string accessMode;  ///< "sequential" | "strided" | "random"
  std::string accessType;  ///< "shared" | "unique"
  std::uint64_t etypeBytes = 1;

  std::string describe() const;
};

class IOModel {
 public:
  IOModel() = default;
  IOModel(std::string appName, int np, std::vector<trace::FileMeta> files,
          std::vector<Phase> phases);

  const std::string& appName() const noexcept { return appName_; }
  int np() const noexcept { return np_; }
  const std::vector<Phase>& phases() const noexcept { return phases_; }
  std::vector<Phase>& phases() noexcept { return phases_; }
  const std::vector<trace::FileMeta>& files() const noexcept {
    return files_;
  }

  /// Derived metadata for one file of the model.
  ModelMetadata metadataFor(int fileId) const;

  /// Total bytes the application moves (sum of phase weights).
  std::uint64_t totalWeightBytes() const;

  /// Human-readable summary: metadata + phase table.
  std::string renderSummary() const;

  /// Data series for the paper's 3-D global-access-pattern figures
  /// (Figs. 5, 7, 9, 10): one line per repetition per rank per op:
  ///   phase idP tick fileOffsetBytes requestBytes W|R
  std::string renderGlobalPatternSeries(std::size_t maxPoints = 0) const;

  /// Persist / restore (text format, versioned).  save() throws when the
  /// file cannot be opened, written or closed.
  void save(const std::filesystem::path& path) const;
  static IOModel load(const std::filesystem::path& path);

  /// The save() serialization.  It is the model's canonical content
  /// identity: the sweep cache hashes it, so two models with identical
  /// text are interchangeable.
  std::string renderText() const;

 private:
  std::string appName_;
  int np_ = 0;
  std::vector<trace::FileMeta> files_;
  std::vector<Phase> phases_;
};

/// The full characterization pipeline: trace -> segments -> phases -> model.
IOModel extractModel(const trace::TraceData& data,
                     const PhaseDetectionOptions& options = {});

}  // namespace iop::core
