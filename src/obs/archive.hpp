// Capture archive: the append-only, content-addressed directory that
// turns one-off run captures and bench snapshots into a longitudinal
// record — the substrate the trend engine (obs/trend.hpp) and the
// iop-trend tool query.
//
// Layout under the archive root:
//   MANIFEST.jsonl        append-only index, one JSON object per entry
//                         ({"schema":"iop-archive/1","seq":..,"kind":..,
//                           "app":..,"config":..,"np":..,"label":..,
//                           "hash":..,"bytes":..})
//   objects/<hash>.capv2        capture payloads (format v2, sniffable)
//   objects/<hash>.bench.json   iop-bench/1 snapshots, verbatim
//
// Object files are content-addressed by FNV-1a64 of their bytes and
// written atomically (util::vfs::replaceFile), so concurrent writers
// — several CI jobs archiving into one cached directory — never tear an
// object and identical payloads dedup into one file.  The manifest is
// append-only (one short line per entry, O_APPEND semantics); list()
// parses it tolerantly, skipping torn lines the way the run journal
// does, so a crashed writer costs at most its own entry.
//
// An entry's identity is (app, config, np, label, seq): label is the
// commit / run tag supplied at add time, seq is a monotonically
// increasing archive-wide sequence number that orders each series.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/benchjson.hpp"
#include "obs/capture.hpp"

namespace iop::obs {

struct ArchiveEntry {
  std::uint64_t seq = 0;     ///< archive-wide, orders every series
  std::string kind;          ///< "capture" | "bench"
  std::string app;           ///< bench entries: the snapshot name
  std::string config;
  int np = 0;                ///< 0 for bench entries
  std::string label;         ///< commit / tag supplied at add time
  std::string hash;          ///< 16 hex digits of the payload bytes
  std::uint64_t bytes = 0;   ///< payload size

  /// "app/config/np" — the series the entry belongs to.
  std::string seriesKey() const;
  std::string objectName() const;  ///< file name under objects/
};

/// 16-hex-digit FNV-1a64 of an object payload — the hash the archive
/// content-addresses by.  Exposed so iop-fsck can verify objects against
/// their manifest entries and filenames.
std::string archivePayloadHash(const std::string& bytes);

/// The manifest-line codec, exposed for iop-fsck: render one entry as
/// its JSONL line (newline-terminated) / parse one line (false on torn,
/// nested or schema-mismatched input, the lines list() skips).
std::string renderArchiveManifestLine(const ArchiveEntry& entry);
bool parseArchiveManifestLine(const std::string& line, ArchiveEntry& out);

class Archive {
 public:
  /// Opens (and lazily creates) the archive rooted at `root`.
  explicit Archive(std::filesystem::path root);

  const std::filesystem::path& root() const noexcept { return root_; }
  std::filesystem::path manifestPath() const;
  std::filesystem::path objectPath(const ArchiveEntry& entry) const;

  /// All manifest entries in seq order.  Torn or malformed lines are
  /// skipped (counted in *badLines when given), like the run journal.
  std::vector<ArchiveEntry> list(std::size_t* badLines = nullptr) const;

  /// Archive a capture under `label`; returns the appended entry.
  /// The payload is always stored in format v2.
  ArchiveEntry addCapture(const RunCapture& capture,
                          const std::string& label);

  /// Archive an iop-bench/1 document verbatim under (name, label).
  /// Throws std::invalid_argument when `benchJson` fails schema
  /// validation — a malformed snapshot never enters the archive.
  ArchiveEntry addBench(const std::string& benchJson,
                        const std::string& name, const std::string& label);

  /// Load an entry's capture (kind "capture"; throws otherwise or when
  /// the object is missing/corrupt — v2 checksums catch bit flips).
  RunCapture loadCapture(const ArchiveEntry& entry) const;

  /// Load and parse an entry's bench snapshot (kind "bench").
  std::vector<BenchEntry> loadBench(const ArchiveEntry& entry) const;

  /// Raw object bytes for an entry.
  std::string loadObject(const ArchiveEntry& entry) const;

  struct GcResult {
    std::size_t prunedEntries = 0;  ///< manifest entries dropped
    std::size_t removedFiles = 0;   ///< object files deleted
  };

  /// Garbage-collect: keep only the newest `keepLastPerSeries` entries of
  /// every (app, config, np) series (0 = keep all entries), rewrite the
  /// manifest atomically, then drop object files no surviving entry
  /// references.  Returns what was pruned.
  GcResult gc(std::size_t keepLastPerSeries = 0);

 private:
  ArchiveEntry append(std::string kind, std::string app, std::string config,
                      int np, std::string label, const std::string& payload,
                      const std::string& extension);

  std::filesystem::path root_;
};

}  // namespace iop::obs
