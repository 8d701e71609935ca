// Trace persistence: one binary file per run, `<app>.trace`.
//
// The file is an "iop-trace v2" container: a header (app, np, the file
// table, the comm counts), a signature table of the distinct (op, file,
// request size) triples, time and duration dictionaries, and one
// checksummed record stream per rank.  Readers still accept the paper's
// Figure-2 text (v1: `<app>.meta` plus one `<app>.trace.<rank>` file per
// rank, columns IdP IdF MPI-Operation Offset tick RequestSize time
// duration); when both are present the container wins.  Round-tripping a
// trace through disk is what decouples the characterization machine from
// the analysis machine.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "trace/tracer.hpp"

namespace iop::trace {

/// `<dir>/<app>.trace`, the file writeTraces writes.
std::filesystem::path traceFilePath(const std::filesystem::path& dir,
                                    const std::string& appName);

/// Write `<app>.trace` into `dir` (atomic replace, no fsync).  Creates the
/// directory if needed.  Throws std::invalid_argument when np, the
/// per-rank streams and the comm counts disagree, or a stream mixes
/// ranks; std::runtime_error on I/O failure.
void writeTraces(const std::filesystem::path& dir, const TraceData& data);

/// Read `<dir>/<app>.trace`, or the v1 Figure-2 files when it is absent.
/// Throws std::runtime_error naming the file and the defect.
TraceData readTraces(const std::filesystem::path& dir,
                     const std::string& appName);

/// The container bytes writeTraces writes.  Times and durations are
/// stored as the values their v1 "%.9f" text reads back as, so a trace
/// decodes bit-identically to its v1 round trip.
std::string encodeTrace(const TraceData& data);

/// Decode container bytes; throws std::runtime_error with the byte
/// offset of a truncation, checksum mismatch or implausible count.
TraceData decodeTrace(const std::string& bytes);

/// Render one rank's records as a Figure-2-style table (for reports).
std::string renderTraceTable(const TraceData& data, int rank,
                             std::size_t maxRows = 0);

}  // namespace iop::trace
