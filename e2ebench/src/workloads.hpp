// The benchmark's four closed-loop workloads (NOTES.md says why each).
//
//   btio-select     Table XII flow at Fig. 9 scale: trace BT-IO class C
//                   np=16 on A, estimate on C and Finisterrae, select
//   trace-to-model  write + read + model extraction + model save of two
//                   traces simulated in set-up (no simulation in the op)
//   sweep-cold      the `iop-sweep run` sequence at -j1 on a fresh store
//   sweep-warm      the same sequence against the store set-up finished
//
// Each op goes through the library's public entry points only and starts
// from the same state as every other op of its workload.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "golden.hpp"
#include "spans.hpp"

namespace e2e {

/// Named per-op numbers: counts the program exposes ("ior.runs",
/// "store.cell_commits", ...) and in-op times it reports
/// ("sweep.cell_ior_s", from CellOutcome::seconds).
using Facts = std::map<std::string, double>;

struct OpResult {
  Outputs outputs;  ///< checked against the golden / first-op values
  Facts facts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs from `seed`, in memory where the workload allows;
  /// files go under `scratch` (created here).
  virtual void setUp(std::uint64_t seed,
                     const std::filesystem::path& scratch) = 0;

  /// Text form of the generated inputs: the same seed gives the same text.
  virtual std::string inputs() const = 0;

  /// One op.  Throws when the program fails (for a sweep: when the
  /// outcome is not ok()).
  virtual OpResult op(Spans& spans) = 0;

  /// Restore the state the next op starts from.  Untimed.
  virtual void reset() {}

  /// Exact counts of one op's simulated work ("sim.events",
  /// "storage.net_transfers", "storage.disk_accesses", "mpi.collectives",
  /// "mpi.io_mib"), taken with an obs hub attached to every cluster the op
  /// builds.  Throws when the hub changed a Time_io.  Untimed.
  virtual Facts countOp() = 0;
};

std::vector<std::string> workloadNames();

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace e2e
