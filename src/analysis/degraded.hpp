// Degraded-mode estimation: Time_io under a fault plan.
//
// The per-phase IOR mapping (replay.hpp) cannot see time-dependent faults
// — each phase replays in its own fresh cluster starting at t=0, so a
// "disk down from 2s" window would hit every phase or none.  Degraded
// estimation therefore replays the *whole model* with the synthetic
// application (synthesize.hpp), which preserves inter-phase ordering and
// absolute simulation time, across N seeded fault replicas.  The result
// is min/median/max Time_io, per-replica retry/failover accounting, and
// per-phase blame: how much retry/timeout stall landed inside each
// phase's execution window.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/replay.hpp"
#include "analysis/synthesize.hpp"
#include "core/iomodel.hpp"
#include "fault/plan.hpp"

namespace iop::analysis {

/// One seeded fault replica of the synthetic replay.
struct FaultReplica {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;       ///< IoFault message when the run failed
  double timeIo = 0.0;     ///< synthetic-app makespan (valid when ok)
  std::uint64_t retries = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t failovers = 0;
  double stallSeconds = 0.0;  ///< total retry/backoff/timeout stall
  std::string eventLog;       ///< injector's deterministic fault history
  std::vector<double> phaseTimeSec;   ///< per-phase window duration
  std::vector<double> phaseStallSec;  ///< stall attributed to each phase
};

/// Per-phase aggregation over the surviving replicas.
struct DegradedPhase {
  int phaseId = 0;
  int familyId = 0;
  std::uint64_t weightBytes = 0;
  double medianTimeSec = 0.0;
  double medianStallSec = 0.0;
  double maxStallSec = 0.0;
};

struct DegradedEstimate {
  std::vector<FaultReplica> replicas;
  std::size_t okReplicas = 0;
  double minTimeIo = 0.0;
  double medianTimeIo = 0.0;
  double maxTimeIo = 0.0;
  std::vector<DegradedPhase> phases;

  bool allFailed() const noexcept { return okReplicas == 0; }
};

/// Replay `model` on fresh instances of the builder's configuration under
/// `plan`, once per seed.  A replica whose run throws (retries exhausted,
/// no failover possible) is recorded as failed rather than aborting the
/// estimate; min/median/max cover the surviving replicas only.  A
/// sim::DeadlineExceeded from an engine the builder armed is not a replica
/// outcome and propagates.
DegradedEstimate estimateDegraded(const core::IOModel& model,
                                  const ConfigBuilder& builder,
                                  const fault::FaultPlan& plan,
                                  const std::vector<std::uint64_t>& seeds);

}  // namespace iop::analysis
