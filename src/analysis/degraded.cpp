#include "analysis/degraded.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/injector.hpp"
#include "mpi/runtime.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace iop::analysis {

double medianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

FaultReplica runReplica(const core::IOModel& model,
                        const ConfigBuilder& builder,
                        const fault::FaultPlan& plan, std::uint64_t seed) {
  IOP_PROFILE_SCOPE("degraded.replica");
  FaultReplica replica;
  replica.seed = seed;
  const std::size_t phaseCount = model.phases().size();
  replica.phaseTimeSec.assign(phaseCount, 0.0);
  replica.phaseStallSec.assign(phaseCount, 0.0);

  configs::ClusterConfig config = builder();
  const auto injector = fault::installFaults(config, plan, seed);
  PhaseClock clock;
  mpi::Runtime runtime(*config.topology,
                       config.runtimeOptions(model.np()));
  try {
    replica.timeIo = runtime.runToCompletion(
        makeSyntheticApp(model, config.mount, &clock));
    replica.ok = true;
  } catch (const sim::DeadlineExceeded&) {
    throw;  // the caller's wall-clock budget ran out: not a replica result
  } catch (const std::exception& e) {
    replica.error = e.what();
  }

  for (std::size_t i = 0; i < phaseCount && i < clock.windows.size(); ++i) {
    replica.phaseTimeSec[i] = clock.windows[i].duration();
  }
  if (injector != nullptr) {
    const auto& acct = injector->accounting();
    replica.retries = acct.retries;
    replica.exhausted = acct.exhausted;
    replica.failovers = acct.failovers;
    replica.stallSeconds = acct.stallSeconds;
    replica.eventLog = injector->renderEventLog();
    for (const fault::FaultEvent& event : injector->events()) {
      if (event.seconds <= 0.0) continue;
      const std::size_t phase = clock.phaseAt(event.time);
      if (phase < phaseCount) replica.phaseStallSec[phase] += event.seconds;
    }
  }
  return replica;
}

}  // namespace

DegradedEstimate estimateDegraded(const core::IOModel& model,
                                  const ConfigBuilder& builder,
                                  const fault::FaultPlan& plan,
                                  const std::vector<std::uint64_t>& seeds) {
  IOP_PROFILE_SCOPE("degraded.estimate");
  if (seeds.empty()) {
    throw std::invalid_argument("estimateDegraded: need at least one seed");
  }
  DegradedEstimate out;
  std::vector<double> times;
  for (const std::uint64_t seed : seeds) {
    out.replicas.push_back(runReplica(model, builder, plan, seed));
    const FaultReplica& replica = out.replicas.back();
    if (replica.ok) {
      ++out.okReplicas;
      times.push_back(replica.timeIo);
    }
  }
  if (!times.empty()) {
    out.minTimeIo = *std::min_element(times.begin(), times.end());
    out.maxTimeIo = *std::max_element(times.begin(), times.end());
    out.medianTimeIo = medianOf(times);
  }

  const auto& phases = model.phases();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    DegradedPhase row;
    row.phaseId = phases[i].id;
    row.familyId = phases[i].familyId;
    row.weightBytes = phases[i].weightBytes;
    std::vector<double> phaseTimes;
    std::vector<double> phaseStalls;
    for (const FaultReplica& replica : out.replicas) {
      if (!replica.ok) continue;
      phaseTimes.push_back(replica.phaseTimeSec[i]);
      phaseStalls.push_back(replica.phaseStallSec[i]);
      row.maxStallSec = std::max(row.maxStallSec, replica.phaseStallSec[i]);
    }
    row.medianTimeSec = medianOf(std::move(phaseTimes));
    row.medianStallSec = medianOf(std::move(phaseStalls));
    out.phases.push_back(row);
  }
  return out;
}

}  // namespace iop::analysis
