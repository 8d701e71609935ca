// iop::fault — plan parsing with file:line diagnostics, retry/backoff
// schedules, seeded determinism of injected fault histories, the
// zero-perturbation gate for healthy runs, and the failover-vs-phase-error
// recovery matrix on a striped configuration.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/degraded.hpp"
#include "analysis/runner.hpp"
#include "apps/registry.hpp"
#include "configs/configs.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "mpi/runtime.hpp"
#include "obs/trend.hpp"
#include "storage/faults.hpp"

namespace {

using namespace iop;

// ------------------------------------------------------------- helpers

/// Characterize the cheap strided example app once; every degraded-mode
/// test replays this model.
const core::IOModel& exampleModel() {
  static const core::IOModel model = [] {
    auto cluster = configs::makeConfig(configs::ConfigId::A);
    return analysis::runAndTrace(cluster, "example",
                                 apps::makeApp("example", cluster.mount), 4)
        .model;
  }();
  return model;
}

analysis::ConfigBuilder builderFor(configs::ConfigId id) {
  return [id] { return configs::makeConfig(id); };
}

/// Parse must fail and the diagnostic must carry every `needles` fragment
/// (source:line plus a human-readable cause).
void expectParseError(const std::string& text,
                      const std::vector<std::string>& needles) {
  try {
    fault::parseFaultPlan(text, "plan");
    FAIL() << "expected std::invalid_argument for: " << text;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "diagnostic '" << what << "' lacks '" << needle << "'";
    }
  }
}

/// Event log minus its header line (the header embeds the seed, so two
/// seeds trivially differ there; the interesting question is whether the
/// *histories* differ).
std::string eventLogBody(const std::string& log) {
  const auto nl = log.find('\n');
  return nl == std::string::npos ? std::string() : log.substr(nl + 1);
}

// ------------------------------------------------------- plan parsing

TEST(FaultPlan, ParsesTheDocumentedGrammar) {
  const auto plan = fault::parseFaultPlan(
      "# full grammar tour\n"
      "policy timeout=50ms retries=3 backoff=1ms max-backoff=16ms "
      "jitter=0.5 failover=off\n"
      "disk d0 transient-error p=0.25 from=2s until=10s\n"
      "disk * slow x2.5 from=500ms\n"
      "node n1 crash at=5s restart=+2s\n"
      "net straggler rank=3 x4 from=1s\n",
      "plan");
  EXPECT_DOUBLE_EQ(plan.policy.timeoutSec, 0.05);
  EXPECT_EQ(plan.policy.maxRetries, 3);
  EXPECT_DOUBLE_EQ(plan.policy.backoffBaseSec, 1e-3);
  EXPECT_DOUBLE_EQ(plan.policy.backoffMaxSec, 16e-3);
  EXPECT_DOUBLE_EQ(plan.policy.jitter, 0.5);
  EXPECT_FALSE(plan.policy.failover);

  ASSERT_EQ(plan.rules.size(), 4u);
  const auto& eio = plan.rules[0];
  EXPECT_EQ(eio.kind, fault::FaultRule::Kind::TransientError);
  EXPECT_EQ(eio.selector, "d0");
  EXPECT_DOUBLE_EQ(eio.probability, 0.25);
  EXPECT_DOUBLE_EQ(eio.from, 2.0);
  EXPECT_DOUBLE_EQ(eio.until, 10.0);
  EXPECT_EQ(eio.line, 3);

  const auto& slow = plan.rules[1];
  EXPECT_EQ(slow.kind, fault::FaultRule::Kind::Slow);
  EXPECT_EQ(slow.selector, "*");
  EXPECT_DOUBLE_EQ(slow.factor, 2.5);
  EXPECT_DOUBLE_EQ(slow.from, 0.5);
  EXPECT_TRUE(slow.activeAt(1e9));  // forever

  // `crash at=5s restart=+2s` is sugar for a down window [5, 7).
  const auto& crash = plan.rules[2];
  EXPECT_EQ(crash.target, fault::FaultRule::Target::Node);
  EXPECT_EQ(crash.kind, fault::FaultRule::Kind::Down);
  EXPECT_DOUBLE_EQ(crash.from, 5.0);
  EXPECT_DOUBLE_EQ(crash.until, 7.0);

  const auto& straggler = plan.rules[3];
  EXPECT_EQ(straggler.target, fault::FaultRule::Target::NetRank);
  EXPECT_EQ(straggler.rank, 3);
  EXPECT_DOUBLE_EQ(straggler.factor, 4.0);
}

TEST(FaultPlan, CanonicalTextIgnoresCommentsAndWhitespace) {
  const auto a = fault::parseFaultPlan(
      "disk d0 slow x2\nnet straggler rank=1 x4\n", "a");
  const auto b = fault::parseFaultPlan(
      "# a comment\n\n  disk   d0   slow   x2  # trailing\n"
      "net straggler rank=1 x4\n",
      "b");
  EXPECT_EQ(a.canonicalText(), b.canonicalText());
}

TEST(FaultPlan, CanonicalTextIsTheDocumentedGolden) {
  // Cache keys and RNG seeding hash this rendering: changing it silently
  // invalidates every faulted store, so pin the exact bytes.
  const auto plan = fault::parseFaultPlan("disk d0 slow x2\n", "golden");
  EXPECT_EQ(plan.canonicalText(),
            "faultplan v1\n"
            "policy timeout=0.5s retries=8 backoff=0.002s max-backoff=0.5s "
            "jitter=0.25 failover=on\n"
            "disk d0 slow x2 from=0s until=forever\n");
}

TEST(FaultPlan, DiagnosticsCarrySourceAndLine) {
  expectParseError("disk d0 explode\n", {"plan:1:", "unknown fault"});
  expectParseError("\ndisk d0 transient-error p=1.5\n",
                   {"plan:2:", "p must be in [0, 1]"});
  expectParseError("disk d0 down from=5s until=2s\n",
                   {"plan:1:", "empty fault window"});
  expectParseError("node n0 crash restart=+2s\n",
                   {"plan:1:", "crash needs at="});
  expectParseError("node n0 crash at=5s restart=2s\n",
                   {"plan:1:", "restart before the crash"});
  expectParseError("net straggler x4\n", {"plan:1:", "rank"});
  expectParseError("policy jitter=1.5\n",
                   {"plan:1:", "jitter must be in [0, 1)"});
  expectParseError("disk d0 slow\n", {"plan:1:", "factor"});
  expectParseError("weather d0 down\n", {"plan:1:", "unknown directive"});
}

TEST(FaultInjector, AttachRejectsUnmatchedSelectors) {
  const auto plan =
      fault::parseFaultPlan("disk no-such-disk down from=0s\n", "typo");
  auto config = configs::makeConfig(configs::ConfigId::A);
  EXPECT_THROW(fault::installFaults(config, plan, 1),
               std::invalid_argument);
}

// ----------------------------------------------------- backoff schedule

TEST(Backoff, DoublesFromBaseAndCaps) {
  storage::RetryPolicy policy;
  policy.backoffBaseSec = 1e-3;
  policy.backoffMaxSec = 8e-3;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(storage::backoffDelay(policy, 0, 0.5), 1e-3);
  EXPECT_DOUBLE_EQ(storage::backoffDelay(policy, 1, 0.5), 2e-3);
  EXPECT_DOUBLE_EQ(storage::backoffDelay(policy, 2, 0.5), 4e-3);
  EXPECT_DOUBLE_EQ(storage::backoffDelay(policy, 3, 0.5), 8e-3);
  EXPECT_DOUBLE_EQ(storage::backoffDelay(policy, 4, 0.5), 8e-3);
  // Deep retry counts must not overflow the doubling into nonsense.
  EXPECT_DOUBLE_EQ(storage::backoffDelay(policy, 200, 0.5), 8e-3);
}

TEST(Backoff, JitterStaysWithinTheConfiguredBand) {
  storage::RetryPolicy policy;
  policy.backoffBaseSec = 1e-3;
  policy.backoffMaxSec = 1.0;
  policy.jitter = 0.25;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double center = storage::backoffDelay(policy, attempt, 0.5);
    for (double draw : {0.0, 0.1, 0.5, 0.9, 0.999}) {
      const double delay = storage::backoffDelay(policy, attempt, draw);
      EXPECT_GE(delay, center * (1.0 - policy.jitter) * 0.999999);
      EXPECT_LE(delay, center * (1.0 + policy.jitter) * 1.000001);
    }
    // The extremes of the draw map to the extremes of the band.
    EXPECT_LT(storage::backoffDelay(policy, attempt, 0.0), center);
    EXPECT_GT(storage::backoffDelay(policy, attempt, 0.999), center);
  }
}

// --------------------------------------------------------- determinism

constexpr const char* kFlakyPlanText =
    "policy timeout=20ms retries=6 backoff=1ms max-backoff=32ms "
    "jitter=0.25\n"
    "disk * transient-error p=0.2\n";

TEST(FaultInjector, SamePlanAndSeedReplayIsBitIdentical) {
  const auto plan = fault::parseFaultPlan(kFlakyPlanText, "flaky");
  const auto builder = builderFor(configs::ConfigId::A);
  const auto a =
      analysis::estimateDegraded(exampleModel(), builder, plan, {7});
  const auto b =
      analysis::estimateDegraded(exampleModel(), builder, plan, {7});
  ASSERT_EQ(a.replicas.size(), 1u);
  ASSERT_EQ(b.replicas.size(), 1u);
  ASSERT_TRUE(a.replicas[0].ok);
  EXPECT_GT(a.replicas[0].retries, 0u);  // the plan actually fired
  EXPECT_EQ(a.replicas[0].timeIo, b.replicas[0].timeIo);  // bitwise
  EXPECT_EQ(a.replicas[0].eventLog, b.replicas[0].eventLog);
  EXPECT_EQ(a.replicas[0].retries, b.replicas[0].retries);
  EXPECT_EQ(a.replicas[0].stallSeconds, b.replicas[0].stallSeconds);
}

TEST(FaultInjector, DifferentSeedsDrawDifferentHistories) {
  const auto plan = fault::parseFaultPlan(kFlakyPlanText, "flaky");
  const auto builder = builderFor(configs::ConfigId::A);
  const auto a =
      analysis::estimateDegraded(exampleModel(), builder, plan, {7});
  const auto c =
      analysis::estimateDegraded(exampleModel(), builder, plan, {8});
  ASSERT_TRUE(a.replicas[0].ok);
  ASSERT_TRUE(c.replicas[0].ok);
  EXPECT_NE(eventLogBody(a.replicas[0].eventLog),
            eventLogBody(c.replicas[0].eventLog));
}

TEST(FaultInjector, SeedsAggregateIntoMinMedianMax) {
  const auto plan = fault::parseFaultPlan(kFlakyPlanText, "flaky");
  const auto estimate = analysis::estimateDegraded(
      exampleModel(), builderFor(configs::ConfigId::A), plan, {1, 2, 3});
  EXPECT_EQ(estimate.okReplicas, 3u);
  EXPECT_LE(estimate.minTimeIo, estimate.medianTimeIo);
  EXPECT_LE(estimate.medianTimeIo, estimate.maxTimeIo);
  EXPECT_EQ(estimate.phases.size(), exampleModel().phases().size());
}

TEST(MedianOf, HandlesOddEvenAndEmpty) {
  // The one median behind degraded estimates, seed ranking and trends.
  EXPECT_DOUBLE_EQ(obs::medianOf({}), 0.0);
  EXPECT_DOUBLE_EQ(obs::medianOf({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(obs::medianOf({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(obs::medianOf({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// ------------------------------------------------ zero-perturbation gate

/// Run the example app on a fresh config A, optionally under `plan`, and
/// report (makespan, engine event-order digest).
std::pair<double, std::uint64_t> runExample(const fault::FaultPlan* plan,
                                            std::uint64_t seed) {
  auto config = configs::makeConfig(configs::ConfigId::A);
  std::shared_ptr<fault::FaultInjector> injector;
  if (plan != nullptr) {
    injector = fault::installFaults(config, *plan, seed);
  }
  mpi::Runtime runtime(*config.topology, config.runtimeOptions(4));
  const double makespan =
      runtime.runToCompletion(apps::makeApp("example", config.mount));
  return {makespan, config.engine->orderDigest()};
}

TEST(FaultInjector, EmptyPlanIsANoOp) {
  const fault::FaultPlan empty;
  auto config = configs::makeConfig(configs::ConfigId::A);
  EXPECT_EQ(fault::installFaults(config, empty, 1), nullptr);
  EXPECT_EQ(config.faults, nullptr);
}

TEST(FaultInjector, InertPlanPerturbsNothing) {
  // A plan whose rules can never fire (p=0) must leave the simulated
  // event order — not just the makespan — bit-identical to a healthy run.
  const auto baseline = runExample(nullptr, 0);
  const auto inert = fault::parseFaultPlan(
      "disk * transient-error p=0\n", "inert");
  const auto gated = runExample(&inert, 1);
  EXPECT_EQ(baseline.first, gated.first);    // makespan, bitwise
  EXPECT_EQ(baseline.second, gated.second);  // dispatch order digest
}

// ------------------------------------------- failover-vs-error matrix

TEST(FaultRecovery, FailoverReroutesAroundADeadServer) {
  // Config B stripes over three single-disk servers; killing the first
  // forever forces every slice it owns through retry exhaustion and onto
  // the survivors.
  const auto plan = fault::parseFaultPlan(
      "policy timeout=5ms retries=1 backoff=1ms max-backoff=4ms "
      "jitter=0 failover=on\n"
      "disk d0 down from=0s\n",
      "dead-d0");
  const auto estimate = analysis::estimateDegraded(
      exampleModel(), builderFor(configs::ConfigId::B), plan, {1});
  ASSERT_EQ(estimate.replicas.size(), 1u);
  const auto& replica = estimate.replicas[0];
  EXPECT_TRUE(replica.ok) << replica.error;
  EXPECT_GT(replica.failovers, 0u);
  EXPECT_GT(replica.stallSeconds, 0.0);
  EXPECT_GT(estimate.medianTimeIo, 0.0);
}

TEST(FaultRecovery, NoFailoverEscalatesToPhaseError) {
  const auto plan = fault::parseFaultPlan(
      "policy timeout=5ms retries=1 backoff=1ms max-backoff=4ms "
      "jitter=0 failover=off\n"
      "disk d0 down from=0s\n",
      "dead-d0-strict");
  const auto estimate = analysis::estimateDegraded(
      exampleModel(), builderFor(configs::ConfigId::B), plan, {1});
  ASSERT_EQ(estimate.replicas.size(), 1u);
  const auto& replica = estimate.replicas[0];
  EXPECT_FALSE(replica.ok);
  EXPECT_FALSE(replica.error.empty());
  EXPECT_GT(replica.exhausted, 0u);
  EXPECT_EQ(replica.failovers, 0u);
  EXPECT_TRUE(estimate.allFailed());
}

}  // namespace
