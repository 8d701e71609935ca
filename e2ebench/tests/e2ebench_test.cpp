// Tests of the benchmark's own code: percentiles, golden checks, seed
// determinism, count repeatability and the golden self-test.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

#include <sched.h>

#include "golden.hpp"
#include "harness.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;

fs::path scratchFor(const std::string& name) {
  const fs::path dir = fs::current_path() / "e2ebench_test_scratch" / name;
  fs::remove_all(dir);
  return dir;
}

std::vector<double> oneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankLeavesFloorQnBelow) {
  std::vector<double> v = oneTo(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(e2e::percentile(v, 0.1), 11.0);  // 1..10 sit below it
  EXPECT_EQ(e2e::percentile(oneTo(250), 0.1), 26.0);
  EXPECT_EQ(e2e::percentile(oneTo(100), 0.5), 51.0);
}

TEST(Percentile, TooFewOpsForAP10IsAnErrorNotANumber) {
  EXPECT_THROW(e2e::percentile(oneTo(99), 0.1), std::invalid_argument);
  EXPECT_THROW(e2e::percentile({}, 0.1, 0), std::invalid_argument);
  EXPECT_THROW(e2e::percentile(oneTo(10), 1.0, 0), std::invalid_argument);
  EXPECT_EQ(e2e::minSamplesFor(0.1), 100u);
  EXPECT_EQ(e2e::percentile(oneTo(12), 0.1, 0), 2.0);  // diagnostics only
}

TEST(Spans, SelfTimeIsSpanMinusDirectChildren) {
  std::vector<e2e::Span> op(4);
  op[0] = {-1, 0, "op", "bench", 0.0, 10.0};
  op[1] = {5, 0, "call", "analysis", 1.0, 7.0};
  op[2] = {6, 0, "section", "sim", 2.0, 6.0};
  op[3] = {5, 0, "other", "core", 8.0, 9.0};
  const auto self = e2e::selfSeconds(op, 5);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(Golden, ParseRejectsDuplicatesAndDiffNamesTheKey) {
  EXPECT_THROW(e2e::parseGolden("w a 1\nw a 2\n"), std::runtime_error);
  EXPECT_THROW(e2e::parseGolden("w a\n"), std::runtime_error);
  const auto g = e2e::parseGolden("# c\nw time_io.C 1.5\nw selected F x\n");
  ASSERT_EQ(g.at("w").size(), 2u);
  EXPECT_EQ(g.at("w")[1].second, "F x");
  e2e::Outputs changed = g.at("w");
  changed[0].second = "1.25";
  EXPECT_NE(e2e::diffOutputs(g.at("w"), changed).find("time_io.C"),
            std::string::npos);
  EXPECT_TRUE(e2e::diffOutputs(g.at("w"), g.at("w")).empty());
}

TEST(Workloads, DefaultSeedReproducesTheGoldenValues) {
  const auto golden = e2e::loadGolden(E2EBENCH_GOLDEN);
  for (const auto& name : e2e::workloadNames()) {
    auto w = e2e::makeWorkload(name);
    w->setUp(e2e::kDefaultSeed, scratchFor("golden-" + name));
    e2e::Spans off(false);
    EXPECT_EQ(e2e::diffOutputs(golden.at(name), w->op(off).outputs), "")
        << name;
    w->reset();
  }
  // The paper's Table XII answer.
  bool sawSelection = false;
  for (const auto& [key, value] : golden.at("btio-select")) {
    if (key == "selected") {
      EXPECT_EQ(value, "Finisterrae");
      sawSelection = true;
    }
  }
  EXPECT_TRUE(sawSelection);
}

TEST(Workloads, SameSeedGivesIdenticalInputsOutputsAndCounts) {
  for (const auto& name : e2e::workloadNames()) {
    std::string inputs[2];
    e2e::OpResult results[2];
    e2e::Facts counts[2];
    for (int i = 0; i < 2; ++i) {
      auto w = e2e::makeWorkload(name);
      w->setUp(7, scratchFor(name + "-" + std::to_string(i)));
      inputs[i] = w->inputs();
      e2e::Spans off(false);
      results[i] = w->op(off);
      w->reset();
      counts[i] = w->countOp();
    }
    EXPECT_EQ(inputs[0], inputs[1]) << name;
    EXPECT_EQ(results[0].outputs, results[1].outputs) << name;
    EXPECT_EQ(counts[0], counts[1]) << name;
    for (const auto& [key, value] : results[0].facts) {
      if (key.size() > 2 && key.substr(key.size() - 2) == "_s") continue;
      EXPECT_EQ(value, results[1].facts.at(key)) << name << " " << key;
    }
  }
}

TEST(Workloads, SeedChangesTheSweepInputs) {
  auto a = e2e::makeWorkload("sweep-cold");
  auto b = e2e::makeWorkload("sweep-cold");
  a->setUp(7, scratchFor("seed-a"));
  b->setUp(8, scratchFor("seed-b"));
  EXPECT_NE(a->inputs(), b->inputs());
}

e2e::RunOptions quickRun(const std::string& name, const e2e::Golden* golden,
                         bool trace) {
  e2e::RunOptions options;
  options.workload = name;
  options.seed = e2e::kDefaultSeed;
  options.seconds = 0;  // just the ops a p10 needs
  options.trace = trace;
  options.golden = golden;
  options.scratch = scratchFor("run-" + name + (trace ? "-traced" : ""));
  return options;
}

TEST(Harness, CorruptedGoldenValueFailsEveryOp) {
  auto golden = e2e::loadGolden(E2EBENCH_GOLDEN);
  golden.at("sweep-warm")[0].second += "0";  // flip one Time_io
  const auto report = e2e::runBenchmark(quickRun("sweep-warm", &golden, false));
  EXPECT_GE(report.attempted, e2e::minSamplesFor(0.1));
  EXPECT_EQ(report.failed, report.attempted);
  EXPECT_FALSE(report.correct());
}

TEST(Harness, UntracedRunReportsTheEndToEndMetrics) {
  const auto golden = e2e::loadGolden(E2EBENCH_GOLDEN);
  const auto report = e2e::runBenchmark(quickRun("sweep-warm", &golden, false));
  EXPECT_TRUE(report.correct());
  ASSERT_EQ(report.metrics.size(), 3u);
  for (const auto& m : report.metrics) EXPECT_GT(m.value, 0) << m.name;
  EXPECT_NE(report.resultJson().find("\"op_s.min\""), std::string::npos);
}

TEST(Harness, RunRotatesOverCpusAndRestoresTheAffinity) {
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
  const auto golden = e2e::loadGolden(E2EBENCH_GOLDEN);
  const auto report = e2e::runBenchmark(quickRun("sweep-warm", &golden, false));
  EXPECT_TRUE(report.correct());
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
  const bool rotated = CPU_COUNT(&before) > 1;
  bool noted = false;
  for (const auto& note : report.notes) {
    if (note.rfind("cpus: ", 0) == 0) {
      noted = true;
      EXPECT_EQ(note.find("rotated over CPUs") != std::string::npos, rotated)
          << note;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(Harness, ExistingScratchDirectoryIsRefusedAndKept) {
  const auto golden = e2e::loadGolden(E2EBENCH_GOLDEN);
  auto options = quickRun("sweep-warm", &golden, false);
  fs::create_directories(options.scratch);
  const fs::path keep = options.scratch / "keep.txt";
  { std::ofstream(keep) << "not the benchmark's\n"; }
  EXPECT_THROW(e2e::runBenchmark(options), std::runtime_error);
  EXPECT_TRUE(fs::exists(keep));
  // A fresh path is created and removed again.
  options.scratch /= "fresh";
  EXPECT_TRUE(e2e::runBenchmark(options).correct());
  EXPECT_FALSE(fs::exists(options.scratch));
  EXPECT_TRUE(fs::exists(keep));
}

// sweep-warm runs no engine, so most of its counts are 0; sweep-cold runs
// 8 simulated cells per op, each with its own engines and store commits.
TEST(Harness, TwoTracedRunsRepeatEveryCountExactly) {
  const auto golden = e2e::loadGolden(E2EBENCH_GOLDEN);
  const auto expected = e2e::perLayerMetrics();
  for (const std::string name : {"sweep-warm", "sweep-cold"}) {
    std::vector<e2e::Metric> runs[2];
    for (auto& metrics : runs) {
      const auto report = e2e::runBenchmark(quickRun(name, &golden, true));
      EXPECT_TRUE(report.correct()) << name;
      metrics = report.metrics;
    }
    ASSERT_EQ(runs[0].size(), expected.size());
    std::map<std::string, double> counts;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(runs[0][i].name, expected[i].first);
      const std::string& unit = runs[0][i].unit;
      if (unit == "count" || unit == "bytes" || unit == "MiB") {
        EXPECT_EQ(runs[0][i].value, runs[1][i].value)
            << name << " " << runs[0][i].name;
        counts[runs[0][i].name] = runs[0][i].value;
      }
    }
    if (name == "sweep-cold") {
      for (const char* key : {"sim.frames", "sim.events", "ior.runs",
                              "storage.net_transfers", "storage.disk_accesses",
                              "mpi.io_mib", "store.cell_bytes"}) {
        EXPECT_GT(counts[key], 0) << key;
      }
      EXPECT_EQ(counts["store.cell_commits"], 8);
      EXPECT_EQ(counts["sweep.cache_hits"], 0);
    } else {
      EXPECT_EQ(counts["sweep.cache_hits"], 8);
      EXPECT_EQ(counts["sim.events"], 0);
    }
  }
}

}  // namespace
