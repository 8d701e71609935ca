// Micro-benchmarks (google-benchmark) of the model-extraction pipeline:
// LAP extraction, cycle segmentation (DP and greedy), phase detection, and
// offset-function fitting on synthetic traces of growing size.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/iomodel.hpp"
#include "sim/engine.hpp"
#include "core/lap.hpp"
#include "core/phase.hpp"
#include "trace/tracefile.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace iop;

std::vector<trace::Record> syntheticRun(int rank, int ops, bool interleaved,
                                        std::uint64_t requestBytes = 1048576) {
  std::vector<trace::Record> records;
  std::uint64_t tick = 1;
  for (int i = 0; i < ops; ++i) {
    trace::Record r;
    r.rank = rank;
    r.fileId = 1;
    const bool write = !interleaved || i % 2 == 0;
    r.op = write ? "MPI_File_write" : "MPI_File_read";
    r.offsetUnits = static_cast<std::uint64_t>(i / (interleaved ? 2 : 1)) *
                    1048576;
    r.tick = tick++;
    r.requestBytes = requestBytes;
    r.time = 0.01 * i;
    r.duration = 0.005;
    records.push_back(std::move(r));
  }
  return records;
}

/// np ranks of opsPerRank sequential 1 MiB writes; with distinctShapes
/// each rank's request size differs from every other rank's.
trace::TraceData syntheticTrace(int np, int opsPerRank,
                                bool distinctShapes = false) {
  trace::TraceData data;
  data.appName = "synthetic";
  data.np = np;
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.path = "/scratch/synthetic.dat";
  meta.np = np;
  data.files.push_back(meta);
  for (int r = 0; r < np; ++r) {
    data.perRank.push_back(syntheticRun(
        r, opsPerRank, false,
        1048576 + (distinctShapes ? static_cast<std::uint64_t>(r) * 4096 : 0)));
  }
  data.commEventsPerRank.assign(static_cast<std::size_t>(np), 0);
  return data;
}

void BM_LapExtraction(benchmark::State& state) {
  auto records = syntheticRun(0, static_cast<int>(state.range(0)), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extractLaps(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LapExtraction)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SegmentationDp(benchmark::State& state) {
  auto records = syntheticRun(0, static_cast<int>(state.range(0)), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segmentRecords(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentationDp)->Arg(64)->Arg(256)->Arg(1024);

void BM_SegmentationGreedy(benchmark::State& state) {
  auto records = syntheticRun(0, static_cast<int>(state.range(0)), true);
  core::SegmentOptions opt;
  opt.dpLimit = 1;  // force greedy
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segmentRecords(records, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentationGreedy)->Arg(1024)->Arg(16384);

void BM_PhaseDetection(benchmark::State& state) {
  auto data = syntheticTrace(static_cast<int>(state.range(0)), 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detectPhases(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 200);
}
BENCHMARK(BM_PhaseDetection)->Arg(4)->Arg(16)->Arg(64);

void BM_PhaseDetectionDistinctShapes(benchmark::State& state) {
  // BM_PhaseDetection with a request size per rank: no two (rank, file)
  // streams share a shape, so every stream is segmented on its own.
  auto data = syntheticTrace(static_cast<int>(state.range(0)), 200, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detectPhases(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 200);
}
BENCHMARK(BM_PhaseDetectionDistinctShapes)->Arg(64);

void BM_ModelRender(benchmark::State& state) {
  // A BT-IO class A np=121 sized model: per rank 40 collective writes
  // separated by solver communication (40 phases), then 40 back-to-back
  // reads (one phase).
  const int np = 121;
  trace::TraceData data;
  data.appName = "btio-like";
  data.np = np;
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.path = "/scratch/btio.out";
  meta.etypeBytes = 40;
  meta.np = np;
  data.files.push_back(meta);
  data.perRank.resize(static_cast<std::size_t>(np));
  data.commEventsPerRank.assign(static_cast<std::size_t>(np), 0);
  for (int r = 0; r < np; ++r) {
    std::uint64_t tick = 1;
    for (int i = 0; i < 80; ++i) {
      trace::Record rec;
      rec.rank = r;
      rec.fileId = 1;
      rec.op = i < 40 ? "MPI_File_write_at_all" : "MPI_File_read_at_all";
      rec.offsetUnits = static_cast<std::uint64_t>(i % 40) * 265302 * np +
                        static_cast<std::uint64_t>(r) * 265302;
      rec.tick = tick;
      tick += i < 40 ? 121 : 1;
      rec.requestBytes = 10612080;
      rec.time = 0.05 * i + 0.001 * r;
      rec.duration = 0.02 + 0.0001 * r;
      data.perRank[static_cast<std::size_t>(r)].push_back(std::move(rec));
    }
  }
  const auto model = core::extractModel(data);
  if (model.phases().size() != 41) {
    state.SkipWithError("expected a 41-phase model");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.renderText());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(model.renderText().size()));
}
BENCHMARK(BM_ModelRender);

void BM_OffsetFit(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  std::vector<int> ranks;
  std::vector<std::uint64_t> offsets;
  for (int r = 0; r < np; ++r) {
    ranks.push_back(r);
    offsets.push_back(static_cast<std::uint64_t>(r) * 8 * 33554432);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fitRankOffsets(ranks, offsets));
  }
}
BENCHMARK(BM_OffsetFit)->Arg(16)->Arg(121)->Arg(1024);

void BM_ModelExtraction(benchmark::State& state) {
  auto data = syntheticTrace(16, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extractModel(data));
  }
}
BENCHMARK(BM_ModelExtraction)->Arg(100)->Arg(400);

void BM_EngineEventThroughput(benchmark::State& state) {
  // Raw event dispatch rate of the simulation engine: the figure that
  // bounds how much simulated I/O a second of wall time buys.
  for (auto _ : state) {
    iop::sim::Engine eng;
    const int chains = static_cast<int>(state.range(0));
    for (int c = 0; c < chains; ++c) {
      eng.spawn([](iop::sim::Engine& e) -> iop::sim::Task<void> {
        for (int i = 0; i < 1000; ++i) co_await e.delay(0.001);
      }(eng));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.eventsDispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 1000);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1)->Arg(16)->Arg(128)->Arg(1024);

void BM_EngineSpawnChurn(benchmark::State& state) {
  // Short-lived processes spawned in waves: dominated by coroutine-frame
  // allocation and queue insertion rather than steady-state dispatch.
  for (auto _ : state) {
    iop::sim::Engine eng;
    const int waves = static_cast<int>(state.range(0));
    for (int w = 0; w < waves; ++w) {
      for (int i = 0; i < 64; ++i) {
        eng.spawnAt(0.001 * w,
                    [](iop::sim::Engine& e) -> iop::sim::Task<void> {
                      co_await e.delay(0.0005);
                    }(eng));
      }
    }
    eng.run();
    benchmark::DoNotOptimize(eng.eventsDispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_EngineSpawnChurn)->Arg(16)->Arg(256);

void BM_EngineMixedDelays(benchmark::State& state) {
  // Rng-driven delays across two timescales: exercises the scheduler's
  // far-future spillover and window turnover, not just the uniform-gap
  // fast path.
  for (auto _ : state) {
    iop::sim::Engine eng(7);
    const int chains = static_cast<int>(state.range(0));
    for (int c = 0; c < chains; ++c) {
      eng.spawn([](iop::sim::Engine& e, int salt) -> iop::sim::Task<void> {
        const double scale = salt % 4 == 0 ? 1.0 : 0.01;
        for (int i = 0; i < 500; ++i) {
          co_await e.delay(e.rng().uniform() * scale);
        }
      }(eng, c));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.eventsDispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 500);
}
BENCHMARK(BM_EngineMixedDelays)->Arg(64);

void BM_TraceParse(benchmark::State& state) {
  // Trace read-back rate (records/s): the front half of every
  // characterization.
  const int np = 4;
  const int ops = static_cast<int>(state.range(0));
  const auto dir =
      std::filesystem::temp_directory_path() / "iop_core_bench_traces";
  trace::writeTraces(dir, syntheticTrace(np, ops));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::readTraces(dir, "synthetic"));
  }
  state.SetItemsProcessed(state.iterations() * np * ops);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_TraceParse)->Arg(1000)->Arg(10000);

// Console output as usual, plus every per-iteration run collected into the
// machine-readable BENCH_core.json (schema: docs/OBSERVABILITY.md) so the
// perf trajectory accumulates across commits.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      iop::bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      rec.iterations = run.iterations;
      if (run.iterations > 0) {
        rec.nsPerOp =
            run.real_accumulated_time / static_cast<double>(run.iterations) *
            1e9;
      }
      auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) rec.bytesPerSecond = it->second;
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<iop::bench::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<iop::bench::BenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string jsonOut = "BENCH_core.json";
  std::string engineJsonOut = "BENCH_engine.json";
  // Peel off our own flags before google-benchmark sees the argument list.
  for (int i = 1; i < argc;) {
    const std::string arg = argv[i];
    std::string* target = nullptr;
    std::size_t prefix = 0;
    if (arg.rfind("--json-out=", 0) == 0) {
      target = &jsonOut;
      prefix = 11;
    } else if (arg.rfind("--engine-json-out=", 0) == 0) {
      target = &engineJsonOut;
      prefix = 18;
    }
    if (target == nullptr) {
      ++i;
      continue;
    }
    *target = arg.substr(prefix);
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  iop::bench::writeBenchJson(jsonOut, reporter.records());
  std::printf("wrote %zu benchmark results to %s\n",
              reporter.records().size(), jsonOut.c_str());
  // The engine-hot-path subset gets its own document: CI gates on it
  // against the committed baseline (docs/PERFORMANCE.md).
  std::vector<iop::bench::BenchRecord> engineRecords;
  for (const auto& rec : reporter.records()) {
    if (rec.name.rfind("BM_Engine", 0) == 0 ||
        rec.name.rfind("BM_Trace", 0) == 0) {
      engineRecords.push_back(rec);
    }
  }
  if (!engineRecords.empty()) {
    iop::bench::writeBenchJson(engineJsonOut, engineRecords);
    std::printf("wrote %zu engine benchmark results to %s\n",
                engineRecords.size(), engineJsonOut.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
