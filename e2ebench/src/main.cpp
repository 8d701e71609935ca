// iop_e2ebench: one run of one workload of the end-to-end benchmark.
//
//   iop_e2ebench --workload btio-select --seed 1 --seconds 20 --trace 0
//       --scratch .bench_run/run-1 --golden e2ebench/golden/default-seed.txt
//
// Prints diagnostics, then as its last stdout line one JSON object with
// the keys correct / attempted / failed / metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 without
// a result when the run cannot measure (see NOTES.md).
//
//   iop_e2ebench --workload W --seed 1 --emit-golden --scratch DIR
//
// prints the first op's outputs in the golden file's format instead.
// Either way --scratch must name a path that does not exist yet: the run
// creates it and removes it, with everything in it, when it ends.
#include <cstdio>
#include <exception>
#include <string>

#include "golden.hpp"
#include "harness.hpp"
#include "spans.hpp"
#include "sweep/hash.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

std::uint64_t parseSeed(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long seed = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument("bad --seed " + text);
  return seed;
}

}  // namespace

int main(int argc, char** argv) {
  iop::util::Args args;
  std::string names;
  for (const auto& name : e2e::workloadNames()) {
    names += (names.empty() ? "" : ", ") + name;
  }
  args.addOption("workload", "one of: " + names);
  args.addOption("seed", "input seed (golden values are at seed 1)", "1");
  args.addOption("seconds", "how long the ops run", "20");
  args.addOption("trace", "0: end-to-end metrics, 1: per-layer metrics",
                 "0");
  args.addOption("scratch",
                 "new directory for every file written; removed at exit");
  args.addOption("golden", "golden outputs at seed 1", "");
  args.addOption("spans-out", "traced runs: write every span here", "");
  args.addFlag("emit-golden", "print the first op's outputs and exit");
  try {
    args.parse(argc, argv);
    if (args.helpRequested()) {
      std::printf("%s", args.usage("iop_e2ebench",
                                   "one run of the end-to-end benchmark")
                            .c_str());
      return 0;
    }
    const std::string workload = args.get("workload");
    const std::uint64_t seed = parseSeed(args.getOr("seed", "1"));
    if (args.flag("emit-golden")) {
      const e2e::ScratchDir scratch(args.get("scratch"));
      auto w = e2e::makeWorkload(workload);
      w->setUp(seed, scratch.path());
      e2e::Spans off(false);
      std::printf("%s", e2e::renderGolden(workload, w->op(off).outputs)
                            .c_str());
      w->reset();
      return 0;
    }

    e2e::RunOptions options;
    options.workload = workload;
    options.seed = seed;
    options.seconds = args.getDouble("seconds", 20);
    const std::string trace = args.getOr("trace", "0");
    if (trace != "0" && trace != "1") {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    options.trace = trace == "1";
    options.scratch = args.get("scratch");
    options.spansOut = args.getOr("spans-out", "");
    e2e::Golden golden;
    if (!args.getOr("golden", "").empty()) {
      golden = e2e::loadGolden(args.get("golden"));
      options.golden = &golden;
    }
    const e2e::RunReport report = e2e::runBenchmark(options);
    std::printf("workload %s, seed %llu, inputs %s\n", workload.c_str(),
                static_cast<unsigned long long>(seed),
                iop::sweep::hashHex(report.inputs).c_str());
    for (const auto& note : report.notes) std::printf("%s\n", note.c_str());
    std::printf("%s\n", report.resultJson().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iop_e2ebench: %s\n", e.what());
    return 1;
  }
}
