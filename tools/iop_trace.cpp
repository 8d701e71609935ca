// iop-trace: run an application on a simulated cluster configuration with
// tracing enabled, writing the run's trace as one `<app>.trace` file (the
// iop-trace v2 container: every process's Figure-2 record stream plus the
// file metadata).
//
//   iop-trace --app btio --class C --np 16 --config A --out traces/
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "analysis/runner.hpp"
#include "toolkit.hpp"
#include "trace/summary.hpp"
#include "trace/tracefile.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace iop;
  util::Args args;
  tools::addConfigOptions(args, "configuration to trace on");
  args.addOption("np", "number of MPI processes", "16");
  args.addOption("out", "output directory for the trace file", "traces");
  tools::addAppOptions(args);
  tools::addObsOptions(args);
  try {
    args.parse(argc, argv);
    if (args.helpRequested()) {
      std::printf("%s", args.usage("iop-trace",
                                   "Trace an application on a simulated "
                                   "cluster (the characterization stage).")
                            .c_str());
      return 0;
    }
    auto cluster = tools::makeConfiguredCluster(args);
    tools::ObsSession obsSession(args);
    obsSession.attach(*cluster.engine);
    const int np = static_cast<int>(args.getInt("np", 16));
    const std::string appName = args.get("app");
    std::printf("running %s with %d processes on %s...\n", appName.c_str(),
                np, cluster.name.c_str());
    auto run = analysis::runAndTrace(cluster, appName,
                                     tools::makeAppMain(args, cluster), np);
    trace::writeTraces(args.get("out"), run.trace);
    obsSession.finish();
    std::printf("makespan: %.2f simulated seconds\n", run.makespanSeconds);
    std::printf("%s", trace::summarizeTrace(run.trace).render().c_str());
    const auto path = trace::traceFilePath(args.get("out"), appName);
    std::printf("wrote %s (%ju bytes)\n", path.string().c_str(),
                static_cast<std::uintmax_t>(std::filesystem::file_size(path)));
    std::printf("next: iop-model --traces %s --app %s\n",
                args.get("out").c_str(), appName.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iop-trace: %s\n", e.what());
    return 1;
  }
}
