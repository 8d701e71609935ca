// iop-trend: longitudinal regression tracking over a capture archive —
// the across-commits counterpart of iop-diff's two-run comparison.
//
//   iop-trend archive add  --archive trends/ --capture run.cap --label abc123
//   iop-trend archive add  --archive trends/ --bench BENCH_engine.json
//                          --name engine --label abc123
//   iop-trend archive list --archive trends/
//   iop-trend archive gc   --archive trends/ --keep-last 30
//   iop-trend report       --archive trends/ [--metric makespan]
//   iop-trend report       --archive trends/ --html trend.html
//   iop-trend check        --archive trends/ [--mad-threshold 4]
//
// `check` is the CI gate: it exits 0 when no series regressed and 1 when
// any did, printing one line per regression naming the app, config, and
// metric (docs/OBSERVABILITY.md describes the median/MAD change-point
// rule).  Exit code 2 means usage or archive errors.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/archive.hpp"
#include "obs/trend.hpp"
#include "sweep/fsck.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/vfs.hpp"

namespace {

using namespace iop;

std::string readFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Quick crash-recovery preflight (iop-fsck's library check): truncate a
/// torn manifest tail, drop entries whose objects are gone, sweep dead
/// writers' temps — before the archive is read.  Quiet when clean.
void fsckPreflight(const std::string& root) {
  const auto report = sweep::fsckArchive(root, sweep::FsckOptions{});
  if (!report.clean()) {
    std::fprintf(stderr, "%s", report.render("preflight " + root).c_str());
  }
}

obs::TrendOptions trendOptions(const util::Args& args) {
  obs::TrendOptions options;
  options.madThreshold = args.getDouble("mad-threshold", 4.0);
  options.relFloorPct = args.getDouble("rel-floor-pct", 1.0);
  options.minHistory =
      static_cast<std::size_t>(args.getInt("min-history", 3));
  options.metricFilter = args.getOr("metric", "");
  if (options.madThreshold <= 0) {
    throw std::invalid_argument("--mad-threshold must be > 0");
  }
  return options;
}

int cmdArchive(const util::Args& args, const std::string& action) {
  fsckPreflight(args.get("archive"));
  obs::Archive archive(args.get("archive"));
  if (action == "add") {
    const bool haveCapture = args.has("capture");
    const bool haveBench = args.has("bench");
    if (haveCapture == haveBench) {
      throw std::invalid_argument(
          "archive add needs exactly one of --capture or --bench");
    }
    obs::ArchiveEntry entry;
    if (haveCapture) {
      // Any capture format goes in (load sniffs v1/v2); the archive
      // stores v2.
      entry = archive.addCapture(
          obs::RunCapture::load(args.get("capture")),
          args.getOr("label", ""));
    } else {
      if (!args.has("name")) {
        throw std::invalid_argument("--bench requires --name");
      }
      entry = archive.addBench(readFileText(args.get("bench")),
                               args.get("name"), args.getOr("label", ""));
    }
    std::printf("archived seq %llu: %s %s label=%s hash=%s (%llu bytes)\n",
                static_cast<unsigned long long>(entry.seq),
                entry.kind.c_str(), entry.seriesKey().c_str(),
                entry.label.c_str(), entry.hash.c_str(),
                static_cast<unsigned long long>(entry.bytes));
    return 0;
  }
  if (action == "list") {
    std::size_t badLines = 0;
    const auto entries = archive.list(&badLines);
    util::Table table("archive " + archive.root().string() + " (" +
                      std::to_string(entries.size()) + " entries)");
    table.setHeader({"seq", "kind", "series", "label", "hash", "bytes"},
                    {util::Align::Right, util::Align::Left,
                     util::Align::Left, util::Align::Left,
                     util::Align::Left, util::Align::Right});
    for (const auto& e : entries) {
      table.addRow({std::to_string(e.seq), e.kind, e.seriesKey(), e.label,
                    e.hash, util::formatBytesApprox(e.bytes)});
    }
    std::printf("%s", table.render().c_str());
    if (badLines > 0) {
      std::fprintf(stderr,
                   "iop-trend: skipped %zu torn/malformed manifest "
                   "line(s)\n",
                   badLines);
    }
    return 0;
  }
  if (action == "gc") {
    const auto keep =
        static_cast<std::size_t>(args.getInt("keep-last", 0));
    const auto result = archive.gc(keep);
    std::printf("gc: pruned %zu manifest entries, removed %zu object "
                "file(s)%s\n",
                result.prunedEntries, result.removedFiles,
                keep == 0 ? " (no --keep-last: objects only)" : "");
    return 0;
  }
  throw std::invalid_argument("unknown archive action '" + action +
                              "' (add|list|gc)");
}

int cmdReport(const util::Args& args) {
  fsckPreflight(args.get("archive"));
  obs::Archive archive(args.get("archive"));
  const auto report = obs::analyzeTrends(archive, trendOptions(args));
  if (args.has("html")) {
    const std::string path = args.get("html");
    if (path == "-") {
      std::printf("%s", report.renderHtml().c_str());
    } else {
      util::vfs::replaceFile(path, report.renderHtml());
      std::printf("wrote HTML trend report (%zu series) to %s\n",
                  report.series.size(), path.c_str());
    }
  } else {
    std::printf("%s", report.renderText().c_str());
  }
  return 0;
}

int cmdCheck(const util::Args& args) {
  fsckPreflight(args.get("archive"));
  obs::Archive archive(args.get("archive"));
  const auto report = obs::analyzeTrends(archive, trendOptions(args));
  std::printf("%s", report.renderCheck().c_str());
  if (report.regressions() == 0) {
    std::printf("trend check: %zu series clean (threshold %.2f sigma)\n",
                report.series.size(), report.options.madThreshold);
    return 0;
  }
  std::fprintf(stderr, "iop-trend: %zu series regressed\n",
               report.regressions());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args;
  args.addOption("archive", "trend archive directory", "trends");
  args.addOption("capture",
                 "capture file (v1 or v2) to add; stored as format v2");
  args.addOption("bench", "iop-bench/1 JSON snapshot to add");
  args.addOption("name", "snapshot name for --bench entries");
  args.addOption("label", "commit / tag label recorded with added entries",
                 "");
  args.addOption("keep-last",
                 "archive gc: keep only the newest N entries per series "
                 "(0 = keep all, drop unreferenced objects only)",
                 "0");
  args.addOption("mad-threshold",
                 "robust sigma units beyond which the newest point is a "
                 "change-point",
                 "4");
  args.addOption("rel-floor-pct",
                 "scale floor as %% of |median| (guards MAD = 0 "
                 "deterministic histories)",
                 "1");
  args.addOption("min-history",
                 "prior points required before a series may flag", "3");
  args.addOption("metric", "substring filter on series names");
  args.addOption("html",
                 "report: write a single-file HTML report here instead of "
                 "text ('-' for stdout)");
  try {
    args.parse(argc, argv);
    const auto& pos = args.positional();
    const std::string usage = args.usage(
        "iop-trend <archive add|list|gc | report | check> --archive DIR",
        "Longitudinal regression tracking over a capture archive.");
    if (args.helpRequested() || pos.empty()) {
      std::printf("%s", usage.c_str());
      return args.helpRequested() ? 0 : 2;
    }
    const std::string& command = pos[0];
    if (command == "archive") {
      if (pos.size() != 2) {
        std::fprintf(stderr,
                     "iop-trend: archive needs an action (add|list|gc)\n");
        return 2;
      }
      return cmdArchive(args, pos[1]);
    }
    if (pos.size() != 1) {
      std::fprintf(stderr, "iop-trend: unexpected argument '%s'\n%s",
                   pos[1].c_str(), usage.c_str());
      return 2;
    }
    if (command == "report") return cmdReport(args);
    if (command == "check") return cmdCheck(args);
    std::fprintf(stderr, "iop-trend: unknown command '%s'\n%s",
                 command.c_str(), usage.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iop-trend: %s\n", e.what());
    return 2;
  }
}
