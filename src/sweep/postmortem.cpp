#include "sweep/postmortem.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <system_error>
#include <sstream>

namespace iop::sweep {

namespace {

/// An integer field, or 0 when it is absent or not an integer of type T
/// (a fraction, an exponent, a sign T cannot hold, out of range): a
/// hostile journal must read as missing data, never as a bad conversion.
template <typename T>
T intField(const obs::JournalEvent& ev, const std::string& key) {
  const std::string* raw = ev.field(key);
  if (raw == nullptr) return 0;
  T value = 0;
  const char* end = raw->data() + raw->size();
  const auto [ptr, ec] = std::from_chars(raw->data(), end, value);
  return ec == std::errc() && ptr == end ? value : 0;
}

std::string strField(const obs::JournalEvent& ev, const std::string& key) {
  const std::string* raw = ev.field(key);
  return raw == nullptr ? std::string() : *raw;
}

std::string fmtT(double t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3fs", t);
  return buf;
}

}  // namespace

Postmortem analyzeJournal(const obs::JournalParse& parsed) {
  Postmortem pm;
  pm.events = parsed.events.size();
  pm.badLines = parsed.badLines;

  // key -> index into pm.inFlight while the claim is open.
  std::map<std::string, std::size_t> open;

  for (const auto& ev : parsed.events) {
    pm.lastEventT = ev.t;
    pm.lastEventName = ev.name;
    if (ev.name == "journal_start") {
      pm.schema = strField(ev, "schema");
      pm.startUnixMs = intField<long long>(ev, "unix_ms");
      pm.pid = intField<long>(ev, "pid");
    } else if (ev.name == "campaign_start") {
      pm.campaign = strField(ev, "campaign");
      pm.configHash = strField(ev, "config");
      pm.jobs = intField<int>(ev, "jobs");
    } else if (ev.name == "exec_start") {
      pm.cells = intField<std::size_t>(ev, "cells");
      pm.pending = intField<std::size_t>(ev, "pending");
      pm.workers = intField<std::size_t>(ev, "workers");
    } else if (ev.name == "cache_hit") {
      ++pm.cacheHits;
    } else if (ev.name == "shared_hit") {
      ++pm.cacheHits;
      ++pm.sharedHits;
    } else if (ev.name == "cell_quarantined") {
      ++pm.quarantined;
    } else if (ev.name == "cell_claim") {
      ++pm.claims;
      InFlightCell cell;
      cell.worker = intField<std::size_t>(ev, "worker");
      cell.cell = strField(ev, "cell");
      cell.key = strField(ev, "key");
      cell.claimedAt = ev.t;
      open[cell.key] = pm.inFlight.size();
      pm.inFlight.push_back(std::move(cell));
    } else if (ev.name == "cell_commit" || ev.name == "cell_failed" ||
               ev.name == "cell_stuck") {
      if (ev.name == "cell_commit") {
        ++pm.commits;
      } else if (ev.name == "cell_failed") {
        ++pm.failures;
      } else {
        // Watchdog abandonment: the claim is closed either way; a
        // retrying cell re-enters via a fresh cell_claim.
        ++pm.stuck;
      }
      auto it = open.find(strField(ev, "key"));
      if (it != open.end()) {
        // Compact: erase by swapping the tail in, fixing its open index.
        const std::size_t at = it->second;
        open.erase(it);
        const std::size_t last = pm.inFlight.size() - 1;
        if (at != last) {
          pm.inFlight[at] = std::move(pm.inFlight[last]);
          open[pm.inFlight[at].key] = at;
        }
        pm.inFlight.pop_back();
      }
    } else if (ev.name == "cells_skipped") {
      pm.skippedCells += intField<std::size_t>(ev, "count");
    } else if (ev.name == "shutdown_requested") {
      pm.shutdownRequested = true;
    } else if (ev.name == "run_complete") {
      pm.complete = true;
      pm.interrupted = strField(ev, "interrupted") == "true";
    }
  }
  std::sort(pm.inFlight.begin(), pm.inFlight.end(),
            [](const InFlightCell& a, const InFlightCell& b) {
              return a.claimedAt < b.claimedAt;
            });
  return pm;
}

std::string renderPostmortem(const Postmortem& pm,
                             const std::filesystem::path& journalPath) {
  std::ostringstream out;
  out << "postmortem: " << journalPath.string() << "\n";
  out << "journal:    " << (pm.schema.empty() ? "?" : pm.schema) << ", "
      << pm.events << " events";
  if (pm.badLines > 0) {
    out << ", " << pm.badLines << " torn/bad line"
        << (pm.badLines == 1 ? "" : "s");
  }
  if (pm.pid != 0) out << ", pid " << pm.pid;
  out << "\n";
  if (!pm.campaign.empty()) {
    out << "campaign:   " << pm.campaign;
    if (!pm.configHash.empty()) out << " (config " << pm.configHash << ")";
    if (pm.cells > 0) {
      out << ", " << pm.cells << " cells (" << pm.pending
          << " pending), -j" << pm.jobs;
    }
    out << "\n";
  }
  out << "progress:   " << pm.commits << " committed, " << pm.failures
      << " failed, " << pm.cacheHits << " cache hits";
  if (pm.sharedHits > 0) out << " (" << pm.sharedHits << " shared)";
  if (pm.stuck > 0) out << ", " << pm.stuck << " stuck";
  if (pm.quarantined > 0) out << ", " << pm.quarantined << " quarantined";
  if (pm.skippedCells > 0) out << ", " << pm.skippedCells << " skipped";
  out << "\n";
  if (pm.shutdownRequested) {
    out << "shutdown:   cooperative shutdown was requested\n";
  }
  if (pm.complete) {
    out << "outcome:    run complete"
        << (pm.interrupted ? " (interrupted; resume to finish)" : "")
        << " — journal ends at t=" << fmtT(pm.lastEventT) << "\n";
  } else {
    out << "outcome:    run INCOMPLETE — journal ends at t="
        << fmtT(pm.lastEventT) << " after '" << pm.lastEventName << "'\n";
  }
  if (!pm.inFlight.empty()) {
    out << "in-flight cells at last record (" << pm.inFlight.size()
        << "):\n";
    for (const auto& cell : pm.inFlight) {
      out << "  worker " << cell.worker << ": " << cell.cell << " (key "
          << cell.key << ") claimed t=" << fmtT(cell.claimedAt) << "\n";
    }
    out << "these cells lost only their own work; `iop-sweep resume` "
           "recomputes them\n";
  } else if (!pm.complete) {
    out << "no cells were in flight at the last record\n";
  }
  return out.str();
}

std::filesystem::path newestJournal(
    const std::filesystem::path& storeRoot) {
  const auto dir = storeRoot / "journal";
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return {};
  std::string bestName;
  std::filesystem::path best;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) != 0) continue;
    if (entry.path().extension() != ".jsonl") continue;
    // Filenames embed a decimal unix-ms timestamp; longer numbers are
    // larger, so (length, lexicographic) compares them numerically.
    const auto better = [&] {
      if (bestName.empty()) return true;
      if (name.size() != bestName.size()) {
        return name.size() > bestName.size();
      }
      return name > bestName;
    };
    if (better()) {
      bestName = name;
      best = entry.path();
    }
  }
  return best;
}

}  // namespace iop::sweep
