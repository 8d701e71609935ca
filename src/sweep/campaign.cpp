#include "sweep/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/runner.hpp"
#include "configs/configfile.hpp"
#include "sweep/hash.hpp"
#include "sweep/store.hpp"
#include "sweep/telemetry.hpp"
#include "util/text.hpp"

namespace iop::sweep {

namespace {

[[noreturn]] void fail(int lineNo, const std::string& message) {
  throw std::invalid_argument("campaign line " + std::to_string(lineNo) +
                              ": " + message);
}

std::string fmtFactor(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

std::string resolvePath(const std::filesystem::path& baseDir,
                        const std::string& path) {
  std::filesystem::path p(path);
  if (p.is_absolute()) return p.lexically_normal().string();
  return (baseDir / p).lexically_normal().string();
}

std::vector<double> parseFactors(int lineNo,
                                 const std::vector<std::string>& tokens) {
  std::vector<double> out;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    char* end = nullptr;
    const double v = std::strtod(tokens[i].c_str(), &end);
    if (end != tokens[i].c_str() + tokens[i].size()) {
      fail(lineNo, "bad factor '" + tokens[i] + "'");
    }
    if (v < 1.0) fail(lineNo, "degradation factors must be >= 1");
    out.push_back(v);
  }
  if (out.empty()) fail(lineNo, "factor list needs at least one value");
  return out;
}

ConfigSource parseConfigSource(int lineNo, const std::string& token,
                               const std::filesystem::path& baseDir) {
  ConfigSource src;
  if (token.rfind("file=", 0) == 0) {
    src.fromFile = true;
    src.path = resolvePath(baseDir, token.substr(5));
    src.label = stem(src.path);
  } else {
    try {
      configs::parseConfigName(token);  // validate with a line reference
    } catch (const std::exception& e) {
      fail(lineNo, e.what());
    }
    src.name = token;
    src.label = token;
  }
  return src;
}

/// Keep axis labels unique so reports and manifests are unambiguous.
void disambiguate(std::vector<std::string*> labels) {
  std::set<std::string> seen;
  for (std::string* label : labels) {
    std::string candidate = *label;
    int n = 2;
    while (!seen.insert(candidate).second) {
      candidate = *label + "#" + std::to_string(n++);
    }
    *label = candidate;
  }
}

std::string readFileText(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument(std::string("cannot open ") + what + " " +
                                path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ResolvedConfig resolveConfig(const ConfigSource& src) {
  ResolvedConfig out;
  out.label = src.label;
  out.fromFile = src.fromFile;
  if (src.fromFile) {
    out.clusterText = readFileText(src.path, "cluster config");
    out.identity = "cluster-file\n" + out.clusterText;
  } else {
    out.name = src.name;
    // Normalize through the enum so "f" and "finisterrae" share a key.
    out.identity = std::string("named-config\n") +
                   configs::configName(configs::parseConfigName(src.name));
  }
  // Probe build: validates the description and captures the mount point.
  auto probe = out.build(1.0, 1.0);
  out.mount = probe.mount;
  return out;
}

}  // namespace

configs::ClusterConfig ResolvedConfig::build(double degradeDisks,
                                             double degradeNet) const {
  configs::ClusterConfig cfg =
      fromFile ? configs::parseClusterConfig(clusterText)
               : configs::makeConfig(configs::parseConfigName(name));
  // != rather than > so out-of-range factors hit the setters' validation.
  if (degradeDisks != 1.0) {
    for (storage::Disk* d : cfg.topology->allDisks()) {
      d->setDegradation(degradeDisks);
    }
  }
  if (degradeNet != 1.0) {
    for (storage::Node* n : cfg.topology->allNodes()) {
      n->setDegradation(degradeNet);
    }
  }
  return cfg;
}

std::string CampaignSpec::canonicalText() const {
  std::ostringstream out;
  out << "iop-campaign v1\n";
  out << "campaign " << name << "\n";
  out << "estimator " << estimatorVersion() << "\n";
  for (const auto& m : models) {
    out << "model " << m.label;
    if (m.fromApp()) {
      out << " app=" << m.app << " np=" << m.np;
      for (const auto& [key, value] : m.params) {
        out << " " << key << "=" << value;
      }
    } else {
      out << " file=" << m.path;
    }
    out << "\n";
  }
  for (const auto& c : configs) {
    out << "config " << c.label;
    if (c.fromFile) {
      out << " file=" << c.path;
    } else {
      out << " name=" << c.name;
    }
    out << "\n";
  }
  out << "degrade-disks";
  for (double v : degradeDisks) out << " " << fmtFactor(v);
  out << "\n";
  out << "degrade-net";
  for (double v : degradeNet) out << " " << fmtFactor(v);
  out << "\n";
  // Fault lines only when the axis was actually declared: a campaign
  // without them must canonicalize byte-identically to pre-fault stores.
  if (hasFaultAxis()) {
    for (const auto& f : faults) {
      out << "faultplan " << f.label
          << (f.none() ? std::string(" none") : " file=" + f.path) << "\n";
    }
    out << "fault-seeds " << faultSeeds << "\n";
  }
  // Tenant lines follow the same compat rule as fault lines.
  if (hasTenantAxis()) {
    for (const auto& t : tenants) {
      out << "tenantspec " << t.label
          << (t.none() ? std::string(" none") : " file=" + t.path) << "\n";
    }
    out << "tenant-seeds " << tenantSeeds << "\n";
  }
  out << "characterize "
      << (characterize.fromFile ? "file=" + characterize.path
                                : characterize.name)
      << "\n";
  return out.str();
}

CampaignSpec parseCampaign(const std::string& text,
                           const std::filesystem::path& baseDir) {
  CampaignSpec spec;
  spec.characterize.name = "A";
  spec.characterize.label = "A";
  bool sawDegradeDisks = false;
  bool sawDegradeNet = false;
  bool sawFaultPlan = false;
  bool sawFaultSeeds = false;
  bool sawTenantSpec = false;
  bool sawTenantSeeds = false;

  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    auto tokens = util::splitWhitespace(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "name") {
      if (tokens.size() < 2) fail(lineNo, "name needs a value");
      spec.name = tokens[1];
    } else if (directive == "model") {
      if (tokens.size() < 2) fail(lineNo, "model <path>");
      ModelSource m;
      m.path = resolvePath(baseDir, tokens[1]);
      m.label = stem(m.path);
      spec.models.push_back(std::move(m));
    } else if (directive == "app") {
      if (tokens.size() < 2) fail(lineNo, "app <name> [key=value...]");
      ModelSource m;
      m.app = tokens[1];
      if (!apps::isKnownApp(m.app)) {
        fail(lineNo, "unknown application '" + m.app + "'");
      }
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos) {
          fail(lineNo, "app parameters must be key=value, got '" +
                           tokens[i] + "'");
        }
        const std::string key = tokens[i].substr(0, eq);
        const std::string value = tokens[i].substr(eq + 1);
        if (key == "np") {
          m.np = std::stoi(value);
          if (m.np < 1) fail(lineNo, "np must be positive");
        } else {
          m.params[key] = value;
        }
      }
      m.label = m.app + "-np" + std::to_string(m.np);
      for (const auto& [key, value] : m.params) {
        m.label += "-" + key + value;
      }
      spec.models.push_back(std::move(m));
    } else if (directive == "config") {
      if (tokens.size() < 2) fail(lineNo, "config <A|B|C|finisterrae>");
      spec.configs.push_back(parseConfigSource(lineNo, tokens[1], baseDir));
    } else if (directive == "config-file") {
      if (tokens.size() < 2) fail(lineNo, "config-file <path>");
      spec.configs.push_back(
          parseConfigSource(lineNo, "file=" + tokens[1], baseDir));
    } else if (directive == "degrade-disks") {
      if (sawDegradeDisks) fail(lineNo, "duplicate degrade-disks");
      sawDegradeDisks = true;
      spec.degradeDisks = parseFactors(lineNo, tokens);
    } else if (directive == "degrade-net") {
      if (sawDegradeNet) fail(lineNo, "duplicate degrade-net");
      sawDegradeNet = true;
      spec.degradeNet = parseFactors(lineNo, tokens);
    } else if (directive == "faultplan") {
      if (tokens.size() < 2) fail(lineNo, "faultplan <none | file=path>");
      // The first faultplan line replaces the implicit healthy default;
      // declare `faultplan none` explicitly to keep the baseline cells.
      if (!sawFaultPlan) spec.faults.clear();
      sawFaultPlan = true;
      FaultSource f;
      if (tokens[1] == "none") {
        f.label = "none";
      } else if (tokens[1].rfind("file=", 0) == 0) {
        f.path = resolvePath(baseDir, tokens[1].substr(5));
        f.label = stem(f.path);
      } else {
        fail(lineNo, "faultplan wants 'none' or 'file=<path>', got '" +
                         tokens[1] + "'");
      }
      spec.faults.push_back(std::move(f));
    } else if (directive == "fault-seeds") {
      if (sawFaultSeeds) fail(lineNo, "duplicate fault-seeds");
      sawFaultSeeds = true;
      if (tokens.size() != 2) fail(lineNo, "fault-seeds <count>");
      try {
        spec.faultSeeds = std::stoi(tokens[1]);
      } catch (const std::exception&) {
        fail(lineNo, "bad fault-seeds '" + tokens[1] + "'");
      }
      if (spec.faultSeeds < 1) fail(lineNo, "fault-seeds must be >= 1");
    } else if (directive == "tenantspec") {
      if (tokens.size() < 2) fail(lineNo, "tenantspec <none | file=path>");
      // Like faultplan: the first tenantspec line replaces the implicit
      // uncontended default; declare `tenantspec none` to keep it.
      if (!sawTenantSpec) spec.tenants.clear();
      sawTenantSpec = true;
      TenantSource t;
      if (tokens[1] == "none") {
        t.label = "none";
      } else if (tokens[1].rfind("file=", 0) == 0) {
        t.path = resolvePath(baseDir, tokens[1].substr(5));
        t.label = stem(t.path);
      } else {
        fail(lineNo, "tenantspec wants 'none' or 'file=<path>', got '" +
                         tokens[1] + "'");
      }
      spec.tenants.push_back(std::move(t));
    } else if (directive == "tenant-seeds") {
      if (sawTenantSeeds) fail(lineNo, "duplicate tenant-seeds");
      sawTenantSeeds = true;
      if (tokens.size() != 2) fail(lineNo, "tenant-seeds <count>");
      try {
        spec.tenantSeeds = std::stoi(tokens[1]);
      } catch (const std::exception&) {
        fail(lineNo, "bad tenant-seeds '" + tokens[1] + "'");
      }
      if (spec.tenantSeeds < 1) fail(lineNo, "tenant-seeds must be >= 1");
    } else if (directive == "multiop") {
      spec.multiop = true;
    } else if (directive == "characterize") {
      if (tokens.size() < 2) {
        fail(lineNo, "characterize <config-name | file=path>");
      }
      spec.characterize = parseConfigSource(lineNo, tokens[1], baseDir);
    } else {
      fail(lineNo, "unknown directive '" + directive + "'");
    }
  }

  if (spec.models.empty()) {
    throw std::invalid_argument(
        "campaign: at least one 'model' or 'app' line is required");
  }
  if (spec.configs.empty()) {
    throw std::invalid_argument(
        "campaign: at least one 'config' or 'config-file' line is "
        "required");
  }
  std::vector<std::string*> modelLabels;
  for (auto& m : spec.models) modelLabels.push_back(&m.label);
  disambiguate(modelLabels);
  std::vector<std::string*> configLabels;
  for (auto& c : spec.configs) configLabels.push_back(&c.label);
  disambiguate(configLabels);
  if (spec.faults.empty()) {
    throw std::invalid_argument(
        "campaign: faultplan lines replaced the healthy default but "
        "declared no entries");
  }
  std::vector<std::string*> faultLabels;
  for (auto& f : spec.faults) faultLabels.push_back(&f.label);
  disambiguate(faultLabels);
  if (spec.tenants.empty()) {
    throw std::invalid_argument(
        "campaign: tenantspec lines replaced the uncontended default but "
        "declared no entries");
  }
  std::vector<std::string*> tenantLabels;
  for (auto& t : spec.tenants) tenantLabels.push_back(&t.label);
  disambiguate(tenantLabels);
  return spec;
}

CampaignSpec loadCampaign(const std::filesystem::path& path) {
  return parseCampaign(readFileText(path.string(), "campaign"),
                       path.parent_path());
}

std::string modelCacheKey(const ModelSource& src,
                          const std::string& characterizeIdentity) {
  ContentHash h;
  h.update("iop-characterize/1");
  h.update(src.app);
  h.update("np=" + std::to_string(src.np));
  for (const auto& [key, value] : src.params) {
    h.update(key + "=" + value);
  }
  h.update(characterizeIdentity);
  return h.hex();
}

ResolvedCampaign resolveCampaign(const CampaignSpec& spec,
                                 const ResolveOptions& options) {
  ResolvedCampaign out;
  out.spec = spec;

  const std::size_t n = spec.models.size();
  out.models.resize(n);

  bool anyApp = false;
  for (const auto& src : spec.models) anyApp = anyApp || src.fromApp();
  // The characterize config is shared by every app entry; resolving it is
  // a pure function of the spec, so once up front is enough.
  ResolvedConfig charCfg;
  if (anyApp) charCfg = resolveConfig(spec.characterize);

  struct Outcome {
    bool characterized = false;
    bool cacheHit = false;
    double seconds = 0;  ///< characterization wall time
  };
  std::vector<Outcome> outcomes(n);
  std::vector<std::exception_ptr> errors(n);
  SweepTelemetry* tele = options.telemetry;

  // Model entries are independent: file entries parse a model file, app
  // entries run a whole characterization simulation on a private cluster
  // instance.  Nothing here touches shared state, so they fan out freely.
  auto resolveOne = [&](std::size_t i, std::size_t worker) {
    const ModelSource& src = spec.models[i];
    ResolvedModel m;
    m.label = src.label;
    if (src.fromApp()) {
      const std::string key = modelCacheKey(src, charCfg.identity);
      bool hit = false;
      if (options.reuse) {
        for (const auto& dir : options.modelCacheDirs) {
          const auto path = dir / (key + ".model");
          if (std::filesystem::exists(path)) {
            m.model = core::IOModel::load(path);
            hit = true;
            break;
          }
        }
      }
      if (!hit) {
        // Characterization run (Section III-A): trace the app once on the
        // characterize configuration and extract its subsystem-independent
        // model.  This is the only application execution in a campaign.
        const double t0 = tele != nullptr ? tele->now() : 0;
        const auto charStart = std::chrono::steady_clock::now();
        auto cluster = charCfg.build(1.0, 1.0);
        auto run = analysis::runAndTrace(
            cluster, src.label,
            apps::makeApp(src.app, cluster.mount, src.params), src.np);
        m.model = std::move(run.model);
        outcomes[i].seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          charStart)
                .count();
        if (tele != nullptr) {
          tele->characterizeSpan(worker, src.label, t0, tele->now());
        }
      }
      m.contentText = m.model.renderText();
      if (!hit) {
        // Model serialization round-trips exactly, so a future cache hit
        // yields the same contentText — and therefore the same cell keys —
        // as this characterization.
        for (const auto& dir : options.modelCacheDirs) {
          std::filesystem::create_directories(dir);
          writeFileAtomically(dir / (key + ".model"), m.contentText);
        }
      }
      outcomes[i].characterized = !hit;
      outcomes[i].cacheHit = hit;
    } else {
      m.model = core::IOModel::load(src.path);
      m.contentText = m.model.renderText();
    }
    out.models[i] = std::move(m);
  };

  const std::size_t workers = std::min(
      n, static_cast<std::size_t>(std::max(1, options.jobs)));
  if (workers > 1) {
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (;;) {
          const std::size_t i =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          try {
            resolveOne(i, w);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        resolveOne(i, 0);
      } catch (...) {
        errors[i] = std::current_exception();
        break;
      }
    }
  }
  // First declared failure wins, independent of worker interleaving.
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Report after the join, in declaration order: the event stream is
  // deterministic for any -j.
  for (std::size_t i = 0; i < n; ++i) {
    if (!spec.models[i].fromApp()) continue;
    if (outcomes[i].cacheHit) {
      ++out.modelCacheHits;
      if (tele != nullptr) tele->modelCacheHit(spec.models[i].label);
    } else {
      ++out.characterized;
      if (tele != nullptr) {
        tele->modelCharacterized(spec.models[i].label,
                                 out.models[i].model.phases().size(),
                                 outcomes[i].seconds);
      }
    }
  }

  for (const auto& src : spec.configs) {
    out.configs.push_back(resolveConfig(src));
  }
  for (const auto& src : spec.faults) {
    ResolvedFault f;
    f.label = src.label;
    if (!src.none()) {
      // Parse now so a typo'd plan fails the whole campaign with a
      // file:line diagnostic instead of failing every faulted cell.
      f.plan = fault::loadFaultPlan(src.path);
      f.planText = f.plan.canonicalText();
    }
    out.faults.push_back(std::move(f));
  }
  for (const auto& src : spec.tenants) {
    ResolvedTenant t;
    t.label = src.label;
    if (!src.none()) {
      // Same early-failure contract as fault plans.
      t.spec = tenant::loadTenantSpec(src.path);
      t.specText = t.spec.canonicalText();
    }
    out.tenants.push_back(std::move(t));
  }
  return out;
}

std::string cellKey(const char* estimatorVersion,
                    const std::string& modelText,
                    const std::string& configIdentity, double degradeDisks,
                    double degradeNet, const std::string& faultPlanText,
                    std::uint64_t faultSeed,
                    const std::string& tenantSpecText,
                    std::uint64_t tenantSeed) {
  ContentHash h;
  h.update("iop-sweep/1");
  h.update(estimatorVersion);
  h.update(modelText);
  h.update(configIdentity);
  h.update("dd=" + fmtFactor(degradeDisks));
  h.update("dn=" + fmtFactor(degradeNet));
  // Fault fields enter the hash only for faulted cells: unfaulted keys
  // must match every store written before the fault axis existed.
  if (!faultPlanText.empty()) {
    h.update("fault=" + faultPlanText);
    h.update("fault-seed=" + std::to_string(faultSeed));
  }
  // Same rule for tenant fields and pre-tenant stores.
  if (!tenantSpecText.empty()) {
    h.update("tenant=" + tenantSpecText);
    h.update("tenant-seed=" + std::to_string(tenantSeed));
  }
  return h.hex();
}

std::vector<CellSpec> ResolvedCampaign::planCells() const {
  std::vector<CellSpec> cells;
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      for (double dd : spec.degradeDisks) {
        for (double dn : spec.degradeNet) {
          for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
              if (tenants[ti].none()) {
                // The healthy entry is one cell with the legacy key; a
                // plan entry fans out into fault-seeds replicas.
                const std::uint64_t replicas =
                    faults[fi].none()
                        ? 1
                        : static_cast<std::uint64_t>(spec.faultSeeds);
                for (std::uint64_t s = 1; s <= replicas; ++s) {
                  CellSpec cell;
                  cell.modelIndex = mi;
                  cell.configIndex = ci;
                  cell.degradeDisks = dd;
                  cell.degradeNet = dn;
                  cell.faultIndex = fi;
                  cell.faultSeed = faults[fi].none() ? 0 : s;
                  cell.tenantIndex = ti;
                  cell.key = cellKey(
                      faults[fi].none() ? spec.estimatorVersion()
                                        : kFaultEstimatorVersion,
                      models[mi].contentText, configs[ci].identity, dd, dn,
                      faults[fi].planText, cell.faultSeed);
                  cells.push_back(std::move(cell));
                }
              } else {
                // Tenanted: the tenant seed drives the whole composed run
                // (arrivals + fault installation), so a composed fault
                // plan contributes its text to the key but no extra seed
                // fan-out.
                for (std::uint64_t s = 1;
                     s <= static_cast<std::uint64_t>(spec.tenantSeeds);
                     ++s) {
                  CellSpec cell;
                  cell.modelIndex = mi;
                  cell.configIndex = ci;
                  cell.degradeDisks = dd;
                  cell.degradeNet = dn;
                  cell.faultIndex = fi;
                  cell.tenantIndex = ti;
                  cell.tenantSeed = s;
                  cell.key = cellKey(
                      kTenantEstimatorVersion, models[mi].contentText,
                      configs[ci].identity, dd, dn, faults[fi].planText,
                      0, tenants[ti].specText, s);
                  cells.push_back(std::move(cell));
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::string ResolvedCampaign::cellTitle(const CellSpec& cell) const {
  std::string title = models[cell.modelIndex].label + " @ " +
                      configs[cell.configIndex].label;
  if (cell.degradeDisks != 1.0) {
    title += " dd=" + fmtFactor(cell.degradeDisks);
  }
  if (cell.degradeNet != 1.0) title += " dn=" + fmtFactor(cell.degradeNet);
  if (cell.faulted()) {
    title += " fault=" + faults[cell.faultIndex].label + " seed=" +
             std::to_string(cell.faultSeed);
  }
  if (cell.tenanted()) {
    // A composed fault plan rides along without its own seed fan-out.
    if (!faults[cell.faultIndex].none()) {
      title += " fault=" + faults[cell.faultIndex].label;
    }
    title += " tenant=" + tenants[cell.tenantIndex].label + " tseed=" +
             std::to_string(cell.tenantSeed);
  }
  return title;
}

}  // namespace iop::sweep
