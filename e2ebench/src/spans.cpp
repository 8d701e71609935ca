#include "spans.hpp"

#include <map>

#include "obs/profiler.hpp"

namespace e2e {

namespace {

double secondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::string layerOfSection(const std::string& section) {
  // The simulated stack (sim + mpi + storage) cannot be split by timing
  // from outside; its work shows in the per-layer counts instead.
  static const std::map<std::string, std::string> kLayers = {
      {"app.run", "sim"},          {"degraded.replica", "sim"},
      {"replay.measure", "ior"},   {"degraded.estimate", "analysis"},
      {"sweep.cell", "analysis"},  {"model.extract", "core"},
      {"lap.segment", "core"},     {"phase.group", "core"},
      {"trace.write", "trace"},    {"trace.parse", "trace"},
      {"sweep.run", "sweep"},      {"sweep.probe", "sweep"},
  };
  const auto it = kLayers.find(section);
  if (it != kLayers.end()) return it->second;
  return section.substr(0, section.find('.'));
}

Spans::Spans(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

Spans::~Spans() {
  if (enabled_) iop::obs::Profiler::global().attachTrace(nullptr);
}

double Spans::now() const {
  return secondsBetween(epoch_, std::chrono::steady_clock::now());
}

Spans::Scope::Scope(Spans* owner, const char* name, const char* layer)
    : owner_(owner) {
  if (owner_ != nullptr) index_ = owner_->open(name, layer);
}

Spans::Scope::~Scope() {
  if (owner_ != nullptr) owner_->close(index_);
}

int Spans::open(const char* name, const char* layer) {
  Span span;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.name = name;
  span.layer = layer;
  span.start = now();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Spans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now();
  stack_.pop_back();
}

void Spans::beginOp(int op) {
  if (!enabled_) return;
  op_ = op;
  opBegin_ = spans_.size();
  // attachTrace restarts the profiler's timebase; bracket the call so
  // the mirrored sections land within a microsecond of our clock.
  const double before = now();
  iop::obs::Profiler::global().attachTrace(&sections_);
  sectionsEpoch_ = (before + now()) / 2;
  sectionsSeen_ = sections_.events().size();
  open("op", "bench");
}

void Spans::endOp() {
  if (!enabled_) return;
  close(static_cast<int>(opBegin_));
  iop::obs::Profiler::global().attachTrace(nullptr);

  // Benchmark spans nest exactly (one thread, RAII); none of them sits
  // inside library code.  So a profiler section's benchmark parent is the
  // deepest benchmark span holding its midpoint, and sections nest among
  // themselves by exact containment in the profiler's own clock.  The
  // profiler records a section when it closes, so a section's ancestors
  // come after it and its nearest ancestor is the first later one that
  // contains it.
  const std::size_t benchEnd = spans_.size();
  const auto& events = sections_.events();
  const std::size_t first = sectionsSeen_;
  const std::size_t count = events.size() - first;
  auto depth = [this](int index) {
    int d = 0;
    for (; index >= 0; index = spans_[static_cast<std::size_t>(index)].parent)
      ++d;
    return d;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const auto& ev = events[first + i];
    Span span;
    span.op = op_;
    span.name = ev.name;
    span.layer = layerOfSection(ev.name);
    span.start = sectionsEpoch_ + ev.tsUs * 1e-6;
    span.end = span.start + ev.durUs * 1e-6;
    const double mid = (span.start + span.end) / 2;
    int benchParent = static_cast<int>(opBegin_);
    for (std::size_t b = opBegin_; b < benchEnd; ++b) {
      const Span& cand = spans_[b];
      if (cand.start <= mid && mid <= cand.end &&
          depth(static_cast<int>(b)) > depth(benchParent)) {
        benchParent = static_cast<int>(b);
      }
    }
    span.parent = benchParent;
    for (std::size_t j = i + 1; j < count; ++j) {
      const auto& outer = events[first + j];
      if (outer.tsUs <= ev.tsUs &&
          ev.tsUs + ev.durUs <= outer.tsUs + outer.durUs) {
        span.parent = static_cast<int>(benchEnd + j);
        break;
      }
    }
    spans_.push_back(std::move(span));
  }
  sectionsSeen_ = events.size();
}

std::vector<double> selfSeconds(std::span<const Span> opSpans,
                                std::size_t firstIndex) {
  std::vector<double> self(opSpans.size());
  for (std::size_t i = 0; i < opSpans.size(); ++i) {
    self[i] = opSpans[i].seconds();
  }
  for (const Span& span : opSpans) {
    if (span.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(span.parent) - firstIndex;
    if (parent < self.size()) self[parent] -= span.seconds();
  }
  for (double& s : self) {
    if (s < 0) s = 0;
  }
  return self;
}

void Spans::saveChromeJson(const std::filesystem::path& path) const {
  iop::obs::TraceRecorder out;
  const auto kind = iop::obs::TrackKind::Profiler;
  const int tid = out.track(kind, "e2ebench");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out.span(kind, tid, s.name, s.layer, s.start, s.end,
             "\"id\":" + std::to_string(i) + ",\"parent\":" +
                 std::to_string(s.parent) + ",\"op\":" + std::to_string(s.op));
  }
  out.saveJson(path.string());
}

}  // namespace e2e
