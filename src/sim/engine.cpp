#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>

#include "obs/hub.hpp"

namespace iop::sim {

namespace detail {

void reportDetachedException(Engine& engine, std::exception_ptr exc) {
  if (!engine.firstException_) engine.firstException_ = exc;
}

void noteDetachedTaskFinished(Engine& engine) { --engine.liveDetached_; }

namespace {

/// One FNV-1a-style fold per 64-bit word: cheap enough for the dispatch
/// hot loop, yet any reordering of the (when, seq) stream changes it.
inline std::uint64_t foldWord(std::uint64_t h, std::uint64_t word) noexcept {
  return (h ^ word) * 1099511628211ULL;
}

}  // namespace
}  // namespace detail

Deadline::Deadline(Clock::time_point soft, Clock::time_point hard,
                   std::function<void()> onSoft)
    : soft_(soft), hard_(hard), onSoft_(std::move(onSoft)) {}

void Deadline::poll() {
  untilPoll_ = kPollInterval;
  const Clock::time_point now = Clock::now();
  if (onSoft_ && now >= soft_) std::exchange(onSoft_, nullptr)();
  if (now >= hard_) throw DeadlineExceeded("wall-clock deadline exceeded");
}

void Deadline::sleepFor(Clock::duration duration) {
  const Clock::time_point wake = Clock::now() + duration;
  if (onSoft_ && soft_ < wake) {
    std::this_thread::sleep_until(std::min(soft_, hard_));
    poll();
  }
  std::this_thread::sleep_until(std::min(wake, hard_));
  poll();
}

Engine::Engine(std::uint64_t seed) : rng_(seed) {}

Engine::~Engine() {
  queue_.drainEach([this](const detail::QueuedEvent& ev) {
    if (ev.ownsHandle && ev.handle) {
      ev.handle.destroy();
      --liveDetached_;
    }
  });
}

void Engine::spawn(Task<void> task) { spawnAt(now_, std::move(task)); }

void Engine::spawnAt(Time when, Task<void> task) {
  // Validate before detaching: on throw, ~Task still owns and frees the
  // frame.
  if (!std::isfinite(when)) {
    throw std::invalid_argument("Engine::spawnAt: non-finite time");
  }
  auto handle = task.release();
  if (!handle) return;
  handle.promise().engine = this;
  handle.promise().detached = true;
  ++liveDetached_;
  scheduleImpl(when, handle, true);
}

void Engine::dispatchUntil(Time limit, bool bounded) {
  for (;;) {
    const detail::QueuedEvent* top = queue_.peek();
    if (top == nullptr) return;
    if (bounded && top->when > limit) {
      // A limit already behind the clock must not move it backwards.
      now_ = std::max(now_, limit);
      return;
    }
    const detail::QueuedEvent ev = queue_.pop();
    now_ = ev.when;
    ++dispatched_;
    orderDigest_ = detail::foldWord(
        detail::foldWord(orderDigest_, std::bit_cast<std::uint64_t>(ev.when)),
        ev.seq);
    if (obs_ != nullptr) [[unlikely]] observeDispatch();
    ev.handle.resume();
    if (firstException_) [[unlikely]] throwIfFailed();
    if (deadline_ != nullptr) [[unlikely]] deadline_->tick();
  }
}

void Engine::observeDispatch() {
  // Edge emission at dispatch: advance the recorder's time horizon so
  // activities abandoned at teardown can be clamped post-run.
  if (obs_->edges != nullptr) obs_->edges->noteDispatch(now_);
  if (now_ >= obsNextSample_) sampleObs();
}

/// Throttled engine-level samples: ready-queue depth as a counter track,
/// dispatch totals into the registry.  Sampling reads state only; it never
/// schedules or consumes randomness.  Instrument handles and the track id
/// are resolved once per setObs() — registries guarantee stable addresses —
/// so the sample itself is just buffered appends.
void Engine::sampleObs() {
  if (obs_->metrics != nullptr) {
    if (obsDispatchedGauge_ == nullptr) {
      obsDispatchedGauge_ = &obs_->metrics->gauge("sim.events_dispatched");
      obsLiveGauge_ = &obs_->metrics->gauge("sim.live_processes");
    }
    obsDispatchedGauge_->set(static_cast<double>(dispatched_));
    obsLiveGauge_->set(static_cast<double>(liveDetached_));
  }
  if (obs_->trace != nullptr) {
    if (obsTrackId_ < 0) {
      obsTrackId_ = obs_->trace->track(obs::TrackKind::Sim, "engine");
    }
    obs_->trace->counterSample(obs::TrackKind::Sim, obsTrackId_,
                               "ready queue", now_,
                               static_cast<double>(queue_.size()));
    obs_->trace->counterSample(
        obs::TrackKind::Sim, obsTrackId_, "dispatch rate", now_,
        static_cast<double>(dispatched_ - obsLastDispatched_));
  }
  obsLastDispatched_ = dispatched_;
  obsNextSample_ = now_ + obsSampleInterval_;
}

void Engine::throwIfFailed() {
  if (firstException_) {
    std::exception_ptr exc = firstException_;
    firstException_ = nullptr;
    std::rethrow_exception(exc);
  }
}

void Engine::run() {
  dispatchUntil(0, false);
  if (liveDetached_ > 0) {
    if (obs_ != nullptr && obs_->wantsLog(obs::LogLevel::Warn)) {
      obs_->log->warn("engine", "deadlock_detector_armed",
                      "\"blocked_processes\":" +
                          std::to_string(liveDetached_) +
                          ",\"sim_time\":" + std::to_string(now_));
    }
    throw DeadlockError("simulation deadlock: " +
                        std::to_string(liveDetached_) +
                        " process(es) blocked with an empty event queue");
  }
}

void Engine::runUntil(Time limit) { dispatchUntil(limit, true); }

void Engine::drain() { dispatchUntil(0, false); }

}  // namespace iop::sim
