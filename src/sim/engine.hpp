// Deterministic discrete-event simulation engine.
//
// The engine owns the simulated clock and a queue of ready coroutines: a
// same-time FIFO lane over a binary heap (see readyqueue.hpp).  Events
// with equal timestamps run in scheduling order (monotonic sequence
// numbers), so a run is a pure function of its inputs and the RNG seed — a
// property the whole repository relies on for reproducing the paper's
// tables.  The engine folds every dispatched (when, seq) pair into a
// running FNV-1a digest; tests compare digests across runs and schedulers
// to prove the order never drifts.
#pragma once

#include <chrono>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/readyqueue.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace iop::obs {
struct Hub;
class Gauge;
}  // namespace iop::obs

namespace iop::sim {

/// Simulated time, in seconds.
using Time = double;

/// Thrown by Engine::run when the event queue drains while detached
/// processes are still blocked (a lost wake-up / deadlock in model code).
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown once an attached Deadline's hard point has passed.  It unwinds
/// like DeadlockError: the engine stops between two dispatches and the
/// processes suspended in it are abandoned.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// A wall-clock budget shared by the engines of one job.  Each counts its
/// dispatches on it and polls it every kPollInterval of them, between
/// resumes: one clock read that runs the soft callback (once) past the
/// soft point and throws DeadlineExceeded past the hard one.  Polling
/// touches neither the RNG nor the ready queue, so a deadline that does
/// not expire leaves the run bit-identical.  Engines keep its address.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kPollInterval = 4096;

  /// Clock::time_point::max() disarms a point.
  Deadline(Clock::time_point soft, Clock::time_point hard,
           std::function<void()> onSoft);
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  /// Count one dispatch; poll when the interval is up.
  void tick() {
    if (--untilPoll_ == 0) poll();
  }
  /// Sleep under the deadline: the soft callback fires on time, and the
  /// sleep ends in DeadlineExceeded at the hard point.
  void sleepFor(Clock::duration duration);

 private:
  void poll();

  Clock::time_point soft_;
  Clock::time_point hard_;
  std::function<void()> onSoft_;  ///< emptied once it has run
  std::uint32_t untilPoll_ = kPollInterval;
};

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  /// Destroys still-queued never-started detached frames.
  ~Engine();

  /// Current simulated time in seconds.
  Time now() const noexcept { return now_; }

  /// Deterministic RNG owned by this engine.
  util::Rng& rng() noexcept { return rng_; }

  /// Launch a detached process at the current time.  The coroutine frame
  /// frees itself on completion; uncaught exceptions surface from run().
  void spawn(Task<void> task);

  /// Launch a detached process at an absolute future time.  Past times
  /// clamp to now(); non-finite times throw std::invalid_argument.
  void spawnAt(Time when, Task<void> task);

  /// Schedule a raw coroutine resumption (used by awaitables).  Past times
  /// clamp to now(); NaN/infinite times throw std::invalid_argument
  /// instead of silently corrupting the queue order.
  void schedule(Time when, std::coroutine_handle<> h) {
    scheduleImpl(when, h, false);
  }
  void scheduleNow(std::coroutine_handle<> h) { schedule(now_, h); }

  /// Run until the event queue is empty.  Throws DeadlockError if detached
  /// processes remain blocked, and rethrows the first uncaught exception
  /// from any detached process.
  void run();

  /// Run until the queue is empty or simulated time would exceed `limit`.
  /// Events after `limit` stay queued; now() is clamped to `limit`.
  void runUntil(Time limit);

  /// Like run(), but without the deadlock check: blocked daemon processes
  /// (e.g. an idle cache flusher between benchmark passes) are tolerated.
  void drain();

  /// Awaitable: suspend the calling coroutine for `dt` simulated seconds.
  /// A non-positive dt still yields through the event queue (runs after
  /// already-scheduled same-time events).  Non-finite dt throws
  /// std::invalid_argument at the co_await point.
  auto delay(Time dt) {
    if (!std::isfinite(dt)) {
      throw std::invalid_argument("Engine::delay: non-finite duration");
    }
    struct Awaiter {
      Engine& engine;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.schedule(engine.now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt > 0 ? dt : 0};
  }

  /// Awaitable: reschedule at the current time, after pending same-time
  /// events (cooperative yield).
  auto yield() { return delay(0); }

  /// Number of events dispatched so far (for tests and micro-benchmarks).
  std::uint64_t eventsDispatched() const noexcept { return dispatched_; }

  /// FNV-1a fold of every dispatched (when, seq) pair, in dispatch order.
  /// Two runs with the same inputs must report the same digest; the
  /// determinism tests pin it across scheduler implementations.
  std::uint64_t orderDigest() const noexcept { return orderDigest_; }

  /// Number of detached processes that have not finished yet.
  int liveProcesses() const noexcept { return liveDetached_; }

  /// Attach (or detach, with nullptr) an observability hub.  Everything
  /// holding an Engine reference — disks, caches, NICs, the MPI layer —
  /// reaches its sinks through here, so one call observes the whole
  /// simulation.  Recording is passive: it must not consume rng() or
  /// reorder the ready queue, so attaching cannot change a run's outcome.
  void setObs(obs::Hub* hub) noexcept {
    obs_ = hub;
    obsDispatchedGauge_ = nullptr;
    obsLiveGauge_ = nullptr;
    obsTrackId_ = -1;
  }
  obs::Hub* obs() const noexcept { return obs_; }

  /// Attach (or detach, with nullptr) a wall-clock deadline, polled from
  /// run(), runUntil() and drain().  It must outlive those calls.
  void setDeadline(Deadline* deadline) noexcept { deadline_ = deadline; }

  /// Seconds of simulated time between engine-level counter samples
  /// (queue depth / dispatch rate) in the exported trace.
  void setObsSampleInterval(Time interval) noexcept {
    obsSampleInterval_ = interval > 0 ? interval : 0.1;
  }

 private:
  friend void detail::reportDetachedException(Engine&, std::exception_ptr);
  friend void detail::noteDetachedTaskFinished(Engine&);

  void scheduleImpl(Time when, std::coroutine_handle<> h, bool owns) {
    if (!std::isfinite(when)) {
      throw std::invalid_argument("Engine::schedule: non-finite time");
    }
    if (when < now_) when = now_;
    queue_.push(detail::QueuedEvent{when, seq_++, h, owns}, now_);
  }

  void dispatchUntil(Time limit, bool bounded);
  void throwIfFailed();
  /// Cold path: edge horizon + throttled samples; only entered when a hub
  /// is attached.
  void observeDispatch();
  void sampleObs();

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t orderDigest_ = 1469598103934665603ULL;  // FNV-1a offset
  int liveDetached_ = 0;
  detail::ReadyQueue queue_;
  std::exception_ptr firstException_{};
  util::Rng rng_;
  Deadline* deadline_ = nullptr;

  obs::Hub* obs_ = nullptr;
  Time obsSampleInterval_ = 0.1;
  Time obsNextSample_ = 0;
  std::uint64_t obsLastDispatched_ = 0;
  /// Cached instrument handles (stable addresses per MetricsRegistry /
  /// TraceRecorder contract) so sampling skips the by-name lookups.
  obs::Gauge* obsDispatchedGauge_ = nullptr;
  obs::Gauge* obsLiveGauge_ = nullptr;
  int obsTrackId_ = -1;
};

}  // namespace iop::sim
