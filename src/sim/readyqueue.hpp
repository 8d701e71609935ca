// Ready-event queue for the discrete-event engine.
//
// The engine dispatches in the total order of (when, seq): simulated time,
// ties broken by the engine-issued sequence number.  HeapQueue is the
// plain binary heap for that order.  ReadyQueue composes it with a FIFO
// lane for the events pushed at the current time (wakeups, grants,
// yields: about a third of all pushes), so those skip the heap:
//
//  * push with when <= now  -> append to the lane
//  * push with when > now   -> HeapQueue
//  * peek / pop             -> the earlier of the heap's top and the
//                              lane's head
//
// The order is exact for any sequence of pushes.  The lane only accepts
// an event that is not earlier than its tail, and seq rises with every
// push, so the lane is ascending; the heap's top is the least event in the
// heap; the earlier of the two heads is therefore the least event queued.
// In the engine a lane event is due at now and the clock cannot pass now
// until the lane is empty, so the lane drains (and resets) before the
// clock advances, and it never holds more than one instant's events.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace iop::sim {

using Time = double;

namespace detail {

struct QueuedEvent {
  Time when;
  std::uint64_t seq;
  std::coroutine_handle<> handle;
  /// True only for a detached frame's very first scheduling: if the engine
  /// dies before dispatch, the frame must be destroyed by the owner.
  bool ownsHandle = false;
};

inline bool earlierThan(const QueuedEvent& a,
                        const QueuedEvent& b) noexcept {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

/// The heap's order as a function object.  Passed as a function pointer,
/// it stayed an out-of-line call in the heap's sift loops (GCC 12, -O3).
struct LaterThan {
  bool operator()(const QueuedEvent& a, const QueuedEvent& b) const noexcept {
    return earlierThan(b, a);
  }
};

/// Binary min-heap on (when, seq): the reference order, and ReadyQueue's
/// store for future events.
class HeapQueue {
 public:
  void push(const QueuedEvent& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), LaterThan{});
  }

  /// Earliest event, or nullptr when empty.
  const QueuedEvent* peek() const {
    return heap_.empty() ? nullptr : &heap_.front();
  }

  QueuedEvent pop() {
    std::pop_heap(heap_.begin(), heap_.end(), LaterThan{});
    QueuedEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

  /// Visit every queued event in unspecified order and leave the queue
  /// empty (engine teardown).
  template <typename F>
  void drainEach(F&& f) {
    for (QueuedEvent& ev : heap_) f(ev);
    heap_.clear();
  }

 private:
  std::vector<QueuedEvent> heap_;
};

/// The engine's queue: a same-time FIFO lane over a HeapQueue.
class ReadyQueue {
 public:
  /// `now` is the engine clock, which clamps past times, so the lane's
  /// events are the ones due at now.
  void push(const QueuedEvent& ev, Time now) {
    if (ev.when <= now && (lane_.empty() || lane_.back().when <= ev.when)) {
      lane_.push_back(ev);
    } else {
      heap_.push(ev);
    }
  }

  /// Earliest event in (when, seq) order, or nullptr when empty.
  const QueuedEvent* peek() const {
    return laneFirst() ? &lane_[laneHead_] : heap_.peek();
  }

  /// Remove and return the earliest event; the queue must not be empty.
  QueuedEvent pop() {
    if (!laneFirst()) return heap_.pop();
    const QueuedEvent ev = lane_[laneHead_++];
    if (laneHead_ == lane_.size()) {
      lane_.clear();
      laneHead_ = 0;
    }
    return ev;
  }

  std::size_t size() const noexcept {
    return lane_.size() - laneHead_ + heap_.size();
  }
  bool empty() const noexcept { return size() == 0; }

  /// Visit every queued event in unspecified order and leave the queue
  /// empty (engine teardown).
  template <typename F>
  void drainEach(F&& f) {
    for (std::size_t i = laneHead_; i < lane_.size(); ++i) f(lane_[i]);
    lane_.clear();
    laneHead_ = 0;
    heap_.drainEach(f);
  }

 private:
  bool laneFirst() const {
    if (lane_.empty()) return false;
    const QueuedEvent* top = heap_.peek();
    return top == nullptr || earlierThan(lane_[laneHead_], *top);
  }

  /// Ascending by (when, seq) from laneHead_; cleared once consumed.
  std::vector<QueuedEvent> lane_;
  std::size_t laneHead_ = 0;
  HeapQueue heap_;
};

}  // namespace detail
}  // namespace iop::sim
