// Two-phase park/unpark ("eventcount"): the one park primitive of the
// runtime.  The scheduler keeps one slot per worker (replacing the seed's
// single global sleep mutex), and every barrier-waiter handle holds one
// (parker.hpp) for waits that own no worker slot.
//
// The lost-wakeup problem: a worker checks the queues, finds nothing, and
// goes to sleep; a producer pushes a task in between and its notification
// finds nobody waiting — the task is stranded.  The seed fixed this by
// taking one global mutex around both the producer's counter bump and the
// sleeper's predicate, serializing every enqueue against every park.
//
// This eventcount fixes it without shared locks, Dekker-style:
//
//   worker                                producer
//   ------                                --------
//   1. prepare_wait(): state=WAITING      1. publish task (release)
//      + seq_cst fence                       + seq_cst fence
//   2. re-check all queues                2. read slot state
//   3a. found work -> cancel_wait()       3. CAS WAITING->SIGNALED, wake
//   3b. empty -> commit_wait(): block
//
// The two seq_cst fences guarantee at least one side observes the other:
// either the worker's re-check (2) sees the task, or the producer's state
// read (2) sees WAITING and delivers a wake that commit_wait consumes.
// Each slot has its own mutex+condvar, used only on the slow (actually
// sleeping) path; notifying a running worker is two relaxed-ish atomic
// loads and no syscall.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>

#include "support/mutex.hpp"

namespace sigrt {

/// One two-phase park slot, owned by a single waiting thread at a time;
/// any thread may notify it.
class alignas(64) ParkSlot {
 public:
  /// Phase 1 (waiter): announce intent to sleep.  Must be followed by a
  /// re-check of every wait condition, then cancel_wait() or commit_wait().
  void prepare_wait() noexcept {
    state_.store(kWaiting, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Waiter found work during the re-check: revoke the announcement (and
  /// swallow any signal that raced in — the work is visible either way).
  void cancel_wait() noexcept {
    state_.exchange(kActive, std::memory_order_acq_rel);
  }

  /// Phase 2 (waiter): block until a signal arrives.  Returns immediately
  /// if one raced in between prepare and commit.
  void commit_wait() {
    support::MutexLock lock(mutex_);
    while (state_.load(std::memory_order_acquire) == kWaiting) {
      cv_.wait(lock.native());
    }
    state_.store(kActive, std::memory_order_release);
  }

  /// Timed phase 2: additionally returns after `timeout` — used by barrier
  /// waiters under a buffering policy, which must surface periodically to
  /// re-flush the policy window.  A timeout that races with a notify
  /// consumes the signal (the waiter is awake either way); a notify that
  /// lands after the kActive store fails its CAS and treats the waiter as
  /// running — no signal is lost, none is duplicated.
  void commit_wait_for(std::chrono::microseconds timeout) {
    support::MutexLock lock(mutex_);
    cv_.wait_for(lock.native(), timeout, [this] {
      return state_.load(std::memory_order_acquire) != kWaiting;
    });
    state_.store(kActive, std::memory_order_release);
  }

  /// Any thread: wake the waiter iff it is parked (or mid-park).  Returns
  /// true when a signal was delivered, false when the waiter was active
  /// (it will find the published work on its own).  No token is stored for
  /// an active waiter — the two-phase re-check makes one unnecessary.
  bool notify() noexcept {
    std::uint32_t expected = kWaiting;
    if (!state_.compare_exchange_strong(expected, kSignaled,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      return false;
    }
    // Lock/unlock pairs with the waiter's state check under the same mutex
    // in commit_wait: the signal cannot land between that check and the
    // cv.wait it guards.
    { support::MutexLock lock(mutex_); }
    cv_.notify_one();
    return true;
  }

  /// Cheap waiter probe for wake-target selection (racy by design: a false
  /// negative only means the producer skips a CAS it would have lost).
  [[nodiscard]] bool waiting() const noexcept {
    return state_.load(std::memory_order_acquire) == kWaiting;
  }

 private:
  enum : std::uint32_t { kActive = 0, kWaiting = 1, kSignaled = 2 };
  std::atomic<std::uint32_t> state_{kActive};
  support::Mutex mutex_;  // slow path only: actual sleeping
  std::condition_variable cv_;
};

/// The scheduler's per-worker park slots.
class EventCount {
 public:
  explicit EventCount(unsigned slots)
      : count_(slots), slots_(new ParkSlot[slots > 0 ? slots : 1]) {}

  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  [[nodiscard]] ParkSlot& operator[](unsigned i) noexcept { return slots_[i]; }

  /// Shutdown: wake every parked worker.
  void notify_all() noexcept {
    for (unsigned i = 0; i < count_; ++i) slots_[i].notify();
  }

 private:
  const unsigned count_;
  std::unique_ptr<ParkSlot[]> slots_;
};

}  // namespace sigrt
