// The barrier-waiter handle that wires a barrier's completion side — a
// task's last child, a group's quiescence, a wait_on fence — to whatever
// the waiting thread is currently sleeping on.
//
// An in-task taskwait is a *helping* barrier — the waiter keeps executing
// other tasks — but when nothing is acquirable the awaited tasks are in
// flight on other threads.  The completion side then notifies the waiter
// directly instead of the waiter polling:
//
//   waiter                                 completer (last child)
//   ------                                 ---------
//   1. register waiter on task/group       1. children.fetch_sub == 1
//      + seq_cst fence                        + seq_cst fence
//   2. re-check barrier + queues           2. load waiter pointer
//   3a. open/work -> don't park            3. waiter->notify()
//   3b. closed    -> park
//
// The two seq_cst fences are the same Dekker argument as eventcount.hpp:
// at least one side observes the other, so a parked waiter cannot miss the
// zero crossing.
//
// A waiter may be parked in one of two ways — on its *scheduler eventcount
// slot* (a slot-owning worker: producer wakes keep reaching it, so new work
// still gets helped) or on the handle's own ParkSlot (a thread that owns no
// slot: it handed its slot to a spare, or the runtime runs inline).
// notify() covers both targets; a notification aimed at a stale target
// only wakes somebody spuriously, and every park in this codebase
// re-checks its condition on wake.
//
// Lifetime: BarrierWaiter handles are leased per thread from an immortal
// freelist (this_thread_waiter()).  A completer that loaded the pointer
// races only against the waiter *moving on*, never against the memory
// dying — a late notify() hits a pooled handle that is either idle or
// owned by some other thread, both harmless.  The freelist head is a
// global, so handles stay reachable at exit (no leak reports).
#pragma once

#include <atomic>

#include "core/eventcount.hpp"
#include "support/mutex.hpp"

namespace sigrt {

/// The wake-target handle a barrier waiter registers on a Task (children
/// scope) or TaskGroup (quiescence scope), or hands to a wait_on fence.
/// notify() is safe from any thread at any time: it touches only this
/// handle, which the freelist keeps alive for the program's lifetime.
struct BarrierWaiter {
  /// Park target while the waiter owns no scheduler slot.
  ParkSlot slot;

  /// The scheduler eventcount slot the waiter is parked on while it owns a
  /// worker slot; nullptr means it parks on `slot` (or is not parked).
  std::atomic<ParkSlot*> worker_slot{nullptr};

  BarrierWaiter* next_free = nullptr;  ///< freelist linkage (under its mutex)

  void notify() noexcept {
    if (ParkSlot* s = worker_slot.load(std::memory_order_acquire)) {
      s->notify();
    }
    slot.notify();
  }
};

namespace detail {

struct WaiterFreelist {
  support::Mutex mutex;
  BarrierWaiter* head SIGRT_GUARDED_BY(mutex) = nullptr;
};

inline WaiterFreelist& waiter_freelist() {
  // Function-local static: immortal (never destroyed before thread-local
  // leases), and the head keeps every handle reachable at exit.
  static WaiterFreelist* fl = new WaiterFreelist;
  return *fl;
}

/// Thread-lifetime lease: returns the handle to the freelist at thread
/// exit, so retiring spare threads recycle instead of dangling.
struct WaiterLease {
  BarrierWaiter* w = nullptr;
  ~WaiterLease() {
    if (w == nullptr) return;
    w->worker_slot.store(nullptr, std::memory_order_relaxed);
    WaiterFreelist& fl = waiter_freelist();
    support::MutexLock lock(fl.mutex);
    w->next_free = fl.head;
    fl.head = w;
  }
};

}  // namespace detail

/// The calling thread's pooled barrier-waiter handle (allocated on first
/// use, recycled across thread lifetimes — steady-state barrier parks
/// allocate nothing).
inline BarrierWaiter* this_thread_waiter() {
  thread_local detail::WaiterLease lease;
  if (lease.w == nullptr) {
    detail::WaiterFreelist& fl = detail::waiter_freelist();
    support::MutexLock lock(fl.mutex);
    if (fl.head != nullptr) {
      lease.w = fl.head;
      fl.head = lease.w->next_free;
      lease.w->next_free = nullptr;
    } else {
      lease.w = new BarrierWaiter;
    }
  }
  return lease.w;
}

}  // namespace sigrt
