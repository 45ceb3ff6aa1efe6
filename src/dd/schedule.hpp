#pragma once

// Schedule-point seam for the dd concurrency protocol (model checking).
//
// TSan only validates the thread schedules that happen to execute; lost
// wakeups, deadlocks, and poison-cascade violations in the SPSC mailbox /
// engine handoff live in schedules a loaded CI runner may never produce. The
// model checker (tools/model_check/) needs a way to *own* the schedule: every
// mutex acquire, condvar wait/notify, buffer publish/consume, and close()
// poison in the dd layer goes through the primitives below, which are
//
//   * production builds (DFTFE_MODEL_CHECK=0, the default): plain aliases of
//     std::mutex / std::condition_variable / std::lock_guard /
//     std::unique_lock plus empty inline hook functions — zero code, zero
//     data, zero cost. `bench_scf_scaling` against the committed
//     baselines is the regression gate for this claim.
//
//   * checking builds (-DDFTFE_MODEL_CHECK=ON): cooperative versions that
//     report to a pluggable Scheduler before every visible operation. With
//     no scheduler installed (or from a thread that never registered) they
//     fall through to the real std primitives — "passthrough mode", which the
//     TSan CI leg runs to prove the seam itself is race-free. With a
//     controlled scheduler installed (tools/model_check/cooperative.hpp),
//     exactly one registered thread runs at a time and the scheduler
//     enumerates interleavings by choosing who proceeds at each point.
//
// Faithfulness notes for the controlled mode:
//   * notify with no parked waiter is LOST, exactly like a real condvar —
//     this is what makes the dropped-notify mutant detectable as a deadlock.
//   * wake() marks every waiter on the object runnable; each re-checks its
//     predicate and re-blocks if it still does not hold. That equals a
//     notify_one under the spurious-wakeup latitude the C++ standard already
//     grants callers, so it only ever *adds* legal schedules (and the dd
//     channels are SPSC: each condvar has at most one logical waiter).
//   * sleep_until() is a no-op under control: modeled wire time is wall-clock
//     emulation, irrelevant to protocol ordering.
//
// Seeded mutants (checking builds only, selected at runtime through
// set_mutant so one binary hosts trunk + every mutant leg): drop_notify
// swallows the first packet-published notification of each channel;
// skip_gen skips one buffer-generation bump; early_release opens the lane
// allreduce barrier (dd/allreduce.hpp) on the second-to-last arrival. All
// three MUST be caught by the checker (tests/test_model_check.cpp) — that is
// the proof the harness has teeth. Production builds do not compile the
// mutant hooks at all.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#ifndef DFTFE_MODEL_CHECK
#define DFTFE_MODEL_CHECK 0
#endif

namespace dftfe::dd::sched {

/// The visible-operation vocabulary reported at schedule points. Kept
/// identical across build modes so call sites never need their own #if.
enum class Op {
  acquire,  // about to (try to) take a mutex
  release,  // about to give a mutex back
  wait,     // about to park on a condvar (predicate already seen false)
  wake,     // marked runnable after a park; the pending op of a woken thread
            // (stamped by the controlled scheduler, not by call sites)
  notify,   // about to notify a condvar
  publish,  // mailbox slot becomes visible to the consumer
  consume,  // mailbox slot handed back to the producer
  close,    // poisoning a channel
  start,    // registered thread entering the controlled section
  finish,   // registered thread leaving the controlled section
};

#if DFTFE_MODEL_CHECK

/// Seeded protocol faults for checker self-validation.
enum class Mutant { none, drop_notify, skip_gen, early_release };

Mutant mutant() noexcept;
void set_mutant(Mutant m) noexcept;

/// Scheduler contract (implemented by tools/model_check/cooperative.hpp).
/// All methods are invoked from *registered* scenario threads; the
/// implementation serializes them (one runnable thread at a time).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// The calling thread is about to perform `op` on `obj`; the scheduler may
  /// park it here and run other threads first (a preemption point).
  virtual void point(Op op, const void* obj) = 0;
  /// Park the calling thread until wake(obj) — cooperative blocking. The
  /// caller re-checks its predicate on return and may block again.
  virtual void block(const void* obj) = 0;
  /// Mark every thread parked on `obj` runnable (does not transfer control).
  virtual void wake(const void* obj) = 0;
};

/// Install/remove the process-global controlled scheduler. Threads opt in
/// individually via ThreadGuard; unregistered threads always pass through to
/// the std primitives, so an installed scheduler never perturbs unrelated
/// concurrency (e.g. a RankEngine running in the same process).
void set_controller(Scheduler* s) noexcept;
Scheduler* controller() noexcept;

/// True iff a controller is installed AND the calling thread registered.
bool controlled() noexcept;

/// RAII registration of the calling scenario thread with the controller.
class ThreadGuard {
 public:
  ThreadGuard();
  ~ThreadGuard();
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

inline void point(Op op, const void* obj) {
  if (controlled()) controller()->point(op, obj);
}

/// Cooperative mutex: controlled threads never touch the OS lock — only one
/// of them runs at a time, so `held_` is effectively scheduler-serialized.
/// Uncontrolled threads use the wrapped std::mutex. A given object must be
/// used homogeneously (all-controlled or all-uncontrolled); scenarios own
/// their channels, so this holds by construction.
class Mutex {
 public:
  void lock() {
    if (!controlled()) {
      m_.lock();
      return;
    }
    Scheduler* s = controller();
    s->point(Op::acquire, this);
    // block() returns only once the scheduler grants this thread the token
    // again (after a wake(this) from the holder's unlock), so re-checking
    // held_ immediately is a fresh schedule decision, not a spin.
    while (held_) s->block(this);
    held_ = true;
  }
  void unlock() {
    if (!controlled()) {
      m_.unlock();
      return;
    }
    held_ = false;
    controller()->wake(this);
  }
  bool try_lock() {
    if (!controlled()) return m_.try_lock();
    controller()->point(Op::acquire, this);
    if (held_) return false;
    held_ = true;
    return true;
  }

 private:
  std::mutex m_;
  bool held_ = false;
};

using LockGuard = std::lock_guard<Mutex>;
using UniqueLock = std::unique_lock<Mutex>;

/// Cooperative condition variable. Controlled-mode semantics are documented
/// in the header comment (lost notifies are faithful; wake-all equals
/// notify_one modulo standard-sanctioned spurious wakeups).
class CondVar {
 public:
  template <class Pred>
  void wait(UniqueLock& lk, Pred pred) {
    if (!controlled()) {
      cv_.wait(lk, pred);
      return;
    }
    Scheduler* s = controller();
    while (!pred()) {
      s->point(Op::wait, this);
      // Unlock + park is atomic from every other controlled thread's view:
      // nothing else runs between the two statements (control only transfers
      // inside block()/point()).
      Mutex* m = lk.mutex();
      m->unlock();
      try {
        s->block(this);
        m->lock();
      } catch (...) {
        // Exploration abort while parked (or while re-acquiring): we do NOT
        // hold the mutex here, but `lk` still believes it owns it. Detach the
        // guard so unwinding never performs a phantom unlock on a mutex some
        // other aborting thread may legitimately hold.
        lk.release();
        throw;
      }
    }
  }
  void notify_one() {
    if (!controlled()) {
      cv_.notify_one();
      return;
    }
    controller()->point(Op::notify, this);
    controller()->wake(this);
  }
  void notify_all() {
    if (!controlled()) {
      cv_.notify_all();
      return;
    }
    controller()->point(Op::notify, this);
    controller()->wake(this);
  }

 private:
  // condition_variable_any: must park uncontrolled threads on a
  // sched::Mutex-backed unique_lock in passthrough mode.
  std::condition_variable_any cv_;
};

template <class Clock, class Duration>
inline void sleep_until(const std::chrono::time_point<Clock, Duration>& tp) {
  if (controlled()) return;  // modeled wire time is not protocol ordering
  std::this_thread::sleep_until(tp);
}

#else  // !DFTFE_MODEL_CHECK — production: straight aliases, empty hooks.

using Mutex = std::mutex;
using CondVar = std::condition_variable;
using LockGuard = std::lock_guard<std::mutex>;
using UniqueLock = std::unique_lock<std::mutex>;

inline void point(Op, const void*) {}

template <class Clock, class Duration>
inline void sleep_until(const std::chrono::time_point<Clock, Duration>& tp) {
  std::this_thread::sleep_until(tp);
}

#endif  // DFTFE_MODEL_CHECK

}  // namespace dftfe::dd::sched
