#pragma once

// Double-buffered halo mailbox: the transport of the threaded rank engine
// (dd/engine.hpp). One HaloChannel is a single-producer/single-consumer FIFO
// of fixed-size packets between two lanes (mutex + condition variable, two
// slots). The payload passes through typed wire storage in the channel's
// format: each slot holds one vector of WireCodec<W, T>::unit
// (dd/exchange.hpp), sized through the codec and handed out by the
// buf<W>/cbuf<W> pair, so the numerical effect of reduced-precision boundary
// communication is real: a receiver adds exactly the values that survived
// the sender's demotion.
//
// Wire time: a packet carries a `ready` timestamp chosen by the sender
// (steady clock "now" plus the modeled interconnect time when delay
// injection is on). wait_packet() blocks until the packet is published AND
// its wire time has elapsed, so the wall-clock cost of communication is
// *measured* on the receiving lane — the schedule the pipeline simulator in
// dd/pipeline.hpp plays on paper happens here for real: an overlapped
// receiver that arrives after `ready` pays nothing, a synchronous receiver
// pays the full exposed wire time.
//
// Concurrency contract: exactly one sender thread and one receiver thread
// per channel, never the same thread (the engine wires one channel per
// (sender, receiver) pair of distinct lanes, since a lane holds each of its
// dofs once). Two slots are sufficient because a lane can run at most one exchange ahead
// of its neighbor (the next recurrence step's boundary compute needs the
// previous halo). close() poisons the channel: blocked peers wake and throw,
// which is how a lane failure cascades to every lane instead of deadlocking.
//
// Edge semantics (asserted by tests/test_dd.cpp and relied on by the model
// checker's recovery scenarios):
//   * close() is idempotent — closing an already-closed channel is a no-op
//     beyond re-notifying both endpoints; it never throws.
//   * reset() clears poison and in-flight packets and may be called any
//     number of times (including twice in a row, or on a never-used
//     channel); each call leaves the channel in the freshly-initialized
//     state. Both endpoint lanes must be quiescent, as documented below.
//   * a channel sized for zero-value packets (init(wire, 0)) is legal: the
//     full post/wait/release protocol runs with empty payloads (the engine
//     never builds one, but the checker's protocol scenarios may).
//
// Every synchronization edge — mutex acquire, condvar wait/notify, slot
// publish/consume, poison — runs through the schedule-point seam of
// dd/schedule.hpp: plain std primitives in production builds, a pluggable
// cooperative scheduler under -DDFTFE_MODEL_CHECK=ON so the model checker
// (tools/model_check/) can exhaustively enumerate interleavings. Checking
// builds also stamp each published slot with a monotonically increasing
// generation (slot_generation), which is how the checker proves "every
// published buffer is consumed exactly once"; production builds compile none
// of it.
//
// Zero-allocation: both slot buffers are sized once in init(); post/wait/
// release never touch the heap (enforced by tools/lint_invariants.py).

#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <variant>
#include <vector>

#include "base/defs.hpp"
#include "dd/exchange.hpp"
#include "dd/schedule.hpp"
#include "la/workspace.hpp"

#if DFTFE_MODEL_CHECK
#include <array>
#include <cstdint>
#endif

namespace dftfe::dd {

template <class T>
class HaloChannel {
 public:
  using Clock = std::chrono::steady_clock;
  template <Wire W>
  using Unit = typename WireCodec<W, T>::unit;

  /// Size both slots for packets of up to `max_count` values and select the
  /// wire format. Cold path: called once at lane startup (and again only if
  /// a larger block size shows up; ensure_scratch is grow-only).
  void init(Wire wire, index_t max_count) {
    sched::LockGuard lk(mu_);
    wire_ = wire;
    with_codec<T>(wire, [&](auto codec) {
      using Codec = decltype(codec);
      constexpr std::size_t w = static_cast<std::size_t>(Codec::wire);
      for (Slot& s : slots_) {
        if (s.units.index() != w) s.units.template emplace<w>();
        la::ensure_scratch(*std::get_if<w>(&s.units),
                           static_cast<std::size_t>(max_count * Codec::units));
      }
    });
  }

  Wire wire() const { return wire_; }

  /// Drop all in-flight packets and clear the poison flag (job-failure
  /// recovery; both endpoint lanes must be quiescent). Idempotent: calling
  /// it again — or on a channel that was never used — is a no-op that
  /// re-establishes the same fresh state.
  void reset() {
    sched::LockGuard lk(mu_);
    for (Slot& s : slots_) s.full = false;
    head_ = tail_ = 0;
    in_flight_ = 0;
    closed_ = false;
  }

  /// Poison the channel: wake both endpoints; subsequent begin_post() /
  /// wait_packet() calls throw instead of blocking forever on a dead peer.
  /// Idempotent and non-throwing: closing an already-closed channel only
  /// repeats the wakeups.
  void close() {
    {
      sched::LockGuard lk(mu_);
      sched::point(sched::Op::close, this);
      closed_ = true;
    }
    cv_send_.notify_all();
    cv_recv_.notify_all();
  }

  /// Sender: claim the next slot (blocks while both slots are in flight).
  int begin_post() {
    sched::UniqueLock lk(mu_);
    cv_send_.wait(lk, [&] { return closed_ || in_flight_ < kSlots; });
    if (closed_) throw std::runtime_error("dd::HaloChannel: closed (peer lane failed)");
    return tail_;
  }
  /// Sender: slot `s`'s wire storage in format W (the channel's wire()).
  template <Wire W>
  Unit<W>* buf(int s) {
    return std::get_if<static_cast<std::size_t>(W)>(&slots_[s].units)->data();
  }

  /// Publish a packed slot; it becomes receivable once the steady clock
  /// passes `ready` (the sender stamps now + modeled wire time).
  void finish_post(int s, Clock::time_point ready) {
    {
      sched::LockGuard lk(mu_);
      sched::point(sched::Op::publish, this);
      slots_[s].ready = ready;
      slots_[s].full = true;
#if DFTFE_MODEL_CHECK
      // Generation stamp: the checker asserts the consumer sees exactly the
      // sequence 1, 2, 3, ... — a slot reused before release() or published
      // without a bump breaks it. The skip_gen mutant deliberately omits one
      // bump to prove the assertion has teeth.
      if (sched::mutant() == sched::Mutant::skip_gen && !mutant_fired_)
        mutant_fired_ = true;
      else
        ++gen_counter_;
      slots_[s].gen = gen_counter_;
#endif
      tail_ = (tail_ + 1) % kSlots;
      ++in_flight_;
    }
#if DFTFE_MODEL_CHECK
    // drop_notify mutant: swallow this channel's first packet-published
    // notification — the canonical lost-wakeup bug. A receiver already
    // parked in wait_packet() never learns about the packet; the checker
    // must surface the schedule where that blocks forever.
    if (sched::mutant() == sched::Mutant::drop_notify && !mutant_fired_) {
      mutant_fired_ = true;
      return;
    }
#endif
    cv_recv_.notify_one();
  }

  /// Receiver: block until the oldest packet is published, then sleep out
  /// whatever remains of its wire time. Returns the slot index.
  int wait_packet() {
    int s = -1;
    Clock::time_point ready;
    {
      sched::UniqueLock lk(mu_);
      cv_recv_.wait(lk, [&] { return closed_ || slots_[head_].full; });
      if (!slots_[head_].full)
        throw std::runtime_error("dd::HaloChannel: closed (peer lane failed)");
      s = head_;
      ready = slots_[s].ready;
    }
    // Exposed wire time: nothing if the receiver overlapped past `ready`.
    if (ready > Clock::now()) sched::sleep_until(ready);
    return s;
  }
  /// Receiver: the published slot's wire storage in format W.
  template <Wire W>
  const Unit<W>* cbuf(int s) const {
    return std::get_if<static_cast<std::size_t>(W)>(&slots_[s].units)->data();
  }

  /// Receiver: hand the slot back to the sender.
  void release(int s) {
    {
      sched::LockGuard lk(mu_);
      sched::point(sched::Op::consume, this);
      slots_[s].full = false;
      head_ = (head_ + 1) % kSlots;
      --in_flight_;
    }
    cv_send_.notify_one();
  }

#if DFTFE_MODEL_CHECK
  /// Checking builds only: the generation stamped on slot `s` at its last
  /// publish. The consumer-side protocol invariant is that the sequence read
  /// via wait_packet() is exactly 1, 2, 3, ... per channel.
  std::uint64_t slot_generation(int s) const { return slots_[s].gen; }

  /// Checking builds only: every sync object this channel's protocol runs on.
  /// The model checker maps all four addresses to one dependency group, so
  /// sleep-set pruning treats any two operations on the same channel as
  /// dependent (sound) while operations on distinct channels commute.
  std::array<const void*, 4> sched_objects() const {
    return {this, &mu_, &cv_send_, &cv_recv_};
  }
#endif

 private:
  static constexpr int kSlots = 2;
  struct Slot {
    // Typed storage of the channel's format, indexed like Wire.
    std::variant<std::vector<Unit<Wire::fp64>>, std::vector<Unit<Wire::fp32>>,
                 std::vector<Unit<Wire::bf16>>>
        units;
    Clock::time_point ready{};
    bool full = false;
#if DFTFE_MODEL_CHECK
    std::uint64_t gen = 0;
#endif
  };

  mutable sched::Mutex mu_;
  sched::CondVar cv_send_, cv_recv_;
  Slot slots_[kSlots];
  int head_ = 0;  // next slot the receiver consumes
  int tail_ = 0;  // next slot the sender fills
  int in_flight_ = 0;
  bool closed_ = false;
  Wire wire_ = Wire::fp64;
#if DFTFE_MODEL_CHECK
  std::uint64_t gen_counter_ = 0;
  bool mutant_fired_ = false;
#endif
};

}  // namespace dftfe::dd
