#pragma once

// Fixed dd-protocol scenarios for the model checker (and the passthrough /
// TSan legs). Each one drives real dd::HaloChannel objects through the exact
// call sequence the RankEngine lanes use — begin_post/finish_post on the
// sender side, wait_packet/release on the receiver side, close() for the
// failure cascade, reset() for job-failure recovery — and asserts the
// protocol invariants:
//
//   * no deadlock / no lost wakeup   (the explorer reports any schedule with
//     blocked threads and nothing runnable — this is what catches the
//     drop_notify mutant);
//   * every published buffer consumed exactly once, in order (checking
//     builds stamp slots with generations; consumers assert the sequence
//     1, 2, 3, ... — this is what catches the skip_gen mutant);
//   * payload integrity (each packet's values must be the exact doubles the
//     peer lane wrote for that step — no reuse-before-release corruption);
//   * schedule-independence: per-lane halo and interior accumulators are
//     combined in a fixed order and compared bitwise against a closed-form
//     reference, so sync and async bodies must agree bitwise with each other
//     and across every explored schedule;
//   * poison always cascades: a lane hard-failing mid-exchange (the drift-
//     budget overrun path) closes its channels, and every peer either
//     completes (its packets were already published) or observes the poison
//     — never blocks forever;
//   * reset()-after-poison yields a channel indistinguishable from fresh.
//
// Determinism contract (required by replay): bodies branch only on program
// order and channel values — no wall clock, no randomness. Senders stamp
// `ready = now()` so the wire-delay gate in wait_packet() is already in the
// past; under the controlled scheduler sleep_until is a no-op anyway.

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dd/allreduce.hpp"
#include "dd/mailbox.hpp"
#include "harness.hpp"

namespace dftfe::mc::scenarios {

using Channel = dd::HaloChannel<double>;

constexpr int kPlane = 3;  // values per halo packet

/// The exact payload lane `tid` sends at `step` — any schedule-dependent
/// corruption (slot reuse before release, wrong slot) breaks equality.
inline double lane_value(int tid, int step, int k) {
  return std::sin(1.0 + 3.7 * tid + 1.3 * step) + 0.25 * k;
}

/// Per-packet payload sum in the exact association order RecvCheck::consume
/// accumulates it — references must add whole packets, not re-associate the
/// flat double sum, or the bitwise check trips on rounding, not on bugs.
inline double packet_sum(int tid, int step) {
  double s = 0.0;
  for (int k = 0; k < kPlane; ++k) s += lane_value(tid, step, k);
  return s;
}

inline void post_packet(Channel& ch, int tid, int step) {
  const int s = ch.begin_post();
  double* b = ch.buf<dd::Wire::fp64>(s);
  for (int k = 0; k < kPlane; ++k) b[k] = lane_value(tid, step, k);
  ch.finish_post(s, Channel::Clock::now());
}

/// Consumer-side invariant tracker for one channel: generation sequencing
/// (checking builds) + exact payload. Returns the packet's payload sum.
struct RecvCheck {
  std::uint64_t consumed = 0;

  double consume(Channel& ch, int from_tid, int step) {
    const int s = ch.wait_packet();
    ++consumed;
#if DFTFE_MODEL_CHECK
    if (ch.slot_generation(s) != consumed) {
      std::ostringstream os;
      os << "buffer generation mismatch: consumed packet #" << consumed
         << " carries generation " << ch.slot_generation(s)
         << " (a published buffer was lost, duplicated, or reused before release)";
      throw InvariantViolation(os.str());
    }
#endif
    const double* b = ch.cbuf<dd::Wire::fp64>(s);
    double sum = 0.0;
    for (int k = 0; k < kPlane; ++k) {
      if (b[k] != lane_value(from_tid, step, k))
        throw InvariantViolation("halo payload mismatch: wrong or corrupted packet");
      sum += b[k];
    }
    ch.release(s);
    return sum;
  }
};

// ---------------------------------------------------------------------------
// 2-lane halo exchange, sync and async bodies.

struct Halo2State {
  Channel up;  // lane0 -> lane1
  Channel dn;  // lane1 -> lane0
  int nsteps = 2;
  bool async = false;
  RecvCheck rc[2];
  double halo[2] = {0.0, 0.0};      // received-boundary accumulator
  double interior[2] = {0.0, 0.0};  // local-compute accumulator
};

inline std::shared_ptr<Halo2State> halo2_setup(Registrar& reg, int nsteps, bool async) {
  auto st = std::make_shared<Halo2State>();
  st->up.init(dd::Wire::fp64, kPlane);
  st->dn.init(dd::Wire::fp64, kPlane);
  st->nsteps = nsteps;
  st->async = async;
  reg.channel(st->up, "ch[0->1]");
  reg.channel(st->dn, "ch[1->0]");
  return st;
}

inline void halo2_body(Halo2State& st, int tid) {
  Channel& out = (tid == 0) ? st.up : st.dn;
  Channel& in = (tid == 0) ? st.dn : st.up;
  const int peer = 1 - tid;
  for (int step = 0; step < st.nsteps; ++step) {
    post_packet(out, tid, step);
    if (st.async) {
      // Overlapped interior work between post and receive (the async
      // engine's interior sweep). Separate accumulator: the final per-lane
      // result is combined in a fixed order, so sync and async must agree
      // bitwise across every schedule.
      st.interior[tid] += 1e-3 * lane_value(tid, step, 0);
      st.halo[tid] += st.rc[tid].consume(in, peer, step);
    } else {
      st.halo[tid] += st.rc[tid].consume(in, peer, step);
      st.interior[tid] += 1e-3 * lane_value(tid, step, 0);
    }
  }
}

inline void halo2_check(Halo2State& st) {
  for (int tid = 0; tid < 2; ++tid) {
    double ref_halo = 0.0, ref_interior = 0.0;
    for (int step = 0; step < st.nsteps; ++step) {
      ref_halo += packet_sum(1 - tid, step);
      ref_interior += 1e-3 * lane_value(tid, step, 0);
    }
    if (st.halo[tid] + st.interior[tid] != ref_halo + ref_interior)
      throw InvariantViolation(
          "lane result depends on the schedule (sync/async bitwise divergence)");
    if (st.rc[tid].consumed != static_cast<std::uint64_t>(st.nsteps))
      throw InvariantViolation("published buffers were not each consumed exactly once");
  }
}

inline Scenario halo2_scenario(int nsteps, bool async, const char* name = nullptr) {
  return make_scenario<Halo2State>(
      name != nullptr ? name : (async ? "halo_async_2" : "halo_sync_2"),
      async ? "2-lane async halo exchange (overlapped interior compute)"
            : "2-lane sync halo exchange",
      2,
      [nsteps, async](Registrar& reg) { return halo2_setup(reg, nsteps, async); },
      halo2_body, halo2_check);
}

// ---------------------------------------------------------------------------
// Double-buffer reuse under backpressure: sender outruns the receiver and
// must park on cv_send_ until release() recycles a slot.

struct BackpressureState {
  Channel ch;
  int nposts = 4;
  RecvCheck rc;
  double halo = 0.0;
};

inline Scenario backpressure_scenario(int nposts) {
  return make_scenario<BackpressureState>(
      "backpressure", "double-buffer reuse: sender blocks on slot recycling", 2,
      [nposts](Registrar& reg) {
        auto st = std::make_shared<BackpressureState>();
        st->ch.init(dd::Wire::fp64, kPlane);
        st->nposts = nposts;
        reg.channel(st->ch, "ch[0->1]");
        return st;
      },
      [](BackpressureState& st, int tid) {
        if (tid == 0)
          for (int step = 0; step < st.nposts; ++step) post_packet(st.ch, 0, step);
        else
          for (int step = 0; step < st.nposts; ++step)
            st.halo += st.rc.consume(st.ch, 0, step);
      },
      [](BackpressureState& st) {
        double ref = 0.0;
        for (int step = 0; step < st.nposts; ++step) ref += packet_sum(0, step);
        if (st.halo != ref) throw InvariantViolation("backpressure: payload sum mismatch");
        if (st.rc.consumed != static_cast<std::uint64_t>(st.nposts))
          throw InvariantViolation("backpressure: publish/consume count mismatch");
      });
}

// ---------------------------------------------------------------------------
// close() racing a blocked waiter: the receiver parks on an empty channel
// and the peer poisons it — in every schedule the receiver must unblock and
// throw, never hang (a lost close-notification would deadlock here).

struct CloseRaceState {
  Channel ch;
  bool receiver_threw = false;
};

inline Scenario close_waiter_scenario() {
  return make_scenario<CloseRaceState>(
      "close_waiter", "close() races a receiver blocked on an empty channel", 2,
      [](Registrar& reg) {
        auto st = std::make_shared<CloseRaceState>();
        st->ch.init(dd::Wire::fp64, kPlane);
        reg.channel(st->ch, "ch[0->1]");
        return st;
      },
      [](CloseRaceState& st, int tid) {
        if (tid == 0) {
          st.ch.close();
        } else {
          try {
            (void)st.ch.wait_packet();
          } catch (const InvariantViolation&) {
            throw;
          } catch (const std::runtime_error&) {
            st.receiver_threw = true;
          }
        }
      },
      [](CloseRaceState& st) {
        if (!st.receiver_threw)
          throw InvariantViolation("close() did not poison the blocked waiter");
      });
}

// In-flight packet vs close(): data published before the poison must still
// be deliverable (the failure cascade may not drop completed exchanges);
// the wait after it must throw.

struct ClosePostState {
  Channel ch;
  RecvCheck rc;
  double halo = 0.0;
  bool second_wait_threw = false;
};

inline Scenario close_racing_post_scenario() {
  return make_scenario<ClosePostState>(
      "close_racing_post", "close() chases one in-flight packet", 2,
      [](Registrar& reg) {
        auto st = std::make_shared<ClosePostState>();
        st->ch.init(dd::Wire::fp64, kPlane);
        reg.channel(st->ch, "ch[0->1]");
        return st;
      },
      [](ClosePostState& st, int tid) {
        if (tid == 0) {
          post_packet(st.ch, 0, 0);
          st.ch.close();
        } else {
          st.halo += st.rc.consume(st.ch, 0, 0);
          try {
            (void)st.ch.wait_packet();
          } catch (const InvariantViolation&) {
            throw;
          } catch (const std::runtime_error&) {
            st.second_wait_threw = true;
          }
        }
      },
      [](ClosePostState& st) {
        if (st.rc.consumed != 1)
          throw InvariantViolation("pre-close packet was not delivered");
        if (!st.second_wait_threw)
          throw InvariantViolation("post-close wait did not observe the poison");
      });
}

// ---------------------------------------------------------------------------
// Drift-budget hard-fail mid-exchange: lane0 posts its halo, then detects a
// drift overrun and hard-fails — closing both its channels exactly like
// RankEngine::close_lane_channels — while lane1's reply may still be in
// flight and lane1 may be anywhere in its own exchange. Lane1 must either
// finish the step (lane0's packet was already published, so delivery is
// guaranteed) or observe the poison; the explorer proves no schedule
// deadlocks. The post-run check then exercises reset()-after-poison
// recovery on the same channels, with the dropped in-flight reply.

struct DriftState {
  Channel up, dn;
  RecvCheck rc[2];
  double halo[2] = {0.0, 0.0};
  bool lane0_failed = false;
  bool lane1_poisoned = false;
  int completed1 = 0;  // steps lane1 fully finished
};

inline Scenario drift_fail_scenario() {
  return make_scenario<DriftState>(
      "drift_fail", "drift-budget hard-fail mid-exchange poisons both channels", 2,
      [](Registrar& reg) {
        auto st = std::make_shared<DriftState>();
        st->up.init(dd::Wire::fp64, kPlane);
        st->dn.init(dd::Wire::fp64, kPlane);
        reg.channel(st->up, "ch[0->1]");
        reg.channel(st->dn, "ch[1->0]");
        return st;
      },
      [](DriftState& st, int tid) {
        try {
          if (tid == 0) {
            post_packet(st.up, 0, 0);
            // Drift overrun detected mid-exchange: hard-fail and cascade,
            // mirroring RankEngine's close_lane_channels. Lane1's reply on
            // `dn` is abandoned in flight.
            st.lane0_failed = true;
            st.up.close();
            st.dn.close();
          } else {
            post_packet(st.dn, 1, 0);
            st.halo[1] += st.rc[1].consume(st.up, 0, 0);
            ++st.completed1;
          }
        } catch (const InvariantViolation&) {
          throw;
        } catch (const std::runtime_error&) {
          if (tid == 1) st.lane1_poisoned = true;
        }
      },
      [](DriftState& st) {
        if (!st.lane0_failed)
          throw InvariantViolation("drift overrun path did not run");
        if (!st.lane1_poisoned && st.completed1 != 1)
          throw InvariantViolation(
              "peer lane neither completed nor observed the poison cascade");
        // reset()-after-poison recovery: both endpoints quiescent now; the
        // channels must come back indistinguishable from fresh (modulo the
        // running generation counter, so assert payload, not generations).
        st.up.reset();
        st.dn.reset();
        for (Channel* ch : {&st.up, &st.dn}) {
          const int s = ch->begin_post();
          double* b = ch->buf<dd::Wire::fp64>(s);
          for (int k = 0; k < kPlane; ++k) b[k] = lane_value(9, 9, k);
          ch->finish_post(s, Channel::Clock::now());
          const int r = ch->wait_packet();
          for (int k = 0; k < kPlane; ++k)
            if (ch->cbuf<dd::Wire::fp64>(r)[k] != lane_value(9, 9, k))
              throw InvariantViolation("reset() recovery delivered a corrupted packet");
          ch->release(r);
        }
      });
}

// ---------------------------------------------------------------------------
// reset()-after-poison reuse under exploration: channels are poisoned and
// recovered *cold* in setup, then a full sync exchange must behave exactly
// like on fresh channels, across every schedule.

inline Scenario reset_reuse_scenario() {
  return make_scenario<Halo2State>(
      "reset_reuse", "poisoned-then-reset() channels behave like fresh ones", 2,
      [](Registrar& reg) {
        auto st = halo2_setup(reg, /*nsteps=*/1, /*async=*/false);
        st->up.close();
        st->dn.close();
        st->up.reset();
        st->dn.reset();
        return st;
      },
      halo2_body, halo2_check);
}

// ---------------------------------------------------------------------------
// 3- and 4-lane halo chains (non-periodic): each lane posts to every
// neighbor before receiving from every neighbor, the real engine ordering
// that makes the exchange deadlock-free. Channel objects live behind
// unique_ptr because HaloChannel is not movable.

struct ChainState {
  int n = 3;
  int nsteps = 1;
  std::vector<std::unique_ptr<Channel>> fwd;  // i -> i+1
  std::vector<std::unique_ptr<Channel>> bwd;  // i+1 -> i
  std::vector<RecvCheck> rc_lo, rc_hi;        // per-lane: from left / from right
  std::vector<double> halo;
};

inline Scenario chain_scenario(int nlanes, int nsteps) {
  std::ostringstream nm;
  nm << "halo_chain_" << nlanes;
  return make_scenario<ChainState>(
      nm.str(), "multi-lane halo chain, post-all-then-receive-all ordering", nlanes,
      [nlanes, nsteps](Registrar& reg) {
        auto st = std::make_shared<ChainState>();
        st->n = nlanes;
        st->nsteps = nsteps;
        st->rc_lo.resize(static_cast<std::size_t>(nlanes));
        st->rc_hi.resize(static_cast<std::size_t>(nlanes));
        st->halo.assign(static_cast<std::size_t>(nlanes), 0.0);
        for (int i = 0; i + 1 < nlanes; ++i) {
          st->fwd.push_back(std::make_unique<Channel>());
          st->bwd.push_back(std::make_unique<Channel>());
          st->fwd.back()->init(dd::Wire::fp64, kPlane);
          st->bwd.back()->init(dd::Wire::fp64, kPlane);
          std::ostringstream f, b;
          f << "ch[" << i << "->" << i + 1 << "]";
          b << "ch[" << i + 1 << "->" << i << "]";
          reg.channel(*st->fwd.back(), f.str());
          reg.channel(*st->bwd.back(), b.str());
        }
        return st;
      },
      [](ChainState& st, int tid) {
        const std::size_t u = static_cast<std::size_t>(tid);
        for (int step = 0; step < st.nsteps; ++step) {
          if (tid > 0) post_packet(*st.bwd[u - 1], tid, step);
          if (tid + 1 < st.n) post_packet(*st.fwd[u], tid, step);
          if (tid > 0) st.halo[u] += st.rc_lo[u].consume(*st.fwd[u - 1], tid - 1, step);
          if (tid + 1 < st.n) st.halo[u] += st.rc_hi[u].consume(*st.bwd[u], tid + 1, step);
        }
      },
      [](ChainState& st) {
        for (int tid = 0; tid < st.n; ++tid) {
          double ref = 0.0;
          for (int step = 0; step < st.nsteps; ++step) {
            if (tid > 0) ref += packet_sum(tid - 1, step);
            if (tid + 1 < st.n) ref += packet_sum(tid + 1, step);
          }
          if (st.halo[static_cast<std::size_t>(tid)] != ref)
            throw InvariantViolation("chain: lane halo sum depends on the schedule");
        }
      });
}

// ---------------------------------------------------------------------------
// 2x2 brick exchange: four lanes in an x-y brick grid, each posting to (and
// receiving from) THREE peers per step — the two face neighbors plus the
// diagonal one, every lane it shares a dof with — through twelve
// HaloChannels, one per (sender, receiver) pair. This is the RankEngine
// mailbox topology scaled down to the smallest grid where a lane has more
// than two peers. Posts and receives both walk the peers in rank order, the
// engine's order that makes sync and async schedules bitwise identical:
// lane 0 visits 1, 2, 3; lane 1 visits 0, 2, 3; lane 2 visits 0, 1, 3;
// lane 3 visits 0, 1, 2.
//
// Each of the twelve channels carries a *distinct* payload (virtual sender
// id 4*r + q on channel r -> q), so a packet mis-routed between a face and
// the diagonal channel of the same sender fails the payload check instead of
// aliasing; the RecvCheck generation stamps assert every published buffer is
// consumed exactly once per channel (publish-once).

constexpr int kBrickLanes = 4;
inline int brick_vtid(int r, int q) { return kBrickLanes * r + q; }

/// The twelve channels: out[r][q] carries lane r's packet to peer q (q != r).
using BrickChannels = std::unique_ptr<Channel>[kBrickLanes][kBrickLanes];

inline void brick4_wire(Registrar& reg, BrickChannels& out) {
  for (int r = 0; r < kBrickLanes; ++r)
    for (int q = 0; q < kBrickLanes; ++q) {
      if (q == r) continue;
      out[r][q] = std::make_unique<Channel>();
      out[r][q]->init(dd::Wire::fp64, kPlane);
      std::ostringstream nm;
      nm << "ch[" << r << "->" << q << "]";
      reg.channel(*out[r][q], nm.str());
    }
}

struct Brick4State {
  BrickChannels out;
  int nsteps = 1;
  bool async = false;
  RecvCheck rc[kBrickLanes][kBrickLanes];  // rc[r][q]: lane r's check of q's packets
  double halo[kBrickLanes] = {0.0, 0.0, 0.0, 0.0};
  double interior[kBrickLanes] = {0.0, 0.0, 0.0, 0.0};
};

inline std::shared_ptr<Brick4State> brick4_setup(Registrar& reg, int nsteps, bool async) {
  auto st = std::make_shared<Brick4State>();
  st->nsteps = nsteps;
  st->async = async;
  brick4_wire(reg, st->out);
  return st;
}

inline void brick4_body(Brick4State& st, int tid) {
  for (int step = 0; step < st.nsteps; ++step) {
    for (int q = 0; q < kBrickLanes; ++q)
      if (q != tid) post_packet(*st.out[tid][q], brick_vtid(tid, q), step);
    if (st.async)  // overlapped interior sweep between post-all and recv-all
      st.interior[tid] += 1e-3 * lane_value(tid, step, 0);
    for (int q = 0; q < kBrickLanes; ++q)
      if (q != tid)
        st.halo[tid] += st.rc[tid][q].consume(*st.out[q][tid], brick_vtid(q, tid), step);
    if (!st.async)
      st.interior[tid] += 1e-3 * lane_value(tid, step, 0);
  }
}

inline void brick4_check(Brick4State& st) {
  for (int tid = 0; tid < kBrickLanes; ++tid) {
    double ref_halo = 0.0, ref_interior = 0.0;
    for (int step = 0; step < st.nsteps; ++step) {
      for (int q = 0; q < kBrickLanes; ++q)
        if (q != tid) ref_halo += packet_sum(brick_vtid(q, tid), step);
      ref_interior += 1e-3 * lane_value(tid, step, 0);
    }
    if (st.halo[tid] + st.interior[tid] != ref_halo + ref_interior)
      throw InvariantViolation(
          "brick: lane result depends on the schedule (sync/async bitwise divergence)");
    for (int q = 0; q < kBrickLanes; ++q)
      if (q != tid && st.rc[tid][q].consumed != static_cast<std::uint64_t>(st.nsteps))
        throw InvariantViolation(
            "brick: published buffers were not each consumed exactly once");
  }
}

inline Scenario brick4_scenario(int nsteps, bool async) {
  return make_scenario<Brick4State>(
      async ? "brick_async_2x2" : "brick_sync_2x2",
      async ? "2x2 brick exchange, async: 4 lanes x 3 peer channels, overlapped interior"
            : "2x2 brick exchange, sync: 4 lanes x 3 peer channels (face+face+diagonal)",
      kBrickLanes,
      [nsteps, async](Registrar& reg) { return brick4_setup(reg, nsteps, async); },
      brick4_body, brick4_check);
}

// Poison cascade across more than two peer channels: lane 0 publishes its
// three halos, then hard-fails (the drift-budget overrun path) and closes
// all six of its channels, exactly like RankEngine's lane teardown. A peer
// that trips on the poison closes ITS six channels in turn — the cascade —
// because a poisoned lane that silently stopped posting would deadlock the
// peers it never failed toward (lanes 1, 2 and 3 also wait on each other).
// Every lane walks its peers in rank order, as the engine does. The explorer
// proves that under every schedule each lane either completes its step
// (lane 0's packets were already published, so delivery is guaranteed) or
// observes the poison — never blocks forever.

struct BrickDriftState {
  BrickChannels out;
  RecvCheck rc[kBrickLanes][kBrickLanes];
  double halo[kBrickLanes] = {0.0, 0.0, 0.0, 0.0};
  bool lane0_failed = false;
  bool completed[kBrickLanes] = {false, false, false, false};
  bool poisoned[kBrickLanes] = {false, false, false, false};
};

inline Scenario brick4_drift_scenario() {
  return make_scenario<BrickDriftState>(
      "brick_drift_2x2",
      "lane hard-fail in a 2x2 brick: poison must cascade across 3 peer channels",
      kBrickLanes,
      [](Registrar& reg) {
        auto st = std::make_shared<BrickDriftState>();
        brick4_wire(reg, st->out);
        return st;
      },
      [](BrickDriftState& st, int tid) {
        // close() is idempotent, so concurrent cascades may overlap.
        const auto close_all = [&st](int r) {
          for (int q = 0; q < kBrickLanes; ++q)
            if (q != r) {
              st.out[r][q]->close();  // my outbound channels
              st.out[q][r]->close();  // my inbound channels
            }
        };
        try {
          for (int q = 0; q < kBrickLanes; ++q)
            if (q != tid) post_packet(*st.out[tid][q], brick_vtid(tid, q), 0);
          if (tid == 0) {
            // Drift overrun detected after the posts: hard-fail and close
            // every channel this lane touches, RankEngine-style.
            st.lane0_failed = true;
            close_all(0);
            return;
          }
          for (int q = 0; q < kBrickLanes; ++q)
            if (q != tid)
              st.halo[tid] += st.rc[tid][q].consume(*st.out[q][tid], brick_vtid(q, tid), 0);
          st.completed[tid] = true;
        } catch (const InvariantViolation&) {
          throw;
        } catch (const std::runtime_error&) {
          st.poisoned[tid] = true;
          close_all(tid);  // cascade: my neighbors must not wait on me
        }
      },
      [](BrickDriftState& st) {
        if (!st.lane0_failed)
          throw InvariantViolation("brick drift: overrun path did not run");
        for (int tid = 1; tid < kBrickLanes; ++tid)
          if (!st.completed[tid] && !st.poisoned[tid])
            throw InvariantViolation(
                "brick drift: a lane neither completed nor observed the poison cascade");
      });
}

// ---------------------------------------------------------------------------
// Lane allreduce (dd/allreduce.hpp): the reduction plane of the engine's
// lane-resident PCG. N lanes run back-to-back reduction rounds — more rounds
// than the two parity slot sets, so every slot set is reused — and in every
// schedule every lane must receive, every round, exactly the stride-doubling
// tree sum of all lanes' contributions: bitwise, and so identical on every
// lane (the property that keeps the lanes' CG exit branches in lockstep).
// The seeded early_release mutant (the barrier opens on the second-to-last
// arrival) lets a lane sum a slot its last peer has not written yet.

constexpr int kReduceWidth = 2;

/// Reference: the stride-doubling tree sum over lanes [i, i + span) ∩ [0, n).
inline double reduce_reference(int n, int round, int k, int i, int span) {
  if (span == 1) return lane_value(i, round, k);
  const int half = span / 2;
  double s = reduce_reference(n, round, k, i, half);
  if (i + half < n) s += reduce_reference(n, round, k, i + half, half);
  return s;
}

inline double reduce_reference(int n, int round, int k) {
  int span = 1;
  while (span < n) span *= 2;
  return reduce_reference(n, round, k, 0, span);
}

struct ReduceState {
  dd::LaneAllreduce bar;
  int n = 2;
  int rounds = 3;
  std::vector<double> got;  // [lane][round][k]
};

inline Scenario allreduce_scenario(int nlanes, int rounds, bool poisoned_first = false) {
  std::ostringstream nm;
  nm << (poisoned_first ? "allreduce_reset_reuse_" : "allreduce_") << nlanes;
  return make_scenario<ReduceState>(
      nm.str(),
      poisoned_first ? "poisoned-then-reset() allreduce barrier behaves like a fresh one"
                     : "lane allreduce: back-to-back rounds reuse both parity slot sets",
      nlanes,
      [nlanes, rounds, poisoned_first](Registrar& reg) {
        auto st = std::make_shared<ReduceState>();
        st->n = nlanes;
        st->rounds = rounds;
        st->bar.init(nlanes);
        if (poisoned_first) {
          st->bar.close();
          st->bar.reset();
        }
        st->got.assign(static_cast<std::size_t>(nlanes * rounds * kReduceWidth), 0.0);
        reg.channel(st->bar, "allreduce");
        return st;
      },
      [](ReduceState& st, int tid) {
        for (int round = 0; round < st.rounds; ++round) {
          double in[kReduceWidth];
          for (int k = 0; k < kReduceWidth; ++k) in[k] = lane_value(tid, round, k);
          double* out = st.got.data() + (tid * st.rounds + round) * kReduceWidth;
          st.bar.allreduce(tid, in, out, kReduceWidth);
        }
      },
      [](ReduceState& st) {
        for (int tid = 0; tid < st.n; ++tid)
          for (int round = 0; round < st.rounds; ++round)
            for (int k = 0; k < kReduceWidth; ++k)
              if (st.got[static_cast<std::size_t>((tid * st.rounds + round) * kReduceWidth + k)] !=
                  reduce_reference(st.n, round, k))
                throw InvariantViolation(
                    "allreduce: a lane received something other than the tree sum of every "
                    "lane's contribution (barrier opened before the last arrival?)");
      });
}

// Lane hard-fail while its peers block in the barrier: every lane completes
// round 0, then lane 0 fails instead of contributing to round 1 and poisons
// the barrier, RankEngine-style. Each peer must observe the poison (nobody
// can complete a round lane 0 never joined) and cascades it by closing the
// barrier itself — never blocking forever. Recovery through reset() is the
// allreduce_reset_reuse scenario.

struct ReducePoisonState {
  dd::LaneAllreduce bar;
  int n = 3;
  bool lane0_failed = false;
  int round0_ok[4] = {0, 0, 0, 0};
  int completed1[4] = {0, 0, 0, 0};
  int poisoned[4] = {0, 0, 0, 0};
};

inline Scenario allreduce_poison_scenario(int nlanes) {
  std::ostringstream nm;
  nm << "allreduce_poison_" << nlanes;
  return make_scenario<ReducePoisonState>(
      nm.str(), "lane hard-fails while its peers block in the allreduce barrier", nlanes,
      [nlanes](Registrar& reg) {
        auto st = std::make_shared<ReducePoisonState>();
        st->n = nlanes;
        st->bar.init(nlanes);
        reg.channel(st->bar, "allreduce");
        return st;
      },
      [](ReducePoisonState& st, int tid) {
        double in[kReduceWidth], out[kReduceWidth];
        try {
          for (int k = 0; k < kReduceWidth; ++k) in[k] = lane_value(tid, 0, k);
          st.bar.allreduce(tid, in, out, kReduceWidth);
          st.round0_ok[tid] =
              (out[0] == reduce_reference(st.n, 0, 0) && out[1] == reduce_reference(st.n, 0, 1));
          if (tid == 0) {
            st.lane0_failed = true;
            st.bar.close();
            return;
          }
          for (int k = 0; k < kReduceWidth; ++k) in[k] = lane_value(tid, 1, k);
          st.bar.allreduce(tid, in, out, kReduceWidth);
          st.completed1[tid] = 1;
        } catch (const InvariantViolation&) {
          throw;
        } catch (const std::runtime_error&) {
          st.poisoned[tid] = 1;
          st.bar.close();  // cascade: idempotent
        }
      },
      [](ReducePoisonState& st) {
        if (!st.lane0_failed) throw InvariantViolation("allreduce poison: failure path did not run");
        for (int tid = 0; tid < st.n; ++tid)
          if (!st.round0_ok[tid])
            throw InvariantViolation("allreduce poison: round 0 sum wrong before the failure");
        for (int tid = 1; tid < st.n; ++tid)
          if (st.completed1[tid] || !st.poisoned[tid])
            throw InvariantViolation(
                "allreduce poison: a peer completed a round the failed lane never joined, or "
                "missed the poison");
      });
}

// ---------------------------------------------------------------------------
// The suite. `quick` marks the scenarios the README verify step and the CI
// time budget lean on; the per-scenario options keep the 3-4 lane sweeps
// bounded (preemption bound + caps) while the acceptance-gate scenarios run
// unbounded and exhaustive.

struct ScenarioSpec {
  Scenario scenario;
  // Mirrors mc::ExploreOptions, duplicated here so this header stays usable
  // in production builds where cooperative.hpp cannot be included.
  int preemption_bound = -1;
  long max_schedules = 200000;
  double max_seconds = 45.0;
  bool quick = false;
};

inline std::vector<ScenarioSpec> all_scenarios() {
  std::vector<ScenarioSpec> specs;
  specs.push_back({halo2_scenario(2, false), -1, 200000, 45.0, true});
  specs.push_back({halo2_scenario(2, true), -1, 200000, 45.0, true});
  // One-step exchange: the sharpest lost-wakeup probe. A single dropped
  // packet-published notify self-heals in the multi-step scenarios (the next
  // publish re-wakes the parked receiver) but is fatal here, so the seeded
  // drop_notify mutant leg runs against this one.
  specs.push_back({halo2_scenario(1, false, "halo_sync_2_min"), -1, 50000, 15.0, true});
  specs.push_back({backpressure_scenario(3), -1, 200000, 30.0, true});
  specs.push_back({close_waiter_scenario(), -1, 50000, 15.0, true});
  specs.push_back({close_racing_post_scenario(), -1, 50000, 15.0, false});
  specs.push_back({drift_fail_scenario(), -1, 200000, 30.0, false});
  specs.push_back({reset_reuse_scenario(), -1, 100000, 20.0, false});
  specs.push_back({chain_scenario(3, 1), -1, 150000, 40.0, false});
  specs.push_back({chain_scenario(4, 1), 2, 150000, 40.0, false});
  // The 2x2 brick sweeps: 4 lanes x 12 channels is far past exhaustive
  // exploration, so they run preemption-bounded like halo_chain_4. The sync
  // exchange and the poison cascade are quick (the brick engine's CI gate);
  // the async body re-proves the same bitwise property and stays in the
  // full sweep. The seeded lost-corner-notify mutant leg runs drop-notify
  // against brick_sync_2x2: one step means no later publish heals a
  // swallowed notify on any of the twelve (face or diagonal) channels.
  specs.push_back({brick4_scenario(1, false), 2, 120000, 40.0, true});
  specs.push_back({brick4_scenario(1, true), 2, 120000, 40.0, false});
  specs.push_back({brick4_drift_scenario(), 2, 120000, 40.0, true});
  // The lane allreduce of the lane-resident PCG. One barrier object is one
  // dependency group, so sleep sets prune little: the 2- and 3-lane sweeps
  // and the poison cascade are the quick gate; 4 lanes run
  // preemption-bounded. The seeded early-release mutant leg runs against
  // allreduce_3.
  specs.push_back({allreduce_scenario(2, 3), -1, 200000, 30.0, true});
  specs.push_back({allreduce_scenario(3, 3), 2, 150000, 40.0, true});
  specs.push_back({allreduce_scenario(4, 2), 2, 120000, 40.0, false});
  specs.push_back({allreduce_poison_scenario(3), 2, 150000, 30.0, true});
  specs.push_back({allreduce_scenario(3, 2, /*poisoned_first=*/true), 2, 100000, 30.0, false});
  return specs;
}

}  // namespace dftfe::mc::scenarios
