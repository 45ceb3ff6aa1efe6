#pragma once

// In-job lane allreduce: the reduction plane of the lane-resident PCG
// (dd/engine.hpp). Every lane contributes a few scalars (its partial dot
// products over owned rows) and blocks until all lanes have; then each lane
// sums the per-lane slots itself, in the stride-doubling tree order of the
// engine's Gram-tree — so every lane holds bitwise-identical totals, takes
// the same branch on them, and no lane can leave the solve loop alone.
//
// Protocol: a generation barrier. A lane writes its contribution into the
// slot set of the current generation's parity, then arrives; the last
// arrival bumps the generation and wakes the others. Two slot sets suffice:
// a lane can only start writing generation g+2 after every lane arrived at
// g+1, which each lane does only after it finished reading generation g.
//
// Failure: close() poisons the barrier — blocked lanes wake and throw, later
// arrivals throw at once — which is how a lane failure cascades through the
// reduction plane exactly like it cascades through the HaloChannel mailboxes.
// reset() (all lanes quiescent) restores the fresh state.
//
// Every synchronization edge goes through the schedule-point seam of
// dd/schedule.hpp, so the model checker (tools/model_check/) explores the
// barrier like the mailboxes. Zero-allocation after init().

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dd/schedule.hpp"

#if DFTFE_MODEL_CHECK
#include <array>
#endif

namespace dftfe::dd {

class LaneAllreduce {
 public:
  static constexpr int kMaxWidth = 4;  // scalars per contribution

  /// Size the slots for `nlanes` lanes (cold: once per engine).
  void init(int nlanes) {
    sched::LockGuard lk(mu_);
    n_ = nlanes;
    slots_.assign(static_cast<std::size_t>(2 * nlanes * kMaxWidth), 0.0);
    arrived_ = 0;
    closed_ = false;
  }

  /// Lane `rank` contributes in[0, width); returns once every lane has
  /// contributed to this round, with out[k] the tree sum over lanes. `in` is
  /// read before `out` is written, so the two may alias.
  /// Throws std::runtime_error when the barrier is (or gets) poisoned.
  void allreduce(int rank, const double* in, double* out, int width) {
    std::uint64_t g = 0;
    bool last = false;
    {
      sched::UniqueLock lk(mu_);
      if (closed_) throw std::runtime_error("dd::LaneAllreduce: closed (peer lane failed)");
      g = gen_;
      double* s = slot(g, rank);
      for (int k = 0; k < width; ++k) s[k] = in[k];
      if (++arrived_ >= release_count()) {
        arrived_ = 0;
        ++gen_;
        last = true;
      } else {
        cv_.wait(lk, [&] { return gen_ != g || closed_; });
        if (gen_ == g) throw std::runtime_error("dd::LaneAllreduce: closed (peer lane failed)");
      }
    }
    if (last) cv_.notify_all();
    const double* base = slot(g, 0);
    int span = 1;
    while (span < n_) span *= 2;
    for (int k = 0; k < width; ++k) out[k] = tree_sum(base, k, 0, span);
  }

  /// Poison: wake every blocked lane; they and all later arrivals throw.
  /// Idempotent and non-throwing.
  void close() {
    {
      sched::LockGuard lk(mu_);
      sched::point(sched::Op::close, this);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Clear poison and partial arrivals (every lane quiescent). Idempotent.
  void reset() {
    sched::LockGuard lk(mu_);
    arrived_ = 0;
    closed_ = false;
  }

#if DFTFE_MODEL_CHECK
  /// Checking builds only: the sync objects of the barrier, for the model
  /// checker's dependency groups (see HaloChannel::sched_objects).
  std::array<const void*, 3> sched_objects() const { return {this, &mu_, &cv_}; }
#endif

 private:
  double* slot(std::uint64_t gen, int rank) {
    return slots_.data() + (static_cast<std::size_t>(gen & 1U) * static_cast<std::size_t>(n_) +
                            static_cast<std::size_t>(rank)) *
                               kMaxWidth;
  }

  /// Arrivals that complete a round. The early_release mutant opens the
  /// barrier one arrival early — the bug the model checker must catch.
  int release_count() const {
#if DFTFE_MODEL_CHECK
    if (sched::mutant() == sched::Mutant::early_release && n_ > 1) return n_ - 1;
#endif
    return n_;
  }

  /// Sum of component k over lanes [i, i + span) ∩ [0, n): the pairwise
  /// stride-doubling association of the engine's Gram-tree.
  double tree_sum(const double* base, int k, int i, int span) const {
    if (span == 1) return base[static_cast<std::size_t>(i) * kMaxWidth + k];
    const int half = span / 2;
    double s = tree_sum(base, k, i, half);
    if (i + half < n_) s += tree_sum(base, k, i + half, half);
    return s;
  }

  sched::Mutex mu_;
  sched::CondVar cv_;
  int n_ = 0;
  int arrived_ = 0;
  std::uint64_t gen_ = 0;
  bool closed_ = false;
  std::vector<double> slots_;  // [parity][lane][kMaxWidth]
};

}  // namespace dftfe::dd
