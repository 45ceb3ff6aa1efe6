#pragma once

// In-job lane allreduce: the reduction plane of the lane-resident PCG
// (dd/engine.hpp). Every lane contributes a few scalars (its partial dot
// products over owned rows) and blocks until all lanes have; the last
// arrival sums the per-lane slots through tree_reduce, the stride-doubling
// tree of the engine's Gram-tree, and every lane reads that one total — so
// every lane holds bitwise-identical totals, takes the same branch on them,
// and no lane can leave the solve loop alone.
//
// Protocol: a generation barrier. A lane writes its contribution into the
// slot set of the current generation's parity, then arrives; the last
// arrival sums the set in place into lane 0's slot, bumps the generation
// and wakes the others. Two slot sets suffice: a lane can only start
// writing generation g+2 after every lane arrived at g+1, which each lane
// does only after it finished reading generation g.
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

/// The stride-doubling pairwise tree over lanes [0, n): for stride 1, 2, 4,
/// ..., add(base, base + stride) folds lane base + stride's partial into
/// lane base's, for every multiple `base` of 2 * stride whose partner is
/// below n. Lane 0's partial ends as the total, in the log2-depth
/// association order a recursive-doubling allreduce pins down (the one
/// CommModel::allreduce_time charges). The engine's Gram-tree and the lane
/// allreduce both reduce through it.
template <class Add>
void tree_reduce(int n, const Add& add) {
  for (int stride = 1; stride < n; stride *= 2)
    for (int base = 0; base + stride < n; base += 2 * stride) add(base, base + stride);
}

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
        tree_reduce(n_, [&](int acc, int part) {
          double* a = slot(g, acc);
          const double* p = slot(g, part);
          for (int k = 0; k < width; ++k) a[k] += p[k];
        });
        arrived_ = 0;
        ++gen_;
        last = true;
      } else {
        cv_.wait(lk, [&] { return gen_ != g || closed_; });
        if (gen_ == g) throw std::runtime_error("dd::LaneAllreduce: closed (peer lane failed)");
      }
    }
    if (last) cv_.notify_all();
    const double* total = slot(g, 0);
    for (int k = 0; k < width; ++k) out[k] = total[k];
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

  sched::Mutex mu_;
  sched::CondVar cv_;
  int n_ = 0;
  int arrived_ = 0;
  std::uint64_t gen_ = 0;
  bool closed_ = false;
  std::vector<double> slots_;  // [parity][lane][kMaxWidth]
};

}  // namespace dftfe::dd
