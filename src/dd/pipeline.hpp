#pragma once

// Compute/communication pipeline simulator (paper Sec. 5.4.3).
//
// The blocked Chebyshev filter processes wavefunction blocks k = 1..K; each
// block needs a boundary exchange after its cell-level compute. Without
// overlap the wall time is sum(compute_k + comm_k). With the paper's
// asynchronous scheme the exchange of block k proceeds on the communication
// stream while block k+1 computes. This simulator plays that schedule on
// per-block (compute, comm) durations: one compute lane, one communication
// lane, exchange of a block may start once its compute finished and the
// previous exchange drained.
//
// Relationship to the real engine: since the threaded rank engine
// (dd/engine.hpp) runs sync/async halo exchange for real, this simulator is
// the *modeling* tool of the pair — it extrapolates schedules to rank
// counts and interconnects this machine does not have (bench_fig5,
// bench_fig8), and it bounds the engine's measured walls from both sides
// (a measured run must land between simulate_overlap and simulate_sync of
// its own per-step timings; tests/test_engine.cpp asserts this). Feed it
// either modeled (compute, comm) pairs from the CommModel or measured pairs
// from RankEngine::last_step_stats().

#include <algorithm>
#include <vector>

namespace dftfe::dd {

struct BlockTiming {
  double compute = 0.0;
  double comm = 0.0;
};

/// Wall time with blocking (synchronous) exchanges.
inline double simulate_sync(const std::vector<BlockTiming>& blocks) {
  double t = 0.0;
  for (const auto& b : blocks) t += b.compute + b.comm;
  return t;
}

/// Wall time with the async compute/comm overlap schedule.
inline double simulate_overlap(const std::vector<BlockTiming>& blocks) {
  double compute_end = 0.0;
  double comm_end = 0.0;
  for (const auto& b : blocks) {
    compute_end += b.compute;
    const double comm_start = std::max(compute_end, comm_end);
    comm_end = comm_start + b.comm;
  }
  return std::max(compute_end, comm_end);
}

/// Modeled wall time of a flat all-to-root reduction: ranks-1 sequential
/// messages of `message_time` each (latency + bytes/bandwidth, e.g.
/// CommModel::time(bytes, 1)). The reduction schedule the rank engine's gram
/// combine used before the tree allreduce — kept as the comparison baseline
/// for benches and the scaling docs.
inline double allreduce_flat_time(double message_time, int ranks) {
  if (ranks <= 1) return 0.0;
  return static_cast<double>(ranks - 1) * message_time;
}

/// Modeled wall time of the stride-doubling tree allreduce the rank engine
/// runs on its gram partials: ceil(log2(ranks)) rounds of concurrent
/// pairwise combines, each costing one `message_time`. Matches the
/// association order of RankEngine::overlap's reduction and the depth
/// CommModel::allreduce_time charges.
inline double allreduce_tree_time(double message_time, int ranks) {
  if (ranks <= 1) return 0.0;
  int rounds = 0;
  for (int span = 1; span < ranks; span *= 2) ++rounds;
  return static_cast<double>(rounds) * message_time;
}

}  // namespace dftfe::dd
