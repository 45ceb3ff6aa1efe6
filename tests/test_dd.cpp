// Tests for the domain-decomposition layer: brick partitioning and lane-grid
// factorization, the interconnect model, the pipeline simulator, and the
// halo mailbox's documented edge semantics (idempotent close, repeatable
// reset, zero-capacity packets). Wire formats and halo byte accounting are
// exercised end to end on the rank engine in tests/test_engine.cpp. The mailbox's
// full concurrency protocol is model-checked in tests/test_model_check.cpp;
// here the edges are pinned single-threaded so the contract holds even where
// the checker's scenarios never push a schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "dd/exchange.hpp"
#include "dd/mailbox.hpp"
#include "dd/pipeline.hpp"
#include "dd/partition.hpp"
#include "fe/dofs.hpp"
#include "fe/mesh.hpp"

namespace dftfe::dd {
namespace {

TEST(BrickPartition, BricksTileCellGridDisjointly) {
  for (const bool periodic : {false, true}) {
    const auto mesh = fe::make_uniform_mesh(4.0, 4, periodic);
    const fe::DofHandler dofh(mesh, 3);
    for (const std::array<int, 3> grid : {std::array<int, 3>{2, 2, 1},
                                          std::array<int, 3>{2, 1, 2},
                                          std::array<int, 3>{2, 2, 2},
                                          std::array<int, 3>{4, 1, 1},
                                          std::array<int, 3>{1, 3, 2}}) {
      const auto part = BrickPartition::cell_aligned(dofh, grid);
      ASSERT_EQ(part.nranks(), grid[0] * grid[1] * grid[2]);
      EXPECT_EQ(part.grid(), grid);
      // Per axis, the bricks of each grid line tile [0, ncells) in order,
      // cell-aligned by construction (ranges are in cells, not dof planes).
      for (int r = 0; r < part.nranks(); ++r) {
        const auto c = part.coords(r);
        EXPECT_EQ(part.rank_of(c[0], c[1], c[2]), r);
        const Brick& b = part.brick(r);
        for (int a = 0; a < 3; ++a) {
          EXPECT_GT(b.c_end[a], b.c_begin[a]);
          // Neighbors along axis a share the boundary exactly.
          if (c[a] + 1 < grid[a]) {
            auto nc = c;
            ++nc[a];
            const Brick& nb = part.brick(part.rank_of(nc[0], nc[1], nc[2]));
            EXPECT_EQ(b.c_end[a], nb.c_begin[a]);
          } else {
            EXPECT_EQ(b.c_end[a], part.ncells(a));
          }
          if (c[a] == 0) {
            EXPECT_EQ(b.c_begin[a], 0);
          }
        }
      }
      // Total cell volume of the bricks equals the mesh volume (disjoint
      // per-axis ranges + the tiling above make this a partition).
      index_t vol = 0;
      for (int r = 0; r < part.nranks(); ++r) {
        const Brick& b = part.brick(r);
        vol += (b.c_end[0] - b.c_begin[0]) * (b.c_end[1] - b.c_begin[1]) *
               (b.c_end[2] - b.c_begin[2]);
      }
      EXPECT_EQ(vol, part.ncells(0) * part.ncells(1) * part.ncells(2));
    }
  }
}

TEST(BrickPartition, DegenerateZGridMatchesCellAlignedSlabs) {
  // A {1, 1, N} grid is the z-slab layout: lane r owns every x/y cell and
  // the cell layers [ncz*r/N, ncz*(r+1)/N), which tile [0, ncz) in order.
  const auto mesh = fe::make_uniform_mesh(4.0, 5, false);
  const fe::DofHandler dofh(mesh, 3);
  const index_t ncz = mesh.ncells(2);
  for (const int n : {1, 2, 3, 5}) {
    const auto brick = BrickPartition::cell_aligned(dofh, {1, 1, n});
    ASSERT_EQ(brick.nranks(), n);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(brick.brick(r).c_begin[2], ncz * r / n);
      EXPECT_EQ(brick.brick(r).c_end[2], ncz * (r + 1) / n);
      EXPECT_GT(brick.brick(r).c_end[2], brick.brick(r).c_begin[2]);
      for (int a = 0; a < 2; ++a) {
        EXPECT_EQ(brick.brick(r).c_begin[a], 0);
        EXPECT_EQ(brick.brick(r).c_end[a], mesh.ncells(a));
      }
    }
    EXPECT_EQ(brick.brick(n - 1).c_end[2], ncz);
  }
}

TEST(BrickPartition, GridClampsPerAxisToCellCount) {
  const auto mesh = fe::make_uniform_mesh(4.0, 3, false);  // 3 cells per axis
  const fe::DofHandler dofh(mesh, 3);
  const auto part = BrickPartition::cell_aligned(dofh, {8, 2, 1});
  EXPECT_EQ(part.grid()[0], 3);  // clamped: at most one lane per cell
  EXPECT_EQ(part.grid()[1], 2);
  EXPECT_EQ(part.nranks(), 6);
}

TEST(BrickPartition, FactorizeMinimizesSurfaceOnCube) {
  const auto mesh = fe::make_uniform_mesh(4.0, 4, false);
  const fe::DofHandler dofh(mesh, 3);
  // Small counts reproduce the historical slab/pencil layouts; 8 goes full
  // 3D. Ties break toward z-major so existing slab configs stay stable.
  EXPECT_EQ(BrickPartition::factorize(dofh, 1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(BrickPartition::factorize(dofh, 2), (std::array<int, 3>{1, 1, 2}));
  EXPECT_EQ(BrickPartition::factorize(dofh, 3), (std::array<int, 3>{1, 1, 3}));
  EXPECT_EQ(BrickPartition::factorize(dofh, 4), (std::array<int, 3>{1, 2, 2}));
  EXPECT_EQ(BrickPartition::factorize(dofh, 8), (std::array<int, 3>{2, 2, 2}));
}

TEST(BrickPartition, FactorizePrefersLongAxisOnElongatedBox) {
  // 4 lanes on a box with many z cells and few x/y cells: cutting z four
  // times moves less surface than any 2x2 pencil.
  const fe::Mesh mesh(fe::make_uniform_axis(2.0, 2), fe::make_uniform_axis(2.0, 2),
                      fe::make_uniform_axis(16.0, 16));
  const fe::DofHandler dofh(mesh, 2);
  EXPECT_EQ(BrickPartition::factorize(dofh, 4), (std::array<int, 3>{1, 1, 4}));
}

TEST(Pipeline, TreeAllreduceBeatsFlatBeyondTwoRanks) {
  const double mt = 1.0e-3;
  EXPECT_DOUBLE_EQ(allreduce_flat_time(mt, 1), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_tree_time(mt, 1), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_flat_time(mt, 2), allreduce_tree_time(mt, 2));
  EXPECT_DOUBLE_EQ(allreduce_flat_time(mt, 8), 7.0 * mt);
  EXPECT_DOUBLE_EQ(allreduce_tree_time(mt, 8), 3.0 * mt);
  EXPECT_DOUBLE_EQ(allreduce_tree_time(mt, 5), 3.0 * mt);  // ceil(log2(5))
  EXPECT_DOUBLE_EQ(allreduce_tree_time(mt, 3), allreduce_flat_time(mt, 3));  // tie
  for (int r = 4; r <= 64; ++r)
    EXPECT_LT(allreduce_tree_time(mt, r), allreduce_flat_time(mt, r));
}

TEST(CommModelTest, AllreduceScalesLogarithmically) {
  CommModel model;
  model.bandwidth_bytes_per_s = 1e9;
  model.latency_s = 1e-6;
  EXPECT_DOUBLE_EQ(model.allreduce_time(1000, 1), 0.0);
  const double t2 = model.allreduce_time(1000, 2);
  const double t8 = model.allreduce_time(1000, 8);
  const double t1024 = model.allreduce_time(1000, 1024);
  EXPECT_NEAR(t8, 3.0 * t2, 1e-12);
  EXPECT_NEAR(t1024, 10.0 * t2, 1e-12);
}

TEST(Pipeline, SyncIsSumOfComputeAndComm) {
  std::vector<BlockTiming> blocks{{1.0, 0.5}, {2.0, 0.5}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(simulate_sync(blocks), 6.0);
}

TEST(Pipeline, OverlapHidesCommBehindCompute) {
  // Comm always shorter than the next block's compute: only the last
  // exchange is exposed.
  std::vector<BlockTiming> blocks{{1.0, 0.4}, {1.0, 0.4}, {1.0, 0.4}};
  EXPECT_DOUBLE_EQ(simulate_overlap(blocks), 3.4);
  EXPECT_DOUBLE_EQ(simulate_sync(blocks), 4.2);
}

TEST(Pipeline, CommBoundScheduleSerializesOnCommLane) {
  // Comm dominates: the comm lane is the bottleneck after the first compute.
  std::vector<BlockTiming> blocks{{0.1, 1.0}, {0.1, 1.0}, {0.1, 1.0}};
  EXPECT_DOUBLE_EQ(simulate_overlap(blocks), 0.1 + 3.0);
}

TEST(Pipeline, OverlapNeverSlowerThanSyncNorFasterThanBounds) {
  std::vector<BlockTiming> blocks;
  for (int k = 0; k < 20; ++k)
    blocks.push_back({0.1 + 0.05 * (k % 3), 0.02 + 0.07 * (k % 5)});
  const double sync = simulate_sync(blocks);
  const double async = simulate_overlap(blocks);
  double csum = 0.0, msum = 0.0;
  for (auto& b : blocks) {
    csum += b.compute;
    msum += b.comm;
  }
  EXPECT_LE(async, sync + 1e-12);
  EXPECT_GE(async, std::max(csum, msum) - 1e-12);
}

// --- HaloChannel edge semantics (single-threaded; see mailbox.hpp header) ---

/// Post one packet carrying `v` and consume it, asserting the payload.
void roundtrip_packet(HaloChannel<double>& ch, double v) {
  const int s = ch.begin_post();
  ch.buf<Wire::fp64>(s)[0] = v;
  ch.finish_post(s, HaloChannel<double>::Clock::now());
  const int r = ch.wait_packet();
  EXPECT_EQ(ch.cbuf<Wire::fp64>(r)[0], v);
  ch.release(r);
}

TEST(HaloChannelEdge, ResetTwiceYieldsFreshChannelEachTime) {
  HaloChannel<double> ch;
  ch.init(Wire::fp64, 1);
  roundtrip_packet(ch, 1.5);
  ch.reset();
  ch.reset();  // second reset of an already-fresh channel must be a no-op
  roundtrip_packet(ch, 2.5);
  // reset() with a packet still in flight drops it: the slot is reclaimable
  // by the sender immediately and nothing is left to receive.
  const int s = ch.begin_post();
  ch.finish_post(s, HaloChannel<double>::Clock::now());
  ch.reset();
  roundtrip_packet(ch, 3.5);
}

TEST(HaloChannelEdge, CloseIsIdempotentAndResetClearsPoison) {
  HaloChannel<double> ch;
  ch.init(Wire::fp64, 1);
  ch.close();
  EXPECT_NO_THROW(ch.close());  // documented: closing a closed channel is a no-op
  EXPECT_THROW(ch.begin_post(), std::runtime_error);
  EXPECT_THROW(ch.wait_packet(), std::runtime_error);
  EXPECT_NO_THROW(ch.close());  // still idempotent after poisoned calls
  ch.reset();
  roundtrip_packet(ch, 4.5);  // poison cleared: full protocol works again
}

TEST(HaloChannelEdge, ZeroCapacityChannelRunsFullProtocol) {
  HaloChannel<double> ch;
  ch.init(Wire::fp64, 0);  // legal: empty payloads, the protocol still runs
  for (int step = 0; step < 3; ++step) {
    const int s = ch.begin_post();
    ch.finish_post(s, HaloChannel<double>::Clock::now());
    const int r = ch.wait_packet();
    EXPECT_EQ(r, s);
    ch.release(r);
  }
  ch.close();
  EXPECT_THROW(ch.wait_packet(), std::runtime_error);
}

}  // namespace
}  // namespace dftfe::dd
