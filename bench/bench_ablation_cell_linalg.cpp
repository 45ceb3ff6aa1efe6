// Ablation for the Sec. 5.4.1 design choice: apply the FE operator through
// dense per-cell matrices + strided-batched GEMM (the paper's choice on
// GPUs — more FLOPs, far higher arithmetic intensity) vs sum factorization
// (O(p^4) FLOPs per cell instead of O(p^6)). Both paths are exact to
// round-off; the bench sweeps the polynomial degree and reports wall time,
// FLOPs, and effective throughput of each.
//
// Sum factorization itself is ablated two ways: the classical scalar loop
// nest (apply_add_sumfac_scalar) vs the GEMM-cast tensor contractions
// (apply_add_sumfac, three n x n^2 strided-batched GEMMs per cell chunk) —
// the "sf speedup" column is GEMM-cast over scalar. Steady-state workspace
// allocations per path are reported (expected 0 after warmup), and the
// whole table is exported as RUNREPORT_cell_linalg.json.

#include <cstdio>

#include "bench_common.hpp"
#include "fe/cell_ops.hpp"
#include "la/workspace.hpp"
#include "obs/metrics.hpp"

using namespace dftfe;

int main() {
  bench::print_preamble(
      "Ablation (Sec. 5.4.1): dense cell-matrix batched GEMM vs sum factorization");

  auto& metrics = obs::MetricsRegistry::global();
  TextTable t({"p", "dofs", "dense wall (s)", "dense GFLOPS", "sf-scalar wall (s)",
               "sf-gemm wall (s)", "sf-gemm GFLOPS", "sf speedup", "dense/sf-gemm",
               "ws allocs"});
  for (int p : {2, 4, 5, 6, 8}) {
    const index_t ncells = (p <= 4) ? 4 : 3;
    const fe::Mesh mesh = fe::make_uniform_mesh(10.0, ncells, true);
    fe::DofHandler dofh(mesh, p);
    fe::CellStiffness<double> K(dofh, 0.5);
    const index_t B = 32;
    la::MatrixD X(dofh.ndofs(), B), Y1(dofh.ndofs(), B), Y2(dofh.ndofs(), B),
        Y3(dofh.ndofs(), B);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.013 * i);

    const int reps = (p >= 8) ? 2 : 6;
    // Warm the persistent gather/scatter workspace, then count steady-state
    // allocations across every timed apply below (expected: 0).
    K.apply_add(X, Y1);
    K.apply_add_sumfac(X, Y3);
    la::WorkspaceCounters::reset();

    FlopCounter::global().clear();
    Timer t1;
    for (int r = 0; r < reps; ++r) K.apply_add(X, Y1);
    const double wall_dense = t1.seconds() / reps;
    const double gf_dense = FlopCounter::global().total() / reps / 1e9;

    FlopCounter::global().clear();
    Timer t2;
    for (int r = 0; r < reps; ++r) K.apply_add_sumfac_scalar(X, Y2);
    const double wall_sf_scalar = t2.seconds() / reps;

    FlopCounter::global().clear();
    Timer t3;
    for (int r = 0; r < reps; ++r) K.apply_add_sumfac(X, Y3);
    const double wall_sf = t3.seconds() / reps;
    const double gf_sf = FlopCounter::global().total() / reps / 1e9;

    const auto ws_allocs = la::WorkspaceCounters::allocations();
    const double sf_speedup = wall_sf_scalar / wall_sf;

    t.add(p, dofh.ndofs(), TextTable::num(wall_dense, 4),
          TextTable::num(gf_dense / wall_dense, 2), TextTable::num(wall_sf_scalar, 4),
          TextTable::num(wall_sf, 4), TextTable::num(gf_sf / wall_sf, 2),
          TextTable::num(sf_speedup, 2) + "x", TextTable::num(wall_dense / wall_sf, 2) + "x",
          static_cast<long long>(ws_allocs));

    const std::string key = "bench.cell_linalg.p" + std::to_string(p);
    metrics.gauge_set(key + ".dofs", static_cast<double>(dofh.ndofs()));
    metrics.gauge_set(key + ".dense.wall_s", wall_dense);
    metrics.gauge_set(key + ".dense.gflops", gf_dense / wall_dense);
    metrics.gauge_set(key + ".sumfac_scalar.wall_s", wall_sf_scalar);
    metrics.gauge_set(key + ".sumfac_gemm.wall_s", wall_sf);
    metrics.gauge_set(key + ".sumfac_gemm.gflops", gf_sf / wall_sf);
    metrics.gauge_set(key + ".sumfac_speedup", sf_speedup);
    metrics.gauge_set(key + ".workspace_allocations", static_cast<double>(ws_allocs));
  }
  t.print();
  std::printf("sum factorization does O(p^2) fewer FLOPs per dof but at much lower\n"
              "arithmetic intensity; casting its three tensor contractions as n x n^2\n"
              "strided-batched GEMMs (sf-gemm) recovers most of that intensity. The\n"
              "dense batched-GEMM path trades extra FLOPs for throughput — on GPUs\n"
              "(the paper's setting) that trade wins, which is why DFT-FE casts the\n"
              "Hamiltonian apply as xGEMMStridedBatched.\n");
  bench::emit_bench_artifact("cell_linalg");
  metrics.clear();
  return 0;
}
