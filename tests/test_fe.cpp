// Tests for the spectral finite-element substrate: GLL quadrature, shape
// functions, meshes, DoF handling, cell-level stiffness application (real and
// Bloch-twisted complex), and the Poisson solver against analytic solutions.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>
#include <vector>
#include <type_traits>

#include "base/flops.hpp"
#include "fe/cell_ops.hpp"
#include "fe/dofs.hpp"
#include "fe/gll.hpp"
#include "fe/mesh.hpp"
#include "fe/poisson.hpp"
#include "la/batched.hpp"

namespace dftfe::fe {
namespace {

// ---------- GLL / quadrature ----------

TEST(Gll, TwoAndThreePointNodesAreKnown) {
  const auto x2 = gll_nodes(2);
  EXPECT_DOUBLE_EQ(x2[0], -1.0);
  EXPECT_DOUBLE_EQ(x2[1], 1.0);
  const auto x3 = gll_nodes(3);
  EXPECT_NEAR(x3[1], 0.0, 1e-14);
  const auto w3 = gll_weights(x3);
  EXPECT_NEAR(w3[0], 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(w3[1], 4.0 / 3.0, 1e-14);
  const auto x5 = gll_nodes(5);
  EXPECT_NEAR(x5[1], -std::sqrt(3.0 / 7.0), 1e-13);  // known GLL-5 interior node
}

class QuadratureOrder : public ::testing::TestWithParam<int> {};

TEST_P(QuadratureOrder, GllWeightsSumToTwoAndNodesAscend) {
  const int n = GetParam();
  const auto x = gll_nodes(n);
  const auto w = gll_weights(x);
  double s = 0.0;
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    s += v;
  }
  EXPECT_NEAR(s, 2.0, 1e-12);
  for (int i = 1; i < n; ++i) EXPECT_GT(x[i], x[i - 1]);
  EXPECT_DOUBLE_EQ(x.front(), -1.0);
  EXPECT_DOUBLE_EQ(x.back(), 1.0);
}

TEST_P(QuadratureOrder, GllExactToDegree2nMinus3) {
  const int n = GetParam();
  const auto x = gll_nodes(n);
  const auto w = gll_weights(x);
  for (int deg = 0; deg <= 2 * n - 3; ++deg) {
    double s = 0.0;
    for (int i = 0; i < n; ++i) s += w[i] * std::pow(x[i], deg);
    const double exact = (deg % 2 == 0) ? 2.0 / (deg + 1) : 0.0;
    EXPECT_NEAR(s, exact, 1e-12) << "n=" << n << " deg=" << deg;
  }
}

TEST_P(QuadratureOrder, GaussLegendreExactToDegree2nMinus1) {
  const int n = GetParam();
  std::vector<double> x, w;
  gauss_legendre(n, x, w);
  for (int deg = 0; deg <= 2 * n - 1; ++deg) {
    double s = 0.0;
    for (int i = 0; i < n; ++i) s += w[i] * std::pow(x[i], deg);
    const double exact = (deg % 2 == 0) ? 2.0 / (deg + 1) : 0.0;
    EXPECT_NEAR(s, exact, 1e-12) << "n=" << n << " deg=" << deg;
  }
}

TEST_P(QuadratureOrder, DerivativeMatrixDifferentiatesPolynomials) {
  const int n = GetParam();
  const auto x = gll_nodes(n);
  const auto D = gll_derivative_matrix(x);
  for (int deg = 0; deg < n; ++deg) {
    for (int i = 0; i < n; ++i) {
      double der = 0.0;
      for (int j = 0; j < n; ++j) der += D(i, j) * std::pow(x[j], deg);
      const double exact = deg == 0 ? 0.0 : deg * std::pow(x[i], deg - 1);
      EXPECT_NEAR(der, exact, 1e-10) << "n=" << n << " deg=" << deg;
    }
  }
}

TEST_P(QuadratureOrder, LagrangeBasisPartitionOfUnityAndDelta) {
  const int n = GetParam();
  const auto x = gll_nodes(n);
  for (double pt : {-0.9, -0.3, 0.123, 0.77}) {
    const auto l = lagrange_eval(x, pt);
    double s = 0.0;
    for (double v : l) s += v;
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
  for (int i = 0; i < n; ++i) {
    const auto l = lagrange_eval(x, x[i]);
    for (int j = 0; j < n; ++j) EXPECT_NEAR(l[j], i == j ? 1.0 : 0.0, 1e-12);
  }
}

TEST_P(QuadratureOrder, ReferenceStiffnessSymmetricWithZeroRowSums) {
  const int n = GetParam();
  const auto K = reference_stiffness_1d(n);
  for (int i = 0; i < n; ++i) {
    double rs = 0.0;
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(K(i, j), K(j, i), 1e-12);
      rs += K(i, j);
    }
    EXPECT_NEAR(rs, 0.0, 1e-10);  // gradients annihilate constants
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, QuadratureOrder, ::testing::Values(2, 3, 4, 5, 7, 9));

TEST(Gll, LinearElementStiffnessIsKnown) {
  const auto K = reference_stiffness_1d(2);
  EXPECT_NEAR(K(0, 0), 0.5, 1e-14);
  EXPECT_NEAR(K(0, 1), -0.5, 1e-14);
}

// ---------- mesh ----------

TEST(Mesh, UniformAxisHasEqualCells) {
  const Axis a = make_uniform_axis(10.0, 5);
  EXPECT_EQ(a.ncells(), 5);
  EXPECT_DOUBLE_EQ(a.length(), 10.0);
  for (index_t c = 0; c < 5; ++c) EXPECT_NEAR(a.cell_size(c), 2.0, 1e-14);
}

TEST(Mesh, GradedAxisRefinesWindowWithFewDistinctSizes) {
  const Axis a = make_graded_axis(20.0, 10.0, 3.0, 0.5, 2.5);
  EXPECT_NEAR(a.length(), 20.0, 1e-12);
  std::set<long> sizes;
  double hmin = 1e9, hmax = 0;
  for (index_t c = 0; c < a.ncells(); ++c) {
    const double h = a.cell_size(c);
    sizes.insert(std::lround(h * 1e9));
    hmin = std::min(hmin, h);
    hmax = std::max(hmax, h);
  }
  EXPECT_LE(sizes.size(), 3u);  // quantized grading
  EXPECT_LE(hmin, 0.51);
  EXPECT_GE(hmax, 1.5);
  for (index_t c = 1; c <= a.ncells(); ++c) EXPECT_GT(a.nodes[c], a.nodes[c - 1]);
}

TEST(Mesh, CellIndexingRoundTrips) {
  const Mesh m(make_uniform_axis(4, 2), make_uniform_axis(6, 3), make_uniform_axis(8, 4));
  EXPECT_EQ(m.ncells_total(), 24);
  for (index_t c = 0; c < m.ncells_total(); ++c) {
    const auto cc = m.cell_coords(c);
    EXPECT_EQ(m.cell_index(cc[0], cc[1], cc[2]), c);
  }
  EXPECT_DOUBLE_EQ(m.volume(), 4.0 * 6.0 * 8.0);
}

// ---------- DoF handler ----------

TEST(DofHandler, CountsDofsPeriodicAndDirichlet) {
  const index_t nc = 3;
  const int p = 4;
  {
    const Mesh m = make_uniform_mesh(6.0, nc, /*periodic=*/false);
    DofHandler dofh(m, p);
    const index_t na = nc * p + 1;
    EXPECT_EQ(dofh.ndofs(), na * na * na);
    EXPECT_EQ(static_cast<index_t>(dofh.boundary_dofs().size()),
              na * na * na - (na - 2) * (na - 2) * (na - 2));
  }
  {
    const Mesh m = make_uniform_mesh(6.0, nc, /*periodic=*/true);
    DofHandler dofh(m, p);
    const index_t na = nc * p;
    EXPECT_EQ(dofh.ndofs(), na * na * na);
    EXPECT_TRUE(dofh.boundary_dofs().empty());
  }
}

TEST(DofHandler, MassSumsToVolume) {
  for (bool periodic : {false, true}) {
    const Mesh m(make_uniform_axis(3.0, 2, periodic), make_graded_axis(5.0, 2.5, 1.0, 0.4, 1.2, periodic),
                 make_uniform_axis(4.0, 3, periodic));
    DofHandler dofh(m, 3);
    double s = 0.0;
    for (double v : dofh.mass()) s += v;
    EXPECT_NEAR(s, m.volume(), 1e-9);
  }
}

TEST(DofHandler, IntegratesPolynomialExactly) {
  const Mesh m = make_uniform_mesh(2.0, 2, false);
  DofHandler dofh(m, 4);
  std::vector<double> f(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    f[g] = p[0] * p[0] * p[1] + p[2];  // low-degree polynomial
  }
  // \int_0^2\int_0^2\int_0^2 (x^2 y + z) = (8/3)(2)(2) + (2)(2)(2) = 32/3 + 8
  EXPECT_NEAR(dofh.integrate(f), 32.0 / 3.0 + 8.0, 1e-10);
}

TEST(DofHandler, EvaluateInterpolatesExactlyAtNodesAndPolynomials) {
  const Mesh m = make_uniform_mesh(2.0, 2, false);
  DofHandler dofh(m, 3);
  std::vector<double> f(dofh.ndofs());
  auto func = [](double x, double y, double z) { return 1.0 + x + x * y + z * z; };
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    f[g] = func(p[0], p[1], p[2]);
  }
  EXPECT_NEAR(dofh.evaluate(f, 0.37, 1.21, 0.83), func(0.37, 1.21, 0.83), 1e-11);
  EXPECT_NEAR(dofh.evaluate(f, 0.0, 0.0, 0.0), func(0, 0, 0), 1e-11);
  EXPECT_NEAR(dofh.evaluate(f, 2.0, 2.0, 2.0), func(2, 2, 2), 1e-11);
}

TEST(DofHandler, CellDofsSharedBetweenNeighbors) {
  const Mesh m = make_uniform_mesh(2.0, 2, false);
  DofHandler dofh(m, 2);
  std::vector<index_t> d0, d1;
  dofh.cell_dofs(m.cell_index(0, 0, 0), d0);
  dofh.cell_dofs(m.cell_index(1, 0, 0), d1);
  // Right face of cell 0 == left face of cell 1 (continuity).
  const int n = 3;
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(d0[(n - 1) + n * (j + n * k)], d1[0 + n * (j + n * k)]);
}

TEST(DofHandler, PeriodicWrapsDofs) {
  const Mesh m = make_uniform_mesh(2.0, 2, true);
  DofHandler dofh(m, 2);
  std::vector<index_t> d1;
  dofh.cell_dofs(m.cell_index(1, 0, 0), d1);
  const int n = 3;
  // Right face of the last cell wraps to axis dof 0.
  EXPECT_EQ(d1[n - 1] % dofh.naxis(0), 0);
}

// ---------- cell-level stiffness ----------

TEST(CellStiffness, AnnihilatesConstants) {
  const Mesh m = make_uniform_mesh(3.0, 2, true);
  DofHandler dofh(m, 3);
  CellStiffness<double> K(dofh, 1.0);
  std::vector<double> u(dofh.ndofs(), 1.0), y(dofh.ndofs(), 0.0);
  K.apply_add(u, y);
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(CellStiffness, QuadraticFormEqualsDirichletEnergy) {
  // u = x on a non-periodic box: int |grad u|^2 = V.
  const Mesh m(make_uniform_axis(2.0, 2), make_uniform_axis(3.0, 2), make_uniform_axis(1.5, 3));
  DofHandler dofh(m, 4);
  CellStiffness<double> K(dofh, 1.0);
  std::vector<double> u(dofh.ndofs()), y(dofh.ndofs(), 0.0);
  for (index_t g = 0; g < dofh.ndofs(); ++g) u[g] = dofh.dof_point(g)[0];
  K.apply_add(u, y);
  double energy = 0.0;
  for (index_t g = 0; g < dofh.ndofs(); ++g) energy += u[g] * y[g];
  EXPECT_NEAR(energy, m.volume(), 1e-9);
}

TEST(CellStiffness, MatchesQuadraticFormForSmoothField) {
  // u = sin(2 pi x / L) on a periodic box: int |grad u|^2 = (2pi/L)^2 V / 2.
  const double L = 4.0;
  const Mesh m = make_uniform_mesh(L, 3, true);
  DofHandler dofh(m, 6);
  CellStiffness<double> K(dofh, 1.0);
  std::vector<double> u(dofh.ndofs()), y(dofh.ndofs(), 0.0);
  const double g0 = 2.0 * kPi / L;
  for (index_t g = 0; g < dofh.ndofs(); ++g) u[g] = std::sin(g0 * dofh.dof_point(g)[0]);
  K.apply_add(u, y);
  double energy = 0.0;
  for (index_t g = 0; g < dofh.ndofs(); ++g) energy += u[g] * y[g];
  EXPECT_NEAR(energy, g0 * g0 * m.volume() / 2.0, 1e-6 * m.volume());
}

TEST(CellStiffness, BlockApplyMatchesColumnwiseApply) {
  const Mesh m(make_uniform_axis(2.0, 2), make_graded_axis(3.0, 1.5, 0.5, 0.3, 1.0),
               make_uniform_axis(2.0, 2));
  DofHandler dofh(m, 3);
  CellStiffness<double> K(dofh, 0.5);
  const index_t n = dofh.ndofs(), B = 5;
  la::Matrix<double> X(n, B), Y(n, B);
  for (index_t j = 0; j < B; ++j)
    for (index_t i = 0; i < n; ++i) X(i, j) = std::sin(0.1 * i + j);
  K.apply_add(X, Y);
  for (index_t j = 0; j < B; ++j) {
    std::vector<double> x(n), y(n, 0.0);
    for (index_t i = 0; i < n; ++i) x[i] = X(i, j);
    K.apply_add(x, y);
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(Y(i, j), y[i], 1e-10);
  }
}

TEST(CellStiffness, GroupSpanningTwoChunksMatchesItsCellOperators) {
  // 27 cells of one geometry group: the whole-mesh apply gathers them in two
  // chunks (16 + 11). Each single-cell operator holds one chunk of one cell.
  // p = 2 applies dense cell matrices, p = 4 sum-factorizes.
  const Mesh m = make_uniform_mesh(2.0, 3, true);
  for (int p : {2, 4}) {
    DofHandler dofh(m, p);
    CellStiffness<double> whole(dofh, 1.0);
    ASSERT_EQ(whole.ngroups(), 1);
    ASSERT_EQ(whole.ncells(), 27);
    const index_t n = dofh.ndofs();
    la::Matrix<double> X(n, 3), Y(n, 3), Ycells(n, 3);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::cos(0.3 * i);
    whole.apply_add(X, Y);
    for (index_t c = 0; c < m.ncells_total(); ++c)
      CellStiffness<double>(dofh, std::vector<index_t>{c}, 1.0).apply_add(X, Ycells);
    double scale = 0.0;
    for (index_t i = 0; i < Y.size(); ++i) scale = std::max(scale, std::abs(Y.data()[i]));
    EXPECT_LT(la::max_abs_diff(Y, Ycells), 1e-12 * scale) << "p=" << p;
  }
}

TEST(CellStiffness, ComplexKpointOperatorIsHermitianAndShiftsConstants) {
  const double L = 3.0;
  const Mesh m = make_uniform_mesh(L, 2, true);
  DofHandler dofh(m, 3);
  const std::array<double, 3> kpt{0.4, -0.2, 0.1};
  CellStiffness<complex_t> T(dofh, 0.5, kpt);
  const index_t n = dofh.ndofs();
  // Constant Bloch function u = 1: T u = |k|^2/2 * M u (mass-weighted).
  std::vector<complex_t> u(n, complex_t(1.0, 0.0)), y(n, complex_t(0.0));
  T.apply_add(u, y);
  const double k2 = 0.5 * (kpt[0] * kpt[0] + kpt[1] * kpt[1] + kpt[2] * kpt[2]);
  const auto& mass = dofh.mass();
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), k2 * mass[i], 1e-10);
    EXPECT_NEAR(y[i].imag(), 0.0, 1e-10);
  }
  // Hermiticity: <x, T y> == conj(<y, T x>).
  std::vector<complex_t> a(n), b(n), Ta(n, complex_t(0)), Tb(n, complex_t(0));
  for (index_t i = 0; i < n; ++i) {
    a[i] = complex_t(std::sin(0.2 * i), std::cos(0.11 * i));
    b[i] = complex_t(std::cos(0.07 * i), std::sin(0.13 * i));
  }
  T.apply_add(a, Ta);
  T.apply_add(b, Tb);
  complex_t xTy{}, yTx{};
  for (index_t i = 0; i < n; ++i) {
    xTy += std::conj(a[i]) * Tb[i];
    yTx += std::conj(b[i]) * Ta[i];
  }
  EXPECT_NEAR(xTy.real(), yTx.real(), 1e-8);
  EXPECT_NEAR(xTy.imag(), -yTx.imag(), 1e-8);
}

TEST(CellStiffness, OperatorsOverASplitOfTheCellsAddUpToTheWhole) {
  // A graded, partly periodic mesh, its cells dealt out of order to two
  // operators: together they must apply the whole-mesh operator (real, and
  // complex with Bloch terms) and count its FLOPs.
  const Mesh m(make_graded_axis(3.0, 1.0, 0.5, 0.4, 1.0), make_uniform_axis(2.0, 2, true),
               make_graded_axis(2.5, 1.5, 0.5, 0.5, 1.0, true));
  DofHandler dofh(m, 3);
  std::vector<index_t> first, second;
  for (index_t c = m.ncells_total() - 1; c >= 0; --c) (c % 3 == 1 ? first : second).push_back(c);
  auto check = [&](auto scalar, std::array<double, 3> kpt) {
    using T = decltype(scalar);
    CellStiffness<T> whole(dofh, 0.5, kpt), A(dofh, first, 0.5, kpt), B(dofh, second, 0.5, kpt);
    EXPECT_EQ(A.ncells() + B.ncells(), whole.ncells());
    EXPECT_DOUBLE_EQ(A.flops_per_apply(4) + B.flops_per_apply(4), whole.flops_per_apply(4));
    const index_t n = dofh.ndofs();
    la::Matrix<T> X(n, 4), Y(n, 4), Ysplit(n, 4);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = T(std::sin(0.07 * i) + 0.3);
    whole.apply_add(X, Y);
    A.apply_add(X, Ysplit);
    B.apply_add(X, Ysplit);
    double scale = 0.0;
    for (index_t i = 0; i < Y.size(); ++i) scale = std::max(scale, std::abs(Y.data()[i]));
    EXPECT_LT(la::max_abs_diff(Y, Ysplit), 1e-13 * scale);
  };
  check(0.0, {0.0, 0.0, 0.0});
  check(complex_t{}, {0.3, -0.2, 0.1});
  // On rows (a rank-engine lane's numbering): the operator over `first`
  // whose rows are the sorted dofs of those cells applies, row by row, the
  // bits of the operator over `first` on the whole numbering.
  std::vector<index_t> rows, dofs;
  for (const index_t c : first) {
    dofh.cell_dofs(c, dofs);
    rows.insert(rows.end(), dofs.begin(), dofs.end());
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  {
    const CellStiffness<double> A(dofh, first, 0.5), Arows(dofh, first, 0.5, {}, rows);
    const index_t n = dofh.ndofs(), nr = static_cast<index_t>(rows.size());
    EXPECT_EQ(A.nrows(), n);
    EXPECT_EQ(Arows.nrows(), nr);
    EXPECT_LT(nr, n);
    la::Matrix<double> X(n, 3), Y(n, 3), Xr(nr, 3), Yr(nr, 3);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::cos(0.09 * i) - 0.2;
    for (index_t j = 0; j < 3; ++j)
      for (index_t i = 0; i < nr; ++i) Xr(i, j) = X(rows[static_cast<std::size_t>(i)], j);
    A.apply_add(X, Y);
    Arows.apply_add(Xr, Yr);
    for (index_t j = 0; j < 3; ++j)
      for (index_t i = 0; i < nr; ++i)
        ASSERT_EQ(Yr(i, j), Y(rows[static_cast<std::size_t>(i)], j)) << i << "," << j;
    // Every dof of the cells must have a row.
    const std::vector<index_t> missing(rows.begin() + 1, rows.end());
    EXPECT_THROW(CellStiffness<double>(dofh, first, 0.5, {}, missing), std::invalid_argument);
  }
  // No cells: an apply that adds nothing.
  CellStiffness<double> none(dofh, std::vector<index_t>{}, 1.0);
  EXPECT_EQ(none.ngroups(), 0);
  la::Matrix<double> X(dofh.ndofs(), 2), Y(dofh.ndofs(), 2);
  X.fill(1.0);
  none.apply_add(X, Y);
  EXPECT_EQ(la::max_abs_diff(Y, la::Matrix<double>(dofh.ndofs(), 2)), 0.0);
  EXPECT_EQ(none.scratch_highwater_bytes(), 0);
  EXPECT_THROW(CellStiffness<double>(dofh, std::vector<index_t>{m.ncells_total()}, 1.0),
               std::invalid_argument);
}

TEST(CellStiffness, SingleVectorApplyRejectsShortVectors) {
  // The single-vector apply reads and updates the first nrows() entries: a
  // shorter x or y throws instead of reading or writing past its end, and
  // longer ones keep their tail.
  const Mesh m = make_uniform_mesh(2.0, 2, false);
  DofHandler dofh(m, 2);
  const CellStiffness<double> K(dofh, 1.0);
  const auto n = static_cast<std::size_t>(K.nrows());
  std::vector<double> x(n), y(n, 0.0), too_short(n - 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.4 * static_cast<double>(i));
  EXPECT_THROW(K.apply_add(too_short, y), std::invalid_argument);
  EXPECT_THROW(K.apply_add(x, too_short), std::invalid_argument);
  EXPECT_EQ(y, std::vector<double>(n, 0.0));
  std::vector<double> xl(x), yl(n + 3, 0.0);
  xl.resize(n + 3, 5.0);
  yl[n] = yl[n + 1] = yl[n + 2] = 7.0;
  K.apply_add(x, y);
  K.apply_add(xl, yl);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(yl[i], y[i]) << i;
  EXPECT_EQ(yl[n], 7.0);
  EXPECT_EQ(yl[n + 2], 7.0);
  // An operator on rows sizes its vectors by its rows, not by the mesh.
  const std::vector<index_t> cells{0};
  std::vector<index_t> rows;
  dofh.cell_dofs(0, rows);
  std::sort(rows.begin(), rows.end());
  const CellStiffness<double> K0(dofh, cells, 1.0, {}, rows);
  std::vector<double> x0(rows.size(), 1.0), y0(rows.size(), 0.0);
  EXPECT_NO_THROW(K0.apply_add(x0, y0));
  x0.pop_back();
  EXPECT_THROW(K0.apply_add(x0, y0), std::invalid_argument);
}

TEST(CellStiffness, GroupsCollapseOnUniformMesh) {
  const Mesh m = make_uniform_mesh(2.0, 4, true);
  DofHandler dofh(m, 2);
  CellStiffness<double> K(dofh, 1.0);
  EXPECT_EQ(K.ngroups(), 1);  // all 64 cells share one dense matrix
}


// The graded, partly periodic mesh of the path-equivalence tests below: its
// cells fall into several geometry groups, so a sum-factorized operator holds
// several sets of folded 1D operators.
Mesh graded_mesh() {
  return Mesh(make_uniform_axis(2.0, 2), make_graded_axis(3.0, 1.5, 0.5, 0.3, 1.0),
              make_uniform_axis(2.5, 3, true));
}

// apply_add, on whichever path the operator picked (sum factorization from
// p = 4, dense below), against the scalar sum-factorization loop nest. Both
// are exact, so they agree to round-off.
template <class T>
void expect_apply_matches_scalar_reference(int p) {
  const Mesh m = graded_mesh();
  DofHandler dofh(m, p);
  CellStiffness<T> K(dofh, 0.5);
  EXPECT_EQ(K.sum_factorized(), p >= 4) << "p=" << p;
  ASSERT_GT(K.ngroups(), 1);
  const index_t n = dofh.ndofs(), B = 4;
  la::Matrix<T> X(n, B), Y(n, B), Yref(n, B);
  for (index_t i = 0; i < X.size(); ++i) {
    if constexpr (std::is_same_v<T, double>)
      X.data()[i] = std::sin(0.05 * i) + 0.2;
    else
      X.data()[i] = T(std::sin(0.1 * i), std::cos(0.07 * i));
  }
  K.apply_add(X, Y);
  K.apply_add_sumfac_scalar(X, Yref);
  double scale = 0.0;
  for (index_t i = 0; i < Yref.size(); ++i) scale = std::max(scale, std::abs(Yref.data()[i]));
  EXPECT_LT(la::max_abs_diff(Y, Yref), 1e-13 * scale) << "p=" << p;
}

TEST(CellStiffness, ApplyMatchesScalarReference) {
  for (int p : {2, 3, 4, 5}) expect_apply_matches_scalar_reference<double>(p);
}

TEST(CellStiffness, ApplyMatchesScalarReferenceAtHighOrder) {
  // p = 7 and 8 give 8^3 = 512 and 9^3 = 729 dofs per cell: large enough to
  // exercise the linearized i + n*(j + n*k) gather/scatter arithmetic well
  // past the low-order cases above (regression for the index_t widening of
  // the previously int-typed index lambdas in fe/cell_ops.cpp).
  for (int p : {7, 8}) expect_apply_matches_scalar_reference<double>(p);
}

TEST(CellStiffness, ComplexGammaApplyMatchesScalarReference) {
  for (int p : {2, 3, 4, 5, 7, 8}) expect_apply_matches_scalar_reference<complex_t>(p);
}

TEST(CellStiffness, ScalarReferenceRejectsBlochOperator) {
  // Bloch terms keep the dense path at any degree; the reference has none.
  const Mesh m = make_uniform_mesh(3.0, 2, true);
  DofHandler dofh(m, 4);
  CellStiffness<complex_t> K(dofh, 0.5, {0.3, 0.0, 0.0});
  EXPECT_FALSE(K.sum_factorized());
  la::Matrix<complex_t> X(dofh.ndofs(), 1), Y(dofh.ndofs(), 1);
  EXPECT_THROW(K.apply_add_sumfac_scalar(X, Y), std::logic_error);
}

TEST(CellStiffness, SumFactorizedApplyIsBitwiseTheThreeGemmComposition) {
  // The fused kernel against the three strided-batched GEMMs written out:
  // geometry groups in order of first appearance (sizes quantized as the
  // operator does), each cell's weighted gather, x, y and z contractions,
  // and the scatter in group and cell order, adding into a nonzero Y.
  const Mesh m = graded_mesh();
  for (int p : {4, 5}) {
    DofHandler dofh(m, p);
    const double coef = 0.5;
    CellStiffness<double> K(dofh, coef);
    ASSERT_TRUE(K.sum_factorized());
    const index_t n = p + 1, n2 = n * n, nd = n2 * n, N = dofh.ndofs(), B = 3;
    la::Matrix<double> X(N, B), Y(N, B);
    for (index_t i = 0; i < X.size(); ++i) {
      X.data()[i] = std::sin(0.05 * i) + 0.2;
      Y.data()[i] = std::cos(0.03 * i);
    }
    la::Matrix<double> Yref = Y;
    K.apply_add(X, Y);

    const auto K1 = reference_stiffness_1d(static_cast<int>(n));
    const auto& w = dofh.ref_weights();
    auto q = [](double v) { return std::lround(v * 1e12); };
    std::vector<std::pair<std::array<long, 3>, std::vector<index_t>>> groups;
    for (index_t c = 0; c < m.ncells_total(); ++c) {
      const auto h = m.cell_sizes(c);
      const std::array<long, 3> key{q(h[0]), q(h[1]), q(h[2])};
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& g) { return g.first == key; });
      if (it == groups.end()) it = groups.insert(groups.end(), {key, {}});
      it->second.push_back(c);
    }
    ASSERT_GT(groups.size(), 1u);
    std::vector<index_t> dofs;
    la::Matrix<double> Xc(nd, B), Yc(nd, B);
    for (const auto& [key, cells] : groups) {
      const auto h = m.cell_sizes(cells.front());
      const double hx = h[0], hy = h[1], hz = h[2];
      const double cxx = coef * (2.0 / hx) * (hy / 2.0) * (hz / 2.0);
      const double cyy = coef * (hx / 2.0) * (2.0 / hy) * (hz / 2.0);
      const double czz = coef * (hx / 2.0) * (hy / 2.0) * (2.0 / hz);
      la::Matrix<double> G(n, 3 * n);  // [A_x | A_y^T | A_z^T]
      for (index_t mm = 0; mm < n; ++mm)
        for (index_t i = 0; i < n; ++i) {
          G(i, mm) = cxx * K1(i, mm) / w[mm];
          G(mm, n + i) = cyy * K1(i, mm) / w[mm];
          G(mm, 2 * n + i) = czz * K1(i, mm) / w[mm];
        }
      for (const index_t c : cells) {
        dofh.cell_dofs(c, dofs);
        for (index_t j = 0; j < B; ++j)
          for (index_t k = 0; k < n; ++k)
            for (index_t jj = 0; jj < n; ++jj)
              for (index_t i = 0; i < n; ++i) {
                const index_t a = i + n * (jj + n * k);
                Xc(a, j) = X(dofs[a], j) * (w[i] * w[jj] * w[k]);
              }
        la::gemm_strided_batched<double>('N', 'N', n, n2, n, 1.0, G.data(), n, 0, Xc.data(), n,
                                         nd, 0.0, Yc.data(), n, nd, B);
        la::gemm_strided_batched<double>('N', 'N', n, n, n, 1.0, Xc.data(), n, n2,
                                         G.data() + n2, n, 0, 1.0, Yc.data(), n, n2, B * n);
        la::gemm_strided_batched<double>('N', 'N', n2, n, n, 1.0, Xc.data(), n2, nd,
                                         G.data() + 2 * n2, n, 0, 1.0, Yc.data(), n2, nd, B);
        for (index_t j = 0; j < B; ++j)
          for (index_t a = 0; a < nd; ++a) Yref(dofs[a], j) += Yc(a, j);
      }
    }
    EXPECT_EQ(std::memcmp(Y.data(), Yref.data(), sizeof(double) * Y.size()), 0) << "p=" << p;
  }
}

TEST(CellStiffness, ChargedFlopsMatchFlopsPerApply) {
  // One apply of 3 columns charges exactly flops_per_apply(3) on either
  // path: 2 nd^2 per cell and column dense, 6 n^4 + n^3 (three contractions
  // and the gather's weighting) sum-factorized; 4x that for complex scalars.
  const Mesh m = graded_mesh();
  auto charged = [](const auto& K, auto zero) {
    using T = decltype(zero);
    const index_t n = K.dofs().ndofs();
    la::Matrix<T> X(n, 3), Y(n, 3);
    X.fill(T(0.5));
    FlopCounter::global().clear();
    K.apply_add(X, Y);
    return FlopCounter::global().total();
  };
  for (int p : {2, 3, 4, 5}) {
    DofHandler dofh(m, p);
    const CellStiffness<double> K(dofh, 0.5);
    const CellStiffness<complex_t> Kz(dofh, 0.5);
    EXPECT_EQ(charged(K, 0.0), K.flops_per_apply(3)) << "p=" << p;
    EXPECT_EQ(charged(Kz, complex_t{}), Kz.flops_per_apply(3)) << "p=" << p;
    const double n = p + 1, nd = n * n * n;
    const double per_cell = p >= 4 ? 6.0 * n * nd + nd : 2.0 * nd * nd;
    EXPECT_EQ(K.flops_per_apply(3), per_cell * 3 * K.ncells()) << "p=" << p;
    EXPECT_EQ(Kz.flops_per_apply(3), 4.0 * per_cell * 3 * Kz.ncells()) << "p=" << p;
  }
  DofHandler dofh(m, 4);
  const CellStiffness<complex_t> Kk(dofh, 0.5, {0.3, -0.2, 0.1});
  EXPECT_EQ(charged(Kk, complex_t{}), Kk.flops_per_apply(3));
  EXPECT_EQ(Kk.flops_per_apply(3), 4.0 * 2.0 * 125 * 125 * 3 * Kk.ncells());
}

// ---------- Poisson ----------

TEST(Poisson, PeriodicCosineChargeHasAnalyticPotential) {
  // rho = cos(G x) => phi = (4 pi / G^2) cos(G x).
  const double L = 5.0;
  const Mesh m = make_uniform_mesh(L, 3, true);
  DofHandler dofh(m, 5);
  PoissonSolver poisson(dofh);
  const double G = 2.0 * kPi / L;
  std::vector<double> rho(dofh.ndofs()), phi;
  for (index_t g = 0; g < dofh.ndofs(); ++g)
    rho[g] = std::cos(G * dofh.dof_point(g)[0]);
  auto rep = poisson.solve(rho, phi, 1e-10);
  EXPECT_TRUE(rep.converged);
  double maxerr = 0.0;
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const double exact = 4.0 * kPi / (G * G) * std::cos(G * dofh.dof_point(g)[0]);
    maxerr = std::max(maxerr, std::abs(phi[g] - exact));
  }
  EXPECT_LT(maxerr, 2e-4);
}

TEST(Poisson, IsolatedGaussianChargeMatchesErfPotential) {
  // rho = q * exp(-r^2/rc^2) / (pi^{3/2} rc^3) => phi = q * erf(r/rc) / r.
  const double L = 16.0, rc = 1.0, q = 3.0;
  const Mesh m = make_uniform_mesh(L, 4, false);
  DofHandler dofh(m, 5);
  PoissonSolver poisson(dofh);
  EXPECT_FALSE(poisson.periodic());
  const double c = L / 2.0;
  std::vector<double> rho(dofh.ndofs()), phi;
  const double norm = q / (std::pow(kPi, 1.5) * rc * rc * rc);
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    const double r2 = (p[0] - c) * (p[0] - c) + (p[1] - c) * (p[1] - c) + (p[2] - c) * (p[2] - c);
    rho[g] = norm * std::exp(-r2 / (rc * rc));
  }
  auto rep = poisson.solve(rho, phi, 1e-10);
  EXPECT_TRUE(rep.converged);
  // Compare at a few interior points (off-node via evaluate()).
  for (double r : {0.8, 1.7, 3.1, 5.0}) {
    const double exact = q * std::erf(r / rc) / r;
    const double num = dofh.evaluate(phi, c + r, c, c);
    EXPECT_NEAR(num, exact, 4e-3 * q) << "r=" << r;
  }
}

class PoissonConvergence : public ::testing::TestWithParam<int> {};

TEST_P(PoissonConvergence, ErrorDecreasesWithPolynomialDegree) {
  // Spectral convergence in p for a smooth periodic charge.
  const double L = 5.0;
  const double G = 2.0 * kPi / L;
  auto solve_err = [&](int p) {
    const Mesh m = make_uniform_mesh(L, 2, true);
    DofHandler dofh(m, p);
    PoissonSolver poisson(dofh);
    std::vector<double> rho(dofh.ndofs()), phi;
    for (index_t g = 0; g < dofh.ndofs(); ++g)
      rho[g] = std::cos(G * dofh.dof_point(g)[0]) * std::cos(G * dofh.dof_point(g)[1]);
    poisson.solve(rho, phi, 1e-12);
    double err = 0.0;
    for (index_t g = 0; g < dofh.ndofs(); ++g) {
      const auto pt = dofh.dof_point(g);
      const double exact = 4.0 * kPi / (2.0 * G * G) * std::cos(G * pt[0]) * std::cos(G * pt[1]);
      err = std::max(err, std::abs(phi[g] - exact));
    }
    return err;
  };
  const int p = GetParam();
  EXPECT_LT(solve_err(p + 2), solve_err(p) * 0.5) << "no p-convergence from degree " << p;
}

INSTANTIATE_TEST_SUITE_P(Degrees, PoissonConvergence, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace dftfe::fe
