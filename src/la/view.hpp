#pragma once

// Non-owning 2-D views over existing column-major storage. The multi-rank
// refactor retires the "everything is one mesh-wide vector" assumption: a
// slab rank operates on the contiguous row range it owns inside the *global*
// wavefunction block, so the reduction kernels (partial Gram matrices,
// slab-local density sums) take a span — base pointer, row/col extents,
// leading dimension — instead of a Matrix. No copies, no allocation: a span
// over a lane's owned rows is just (data + row0, nrows, cols, ld = global
// rows), which preserves the zero-allocation lint invariants and keeps the
// per-lane workspace buffers untouched.

#include <cassert>

#include "base/defs.hpp"
#include "la/matrix.hpp"

namespace dftfe::la {

/// Read-only column-major view: element (i, j) lives at data[i + j * ld].
template <class T>
struct ConstSpan2D {
  const T* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  const T& operator()(index_t i, index_t j) const {
    assert(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[i + j * ld];
  }
  const T* col(index_t j) const { return data + j * ld; }

  /// Sub-view of rows [r0, r0 + nr) — the slab-owned row range of a lane.
  ConstSpan2D rows_range(index_t r0, index_t nr) const {
    assert(r0 >= 0 && nr >= 0 && r0 + nr <= rows);
    return {data + r0, nr, cols, ld};
  }
};

template <class T>
ConstSpan2D<T> cspan(const Matrix<T>& m) {
  return {m.data(), m.rows(), m.cols(), m.ld()};
}

}  // namespace dftfe::la
