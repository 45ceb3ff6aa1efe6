#pragma once

// Reusable workspace layer for the SCF hot path (paper Sec. 5.4.1): the
// cell-level batched GEMMs, the Chebyshev filter, and the orthonormalization /
// Rayleigh-Ritz cycles are applied thousands of times per solve, and a heap
// allocation per apply would dominate the small-block regime the CF-blocksize
// ablation explores. Every scratch buffer in the hot path is therefore either
//
//  * a persistent `WorkMatrix` member of the object that uses it (Hamiltonian
//    scaled/vector buffers, CellStiffness gather/scatter chunks, ChFES filter
//    ping-pong blocks and CholGS/RR overlap, eigenvector and rotation
//    buffers), or
//  * a thread-local persistent panel (`gemm` packing buffers, mixed-precision
//    demotion scratch).
//
// Both routes report through `WorkspaceCounters`, so tests can assert the
// steady-state invariant directly: after the first SCF iteration has warmed
// the buffers, later iterations allocate zero fresh heap buffers.
//
// Ownership rules (see DESIGN.md "Hot-path memory & kernel architecture"):
//  * WorkMatrix buffers belong to exactly one object and are sized by
//    `acquire`; contents are unspecified on acquire and must be overwritten.
//    An object driven from several threads needs one WorkMatrix per thread.
//  * Thread-local scratch is per (thread, scalar type) and grow-only.

#include <atomic>
#include <cstdint>

#include "base/defs.hpp"
#include "la/matrix.hpp"

namespace dftfe::la {

/// Process-wide instrumentation of workspace-managed buffers. `allocations()`
/// counts fresh heap growth events (a buffer created or grown past its
/// high-water mark); `checkouts()` counts `WorkMatrix::acquire` calls
/// regardless of whether they allocated. The zero-allocation test hook: warm
/// up, `reset()`, run more iterations, assert `allocations() == 0`.
class WorkspaceCounters {
 public:
  static void note_alloc(std::int64_t bytes) {
    allocs().fetch_add(1, std::memory_order_relaxed);
    alloc_bytes().fetch_add(bytes, std::memory_order_relaxed);
  }
  static void note_checkout() { checkout_count().fetch_add(1, std::memory_order_relaxed); }

  static std::int64_t allocations() { return allocs().load(std::memory_order_relaxed); }
  static std::int64_t bytes_allocated() {
    return alloc_bytes().load(std::memory_order_relaxed);
  }
  static std::int64_t checkouts() {
    return checkout_count().load(std::memory_order_relaxed);
  }
  static void reset() {
    allocs().store(0, std::memory_order_relaxed);
    alloc_bytes().store(0, std::memory_order_relaxed);
    checkout_count().store(0, std::memory_order_relaxed);
  }

 private:
  static std::atomic<std::int64_t>& allocs() {
    static std::atomic<std::int64_t> v{0};
    return v;
  }
  static std::atomic<std::int64_t>& alloc_bytes() {
    static std::atomic<std::int64_t> v{0};
    return v;
  }
  static std::atomic<std::int64_t>& checkout_count() {
    static std::atomic<std::int64_t> v{0};
    return v;
  }
};

/// A persistent matrix-shaped scratch buffer owned by one object. `acquire`
/// reshapes in place reusing storage; it allocates (and counts) only when the
/// requested size exceeds the high-water mark. Contents after `acquire` are
/// unspecified — callers must fully overwrite (or use `acquire_zeroed`).
template <class T>
class WorkMatrix {
 public:
  Matrix<T>& acquire(index_t rows, index_t cols) {
    WorkspaceCounters::note_checkout();
    const index_t need = rows * cols;
    if (need > highwater_) {
      WorkspaceCounters::note_alloc(static_cast<std::int64_t>(need - highwater_) *
                                    static_cast<std::int64_t>(sizeof(T)));
      highwater_ = need;
    }
    m_.reshape(rows, cols);
    return m_;
  }
  Matrix<T>& acquire_zeroed(index_t rows, index_t cols) {
    Matrix<T>& m = acquire(rows, cols);
    m.zero();
    return m;
  }
  Matrix<T>& get() { return m_; }
  const Matrix<T>& get() const { return m_; }

  /// High-water element count (the persistent footprint of this buffer).
  index_t highwater() const { return highwater_; }
  std::int64_t highwater_bytes() const {
    return static_cast<std::int64_t>(highwater_) * static_cast<std::int64_t>(sizeof(T));
  }

  /// Swap storage with another matrix of the same size (allocation-free
  /// subspace rotation: gemm into the work buffer, then swap with the target).
  void swap(Matrix<T>& other) {
    m_.swap(other);
    const index_t sz = m_.size();
    if (sz > highwater_) highwater_ = sz;
  }

 private:
  Matrix<T> m_;
  index_t highwater_ = 0;
};

/// Grow-only ensure for plain vector scratch (thread-local panels and
/// demotion buffers); counts fresh growth through WorkspaceCounters.
template <class V>
inline void ensure_scratch(V& v, std::size_t n) {
  if (v.size() < n) {
    WorkspaceCounters::note_alloc(
        static_cast<std::int64_t>((n - v.size()) * sizeof(typename V::value_type)));
    v.resize(n);
  }
}

}  // namespace dftfe::la
