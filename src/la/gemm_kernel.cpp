// Run-time choice of the GEMM micro-kernel variant (la/gemm_kernel.hpp).
// Built with the portable flags: it only reads CPUID through libgcc.

#include "la/gemm_kernel.hpp"

namespace dftfe::la::kernel {

// Defined by la/gemm_sse2.cpp, la/gemm_avx2.cpp and la/gemm_avx512.cpp.
extern const Table kSse2Table;
extern const Table kAvx2Table;
extern const Table kAvx512Table;

namespace {
const Table* const kVariants[] = {&kAvx512Table, &kAvx2Table, &kSse2Table};
}  // namespace

std::span<const Table* const> variants() { return kVariants; }

bool host_supports(Isa isa) {
  __builtin_cpu_init();
  switch (isa) {
    case Isa::avx512:
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
    case Isa::avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::sse2:
      return true;
  }
  return false;
}

const Table& active() {
  static const Table& chosen = []() -> const Table& {
    for (const Table* t : kVariants)
      if (host_supports(t->isa)) return *t;
    return kSse2Table;
  }();
  return chosen;
}

}  // namespace dftfe::la::kernel
