// The AVX-512F variant of the GEMM micro-kernel (la/gemm_kernel.hpp),
// built with -mavx512f -mfma (src/CMakeLists.txt).
#define DFTFE_GEMM_ISA 512
#include "la/gemm_tile.hpp"
