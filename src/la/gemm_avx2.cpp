// The AVX2 + FMA variant of the GEMM micro-kernel (la/gemm_kernel.hpp),
// built with -mavx2 -mfma (src/CMakeLists.txt).
#define DFTFE_GEMM_ISA 256
#include "la/gemm_tile.hpp"
