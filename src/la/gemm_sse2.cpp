// The SSE2 variant of the GEMM micro-kernel (la/gemm_kernel.hpp): the
// x86-64 baseline, built with no extra flags.
#define DFTFE_GEMM_ISA 128
#include "la/gemm_tile.hpp"
