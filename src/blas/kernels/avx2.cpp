// kernels/avx2.cpp -- AVX2+FMA micro-kernels for double.
//
// Compiled with per-file -mavx2 -mfma (see src/CMakeLists.txt) so the rest
// of the library keeps its portable -march; the registry only routes here
// when cpuid reports AVX2+FMA at runtime.
//
// The register block is 8x6: 12 ymm accumulators + 2 A vectors + 1 B
// broadcast = 15 of 16 ymm, the classic double-precision blocking for
// 16-register AVX2.
//
// Columns are contiguous in column-major storage, so A loads are plain
// unaligned vector loads for ANY leading dimension; Morton leaf operands are
// additionally contiguous (ld == rows) and 64-byte aligned, which is the
// fast case the engine is built around.
//
// Edges run register blocks too, so a tile that is not a multiple of the
// block (25, 33, 47, 63 -- the planner picks such tiles to keep padding
// small) keeps near the full-block rate:
//
//   row remainder    (m % 8)   one block of ceil(rem / 4) row vectors whose
//                              last vector is masked (vmaskmovpd loads and
//                              stores: nothing past row m is read or written);
//   column remainder (n % 6)   the same block template at width R = n % 6,
//                              ceil(8 / R) row vectors tall, so at least
//                              eight FMA chains stay independent.
//
// Every element of C, edge or not, is one FMA chain over p in order followed
// by the same epilogue (alpha * acc, or fma(alpha, acc, C) in Accumulate
// mode), so its bits do not depend on which block covers it.
#include "blas/kernels/registry.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace strassen::blas::kernels {

namespace {

inline std::size_t off(int ld, int col) {
  return static_cast<std::size_t>(ld) * col;
}

// ---- operand views --------------------------------------------------------
// load4 reads four rows of column p; load4m reads only the lanes set in
// `mask` (the rest read as zero), so a row remainder never touches memory
// past row m -- not even within the same cache line.

struct AView {
  const double* a;
  int lda;
  __m256d load4(int i, int p) const { return _mm256_loadu_pd(a + off(lda, p) + i); }
  __m256d load4m(int i, int p, __m256i mask) const {
    return _mm256_maskload_pd(a + off(lda, p) + i, mask);
  }
};

struct BView {
  const double* b;
  int ldb;
  double at(int p, int j) const { return b[off(ldb, j) + p]; }
};

// Lanes [0, rows) of a four-lane vector, rows in 1..4.
inline __m256i lane_mask(int rows) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(rows),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

// ---- kernel blocks --------------------------------------------------------

// One (4 MV) x NR register block at (i, j): C block {=, +=} alpha * A.B.
// With kTail the last row vector loads and stores only the lanes in `mask`.
// The fixed-trip loops are unrolled early (#pragma GCC unroll) so that
// `acc` is scalarized into registers: otherwise GCC keeps the array on the
// stack for the epilogue and spills every accumulator after the k-loop.
template <int MV, int NR, bool kTail>
void block(const AView& A, const BView& B, int k, double* C, int ldc,
           LeafMode mode, double alpha, int i, int j, __m256i mask) {
  auto masked = [](int v) { return kTail && v == MV - 1; };
  __m256d acc[NR][MV];
  #pragma GCC unroll 16
  for (int jj = 0; jj < NR; ++jj)
    #pragma GCC unroll 16
    for (int v = 0; v < MV; ++v) acc[jj][v] = _mm256_setzero_pd();
  for (int p = 0; p < k; ++p) {
    __m256d a[MV];
    #pragma GCC unroll 16
    for (int v = 0; v < MV; ++v)
      a[v] = masked(v) ? A.load4m(i + 4 * v, p, mask) : A.load4(i + 4 * v, p);
    #pragma GCC unroll 16
    for (int jj = 0; jj < NR; ++jj) {
      const __m256d b = _mm256_set1_pd(B.at(p, j + jj));
      #pragma GCC unroll 16
      for (int v = 0; v < MV; ++v)
        acc[jj][v] = _mm256_fmadd_pd(a[v], b, acc[jj][v]);
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
  #pragma GCC unroll 16
  for (int jj = 0; jj < NR; ++jj) {
    double* c = C + off(ldc, j + jj) + i;
    #pragma GCC unroll 16
    for (int v = 0; v < MV; ++v) {
      double* cv = c + 4 * v;
      // Accumulate is one FMA, C + alpha * acc rounded once, written out
      // because GCC's default -ffp-contract=fast fuses a mul+add in some
      // instantiations and not in others, and the bits must not depend on
      // that.
      __m256d r = _mm256_mul_pd(va, acc[jj][v]);
      if (mode == LeafMode::Accumulate)
        r = _mm256_fmadd_pd(va, acc[jj][v],
                            masked(v) ? _mm256_maskload_pd(cv, mask)
                                      : _mm256_loadu_pd(cv));
      if (masked(v))
        _mm256_maskstore_pd(cv, mask, r);
      else
        _mm256_storeu_pd(cv, r);
    }
  }
}

// The last `rows` (1..4 MV) rows of a panel: one block of ceil(rows / 4)
// vectors, the last one masked.
template <int MV, int NR>
void tail_block(const AView& A, const BView& B, int k, double* C, int ldc,
                LeafMode mode, double alpha, int i, int j, int rows) {
  if constexpr (MV > 1) {
    if (rows <= 4 * (MV - 1)) {
      tail_block<MV - 1, NR>(A, B, k, C, ldc, mode, alpha, i, j, rows);
      return;
    }
  }
  block<MV, NR, true>(A, B, k, C, ldc, mode, alpha, i, j,
                      lane_mask(rows - 4 * (MV - 1)));
}

// Columns [j, j + NR) over all m rows: full blocks of MV row vectors, then
// the row remainder as one masked tail block.
template <int MV, int NR>
void panel(const AView& A, const BView& B, int m, int k, double* C, int ldc,
           LeafMode mode, double alpha, int j) {
  int i = 0;
  for (; i + 4 * MV <= m; i += 4 * MV)
    block<MV, NR, false>(A, B, k, C, ldc, mode, alpha, i, j, __m256i{});
  if (i < m) tail_block<MV, NR>(A, B, k, C, ldc, mode, alpha, i, j, m - i);
}

// The column remainder: R = n % NR columns starting at j, as one panel of
// width R whose blocks are tall enough (ceil(8 / R) row vectors) to keep at
// least eight independent FMA chains in flight.
template <int NR, int R = 1>
void edge_panel(const AView& A, const BView& B, int m, int k, double* C,
                int ldc, LeafMode mode, double alpha, int j, int r) {
  if constexpr (R < NR) {
    if (r == R) {
      panel<(8 + R - 1) / R, R>(A, B, m, k, C, ldc, mode, alpha, j);
      return;
    }
    edge_panel<NR, R + 1>(A, B, m, k, C, ldc, mode, alpha, j, r);
  }
}

// C {=, +=} alpha * A.B over m x n.  The full 8x6 blocks run as one flat
// loop rather than through panel(), which measured 2-5% slower at T <= 32;
// the remainders follow.
void gemm_main(int m, int n, int k, const AView& A, const BView& B,
               double* C, int ldc, LeafMode mode, double alpha) {
  constexpr int MV = 2, NR = 6;  // 8 rows = two ymm vectors
  const int mM = m - m % (4 * MV);
  const int nN = n - n % NR;
  for (int j = 0; j < nN; j += NR)
    for (int i = 0; i < mM; i += 4 * MV)
      block<MV, NR, false>(A, B, k, C, ldc, mode, alpha, i, j, __m256i{});
  if (mM < m)
    for (int j = 0; j < nN; j += NR)
      tail_block<MV, NR>(A, B, k, C, ldc, mode, alpha, mM, j, m - mM);
  if (nN < n) edge_panel<NR>(A, B, m, k, C, ldc, mode, alpha, nN, n - nN);
}

// ---- table entries --------------------------------------------------------

void avx2_gemm(int m, int n, int k, const double* A, int lda, const double* B,
               int ldb, double* C, int ldc, LeafMode mode, double alpha) {
  gemm_main(m, n, k, AView{A, lda}, BView{B, ldb}, C, ldc, mode, alpha);
}

// ---- element-wise quadrant kernels ---------------------------------------
// Exact aliasing (dst == a or dst == b) is safe: each vector is fully loaded
// before its lane range is stored.

void avx2_vadd(std::size_t n, double* dst, const double* a, const double* b) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void avx2_vsub(std::size_t n, double* dst, const double* a, const double* b) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

void avx2_vadd_inplace(std::size_t n, double* dst, const double* a) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(a + i)));
  for (; i < n; ++i) dst[i] += a[i];
}

void avx2_vsub_inplace(std::size_t n, double* dst, const double* a) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(a + i)));
  for (; i < n; ++i) dst[i] -= a[i];
}

constexpr LeafKernels kTable = {
    Kind::kAvx2,
    "avx2",
    /*mr=*/8,
    /*nr=*/6,
    avx2_gemm,
    avx2_vadd,
    avx2_vsub,
    avx2_vadd_inplace,
    avx2_vsub_inplace,
};

}  // namespace

namespace detail {
const LeafKernels* avx2_table() noexcept { return &kTable; }
}  // namespace detail

}  // namespace strassen::blas::kernels

#else  // !(__AVX2__ && __FMA__)

namespace strassen::blas::kernels::detail {
// This build's compiler flags could not enable AVX2+FMA for this TU; the
// registry treats the kind as not compiled in.
const LeafKernels* avx2_table() noexcept { return nullptr; }
}  // namespace strassen::blas::kernels::detail

#endif
