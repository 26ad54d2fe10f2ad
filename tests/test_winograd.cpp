// Unit tests for the Winograd recursion over Morton storage (src/core).
//
// Strassen-Winograd performs only additions, subtractions and
// multiplications, so on small-integer inputs every intermediate is an
// exactly-representable integer: these tests assert BIT-EXACT equality with
// the naive algorithm.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "common/arena.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/morton_matrix.hpp"
#include "core/winograd.hpp"
#include "core/workspace.hpp"
#include "layout/convert.hpp"

namespace strassen::core {
namespace {

// Runs the recursion on (tm<<depth) x (tk<<depth) by (tk<<depth) x
// (tn<<depth) integer matrices and compares with naive_gemm exactly.
void run_exact(int tm, int tk, int tn, int depth, std::uint64_t seed) {
  const int m = tm << depth, k = tk << depth, n = tn << depth;
  Rng rng(seed);
  Matrix<double> A(m, k), B(k, n), Cref(m, n), C(m, n);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                   B.data(), B.ld(), 0.0, Cref.data(), Cref.ld());

  const layout::MortonLayout la{m, k, tm, tk, depth};
  const layout::MortonLayout lb{k, n, tk, tn, depth};
  const layout::MortonLayout lc{m, n, tm, tn, depth};
  std::vector<double> Am(static_cast<std::size_t>(la.elems()));
  std::vector<double> Bm(static_cast<std::size_t>(lb.elems()));
  std::vector<double> Cm(static_cast<std::size_t>(lc.elems()), -1.0);
  layout::to_morton(la, Am.data(), Op::NoTrans, A.data(), A.ld());
  layout::to_morton(lb, Bm.data(), Op::NoTrans, B.data(), B.ld());

  Arena arena(winograd_workspace_bytes(tm, tk, tn, depth, sizeof(double)));
  RawMem mm;
  winograd_recurse(mm, Cm.data(), Am.data(), Bm.data(), tm, tk, tn, depth,
                   arena);
  layout::from_morton(lc, Cm.data(), 1.0, C.data(), C.ld(), 0.0);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Cref.view()), 0.0)
      << "tm=" << tm << " tk=" << tk << " tn=" << tn << " depth=" << depth;
}

TEST(WinogradRecurse, DepthZeroIsLeafGemm) { run_exact(7, 5, 6, 0, 1); }

TEST(WinogradRecurse, OneLevelSquare) { run_exact(4, 4, 4, 1, 2); }

TEST(WinogradRecurse, OneLevelRectangularTiles) { run_exact(3, 5, 7, 1, 3); }

TEST(WinogradRecurse, TwoLevels) { run_exact(4, 4, 4, 2, 4); }

TEST(WinogradRecurse, ThreeLevelsOddTiles) { run_exact(5, 3, 7, 3, 5); }

TEST(WinogradRecurse, FourLevelsPaperTile33) { run_exact(33, 33, 33, 1, 6); }

using Param = std::tuple<int, int, int, int>;  // tm, tk, tn, depth
class WinogradSweep : public ::testing::TestWithParam<Param> {};

TEST_P(WinogradSweep, ExactOnIntegers) {
  const auto [tm, tk, tn, depth] = GetParam();
  run_exact(tm, tk, tn, depth, static_cast<std::uint64_t>(tm * 1000 + depth));
}

INSTANTIATE_TEST_SUITE_P(
    TileAndDepth, WinogradSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 8), ::testing::Values(1, 3, 8),
                       ::testing::Values(1, 4, 6), ::testing::Values(1, 2, 3)));

TEST(WinogradWorkspace, ArenaPeakMatchesPrediction) {
  const int tm = 6, tk = 5, tn = 7, depth = 3;
  const std::size_t predicted =
      winograd_workspace_bytes(tm, tk, tn, depth, sizeof(double));
  const int m = tm << depth, k = tk << depth, n = tn << depth;
  std::vector<double> Am(static_cast<std::size_t>(m) * k, 1.0);
  std::vector<double> Bm(static_cast<std::size_t>(k) * n, 1.0);
  std::vector<double> Cm(static_cast<std::size_t>(m) * n);
  Arena arena(predicted);
  RawMem mm;
  // Must fit exactly: no bad_alloc, and the peak equals the prediction.
  winograd_recurse(mm, Cm.data(), Am.data(), Bm.data(), tm, tk, tn, depth,
                   arena);
  EXPECT_EQ(arena.peak(), predicted);
  EXPECT_EQ(arena.used(), 0u);  // fully unwound
}

TEST(WinogradRecurse, PaddedProblemMatchesLogicalProduct) {
  // Zero padding must be preserved: multiply padded matrices and check the
  // logical region AND that the pad region of C stays numerically exact.
  const int n = 23;  // logical
  const int tile = 6, depth = 2;  // padded 24
  Rng rng(13);
  Matrix<double> A(n, n), B(n, n), Cref(n, n), C(n, n);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                   B.data(), B.ld(), 0.0, Cref.data(), Cref.ld());
  const layout::MortonLayout l{n, n, tile, tile, depth};
  std::vector<double> Am(static_cast<std::size_t>(l.elems()));
  std::vector<double> Bm(static_cast<std::size_t>(l.elems()));
  std::vector<double> Cm(static_cast<std::size_t>(l.elems()));
  layout::to_morton(l, Am.data(), Op::NoTrans, A.data(), A.ld());
  layout::to_morton(l, Bm.data(), Op::NoTrans, B.data(), B.ld());
  Arena arena(winograd_workspace_bytes(tile, tile, tile, depth, sizeof(double)));
  RawMem mm;
  winograd_recurse(mm, Cm.data(), Am.data(), Bm.data(), tile, tile, tile,
                   depth, arena);
  layout::from_morton(l, Cm.data(), 1.0, C.data(), C.ld(), 0.0);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Cref.view()), 0.0);
  // The padded product of zero-padded operands has zero pads.
  for (int i = 0; i < l.padded_rows(); ++i) {
    for (int j = 0; j < l.padded_cols(); ++j) {
      if (i >= n || j >= n) {
        EXPECT_EQ(Cm[layout::morton_offset(l, i, j)], 0.0);
      }
    }
  }
}

// ---- the in-place rung: winograd_recurse_inplace --------------------------
//
// The in-place family's top level runs analysis::kWinogradInPlace over the
// caller's Morton operand copies, overwriting them with the operand sums;
// its children run the low-memory table.

// Runs winograd_recurse_inplace on Morton copies of A and B (planned like
// modgemm plans an n x n x n product) into C; A and B are destroyed.
void run_inplace(const MortonProductPlan& plan, MortonMatrix& A,
                 MortonMatrix& B, MortonMatrix& C) {
  const int tm = plan.a.tile_rows, tk = plan.a.tile_cols,
            tn = plan.b.tile_cols;
  Arena arena(winograd_workspace_bytes(tm, tk, tn, plan.depth, sizeof(double),
                                       analysis::ScheduleFamily::kInPlace));
  RawMem mm;
  winograd_recurse_inplace(mm, C.data(), A.data(), B.data(), tm, tk, tn,
                           plan.depth, arena);
  EXPECT_EQ(arena.used(), 0u);
}

// Integer n x n operands and their exact product.
struct InplaceInputs {
  MortonProductPlan plan;
  Matrix<double> A, B, Ref;
  InplaceInputs(int n, std::uint64_t seed)
      : plan(plan_morton_product(n, n, n)), A(n, n), B(n, n), Ref(n, n) {
    Rng rng(seed);
    rng.fill_int(A.storage(), -2, 2);
    rng.fill_int(B.storage(), -2, 2);
    blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                     B.data(), n, 0.0, Ref.data(), n);
  }
};

class InplaceSizes : public ::testing::TestWithParam<int> {};

TEST_P(InplaceSizes, ExactOnIntegers) {
  const int n = GetParam();
  InplaceInputs s(n, static_cast<std::uint64_t>(n));
  MortonMatrix Am = MortonMatrix::from_colmajor(s.plan.a, s.A.view());
  MortonMatrix Bm = MortonMatrix::from_colmajor(s.plan.b, s.B.view());
  MortonMatrix Cm(s.plan.c);
  run_inplace(s.plan, Am, Bm, Cm);
  Matrix<double> C(n, n);
  Cm.to_colmajor(C.view());
  EXPECT_EQ(max_abs_diff<double>(C.view(), s.Ref.view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, InplaceSizes,
                         ::testing::Values(100, 150, 256, 257, 300, 513));

TEST(Inplace, DestroysItsOperands) {
  const int n = 200;
  InplaceInputs s(n, 7);
  MortonMatrix Am = MortonMatrix::from_colmajor(s.plan.a, s.A.view());
  MortonMatrix Bm = MortonMatrix::from_colmajor(s.plan.b, s.B.view());
  MortonMatrix Cm(s.plan.c);
  run_inplace(s.plan, Am, Bm, Cm);
  // The top level's operand sums now sit in A's and B's quadrant slots.
  Matrix<double> Aout(n, n), Bout(n, n), C(n, n);
  Am.to_colmajor(Aout.view());
  Bm.to_colmajor(Bout.view());
  Cm.to_colmajor(C.view());
  EXPECT_GT(max_abs_diff<double>(Aout.view(), s.A.view()), 0.0);
  EXPECT_GT(max_abs_diff<double>(Bout.view(), s.B.view()), 0.0);
  EXPECT_EQ(max_abs_diff<double>(C.view(), s.Ref.view()), 0.0);
}

TEST(Inplace, DepthZeroLeafStillWorks) {
  // A single-tile layout (depth 0): reduces to the leaf kernel.
  const layout::MortonLayout l{40, 40, 40, 40, 0};
  const MortonProductPlan plan{l, l, l, 0};
  Rng rng(11);
  Matrix<double> A(40, 40), B(40, 40), Ref(40, 40), C(40, 40);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, 40, 40, 40, 1.0, A.data(), 40,
                   B.data(), 40, 0.0, Ref.data(), 40);
  MortonMatrix Am = MortonMatrix::from_colmajor(l, A.view());
  MortonMatrix Bm = MortonMatrix::from_colmajor(l, B.view());
  MortonMatrix Cm(l);
  run_inplace(plan, Am, Bm, Cm);
  Cm.to_colmajor(C.view());
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

}  // namespace
}  // namespace strassen::core
