// check.cpp -- Freivalds product check, independent of the library.
//
// For an output C of C <- alpha*op(A).op(B) + beta*C0 and a +-1 vector x,
// r = C.x - (alpha*op(A)(op(B)x) + beta*C0.x) costs O(mk + kn + mn), and any
// single wrong element C(i,j) = true + delta shows up as |r_i| = |delta|.
//
// Tolerance.  Higham (Accuracy and Stability of Numerical Algorithms,
// Thm 23.3) bounds the Strassen-Winograd error normwise with a growth factor
// of 18 per recursion level.  That worst case is far too loose to catch a
// loss of precision at the workload sizes: at n = 2048 (depth 6) it admits
// row residuals near 1e-2, while a C rounded to float leaves about 6e-5.
// Residuals measured on the seeded uniform [-1, 1) operands stay within
// 2.5 u.zmag_i at every workload shape (zmag_i is row i of
// |alpha||op(A)|(|op(B)||x|) + |beta||C0||x|), growing far more slowly than
// 18^d.  The tolerance is therefore componentwise in zmag_i, with the same
// geometric shape in the depth d but a factor of 3 per level:
//   tol_i = (8 (n + k + 2) + 32 * 3^d) u zmag_i.
// The first term covers the rounding of the check's own dot products, the
// second the product's error at the depth the library reported for the call.
// At n = 2048, d = 6 this is about 2e4 times the observed residual and a
// tenth of what a float-rounded C leaves; perfbench_selftest checks that a
// float-rounded 1500^3 result fails.
#include <algorithm>
#include <cmath>
#include <limits>

#include "bench.hpp"

namespace perfbench {
namespace {

// y <- op(M).v for op(M) rows x cols, M stored column-major with ld; with
// absval, |op(M)|.|v|.
void apply(Op op, int rows, int cols, const double* M, int ld,
           const double* v, double* y, bool absval) {
  auto val = [absval](double e) { return absval ? std::fabs(e) : e; };
  if (op == Op::NoTrans) {
    std::fill(y, y + rows, 0.0);
    for (int p = 0; p < cols; ++p) {
      const double* col = M + static_cast<std::size_t>(p) * ld;
      const double vp = val(v[p]);
      for (int i = 0; i < rows; ++i) y[i] += val(col[i]) * vp;
    }
    return;
  }
  for (int i = 0; i < rows; ++i) {
    const double* col = M + static_cast<std::size_t>(i) * ld;
    double acc = 0.0;
    for (int p = 0; p < cols; ++p) acc += val(col[p]) * val(v[p]);
    y[i] = acc;
  }
}

constexpr double kUnit = std::numeric_limits<double>::epsilon() / 2;

}  // namespace

void prepare_check(Cell& c) {
  const Shape& s = c.s;
  const int mind = std::min({s.m, s.k, s.n});
  c.depth_bound =
      mind > 16 ? static_cast<int>(std::ceil(std::log2(mind / 16.0))) : 0;
  c.depth = c.depth_bound;

  std::vector<double> w(static_cast<std::size_t>(s.k));
  std::vector<double> t(static_cast<std::size_t>(s.m));
  c.z.assign(static_cast<std::size_t>(s.m), 0.0);
  c.zmag.assign(static_cast<std::size_t>(s.m), 0.0);
  for (int pass = 0; pass < 2; ++pass) {
    const bool absval = pass == 1;
    std::vector<double>& out = absval ? c.zmag : c.z;
    apply(s.opb, s.k, s.n, c.B.data(), c.ldb, c.x.data(), w.data(), absval);
    apply(s.opa, s.m, s.k, c.A.data(), c.lda, w.data(), out.data(), absval);
    const double a = absval ? std::fabs(s.alpha) : s.alpha;
    for (double& e : out) e *= a;
    if (s.beta != 0.0) {
      apply(Op::NoTrans, s.m, s.n, c.C0.data(), c.ldc, c.x.data(), t.data(),
            absval);
      const double b = absval ? std::fabs(s.beta) : s.beta;
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += b * t[i];
    }
  }
}

CheckResult freivalds_check(const Cell& c, const double* C, int ldc,
                            int depth) {
  const Shape& s = c.s;
  std::vector<double> y(static_cast<std::size_t>(s.m));
  apply(Op::NoTrans, s.m, s.n, C, ldc, c.x.data(), y.data(), false);

  const double scale =
      (8.0 * (s.n + s.k + 2) + 32.0 * std::pow(3.0, std::max(depth, 0))) *
      kUnit;

  CheckResult res;
  res.ok = true;
  for (int i = 0; i < s.m; ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    const double tol = scale * c.zmag[ii];
    const double r = std::fabs(y[ii] - c.z[ii]);
    const double ratio = std::isfinite(r) ? r / tol
                                          : std::numeric_limits<double>::infinity();
    res.worst_ratio = std::max(res.worst_ratio, ratio);
    if (!(r <= tol)) res.ok = false;
  }
  return res;
}

}  // namespace perfbench
