// selftest.cpp -- checks of the benchmark's own machinery: the Freivalds
// check catches a single wrong element and a float-precision result, the
// frozen reference is correct, inputs are a pure function of the seed, and
// span self time subtracts the union of child intervals.
//
// Run: perfbench_selftest (exit status 0 = all checks passed).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "bench.hpp"
#include "blas/gemm.hpp"
#include "core/modgemm.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

// Textbook triple loop: the reference the check is validated against.
void naive(const Cell& c, std::vector<double>& C) {
  const Shape& s = c.s;
  for (int j = 0; j < s.n; ++j)
    for (int i = 0; i < s.m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < s.k; ++p) {
        const double a = s.opa == Op::NoTrans
                             ? c.A[static_cast<std::size_t>(i + p * c.lda)]
                             : c.A[static_cast<std::size_t>(p + i * c.lda)];
        const double b = s.opb == Op::NoTrans
                             ? c.B[static_cast<std::size_t>(p + j * c.ldb)]
                             : c.B[static_cast<std::size_t>(j + p * c.ldb)];
        acc += a * b;
      }
      const std::size_t ij = static_cast<std::size_t>(i + j * c.ldc);
      C[ij] = s.alpha * acc + (s.beta != 0.0 ? s.beta * c.C0[ij] : 0.0);
    }
}

void test_freivalds() {
  const Op N = Op::NoTrans, T = Op::Trans;
  const std::vector<Shape> shapes = {
      make_shape(97, 130, 75), make_shape(200, 120, 160, T, N),
      make_shape(150, 90, 110, N, T, 0.5, 1.0), make_shape(128, 256, 96, T, T, -1.0, 0.5),
      make_shape(300, 300, 300)};
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    Cell c = make_cell(shapes[si], 1000 + si);
    const Shape& s = c.s;
    std::vector<double> ref(c.C.size());
    naive(c, ref);
    expect(freivalds_check(c, ref.data(), c.ldc, 0).ok,
           "naive product passes: " + c.name);

    c.reset_output();
    strassen::obs::GemmReport rep;
    expect(strassen::core::try_modgemm(s.opa, s.opb, s.m, s.n, s.k, s.alpha,
                                       c.A.data(), c.lda, c.B.data(), c.ldb,
                                       s.beta, c.C.data(), c.ldc, {}, &rep) ==
               strassen::Status::kOk,
           "modgemm runs: " + c.name);
    expect(freivalds_check(c, c.C.data(), c.ldc, rep.plan.depth).ok,
           "modgemm output passes: " + c.name);

    // The frozen reference passes at depth 0, and computing it in two
    // column slabs gives the same bits as in one call.
    c.reset_output();
    ref_gemm(s, c.A.data(), c.lda, c.B.data(), c.ldb, c.C.data(), c.ldc, 0,
             s.n);
    expect(freivalds_check(c, c.C.data(), c.ldc, 0).ok,
           "reference output passes: " + c.name);
    const std::vector<double> whole = c.C;
    c.reset_output();
    ref_gemm(s, c.A.data(), c.lda, c.B.data(), c.ldb, c.C.data(), c.ldc, 0,
             s.n / 3);
    ref_gemm(s, c.A.data(), c.lda, c.B.data(), c.ldb, c.C.data(), c.ldc,
             s.n / 3, s.n);
    expect(c.C == whole, "reference in slabs matches one call: " + c.name);

    // Negative test: one element off by 1e-3 of the largest |C| is caught,
    // wherever it sits.
    double cmax = 0.0;
    for (double e : ref) cmax = std::max(cmax, std::fabs(e));
    const std::vector<std::pair<int, int>> spots = {
        {0, 0}, {s.m - 1, s.n - 1}, {s.m / 2, s.n / 3}};
    for (const auto& [i, j] : spots) {
      std::vector<double> bad = ref;
      bad[static_cast<std::size_t>(i + j * c.ldc)] += 1e-3 * cmax;
      const CheckResult r = freivalds_check(c, bad.data(), c.ldc, c.depth_bound);
      expect(!r.ok && r.worst_ratio > 1.0,
             "perturbed element (" + std::to_string(i) + "," +
                 std::to_string(j) + ") caught: " + c.name);
    }
    std::vector<double> nan = ref;
    nan[0] = std::numeric_limits<double>::quiet_NaN();
    expect(!freivalds_check(c, nan.data(), c.ldc, c.depth_bound).ok,
           "NaN caught: " + c.name);
    // The sentinel left by reset_output (an unwritten C) is caught.
    c.reset_output();
    if (s.beta == 0.0)
      expect(!freivalds_check(c, c.C.data(), c.ldc, c.depth_bound).ok,
             "unwritten output caught: " + c.name);
  }
}

// At a workload shape, MODGEMM's output passes at the depth the library
// reports, and the same output rounded to float precision is caught there
// and even at the deepest depth any plan could take.
void test_float_precision_caught() {
  Cell c = make_cell(make_shape(1500, 1500, 1500), 4242);
  const Shape& s = c.s;
  c.reset_output();
  strassen::obs::GemmReport rep;
  expect(strassen::core::try_modgemm(s.opa, s.opb, s.m, s.n, s.k, s.alpha,
                                     c.A.data(), c.lda, c.B.data(), c.ldb,
                                     s.beta, c.C.data(), c.ldc, {}, &rep) ==
             strassen::Status::kOk,
         "modgemm runs: " + c.name);
  expect(rep.plan.depth >= 1, "modgemm recurses on " + c.name);
  expect(freivalds_check(c, c.C.data(), c.ldc, rep.plan.depth).ok,
         "modgemm output passes: " + c.name);
  std::vector<double> rounded = c.C;
  for (double& e : rounded) e = static_cast<float>(e);
  for (int d : {rep.plan.depth, c.depth_bound})
    expect(!freivalds_check(c, rounded.data(), c.ldc, d).ok,
           "float-rounded output caught at depth " + std::to_string(d) +
               ": " + c.name);
}

bool same_inputs(const Workload& a, const Workload& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const Cell& x = a.cells[i];
    const Cell& y = b.cells[i];
    if (x.A != y.A || x.B != y.B || x.C0 != y.C0 || x.x != y.x) return false;
  }
  return true;
}

void test_seeds() {
  const Workload a = make_workload("batched_pool", 7);
  const Workload b = make_workload("batched_pool", 7);
  const Workload c = make_workload("batched_pool", 8);
  expect(same_inputs(a, b), "same seed gives the same inputs");
  expect(!same_inputs(a, c), "a different seed gives different inputs");
  // Items of one workload are distinct from each other, too.
  expect(a.cells[0].A != a.cells[1].A, "items get distinct operands");
  expect(pass_order(7, 3, 9) == pass_order(7, 3, 9),
         "same seed gives the same cell order");
  bool differs = false;
  for (int p = 0; p < 8; ++p)
    differs = differs || pass_order(7, p, 9) != pass_order(8, p, 9);
  expect(differs, "a different seed gives a different cell order");
  std::vector<int> sorted = pass_order(7, 0, 9);
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 9; ++i)
    expect(sorted[static_cast<std::size_t>(i)] == i,
           "cell order is a permutation");
}

void test_self_time() {
  // parent [0,100] with children [10,30], [20,50] (overlapping) and [60,70]:
  // the children cover 50 ns, so the parent's self time is 50 ns.
  auto span = [](std::int64_t t0, std::int64_t t1, int parent) {
    Span s;
    s.t0 = t0;
    s.t1 = t1;
    s.parent = parent;
    return s;
  };
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0),
                                   span(20, 50, 0), span(60, 70, 0)};
  const std::vector<double> self = self_seconds(spans);
  expect(std::fabs(self[0] - 50e-9) < 1e-15, "self time subtracts the union");
  expect(std::fabs(self[1] - 20e-9) < 1e-15, "leaf self time is its length");

  Recorder r;
  const int p = r.open("parent");
  r.add("child", 0, 0);
  r.close(p);
  expect(r.spans()[1].parent == p, "open span is the parent of a new one");
}

}  // namespace

int main() {
  test_freivalds();
  test_float_precision_caught();
  test_seeds();
  test_self_time();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
