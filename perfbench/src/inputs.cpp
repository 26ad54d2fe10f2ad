// inputs.cpp -- seeded operands, the four workloads, and small statistics.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/modgemm.hpp"
#include "layout/plan.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  // 53 random bits -> [0, 1) -> [-1, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-52 - 1.0;
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t purpose,
                       std::uint64_t index) {
  Rng r(seed ^ (purpose * 0xD1B54A32D192ED03ULL) ^
        (index * 0x8CB92BA72F3D8DD7ULL));
  r.next();
  return r.next();
}

Shape make_shape(int m, int k, int n, Op opa, Op opb, double alpha,
                 double beta) {
  Shape s;
  s.m = m;
  s.k = k;
  s.n = n;
  s.opa = opa;
  s.opb = opb;
  s.alpha = alpha;
  s.beta = beta;
  return s;
}

std::string shape_name(const Shape& s) {
  std::ostringstream os;
  os << s.m << "x" << s.k << "x" << s.n << "/" << strassen::op_char(s.opa)
     << strassen::op_char(s.opb);
  if (s.alpha != 1.0 || s.beta != 0.0)
    os << "/a=" << s.alpha << ",b=" << s.beta;
  if (!s.budget_label.empty()) os << "/budget=" << s.budget_label;
  return os.str();
}

Cell make_cell(const Shape& s, std::uint64_t seed) {
  Cell c;
  c.s = s;
  c.name = shape_name(s);
  const int arows = s.opa == Op::NoTrans ? s.m : s.k;
  const int acols = s.opa == Op::NoTrans ? s.k : s.m;
  const int brows = s.opb == Op::NoTrans ? s.k : s.n;
  const int bcols = s.opb == Op::NoTrans ? s.n : s.k;
  c.lda = arows;
  c.ldb = brows;
  c.ldc = s.m;
  Rng rng(seed);
  auto fill = [&](std::vector<double>& v, std::size_t count) {
    v.resize(count);
    for (double& e : v) e = rng.uniform();
  };
  fill(c.A, static_cast<std::size_t>(arows) * acols);
  fill(c.B, static_cast<std::size_t>(brows) * bcols);
  if (s.beta != 0.0) fill(c.C0, static_cast<std::size_t>(s.m) * s.n);
  c.x.resize(static_cast<std::size_t>(s.n));
  for (double& e : c.x) e = (rng.next() & 1) ? 1.0 : -1.0;
  c.C.assign(static_cast<std::size_t>(s.m) * s.n, 0.0);
  prepare_check(c);
  return c;
}

void Cell::reset_output() {
  if (s.beta != 0.0)
    std::copy(C0.begin(), C0.end(), C.begin());
  else
    std::fill(C.begin(), C.end(), 0.25);
}

// ---- workloads --------------------------------------------------------------
//
// Why each workload exists (see perfbench/README.md for the full note):
//   square_serial    -- deep Morton recursion: leaf kernel, element-wise adds,
//                       conversion and tile choice do nearly all the work.
//   dgemm_mix_serial -- the full dgemm convention: families, pack-fused,
//                       splitter, direct path, alpha/beta fusion and the
//                       workspace-budget ladder; shallow recursion.
//   batched_pool     -- small products where per-call overhead dominates:
//                       planning, plan cache, arenas, pool scheduling.
//   parallel_square  -- the pool in depth: deep spawning, steals, parallel
//                       conversion and the hand-written parallel Winograd.

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "square_serial", "dgemm_mix_serial", "batched_pool", "parallel_square"};
  return names;
}

std::vector<Shape> workload_shapes(const std::string& name) {
  const Op N = Op::NoTrans, T = Op::Trans;
  std::vector<Shape> out;
  auto sq = [&](int n) { out.push_back(make_shape(n, n, n)); };
  if (name == "square_serial") {
    for (int n : {256, 513, 768, 1024, 1500, 2048}) sq(n);
  } else if (name == "dgemm_mix_serial") {
    out.push_back(make_shape(256, 361, 256));
    out.push_back(make_shape(200, 593, 765));
    out.push_back(make_shape(3000, 400, 400, T, N));
    out.push_back(make_shape(1500, 300, 700, N, T, 0.5, 1.0));
    out.push_back(make_shape(2500, 150, 2500));
    out.push_back(make_shape(64, 2048, 64));
    out.push_back(make_shape(700, 700, 2500, T, T, -1.0, 0.5));
    // The two budgeted cells force the low-memory rungs of the workspace
    // ladder; the budget is a share of what the unconstrained plan needs.
    const std::size_t need = strassen::core::modgemm_workspace_bytes(
        strassen::layout::plan_gemm(1024, 1024, 1024), sizeof(double));
    for (int pct : {95, 90}) {
      Shape s = make_shape(1024, 1024, 1024);
      s.budget = need / 100 * static_cast<std::size_t>(pct);
      s.budget_label = std::to_string(pct) + "%";
      out.push_back(s);
    }
  } else if (name == "batched_pool") {
    for (int i = 0; i < 12; ++i) out.push_back(make_shape(64, 64, 64));
    for (int i = 0; i < 12; ++i) out.push_back(make_shape(128, 128, 128));
    for (int i = 0; i < 12; ++i)
      out.push_back(make_shape(96, 200, 160, T, N, 1.0, 1.0));
    for (int i = 0; i < 12; ++i) out.push_back(make_shape(256, 361, 256));
  } else if (name == "parallel_square") {
    for (int n : {1024, 1500, 2048}) sq(n);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return out;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  const std::vector<Shape> shapes = workload_shapes(name);
  const int nproc = std::max(1, static_cast<int>(
                                    std::thread::hardware_concurrency()));
  if (name == "batched_pool") {
    w.kind = Kind::kBatched;
    w.threads = nproc;
  } else if (name == "parallel_square") {
    w.kind = Kind::kParallel;
    w.threads = nproc;
    w.blocked_stride = nproc;
  }
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    w.cells.push_back(make_cell(shapes[i], mix_seed(seed, 1, i)));
    const Shape& s = shapes[i];
    bool seen = false;
    for (int j : w.distinct) {
      const Shape& t = shapes[static_cast<std::size_t>(j)];
      seen = seen || (s.m == t.m && s.k == t.k && s.n == t.n &&
                      s.opa == t.opa && s.opb == t.opb &&
                      s.alpha == t.alpha && s.beta == t.beta);
    }
    if (!seen) w.distinct.push_back(static_cast<int>(i));
  }
  return w;
}

double Workload::unit_flops(std::size_t u) const {
  if (kind != Kind::kBatched) return cells[u].flops();
  double f = 0.0;
  for (const Cell& c : cells) f += c.flops();
  return f;
}

std::vector<int> pass_order(std::uint64_t seed, int pass, int count) {
  std::vector<int> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  Rng r(mix_seed(seed, 2, static_cast<std::uint64_t>(pass)));
  for (int i = count - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[r.below(static_cast<std::uint64_t>(i) + 1)]);
  return order;
}

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double e : v) s += std::log(e);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace perfbench
