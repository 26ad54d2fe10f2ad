// layers.cpp -- the traced run's layer probes and every metric.
//
// Each probe is a span around calls into one layer's public functions, made
// on the workload's own cells.  Metrics are computed afterwards from the
// spans' self times and work, and from the GemmReports of traced calls.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>

#include "bench.hpp"
#include "baselines/dgefmm.hpp"
#include "blas/kernels.hpp"
#include "blas/level1.hpp"
#include "core/modgemm.hpp"
#include "core/morton_matrix.hpp"
#include "layout/convert.hpp"
#include "layout/plan.hpp"
#include "parallel/thread_pool.hpp"
#include "tune/plan_cache.hpp"

namespace perfbench {
namespace {

namespace layout = strassen::layout;
namespace core = strassen::core;

volatile double g_sink = 0.0;

// Repetitions of f that take about target_s (f is run once first, warm).
int calibrate(const std::function<void()>& f, double target_s) {
  f();
  for (long r = 1;; r *= 4) {
    const std::int64_t t0 = now_ns();
    for (long i = 0; i < r; ++i) f();
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    if (dt >= target_s / 8 || r >= (1L << 22))
      return static_cast<int>(std::clamp(
          static_cast<double>(r) * target_s / std::max(dt, 1e-9), 1.0,
          static_cast<double>(1L << 24)));
  }
}

// Runs f `reps` times inside one span whose work is reps * work_per_call.
void timed_loop(Recorder& rec, const char* name, int cell, int arg,
                double work_per_call, const std::function<void()>& f,
                double target_s) {
  const int reps = calibrate(f, target_s);
  ScopedSpan sp(rec, name, cell, arg, work_per_call * reps);
  for (int i = 0; i < reps; ++i) f();
}

bool strassen_plan(const layout::GemmPlan& p) {
  return p.feasible && !p.direct && p.depth >= 1;
}

strassen::tune::PlanKey key_for(const Shape& s) {
  const layout::TileOptions t{};
  strassen::tune::PlanKey k;
  k.m = s.m;
  k.k = s.k;
  k.n = s.n;
  k.opa = static_cast<std::uint8_t>(s.opa);
  k.opb = static_cast<std::uint8_t>(s.opb);
  k.elem_size = sizeof(double);
  k.min_tile = t.min_tile;
  k.max_tile = t.max_tile;
  k.preferred_tile = t.preferred_tile;
  k.direct_threshold = t.direct_threshold;
  k.packfused_max_depth = t.packfused_max_depth;
  return k;
}

// Element counts of the A, B and C quadrants one recursion node at `level`
// (0 = top) adds, for a <2,2,2> plan.
std::array<long, 3> quadrant_elems(const layout::GemmPlan& p, int level) {
  const long side = 1L << (p.depth - 1 - level);
  return {p.m.tile * side * p.k.tile * side, p.k.tile * side * p.n.tile * side,
          p.m.tile * side * p.n.tile * side};
}

void probe_cell(Session& s, Recorder& rec, int ci,
                strassen::tune::PlanCache& cache) {
  Cell& c = s.workload().cells[static_cast<std::size_t>(ci)];
  const Shape& sh = c.s;
  ScopedSpan cell_span(rec, "bench.cell", ci, -1);

  timed_loop(rec, "layout.plan_gemm", ci, 0, 1.0, [&] {
    g_sink = g_sink + layout::plan_gemm(sh.m, sh.k, sh.n).depth;
  }, 2e-4);
  timed_loop(rec, "layout.choose_algo", ci, 0, 1.0, [&] {
    g_sink = g_sink + static_cast<int>(layout::choose_algo(sh.m, sh.k, sh.n));
  }, 2e-4);
  const strassen::tune::PlanKey key = key_for(sh);
  if (cache.lookup(key) == nullptr)
    cache.insert(key, strassen::tune::CachedPlan{
                          layout::plan_gemm(sh.m, sh.k, sh.n), 0, {}});
  timed_loop(rec, "tune.PlanCache.lookup", ci, 0, 1.0, [&] {
    g_sink = g_sink + (cache.lookup(key) != nullptr);
  }, 2e-4);

  const layout::GemmPlan plan = layout::plan_gemm(sh.m, sh.k, sh.n);
  if (strassen_plan(plan)) {
    // Conversion, recursion and conversion back, as separate layer calls;
    // the recombined output is checked like any other.
    const core::MortonProductPlan mp =
        core::plan_morton_product(sh.m, sh.k, sh.n);
    core::MortonMatrix Am(mp.a), Bm(mp.b), Cm(mp.c);
    {
      const double bytes =
          8.0 * (static_cast<double>(sh.m) * sh.k + mp.a.elems() +
                 static_cast<double>(sh.k) * sh.n + mp.b.elems());
      ScopedSpan sp(rec, "layout.to_morton", ci, 0, bytes);
      layout::to_morton(mp.a, Am.data(), sh.opa, c.A.data(), c.lda);
      layout::to_morton(mp.b, Bm.data(), sh.opb, c.B.data(), c.ldb);
    }
    strassen::Arena arena(core::multiply_workspace_bytes(mp));
    {
      ScopedSpan sp(rec, "core.multiply", ci, 0, c.flops());
      core::multiply(Am, Bm, Cm, arena);
    }
    c.reset_output();
    {
      const double mn = static_cast<double>(sh.m) * sh.n;
      const double bytes =
          8.0 * (mp.c.elems() + mn * (sh.beta != 0.0 ? 2.0 : 1.0));
      ScopedSpan sp(rec, "layout.from_morton", ci, 0, bytes);
      layout::from_morton(mp.c, Cm.data(), sh.alpha, c.C.data(), c.ldc,
                          sh.beta);
    }
    const CheckResult r = freivalds_check(c, c.C.data(), c.ldc, plan.depth);
    s.count(r.ok, r.worst_ratio);

    // Leaf kernel at this cell's planned tile, operands hot.
    const int tm = plan.m.tile, tk = plan.k.tile, tn = plan.n.tile;
    std::vector<double> la(static_cast<std::size_t>(tm) * tk, 0.5),
        lb(static_cast<std::size_t>(tk) * tn, -0.25),
        lc(static_cast<std::size_t>(tm) * tn);
    timed_loop(rec, "blas.gemm_leaf", ci, tm, 2.0 * tm * tn * tk, [&] {
      strassen::blas::gemm_leaf(tm, tn, tk, la.data(), tm, lb.data(), tk,
                                lc.data(), tm,
                                strassen::blas::LeafMode::Overwrite);
    }, 1e-3);
    g_sink = g_sink + lc[0];

    // Element-wise add/sub at each recursion level's quadrant sizes.
    std::map<long, bool> done;
    for (int level = 0; level < plan.depth; ++level) {
      for (long n : quadrant_elems(plan, level)) {
        if (done[n]) continue;
        done[n] = true;
        std::vector<double> x(static_cast<std::size_t>(n), 1.0),
            y(static_cast<std::size_t>(n), 2.0),
            z(static_cast<std::size_t>(n));
        bool add = true;
        timed_loop(rec, "blas.vadd", ci, static_cast<int>(n), 24.0 * n, [&] {
          if (add)
            strassen::blas::vadd(static_cast<std::size_t>(n), z.data(),
                                 x.data(), y.data());
          else
            strassen::blas::vsub(static_cast<std::size_t>(n), z.data(),
                                 x.data(), y.data());
          add = !add;
        }, 1e-3);
        g_sink = g_sink + z[0];
      }
    }
  }

  if (s.workload().kind == Kind::kSerial) {
    c.reset_output();
    {
      ScopedSpan sp(rec, "baselines.dgefmm", ci, 0, c.flops());
      strassen::baselines::dgefmm(sh.opa, sh.opb, sh.m, sh.n, sh.k, sh.alpha,
                                  c.A.data(), c.lda, c.B.data(), c.ldb,
                                  sh.beta, c.C.data(), c.ldc);
    }
    const CheckResult r =
        freivalds_check(c, c.C.data(), c.ldc, c.depth_bound);
    s.count(r.ok, r.worst_ratio);
  } else if (s.workload().kind == Kind::kParallel) {
    s.call_library(ci, nullptr, /*serial=*/true);
    rec.add("core.modgemm.serial", s.last_call().t0, s.last_call().t1, ci, 0,
            c.flops());
  }
}

void probe_once_per_sweep(Session& s, Recorder& rec, int sweep) {
  // Best leaf rate over square tiles 16..128: the headroom tile choice has.
  for (int t = 16; t <= 128; t += 8) {
    std::vector<double> a(static_cast<std::size_t>(t) * t, 0.5),
        b(static_cast<std::size_t>(t) * t, -0.25),
        cc(static_cast<std::size_t>(t) * t);
    timed_loop(rec, "blas.gemm_leaf.sweep", -1, t, 2.0 * t * t * t, [&] {
      strassen::blas::gemm_leaf(t, t, t, a.data(), t, b.data(), t, cc.data(),
                                t, strassen::blas::LeafMode::Overwrite);
    }, 5e-4);
    g_sink = g_sink + cc[0];
  }
  if (s.pool() != nullptr) {
    constexpr int kTasks = 2000;
    ScopedSpan sp(rec, "parallel.TaskGroup", -1, sweep, kTasks);
    strassen::parallel::TaskGroup g(s.pool());
    for (int i = 0; i < kTasks; ++i) g.run([] {});
    g.wait();
  }
  if (s.workload().kind == Kind::kBatched) {
    s.call_library(sweep, nullptr, /*serial=*/true);
    double flops = 0.0;
    for (const Cell& c : s.workload().cells) flops += c.flops();
    rec.add("core.modgemm_batched.serial", s.last_call().t0,
            s.last_call().t1, 0, sweep, flops);
  }
}

// ---- metric helpers ---------------------------------------------------------

using PerCell = std::map<int, std::vector<double>>;

// value(span, self_seconds) for every span called `name`, grouped by cell.
PerCell collect(const Recorder& rec, const std::vector<double>& self,
                const char* name,
                const std::function<double(const Span&, double)>& value) {
  PerCell out;
  const std::string want = name;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& sp = rec.spans()[i];
    if (want == sp.name && self[i] > 0.0)
      out[sp.cell].push_back(value(sp, self[i]));
  }
  return out;
}

double rate(const Span& sp, double self) { return sp.work / self * 1e-9; }
double per_call_ns(const Span& sp, double self) { return self / sp.work * 1e9; }

double geomean_of_medians(const PerCell& pc) {
  std::vector<double> v;
  for (const auto& [cell, xs] : pc) v.push_back(median(xs));
  return geomean(v);
}

std::vector<double> medians(const std::vector<std::vector<double>>& xs) {
  std::vector<double> v;
  for (const auto& x : xs) v.push_back(x.empty() ? 0.0 : median(x));
  return v;
}

double gflops_of(Session& s, const std::vector<std::vector<double>>& times) {
  std::vector<double> rates;
  for (std::size_t u = 0; u < times.size(); ++u)
    if (!times[u].empty())
      rates.push_back(s.workload().unit_flops(u) / median(times[u]) * 1e-9);
  return geomean(rates);
}

// Geometric mean over units of the median reference time over the median
// library time.
double speedup_vs(const std::vector<std::vector<double>>& reference,
                  const Timings& t) {
  const std::vector<double> mod = medians(t.mod), ref = medians(reference);
  std::vector<double> ratios;
  for (std::size_t u = 0; u < mod.size(); ++u)
    if (mod[u] > 0 && ref[u] > 0) ratios.push_back(ref[u] / mod[u]);
  return geomean(ratios);
}

}  // namespace

void probe_layers(Session& s, Recorder& rec, double seconds) {
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  strassen::tune::PlanCache cache;
  int sweep = 0;
  do {
    ScopedSpan sp(rec, "bench.sweep", -1, sweep);
    const std::vector<int>& distinct = s.workload().distinct;
    const std::vector<int> order = pass_order(
        s.workload().seed ^ 0x5EEDULL, sweep, static_cast<int>(distinct.size()));
    for (int i : order)
      probe_cell(s, rec, distinct[static_cast<std::size_t>(i)], cache);
    probe_once_per_sweep(s, rec, sweep);
    ++sweep;
  } while (now_ns() - start < budget);
}

std::vector<Metric> end_to_end_metrics(Session& s) {
  return {
      {"speedup_vs_ref", "ratio", speedup_vs(s.untraced.ref, s.untraced)},
      {"peak_rss_mib", "MiB", peak_rss_mib()},
      {"setup_s", "s", median(s.setup_seconds)},
  };
}

std::vector<Metric> absolute_metrics(Session& s) {
  const Timings& t = s.untraced;
  std::vector<double> p50, p90;
  for (const auto& x : t.mod) {
    if (x.empty()) continue;
    p50.push_back(median(x) * 1e3);
    p90.push_back(percentile(x, 0.9) * 1e3);
  }
  return {
      {"gflops", "GF/s", gflops_of(s, t.mod)},
      {"ref_gflops", "GF/s", gflops_of(s, t.ref)},
      {"batch_ms_p50", "ms", geomean(p50)},
      {"batch_ms_p90", "ms", geomean(p90)},
  };
}

std::vector<Metric> layer_metrics(Session& s, const Recorder& rec) {
  const Workload& w = s.workload();
  const std::vector<double> self = rec.self_seconds();
  const bool serial = w.kind == Kind::kSerial;
  std::vector<Metric> m;
  auto add = [&](const char* name, const char* unit, double v) {
    m.push_back({name, unit, std::isfinite(v) ? v : 0.0});
  };
  const std::vector<double> mod_med = medians(s.untraced.mod);

  // ---- layout ----
  add("layout.plan_ns", "ns",
      geomean_of_medians(collect(rec, self, "layout.plan_gemm", per_call_ns)));
  add("layout.choose_algo_ns", "ns",
      geomean_of_medians(
          collect(rec, self, "layout.choose_algo", per_call_ns)));
  int non222 = 0;
  std::vector<double> pad, tile;
  double ws_planned = 0.0;
  for (const Cell& c : w.cells) {
    non222 += layout::choose_algo(c.s.m, c.s.k, c.s.n) !=
              strassen::analysis::AlgoFamily::k222;
    const layout::GemmPlan p = layout::plan_gemm(c.s.m, c.s.k, c.s.n);
    ws_planned = std::max(
        ws_planned, static_cast<double>(
                        core::modgemm_workspace_bytes(p, sizeof(double))));
    if (!strassen_plan(p)) continue;
    pad.push_back(static_cast<double>(p.m.padded) * p.k.padded * p.n.padded /
                      (static_cast<double>(c.s.m) * c.s.k * c.s.n) -
                  1.0);
    tile.push_back((p.m.tile + p.k.tile + p.n.tile) / 3.0);
  }
  add("layout.non222_frac", "share",
      static_cast<double>(non222) / static_cast<double>(w.cells.size()));
  add("layout.pad_frac", "share", mean(pad));
  add("layout.tile_mean", "elements", mean(tile));
  const PerCell to = collect(rec, self, "layout.to_morton", rate);
  const PerCell from = collect(rec, self, "layout.from_morton", rate);
  add("layout.to_morton_gbps", "GB/s", geomean_of_medians(to));
  add("layout.from_morton_gbps", "GB/s", geomean_of_medians(from));
  {
    // (to + from) / the same cell's untraced library call; serial only (the
    // pooled entry points convert in parallel, so the ratio would mislead).
    const PerCell to_s = collect(rec, self, "layout.to_morton",
                                 [](const Span&, double x) { return x; });
    const PerCell from_s = collect(rec, self, "layout.from_morton",
                                   [](const Span&, double x) { return x; });
    std::vector<double> share;
    for (const auto& [cell, xs] : to_s)
      if (serial && from_s.count(cell))
        share.push_back((median(xs) + median(from_s.at(cell))) /
                        mod_med[static_cast<std::size_t>(cell)]);
    add("layout.convert_share", "share", mean(share));
  }

  // ---- blas ----
  add("blas.leaf_gflops", "GF/s",
      geomean_of_medians(collect(rec, self, "blas.gemm_leaf", rate)));
  {
    std::map<int, std::vector<double>> by_tile;
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const Span& sp = rec.spans()[i];
      if (std::string("blas.gemm_leaf.sweep") == sp.name && self[i] > 0)
        by_tile[sp.arg].push_back(rate(sp, self[i]));
    }
    double best = 0.0;
    for (const auto& [t, xs] : by_tile) best = std::max(best, median(xs));
    add("blas.leaf_gflops_best", "GF/s", best);
  }
  {
    // Bytes over time across every level, per cell; and the estimated share
    // of the call: 15 Winograd additions per recursion node (4 on A, 4 on B,
    // 7 on C quadrants) at the measured time per call of that size.
    std::map<int, std::pair<double, double>> bytes_time;
    std::map<int, std::map<long, std::vector<double>>> t_of;
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const Span& sp = rec.spans()[i];
      if (std::string("blas.vadd") != sp.name || self[i] <= 0) continue;
      bytes_time[sp.cell].first += sp.work;
      bytes_time[sp.cell].second += self[i];
      const double calls = sp.work / (24.0 * sp.arg);
      t_of[sp.cell][sp.arg].push_back(self[i] / calls);
    }
    std::vector<double> gbps, share;
    for (const auto& [cell, bt] : bytes_time) {
      gbps.push_back(bt.first / bt.second * 1e-9);
      if (!serial) continue;
      const Cell& c = w.cells[static_cast<std::size_t>(cell)];
      const layout::GemmPlan p = layout::plan_gemm(c.s.m, c.s.k, c.s.n);
      double est = 0.0;
      for (int level = 0; level < p.depth; ++level) {
        const auto q = quadrant_elems(p, level);
        auto& tc = t_of[cell];
        est += std::pow(7.0, level) *
               (4 * median(tc[q[0]]) + 4 * median(tc[q[1]]) +
                7 * median(tc[q[2]]));
      }
      share.push_back(est / mod_med[static_cast<std::size_t>(cell)]);
    }
    add("blas.elementwise_gbps", "GB/s", geomean(gbps));
    add("blas.elementwise_share_est", "share", mean(share));
  }

  // ---- core ----
  add("core.recurse_gflops", "GF/s",
      geomean_of_medians(collect(rec, self, "core.multiply", rate)));
  {
    std::vector<double> insitu, leaf_share, peak, fallback, packfused;
    double split_products = 0.0;
    std::vector<double> util, steals, tasks, cold;
    for (std::size_t u = 0; u < s.reports.size(); ++u) {
      const auto& reps = s.reports[u];
      if (reps.empty()) continue;
      std::vector<double> ins, ls, ut;
      for (const strassen::obs::GemmReport& r : reps) {
        const layout::GemmPlan& p = r.plan;
        if (w.kind != Kind::kBatched && !r.split_used && strassen_plan(p) &&
            std::string(r.algo) == "222" && r.leaf_seconds > 0)
          ins.push_back(2.0 * std::pow(7.0, p.depth) * p.m.tile * p.k.tile *
                        p.n.tile / r.leaf_seconds * 1e-9);
        if (r.wall_seconds > 0)
          ls.push_back(r.leaf_seconds /
                       (r.wall_seconds * std::max(1, r.threads)));
        peak.push_back(static_cast<double>(r.workspace_peak_bytes));
        if (r.parallel) {
          ut.push_back(r.pool_utilization());
          steals.push_back(static_cast<double>(r.steals));
          tasks.push_back(static_cast<double>(r.tasks_executed));
        }
        if (r.batch_count > 0)
          cold.push_back(static_cast<double>(r.batch_workspace_cold_allocs));
      }
      if (!ins.empty()) insitu.push_back(median(ins));
      if (!ls.empty()) leaf_share.push_back(median(ls));
      if (!ut.empty()) util.push_back(median(ut));
      const strassen::obs::GemmReport& last = reps.back();
      fallback.push_back(last.fallback_reason !=
                         strassen::obs::FallbackReason::kNone);
      packfused.push_back(std::string(last.strategy) == "packfused");
      if (last.split_used) split_products += last.products;
    }
    add("core.insitu_leaf_gflops", "GF/s", geomean(insitu));
    add("core.leaf_share", "share", mean(leaf_share));
    add("core.workspace_mib", "MiB", ws_planned / (1024.0 * 1024.0));
    add("core.workspace_peak_mib", "MiB",
        (peak.empty() ? 0.0 : *std::max_element(peak.begin(), peak.end())) /
            (1024.0 * 1024.0));
    add("core.fallback_frac", "share", mean(fallback));
    add("core.packfused_frac", "share", mean(packfused));
    add("core.split_products", "count", split_products);
    add("core.vs_blocked", "ratio", speedup_vs(s.untraced.blk, s.untraced));
    const PerCell dg = collect(rec, self, "baselines.dgefmm",
                               [](const Span&, double x) { return x; });
    std::vector<double> vs_dg;
    for (const auto& [cell, xs] : dg)
      vs_dg.push_back(median(xs) / mod_med[static_cast<std::size_t>(cell)]);
    add("core.vs_dgefmm", "ratio", geomean(vs_dg));
    add("baselines.dgefmm_gflops", "GF/s",
        geomean_of_medians(collect(rec, self, "baselines.dgefmm", rate)));

    // ---- tune ----
    const double lookups =
        static_cast<double>(s.plan_cache_hits + s.plan_cache_misses);
    add("tune.plan_cache_hit_frac", "share",
        lookups > 0 ? static_cast<double>(s.plan_cache_hits) / lookups : 0.0);
    add("tune.plan_cache_lookup_ns", "ns",
        geomean_of_medians(
            collect(rec, self, "tune.PlanCache.lookup", per_call_ns)));

    // ---- parallel ----
    add("parallel.utilization", "share", mean(util));
    add("parallel.steals_per_call", "count", mean(steals));
    add("parallel.tasks_per_call", "count", mean(tasks));
    std::vector<double> speedup;
    for (const char* name :
         {"core.modgemm.serial", "core.modgemm_batched.serial"}) {
      const PerCell ser = collect(rec, self, name,
                                  [](const Span&, double x) { return x; });
      for (const auto& [cell, xs] : ser)
        speedup.push_back(median(xs) /
                          mod_med[static_cast<std::size_t>(cell)]);
    }
    add("parallel.speedup_vs_serial", "ratio", geomean(speedup));
    std::vector<double> overhead;
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const Span& sp = rec.spans()[i];
      if (std::string("parallel.TaskGroup") == sp.name)
        overhead.push_back(self[i] / sp.work * 1e6);
    }
    add("parallel.task_overhead_us", "us", median(overhead));
    add("parallel.arena_cold_allocs", "count", mean(cold));
  }

  // ---- obs and host ----
  const double traced = gflops_of(s, s.traced.mod);
  const double untraced = gflops_of(s, s.untraced.mod);
  add("obs.overhead_frac", "share",
      untraced > 0 ? 1.0 - traced / untraced : 0.0);
  std::vector<double> probes = s.untraced.probe_gflops;
  probes.insert(probes.end(), s.traced.probe_gflops.begin(),
                s.traced.probe_gflops.end());
  add("host.probe_gflops", "GF/s", median(probes));

  return m;
}

}  // namespace perfbench
