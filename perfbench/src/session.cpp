// session.cpp -- set-up, the closed-loop timed passes, and the checks.
//
// One caller, one request outstanding.  Each pass visits every cell once in
// an order shuffled from the seed; on each cell the library call is followed
// by the host probe and the frozen reference (ref_gemm) on the same cell, on
// as many threads as the library uses.  The gated rate is the ratio of the
// two.  Traced invocations also run blas::gemm on the cell (the batched
// items as tasks on the same pool); on parallel_square the serial blas::gemm
// would take several times longer than the pooled call, so a cell gets it
// only on every blocked_stride-th pass.  Every call's output is checked
// (outside its timed region).
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "blas/gemm.hpp"
#include "core/batched.hpp"
#include "core/modgemm.hpp"
#include "parallel/arena_pool.hpp"
#include "parallel/pmodgemm.hpp"
#include "parallel/thread_pool.hpp"
#include "tune/plan_cache.hpp"

namespace perfbench {
namespace {

namespace core = strassen::core;
namespace obs = strassen::obs;

constexpr std::size_t kMaxRecordedOrders = 32;
// Share of an untraced run's measuring time given to set-up repetitions.
// They are spread between the passes, so that the median set-up time sees
// the same host conditions as the passes: the host's speed drifts within a
// run, and repetitions bunched at the start made setup_s the noisiest metric.
constexpr double kSetupShare = 0.25;

std::string join(const std::vector<int>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

CellPath path_of(const obs::GemmReport& r) {
  CellPath p;
  p.algo = *r.algo ? r.algo : "none";
  p.strategy = *r.strategy ? r.strategy : "none";
  p.schedule = *r.schedule ? r.schedule : "none";
  p.fallback = obs::fallback_reason_name(r.fallback_reason);
  p.split = r.split_used;
  p.direct = r.plan.direct;
  p.depth = r.plan.depth;
  p.tile_m = r.plan.m.tile;
  p.tile_k = r.plan.k.tile;
  p.tile_n = r.plan.n.tile;
  p.products = r.products;
  return p;
}

}  // namespace

Session::Session(Workload w) : w_(std::move(w)) {
  const std::size_t units = w_.units();
  for (Timings* t : {&untraced, &traced}) {
    t->mod.resize(units);
    t->ref.resize(units);
    t->blk.resize(units);
  }
  if (w_.threads > 1) crew_ = std::make_unique<Crew>(w_.threads);
  reports.resize(units);
  paths.resize(units);
}

Session::~Session() = default;

void Session::count(bool ok, double ratio) {
  ++attempted;
  if (!ok) ++failed;
  if (std::isfinite(ratio)) worst_check_ratio = std::max(worst_check_ratio, ratio);
}

double Session::call_library(int i, obs::GemmReport* report, bool serial) {
  Timed t;
  if (w_.kind == Kind::kBatched) {
    // One request: every item, in an order shuffled per pass.
    const std::vector<int> order =
        pass_order(w_.seed, i, static_cast<int>(w_.cells.size()));
    std::vector<core::BatchItem> items;
    items.reserve(order.size());
    for (int j : order) {
      Cell& c = w_.cells[static_cast<std::size_t>(j)];
      c.reset_output();
      core::BatchItem it;
      it.opa = c.s.opa;
      it.opb = c.s.opb;
      it.m = c.s.m;
      it.n = c.s.n;
      it.k = c.s.k;
      it.alpha = c.s.alpha;
      it.A = c.A.data();
      it.lda = c.lda;
      it.B = c.B.data();
      it.ldb = c.ldb;
      it.beta = c.s.beta;
      it.C = c.C.data();
      it.ldc = c.ldc;
      items.push_back(it);
    }
    t.t0 = now_ns();
    const strassen::Status st = core::try_modgemm_batched(
        serial ? nullptr : pool_.get(), items.data(), static_cast<int>(items.size()), {}, report);
    t.t1 = now_ns();
    for (Cell& c : w_.cells) {
      const CheckResult r = freivalds_check(c, c.C.data(), c.ldc, c.depth);
      count(st == strassen::Status::kOk && r.ok, r.worst_ratio);
    }
    last_ = t;
    return t.seconds();
  }

  Cell& c = w_.cells[static_cast<std::size_t>(i)];
  c.reset_output();
  const Shape& s = c.s;
  bool ok = true;
  if (w_.kind == Kind::kSerial || serial) {
    core::ModgemmOptions opt;
    opt.max_workspace_bytes = s.budget;
    t.t0 = now_ns();
    const strassen::Status st = core::try_modgemm(
        s.opa, s.opb, s.m, s.n, s.k, s.alpha, c.A.data(), c.lda, c.B.data(),
        c.ldb, s.beta, c.C.data(), c.ldc, opt, report);
    t.t1 = now_ns();
    ok = st == strassen::Status::kOk;
  } else {
    strassen::parallel::ParallelOptions opt;
    opt.report = report;
    t.t0 = now_ns();
    try {
      strassen::parallel::pmodgemm(pool_.get(), s.opa, s.opb, s.m, s.n, s.k,
                                   s.alpha, c.A.data(), c.lda, c.B.data(),
                                   c.ldb, s.beta, c.C.data(), c.ldc, opt);
    } catch (...) {
      ok = false;
    }
    t.t1 = now_ns();
  }
  if (report != nullptr && ok) c.depth = report->plan.depth;
  const CheckResult r = freivalds_check(c, c.C.data(), c.ldc, c.depth);
  count(ok && r.ok, r.worst_ratio);
  last_ = t;
  return t.seconds();
}

double Session::call_ref(int i) {
  const bool batched = w_.kind == Kind::kBatched;
  const std::size_t first = batched ? 0 : static_cast<std::size_t>(i);
  const std::size_t last = batched ? w_.cells.size() : first + 1;
  for (std::size_t j = first; j < last; ++j) w_.cells[j].reset_output();
  auto whole = [](Cell& c, int j0, int j1) {
    ref_gemm(c.s, c.A.data(), c.lda, c.B.data(), c.ldb, c.C.data(), c.ldc, j0,
             j1);
  };
  bool ok = true;
  Timed t;
  t.t0 = now_ns();
  if (!crew_) {
    whole(w_.cells[first], 0, w_.cells[first].s.n);
  } else if (batched) {
    // Items dealt round-robin: the batch holds equal runs of each shape.
    const int threads = crew_->size();
    ok = crew_->run([&](int th) {
      for (std::size_t j = static_cast<std::size_t>(th); j < last;
           j += static_cast<std::size_t>(threads))
        whole(w_.cells[j], 0, w_.cells[j].s.n);
    });
  } else {
    // One product, split into column slabs of C.
    Cell& c = w_.cells[first];
    const int threads = crew_->size();
    ok = crew_->run([&](int th) {
      whole(c, static_cast<int>(static_cast<long>(c.s.n) * th / threads),
            static_cast<int>(static_cast<long>(c.s.n) * (th + 1) / threads));
    });
  }
  t.t1 = now_ns();
  for (std::size_t j = first; j < last; ++j) {
    const Cell& c = w_.cells[j];
    const CheckResult r = freivalds_check(c, c.C.data(), c.ldc, 0);
    count(ok && r.ok, r.worst_ratio);
  }
  last_ = t;
  return t.seconds();
}

double Session::call_blocked(int i) {
  auto gemm = [](Cell& c) {
    const Shape& s = c.s;
    strassen::blas::gemm(s.opa, s.opb, s.m, s.n, s.k, s.alpha, c.A.data(),
                         c.lda, c.B.data(), c.ldb, s.beta, c.C.data(), c.ldc);
  };
  const std::size_t first = w_.kind == Kind::kBatched ? 0 : static_cast<std::size_t>(i);
  const std::size_t last = w_.kind == Kind::kBatched ? w_.cells.size() : first + 1;
  for (std::size_t j = first; j < last; ++j) w_.cells[j].reset_output();
  bool ok = true;
  Timed t;
  t.t0 = now_ns();
  try {
    if (w_.kind == Kind::kBatched) {
      // The batch's items as tasks on the same pool, so the reference meets
      // the same scheduling and hypervisor steal as the batched call.
      strassen::parallel::TaskGroup g(pool_.get());
      for (std::size_t j = first; j < last; ++j)
        g.run([&gemm, &c = w_.cells[j]] { gemm(c); });
      g.wait();
    } else {
      gemm(w_.cells[first]);
    }
  } catch (...) {
    ok = false;
  }
  t.t1 = now_ns();
  for (std::size_t j = first; j < last; ++j) {
    const Cell& c = w_.cells[j];
    const CheckResult r = freivalds_check(c, c.C.data(), c.ldc, 0);
    count(ok && r.ok, r.worst_ratio);
  }
  last_ = t;
  return t.seconds();
}

void Session::setup() {
  // Cold state: no pool, no cached plans, no cached arenas.
  pool_.reset();
  strassen::tune::global_plan_cache().clear();
  strassen::parallel::purge_thread_arena_cache();
  double total = 0.0;
  const std::int64_t t0 = now_ns();
  if (w_.threads > 1)
    pool_ = std::make_unique<strassen::parallel::ThreadPool>(w_.threads);
  total += static_cast<double>(now_ns() - t0) * 1e-9;
  for (std::size_t u = 0; u < paths.size(); ++u) {
    obs::GemmReport rep;
    total += call_library(static_cast<int>(u), &rep);
    paths[u] = path_of(rep);
  }
  setup_seconds.push_back(total);
}

void Session::run_pass(int pass, Timings& t, Recorder* rec,
                       bool with_blocked) {
  const int units = static_cast<int>(reports.size());
  std::vector<int> order = w_.kind == Kind::kBatched
                               ? std::vector<int>{0}
                               : pass_order(w_.seed, pass, units);
  if (order_strings.size() < kMaxRecordedOrders)
    order_strings.push_back(
        join(w_.kind == Kind::kBatched
                 ? pass_order(w_.seed, pass, static_cast<int>(w_.cells.size()))
                 : order));
  // Counted per kind, so traced and untraced passes each rotate the
  // reference over the cells.
  const int kind_pass = t.passes++;

  const char* lib_span = w_.kind == Kind::kSerial     ? "core.modgemm"
                         : w_.kind == Kind::kParallel ? "parallel.pmodgemm"
                                                      : "core.modgemm_batched";
  std::optional<ScopedSpan> pass_span;
  if (rec) pass_span.emplace(*rec, "bench.pass", -1, pass);
  for (int u : order) {
    const std::size_t uu = static_cast<std::size_t>(u);
    const double unit_flops = w_.unit_flops(uu);
    // kBatched: the unit index passed to call_library is the pass number,
    // which seeds the item order.
    const int arg = w_.kind == Kind::kBatched ? pass : u;
    std::optional<ScopedSpan> cell_span;
    if (rec) cell_span.emplace(*rec, "bench.cell", u, pass);
    if (rec) {
      obs::GemmReport rep;
      const auto before = strassen::tune::global_plan_cache().stats();
      t.mod[uu].push_back(call_library(arg, &rep));
      const auto after = strassen::tune::global_plan_cache().stats();
      plan_cache_hits += after.hits - before.hits;
      plan_cache_misses += after.misses - before.misses;
      rec->add(lib_span, last_.t0, last_.t1, u, pass, unit_flops);
      reports[uu].push_back(rep);
    } else {
      t.mod[uu].push_back(call_library(arg, nullptr));
    }
    const std::int64_t p0 = now_ns();
    t.probe_gflops.push_back(host_probe_gflops());
    if (rec) rec->add("host.probe", p0, now_ns(), u, pass);
    t.ref[uu].push_back(call_ref(u));
    if (rec) rec->add("bench.ref_gemm", last_.t0, last_.t1, u, pass, unit_flops);
    if (with_blocked && (kind_pass + u) % w_.blocked_stride == 0) {
      t.blk[uu].push_back(call_blocked(u));
      if (rec) rec->add("blas.gemm", last_.t0, last_.t1, u, pass, unit_flops);
    }
  }
}

void Session::measure(double seconds, Recorder* rec) {
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t in_setup = 0;
  int pass = 0;
  do {
    // With a recorder, even passes are traced and odd passes are not, so
    // the two kinds alternate under the same host conditions.
    const bool traced_pass = rec != nullptr && pass % 2 == 0;
    run_pass(pass, traced_pass ? traced : untraced,
             traced_pass ? rec : nullptr, rec != nullptr);
    ++pass;
    if (rec == nullptr &&
        static_cast<double>(in_setup) <
            kSetupShare * static_cast<double>(now_ns() - start)) {
      const std::int64_t t0 = now_ns();
      setup();
      in_setup += now_ns() - t0;
    }
  } while (now_ns() - start < budget || (rec != nullptr && pass < 2));
}

}  // namespace perfbench
