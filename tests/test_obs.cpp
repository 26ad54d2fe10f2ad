// Observability subsystem tests (src/obs + its hooks through the drivers).
//
// The contracts under test, in the order docs/OBSERVABILITY.md states them:
//
//   * disabled path -- a call without a report makes exactly the same gated
//     allocations as the seed library (one arena for a serial Strassen call)
//     and leaves no collector installed;
//   * enabled path -- phase timers are populated and consistent (phases sum
//     to at most the wall time, leaf time is a subset of compute time),
//     kernel counts match the closed-form Strassen-Winograd identities,
//     workspace accounting matches what the fault injector observes, and a
//     report adds no gated allocations;
//   * JSON -- to_json carries the documented schema id and every section;
//   * env sink -- STRASSEN_OBS=json:PATH appends one JSONL line per
//     top-level production call, flipped at runtime via setenv;
//   * parallel -- pmodgemm fills the parallel section, per-thread task
//     counts sum to the total, and degradation into the serial driver keeps
//     one coherent report (no double counting, fallback recorded).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "blas/kernels/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "core/modgemm.hpp"
#include "obs/collector.hpp"
#include "obs/report.hpp"
#include "parallel/pmodgemm.hpp"
#include "parallel/thread_pool.hpp"
#include "testing/fault_injection.hpp"

namespace strassen {
namespace {

namespace ft = ::strassen::testing;
namespace ker = ::strassen::blas::kernels;
using core::FallbackReason;
using core::ModgemmOptions;
using core::ModgemmReport;

std::uint64_t pow7(int e) {
  std::uint64_t r = 1;
  for (int i = 0; i < e; ++i) r *= 7;
  return r;
}

struct Problem {
  Matrix<double> A, B, C;
  int n;
  explicit Problem(int n_, std::uint64_t seed = 42)
      : A(n_, n_), B(n_, n_), C(n_, n_), n(n_) {
    Rng rng(seed);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
  }
  void run(const ModgemmOptions& opt, ModgemmReport* report = nullptr) {
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                  B.data(), B.ld(), 0.0, C.data(), C.ld(), opt, report);
  }
};

// Forces a depth-2 Strassen execution with a known plan.
ModgemmOptions fixed_depth2() {
  ModgemmOptions opt;
  opt.fixed_tile = 16;  // 64 = 16 << 2
  return opt;
}

// ---------------------------------------------------------------------------
// Disabled path.
// ---------------------------------------------------------------------------

TEST(ObsDisabled, NoCollectorAndSeedAllocationCount) {
  Problem p(64);
  EXPECT_EQ(obs::current(), nullptr);
  ft::FaultInjector counter;  // kCountOnly
  p.run(fixed_depth2());
  // The serial Strassen call makes exactly ONE gated allocation: the arena
  // covering the three Morton buffers and the recursion temporaries.
  EXPECT_EQ(counter.allocations(), 1u);
  EXPECT_EQ(obs::current(), nullptr);
}

TEST(ObsEnabled, ReportAddsNoGatedAllocations) {
  Problem p(64);
  ModgemmReport report;
  ft::FaultInjector counter;
  p.run(fixed_depth2(), &report);
  EXPECT_EQ(counter.allocations(), 1u);
  EXPECT_EQ(report.workspace_allocations, 1);
  EXPECT_EQ(obs::current(), nullptr);
}

// ---------------------------------------------------------------------------
// Phase timers.
// ---------------------------------------------------------------------------

TEST(ObsPhases, PopulatedAndConsistent) {
  Problem p(200);
  ModgemmOptions opt;
  opt.tiles.direct_threshold = 32;  // force a Strassen execution
  // This test asserts Morton-only observables (conversion phases); pin the
  // strategy so it holds under a forced STRASSEN_STRATEGY=packfused
  // environment (the per-call pin outranks the env override).
  opt.strategy = layout::ExecStrategy::kMorton;
  ModgemmReport report;
  p.run(opt, &report);

  EXPECT_EQ(report.m, 200);
  EXPECT_EQ(report.n, 200);
  EXPECT_EQ(report.k, 200);
  EXPECT_STREQ(report.entry, "modgemm");
  EXPECT_GT(report.convert_in_seconds, 0.0);
  EXPECT_GT(report.compute_seconds, 0.0);
  EXPECT_GT(report.convert_out_seconds, 0.0);
  EXPECT_GT(report.leaf_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  // The three phases nest inside the wall time (validation, planning and
  // arena setup make the wall strictly larger; allow 20% timer noise).
  EXPECT_LE(report.total_seconds(), report.wall_seconds * 1.2);
  // Leaf products execute inside the compute phase.
  EXPECT_LE(report.leaf_seconds, report.compute_seconds * 1.2);
  EXPECT_GT(report.conversion_fraction(), 0.0);
  EXPECT_LT(report.conversion_fraction(), 1.0);
  EXPECT_FALSE(report.plan.direct);
  EXPECT_EQ(report.products, 1);
  EXPECT_GT(report.workspace_peak_bytes, 0u);
  EXPECT_LE(report.workspace_peak_bytes, report.workspace_requested_bytes);
}

TEST(ObsPhases, AccumulateAcrossCalls) {
  Problem p(64);
  ModgemmReport report;
  p.run(fixed_depth2(), &report);
  const double wall1 = report.wall_seconds;
  const std::uint64_t leaves1 = report.leaf_calls;
  p.run(fixed_depth2(), &report);
  EXPECT_EQ(report.products, 2);
  EXPECT_GT(report.wall_seconds, wall1);
  EXPECT_EQ(report.leaf_calls, 2 * leaves1);
  EXPECT_EQ(report.workspace_allocations, 2);
}

TEST(ObsOptions, OptionsPointerAndTrailingParameterAgree) {
  Problem p(64);
  ModgemmReport via_opt, via_param;
  ModgemmOptions opt = fixed_depth2();
  opt.report = &via_opt;
  p.run(opt);
  p.run(fixed_depth2(), &via_param);
  EXPECT_EQ(via_opt.leaf_calls, via_param.leaf_calls);
  EXPECT_EQ(via_opt.elementwise_calls, via_param.elementwise_calls);
  EXPECT_EQ(via_opt.plan.depth, via_param.plan.depth);
  EXPECT_EQ(via_opt.products, 1);
}

// ---------------------------------------------------------------------------
// Kernel telemetry: closed-form Strassen-Winograd counts.
// ---------------------------------------------------------------------------

TEST(ObsKernels, ScalarCountsMatchClosedForm) {
  Problem p(64);
  ModgemmOptions opt = fixed_depth2();
  opt.kernel = ker::Kind::kScalar;
  ModgemmReport report;
  p.run(opt, &report);

  const int d = report.plan.depth;
  ASSERT_EQ(d, 2);
  EXPECT_STREQ(report.kernel, "scalar");
  EXPECT_EQ(report.leaf_calls, pow7(d));
  // 15 quadrant additions at each internal node: 15 * (7^d - 1) / 6.
  EXPECT_EQ(report.elementwise_calls, 15 * (pow7(d) - 1) / 6);
}

TEST(ObsKernels, FusedCountsMatchClosedForm) {
  // No kernel table fuses operand sums into its leaf products any more:
  // every table, SIMD included, runs all 7^d products as plain leaves, and
  // the report's fused-leaf counter reads 0.
  for (ker::Kind kind : ker::available_kernels()) {
    Problem p(64);
    ModgemmOptions opt = fixed_depth2();
    opt.kernel = kind;
    ModgemmReport report;
    p.run(opt, &report);

    const int d = report.plan.depth;
    ASSERT_EQ(d, 2);
    EXPECT_STREQ(report.kernel, ker::kind_name(kind));
    EXPECT_EQ(report.leaf_calls, pow7(d));
    EXPECT_EQ(report.elementwise_calls, 15 * (pow7(d) - 1) / 6);
    EXPECT_NE(obs::to_json(report).find("\"fused_calls\": 0,"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Workspace accounting vs the fault injector.
// ---------------------------------------------------------------------------

TEST(ObsWorkspace, RequestedMatchesPublicSizing) {
  Problem p(200);
  ModgemmOptions opt;
  opt.tiles.direct_threshold = 32;
  // modgemm_workspace_bytes sizes the Morton execution; pin the strategy so
  // the equality holds under a forced STRASSEN_STRATEGY=packfused leg.
  opt.strategy = layout::ExecStrategy::kMorton;
  ModgemmReport report;
  p.run(opt, &report);
  ASSERT_FALSE(report.plan.direct);
  EXPECT_EQ(report.workspace_requested_bytes,
            core::modgemm_workspace_bytes(report.plan, sizeof(double)));
  EXPECT_EQ(report.workspace_allocations, 1);
}

TEST(ObsWorkspace, FallbackLadderIsRecorded) {
  Problem p(200);
  ModgemmOptions opt;
  opt.tiles.direct_threshold = 32;
  ModgemmReport report;
  {
    // Refuse the (single) arena allocation: the ladder degrades to the
    // conventional path and the report says so.
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, 1);
    p.run(opt, &report);
  }
  EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocDirect);
  EXPECT_EQ(report.products, 1);
  EXPECT_GT(report.compute_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// JSON serialization.
// ---------------------------------------------------------------------------

TEST(ObsJson, CarriesSchemaAndEverySection) {
  Problem p(64);
  ModgemmReport report;
  p.run(fixed_depth2(), &report);
  const std::string json = obs::to_json(report);

  EXPECT_NE(json.find("\"schema\": \"strassen.gemm_report.v6\""),
            std::string::npos);
  for (const char* key :
       {"\"call\"", "\"phases\"", "\"plan\"", "\"workspace\"", "\"kernels\"",
        "\"parallel\"", "\"wall_s\"", "\"leaf_calls\"", "\"peak_bytes\"",
        "\"fallback\"", "\"steals\"", "\"per_thread_tasks\"",
        "\"pad_elems\"", "\"schedule\"", "\"strategy\"", "\"algo\"",
        "\"saved_bytes\"",
        "\"conversion_saved_bytes\"", "\"batch\"", "\"classes\"",
        "\"plan_cache_hits\"", "\"plan_cache_misses\"",
        "\"workspace_acquisitions\"", "\"workspace_cold_allocs\"",
        "\"tune_cache\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  // The retired fused-leaf counter stays in the v6 schema as a constant.
  EXPECT_NE(json.find("\"fused_calls\": 0,"), std::string::npos);
  // One line, balanced braces.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);

  std::ostringstream os;
  obs::write_json(os, report);
  EXPECT_EQ(os.str(), json);
}

TEST(ObsJson, PadElemsMatchesPlanArithmetic) {
  Problem p(64);
  ModgemmReport report;
  p.run(fixed_depth2(), &report);
  // fixed_tile=16 pads every dimension of a 64-problem to 64: no padding.
  EXPECT_EQ(report.pad_elems(), 0);

  Problem q(63);
  ModgemmReport r63;
  q.run(fixed_depth2(), &r63);
  // 63 -> 64 padded: each operand pays 64*64 - 63*63.
  EXPECT_EQ(r63.pad_elems(), 3 * (64 * 64 - 63 * 63));
}

// ---------------------------------------------------------------------------
// Env sink.
// ---------------------------------------------------------------------------

TEST(ObsEnvSink, AppendsOneJsonlLinePerCall) {
  const std::string path =
      ::testing::TempDir() + "/strassen_obs_test.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("STRASSEN_OBS", ("json:" + path).c_str(), 1), 0);
  Problem p(64);
  p.run(fixed_depth2());
  p.run(fixed_depth2());
  ASSERT_EQ(::unsetenv("STRASSEN_OBS"), 0);
  p.run(fixed_depth2());  // sink off again: must not append

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "sink did not create " << path;
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"schema\": \"strassen.gemm_report.v6\""),
              std::string::npos);
    EXPECT_NE(line.find("\"entry\": \"modgemm\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Parallel driver.
// ---------------------------------------------------------------------------

TEST(ObsParallel, PmodgemmFillsParallelSection) {
  const int n = 256;
  Problem p(n);
  Matrix<double> Cserial(n, n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(), p.A.ld(),
                p.B.data(), p.B.ld(), 0.0, Cserial.data(), Cserial.ld());

  parallel::ThreadPool pool(4);
  parallel::ParallelOptions popt;
  popt.spawn_levels = 1;
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);

  // Observability must not perturb the bit-exactness contract.
  EXPECT_EQ(max_abs_diff<double>(p.C.view(), Cserial.view()), 0.0);

  EXPECT_STREQ(report.entry, "pmodgemm");
  EXPECT_TRUE(report.parallel);
  EXPECT_EQ(report.threads, 4);
  EXPECT_EQ(report.spawn_levels, 1);
  // 7 product tasks plus the parallel_for conversion chunks.
  EXPECT_GE(report.tasks_executed, 7u);
  EXPECT_GT(report.task_busy_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  std::uint64_t per_thread_total = 0;
  for (std::uint64_t t : report.per_thread_tasks) per_thread_total += t;
  EXPECT_EQ(per_thread_total, report.tasks_executed);
  EXPECT_EQ(report.per_thread_tasks.size(), 5u);  // caller + 4 workers
  // The parallel schedule keeps everything live at once.
  EXPECT_GT(report.workspace_requested_bytes, 0u);
  EXPECT_EQ(report.workspace_peak_bytes, report.workspace_requested_bytes);
  EXPECT_GE(report.workspace_allocations, 3 + 7);  // Morton bufs + task arenas
  EXPECT_GT(report.leaf_calls, 0u);
  EXPECT_GT(report.pool_utilization(), 0.0);
  EXPECT_LE(report.pool_utilization(), 1.0);
  // Steals are scheduling-dependent (0 is legal on a loaded host), but they
  // can never exceed the number of tasks that ran.
  EXPECT_LE(report.steals, report.tasks_executed);
}

// The calling thread runs tasks too (inline and help-first while it joins),
// so utilization is busy time over (workers + caller) x wall and can never
// exceed 1 -- on small pools the caller's share is largest.
TEST(ObsParallel, UtilizationCountsTheCallingThread) {
  const int n = 256;
  Problem p(n);
  for (int threads : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    parallel::ThreadPool pool(threads);
    parallel::ParallelOptions popt;
    popt.min_task_flops = 1;  // fork at every level: the caller helps a lot
    ModgemmReport report;
    popt.report = &report;
    parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                       p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                       p.C.data(), p.C.ld(), popt);
    EXPECT_EQ(report.threads, threads);
    EXPECT_EQ(report.per_thread_tasks.size(),
              static_cast<std::size_t>(threads) + 1);
    EXPECT_GT(report.pool_utilization(), 0.0);
    EXPECT_LE(report.pool_utilization(), 1.0);
  }
}

TEST(ObsParallel, DeepSpawnReportsEffectiveLevelsAndTaskFanout) {
  const int n = 256;
  Problem p(n);
  Matrix<double> Cserial(n, n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(), p.A.ld(),
                p.B.data(), p.B.ld(), 0.0, Cserial.data(), Cserial.ld());

  parallel::ThreadPool pool(4);
  parallel::ParallelOptions popt;  // spawn_levels = kSpawnAuto
  popt.min_task_flops = 1;         // fork at EVERY level
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);
  EXPECT_EQ(max_abs_diff<double>(p.C.view(), Cserial.view()), 0.0);

  // Auto mode reports the depth it resolved to -- with a 1-flop cutoff that
  // is the full plan depth -- and the task count covers the whole spawn
  // tree: sum_{l=1..d} 7^l product tasks.
  const int d = report.plan.depth;
  ASSERT_GE(d, 2);
  EXPECT_EQ(report.spawn_levels, d);
  std::uint64_t product_tasks = 0;
  for (int l = 1; l <= d; ++l) product_tasks += pow7(l);
  EXPECT_GE(report.tasks_executed, product_tasks);
  EXPECT_LE(report.steals, report.tasks_executed);
  std::uint64_t per_thread_total = 0;
  for (std::uint64_t t : report.per_thread_tasks) per_thread_total += t;
  EXPECT_EQ(per_thread_total, report.tasks_executed);
}

TEST(ObsParallel, AllocFailureDegradesIntoOneCoherentReport) {
  const int n = 256;
  Problem p(n);
  Matrix<double> Cserial(n, n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(), p.A.ld(),
                p.B.data(), p.B.ld(), 0.0, Cserial.data(), Cserial.ld());

  parallel::ThreadPool pool(2);
  parallel::ParallelOptions popt;
  ModgemmReport report;
  popt.report = &report;
  {
    // Kill the first Morton buffer: pmodgemm falls back to the serial
    // driver, which reports through the same GemmReport.
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, 1);
    parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                       p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                       p.C.data(), p.C.ld(), popt);
  }
  EXPECT_EQ(max_abs_diff<double>(p.C.view(), Cserial.view()), 0.0);

  EXPECT_STREQ(report.entry, "pmodgemm");
  EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocDirect);
  // The serial rerun's execution is fully accounted (one product, phases).
  EXPECT_EQ(report.products, 1);
  EXPECT_GT(report.compute_seconds, 0.0);
  EXPECT_GT(report.leaf_calls, 0u);
}

TEST(ObsParallel, InlinePoolStillCountsTasks) {
  const int n = 256;
  Problem p(n);
  parallel::ParallelOptions popt;
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(nullptr, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);
  EXPECT_TRUE(report.parallel);
  EXPECT_EQ(report.threads, 0);
  // The 7 products still run as (inline) tasks on the calling thread.
  EXPECT_GE(report.tasks_executed, 7u);
  ASSERT_FALSE(report.per_thread_tasks.empty());
  EXPECT_EQ(report.per_thread_tasks[0], report.tasks_executed);
}

// ---------------------------------------------------------------------------
// Self-consistency: every driver's phase timers nest inside the call's wall
// time, and leaf time inside compute.  All of them read steady_clock, so a
// nested interval can exceed its parent only by double rounding.  Where work
// runs on several threads at once, the parent interval is the wall (or
// compute) time of every pool slot: (threads + 1) x the caller's interval.
// ---------------------------------------------------------------------------

void expect_within(double inner, double outer, const char* what) {
  EXPECT_LE(inner, outer * (1.0 + 1e-9) + 1e-12)
      << what << ": " << inner << " > " << outer;
}

void expect_serial_consistent(const ModgemmReport& r) {
  EXPECT_GT(r.compute_seconds, 0.0);
  EXPECT_GT(r.leaf_seconds, 0.0);
  expect_within(r.total_seconds(), r.wall_seconds, "phase sum vs wall");
  expect_within(r.leaf_seconds, r.compute_seconds, "leaf vs compute");
}

TEST(ObsConsistency, SerialMortonPhasesNestInWall) {
  for (int n : {130, 200, 513}) {
    Problem p(n);
    ModgemmOptions opt;
    opt.tiles.direct_threshold = 32;
    opt.strategy = layout::ExecStrategy::kMorton;
    ModgemmReport report;
    p.run(opt, &report);
    ASSERT_STREQ(report.strategy, "morton");
    expect_serial_consistent(report);
  }
}

TEST(ObsConsistency, PackFusedPhasesNestInWall) {
  for (int n : {130, 200, 513}) {
    Problem p(n);
    ModgemmOptions opt;
    opt.tiles.direct_threshold = 32;
    opt.strategy = layout::ExecStrategy::kPackFused;
    ModgemmReport report;
    p.run(opt, &report);
    ASSERT_STREQ(report.strategy, "packfused");
    expect_serial_consistent(report);
  }
}

TEST(ObsConsistency, SplitCallPhasesNestInWall) {
  // A split call sums its sub-products' phases; they run one after another.
  const int m = 97, n = 120, k = 800;
  Rng rng(3);
  Matrix<double> A(m, k), B(k, n), C(m, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  for (layout::ExecStrategy st :
       {layout::ExecStrategy::kMorton, layout::ExecStrategy::kPackFused}) {
    ModgemmOptions opt;
    opt.strategy = st;
    ModgemmReport report;
    core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                  B.data(), B.ld(), 0.0, C.data(), C.ld(), opt, &report);
    ASSERT_TRUE(report.split_used);
    EXPECT_GT(report.products, 1);
    expect_serial_consistent(report);
  }
}

TEST(ObsConsistency, PmodgemmPhasesNestInWall) {
  // The three phases run one after another on the caller; the leaves run on
  // every pool slot during compute.
  const int n = 512;
  Problem p(n);
  parallel::ThreadPool pool(3);
  for (int spawn : {parallel::kSpawnAuto, 2}) {
    parallel::ParallelOptions popt;
    popt.spawn_levels = spawn;
    ModgemmReport report;
    popt.report = &report;
    parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                       p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                       p.C.data(), p.C.ld(), popt);
    ASSERT_TRUE(report.parallel);
    ASSERT_FALSE(report.split_used);
    EXPECT_GT(report.leaf_seconds, 0.0);
    expect_within(report.total_seconds(), report.wall_seconds,
                  "phase sum vs wall");
    expect_within(report.leaf_seconds,
                  report.compute_seconds * (pool.thread_count() + 1),
                  "leaf vs compute x slots");
  }
}

TEST(ObsConsistency, BatchedPhasesNestInWall) {
  // Items run concurrently, each as one serial product on one slot (none is
  // big enough to fork further): their phases sum to at most every slot's
  // wall, and each item's leaves run inside its own compute phase.
  parallel::ThreadPool pool(3);
  std::vector<Problem> probs;
  for (int i = 0; i < 12; ++i) probs.emplace_back(120 + 8 * i, 50 + i);
  std::vector<core::BatchItem> items;
  for (Problem& p : probs) {
    core::BatchItem it;
    it.m = it.n = it.k = p.n;
    it.A = p.A.data();
    it.lda = p.A.ld();
    it.B = p.B.data();
    it.ldb = p.B.ld();
    it.C = p.C.data();
    it.ldc = p.C.ld();
    items.push_back(it);
  }
  for (layout::ExecStrategy st :
       {layout::ExecStrategy::kMorton, layout::ExecStrategy::kPackFused}) {
    core::BatchedOptions bopt;
    bopt.strategy = st;
    bopt.tiles.direct_threshold = 32;
    bopt.min_task_flops = std::int64_t{1} << 40;  // no item forks further
    ModgemmReport report;
    bopt.report = &report;
    core::modgemm_batched(&pool, items.data(), static_cast<int>(items.size()),
                          bopt);
    ASSERT_EQ(report.batch_count, 12);
    EXPECT_GT(report.leaf_seconds, 0.0);
    expect_within(report.total_seconds(),
                  report.wall_seconds * (pool.thread_count() + 1),
                  "phase sum vs wall x slots");
    expect_within(report.leaf_seconds, report.compute_seconds,
                  "leaf vs compute");
  }
}

}  // namespace
}  // namespace strassen
