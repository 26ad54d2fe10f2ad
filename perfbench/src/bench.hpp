// bench.hpp -- shared types of the repository benchmark (perfbench).
//
// The benchmark drives the library only through its public entry points.
// Inputs, the correctness check, spans and the host probe live here so they
// never change when the library does.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/matrix.hpp"
#include "obs/report.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using strassen::Op;

// ---- seeded inputs ----------------------------------------------------------

// splitmix64.  The benchmark owns its generator so the operands depend only
// on the seed, never on library code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                       // [-1, 1)
  std::uint64_t below(std::uint64_t n);   // [0, n), n >= 1
 private:
  std::uint64_t state_;
};

// Derives an independent stream for (seed, purpose, index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t purpose,
                       std::uint64_t index);

// One dgemm-convention product: C <- alpha*op(A).op(B) + beta*C with op(A)
// m x k and op(B) k x n.  budget is ModgemmOptions::max_workspace_bytes.
struct Shape {
  int m = 0, k = 0, n = 0;
  Op opa = Op::NoTrans, opb = Op::NoTrans;
  double alpha = 1.0, beta = 0.0;
  std::size_t budget = 0;
  std::string budget_label;  // "" or e.g. "95%"
};

Shape make_shape(int m, int k, int n, Op opa = Op::NoTrans,
                 Op opb = Op::NoTrans, double alpha = 1.0, double beta = 0.0);
std::string shape_name(const Shape& s);

// A shape with its generated operands and the precomputed half of the
// Freivalds check (z = alpha*op(A)(op(B)x) + beta*C0 x).
struct Cell {
  Shape s;
  std::string name;
  int lda = 1, ldb = 1, ldc = 1;
  std::vector<double> A, B, C0, C;
  std::vector<double> x;      // +-1 entries, length n
  std::vector<double> z;      // reference C.x, length m
  std::vector<double> zmag;   // |alpha||op(A)|(|op(B)||x|) + |beta||C0||x|
  int depth_bound = 0;        // deepest recursion any plan could use
  // Recursion depth the checks of library calls assume: the depth the
  // library reported for this cell once known (Session::setup), otherwise
  // depth_bound.
  int depth = 0;

  double flops() const { return 2.0 * s.m * s.n * s.k; }
  // Restores C before a call: a copy of C0 when beta != 0, otherwise a
  // sentinel the library must overwrite.
  void reset_output();
};

// Generates operands for `s` from `seed`.
Cell make_cell(const Shape& s, std::uint64_t seed);

// ---- correctness ------------------------------------------------------------

// Freivalds product check of an output C (leading dimension ldc) against the
// cell's reference vector.  The tolerance grows geometrically with the
// recursion depth the call used, in the shape of Higham's bound for
// Strassen-Winograd (see check.cpp).
struct CheckResult {
  bool ok = false;
  double worst_ratio = 0.0;  // max_i |r_i| / tol_i (NaN -> infinity)
};
CheckResult freivalds_check(const Cell& c, const double* C, int ldc,
                            int depth);
// Fills c.z, c.zmag, c.depth_bound and c.depth (make_cell calls it).
void prepare_check(Cell& c);

// ---- workloads --------------------------------------------------------------

enum class Kind { kSerial, kBatched, kParallel };

struct Workload {
  std::string name;
  Kind kind = Kind::kSerial;
  int threads = 1;             // pool width (1 = no pool)
  int blocked_stride = 1;      // blas::gemm on a cell every this many passes
  std::uint64_t seed = 0;
  std::vector<Cell> cells;     // kBatched: the items of one request
  std::vector<int> distinct;   // one representative per distinct shape

  // Timed units: one per cell, or one per request for kBatched.
  std::size_t units() const { return kind == Kind::kBatched ? 1 : cells.size(); }
  // Flops of one library call on unit u (kBatched: the whole request).
  double unit_flops(std::size_t u) const;
};

const std::vector<std::string>& workload_names();
// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);
// Shapes of a workload without generating operands (tests, listings).
std::vector<Shape> workload_shapes(const std::string& name);

// Order in which pass `pass` visits `count` cells (Fisher-Yates from seed).
std::vector<int> pass_order(std::uint64_t seed, int pass, int count);

// ---- spans ------------------------------------------------------------------

std::int64_t now_ns();

struct Span {
  const char* name = "";
  std::int64_t t0 = 0, t1 = 0;  // steady-clock nanoseconds
  int parent = -1;               // index of the enclosing span, -1 = root
  int cell = -1;                 // cell index, -1 = not tied to a cell
  int arg = 0;                   // free tag (tile, level, pass number)
  double work = 0.0;             // calls, bytes or flops the span covers
};

// Per span: its duration minus the part covered by its child spans, seconds.
std::vector<double> self_seconds(const std::vector<Span>& spans);

// Spans are kept in memory and written when the run ends.  Single caller
// thread: the parent of a new span is the innermost open one.
class Recorder {
 public:
  int open(const char* name, int cell = -1, int arg = 0, double work = 0.0);
  void close(int index);
  // A closed span with caller-measured times (the same clock reads that time
  // the call, so spans add no clock reads inside a timed region).
  int add(const char* name, std::int64_t t0, std::int64_t t1, int cell = -1,
          int arg = 0, double work = 0.0);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<double> self_seconds() const { return perfbench::self_seconds(spans_); }
  // One JSON document: every span plus per-name totals of self time.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Recorder& r, const char* name, int cell = -1, int arg = 0,
             double work = 0.0)
      : r_(r), index_(r.open(name, cell, arg, work)) {}
  ~ScopedSpan() { r_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& r_;
  int index_;
};

// ---- frozen reference -------------------------------------------------------

// C <- alpha*op(A).op(B) + beta*C for the cell's shape, by a register-blocked
// dgemm written in the benchmark's own source (refgemm.cpp).  Frozen: the
// gated rate divides by its speed, so it must change only with the host,
// never with the library.  Columns [j0, j1) of C only, for splitting one
// product over threads.
void ref_gemm(const Shape& s, const double* A, int lda, const double* B,
              int ldb, double* C, int ldc, int j0, int j1);

// Benchmark-owned threads that run one function on every thread at once:
// the frozen reference of a pooled workload runs on as many threads as the
// library's pool, without using library code.
class Crew {
 public:
  explicit Crew(int threads);
  ~Crew();
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;
  int size() const { return static_cast<int>(workers_.size()); }
  // Calls fn(t) on worker t for every t and returns when all have returned;
  // false if any of them threw.
  bool run(const std::function<void(int)>& fn);

 private:
  std::mutex mu_;
  std::condition_variable cv_, done_;
  const std::function<void(int)>* fn_ = nullptr;
  std::uint64_t round_ = 0;
  int running_ = 0;
  bool threw_ = false, stop_ = false;
  std::vector<std::thread> workers_;
};

// ---- host context -----------------------------------------------------------

// A frozen plain-loop dgemm on benchmark-owned arrays: its rate tracks host
// drift between runs and never changes with the library.  Returns GF/s, the
// best of three repetitions on the calling thread.
double host_probe_gflops();

struct HostInfo {
  std::string cpu_model;
  int nproc = 0;
  std::string kernel;          // active leaf kernel (registry)
  std::string kernel_variant;
  double load_start = 0.0, load_end = 0.0;  // 1-minute load average
  double steal_s = 0.0;  // CPU time the hypervisor took during the run
};
HostInfo host_info();
double load_average();
// Steal time summed over all CPUs since boot, seconds (0 if unavailable).
double steal_seconds();
double peak_rss_mib();

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v);
// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);  // of positive values
double mean(const std::vector<double>& v);

// ---- Session: set-up, timed passes, traced run ------------------------------

// What the timed passes measured.
struct Timings {
  // Per cell (kBatched: one entry for the whole request), seconds per call
  // of the library, the frozen reference and blas::gemm.
  std::vector<std::vector<double>> mod, ref, blk;
  std::vector<double> probe_gflops;
  int passes = 0;
};

struct Timed {  // one timed call, steady-clock nanoseconds
  std::int64_t t0 = 0, t1 = 0;
  double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
};

struct CellPath {  // the path the library took for one cell
  std::string algo, strategy, schedule, fallback;
  bool split = false;
  bool direct = false;
  int depth = 0, tile_m = 0, tile_k = 0, tile_n = 0, products = 0;
};

class Session {
 public:
  explicit Session(Workload w);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // One set-up repetition from a cold state (a new pool, empty plan and
  // arena caches) with one library call per cell; appends its time to
  // setup_seconds.
  void setup();
  // Timed passes until `seconds` elapse (whole passes, at least one).  Each
  // library call is followed by the frozen reference on the same cell.
  // Without a recorder, set-up repetitions are interleaved with the passes
  // (a quarter of the time).  With one, every other pass is traced (spans
  // around each call and a GemmReport requested from the library), and every
  // pass also runs the blas::gemm reference.
  void measure(double seconds, Recorder* rec);

  Workload& workload() { return w_; }
  strassen::parallel::ThreadPool* pool() { return pool_.get(); }

  std::vector<double> setup_seconds;
  Timings untraced;  // passes without spans or reports
  Timings traced;    // traced passes (recorder given)
  // Reports of traced calls, per cell (kBatched: per request in slot 0).
  std::vector<std::vector<strassen::obs::GemmReport>> reports;
  std::uint64_t plan_cache_hits = 0, plan_cache_misses = 0;  // traced calls
  std::vector<CellPath> paths;     // from the last set-up repetition
  // Cell order of the first passes ("2,0,1"; kBatched: item order).
  std::vector<std::string> order_strings;
  std::int64_t attempted = 0, failed = 0;
  double worst_check_ratio = 0.0;

  // Times one library call on cell `i` (kBatched: the whole request, `i`
  // is the pass number used to shuffle item order) and checks it.  With
  // `serial`, the pooled workloads run their serial counterpart instead
  // (core::modgemm, or the batch with no pool).
  double call_library(int i, strassen::obs::GemmReport* report,
                      bool serial = false);
  // Times one frozen reference call (ref_gemm; kBatched: every item, on the
  // crew) and checks it.
  double call_ref(int i);
  // Times one blas::gemm reference call and checks it.
  double call_blocked(int i);
  // Records a check outcome (or a throw / non-kOk status when ok is false).
  void count(bool ok, double ratio);
  const Timed& last_call() const { return last_; }

 private:
  void run_pass(int pass, Timings& t, Recorder* rec, bool with_blocked);

  Workload w_;
  Timed last_;  // the most recent timed call
  std::unique_ptr<strassen::parallel::ThreadPool> pool_;
  std::unique_ptr<Crew> crew_;  // pooled workloads only
};

// ---- per-layer ledger (traced run) ------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0.0;
};

// Layer probes on the workload's own cells, repeated until `seconds` pass
// (at least one sweep); spans go to `rec`.
void probe_layers(Session& s, Recorder& rec, double seconds);
// Every per-layer metric, computed from the spans and the traced reports, in
// BENCHMARK.json order (perfbench/run.py checks the names on every run).
std::vector<Metric> layer_metrics(Session& s, const Recorder& rec);
// Every end-to-end metric from the untraced passes and set-up, in
// BENCHMARK.json order.  The gated rate is the same-run ratio to the frozen
// reference: whole-host speed drifts between runs and cancels in the ratio,
// while any change in library code -- its leaf kernels included -- moves it.
// (A ratio to blas::gemm would move the wrong way when the leaf kernel both
// share changes; it is the per-layer core.vs_blocked.)
std::vector<Metric> end_to_end_metrics(Session& s);
// Absolute rates and latencies of the untraced passes (GF/s, ms), reported in
// the context line but not gated: they move with host speed.
std::vector<Metric> absolute_metrics(Session& s);

// ---- output -----------------------------------------------------------------

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
