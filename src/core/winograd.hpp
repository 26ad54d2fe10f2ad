// winograd.hpp -- the Strassen-Winograd recursion over Morton storage.
//
// This is the computational heart of MODGEMM.  A Morton block of depth d is
// four contiguous sub-blocks (NW=11, NE=12, SW=21, SE=22 in matrix-quadrant
// notation) each of depth d-1, so quadrant access is pure pointer arithmetic
// and all 15 quadrant additions of Winograd's variant are single contiguous
// loops (paper S3.3).
//
// The SCHEDULE -- which quadrant addition or recursive product runs when,
// and which of the three temporaries (tS over A-quadrants, tT over
// B-quadrants, tP over C-quadrants) holds what -- is data, not code:
// analysis/schedule.hpp declares it as a constexpr step table
// (analysis::kWinograd, 7 recursive products + 15 additions -- the minimum
// for quadrant-based recursion, as the paper notes -- with C's quadrants
// doubling as scratch so only three temporaries are live per level), and
// the interpreter below executes the table step by step.  The verifier
// (analysis/schedule_verify.hpp) symbolically proves every shipped table
// correct at compile time: product identity, no use of clobbered values,
// and the 3-temporary liveness peak.  See docs/ANALYSIS.md for the table
// format and the exact guarantees.
//
// Every operand sum is materialized once, by a contiguous vadd/vsub into a
// quadrant-sized temporary, on every level, kernel and memory model: the
// leaf products always receive plain contiguous tiles and run the kernel's
// full-rate gemm entry.  For contiguous Morton quadrants that element-wise
// pass is the packing step BLIS-style Strassen folds the sums into.
#pragma once

#include <cstdint>

#include "analysis/schedule.hpp"
#include "blas/kernels.hpp"
#include "blas/level1.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/memmodel.hpp"

namespace strassen::core {

template <class MM, class T>
void winograd_recurse(
    MM& mm, T* C, const T* A, const T* B, int tm, int tk, int tn, int depth,
    Arena& arena,
    analysis::ScheduleFamily family = analysis::ScheduleFamily::kWinograd);

namespace detail {

// Executes one schedule level over concrete quadrant/temporary storage.
// Pointer tables are indexed by analysis::Operand; `wr` is null for the
// read-only input quadrants, which the verified tables never write
// (enforced again here for mutated tables reaching a debug build).
template <class MM, class T>
class ScheduleInterpreter {
 public:
  ScheduleInterpreter(MM& mm, int tm, int tk, int tn, int d1,
                      analysis::ScheduleFamily family)
      : mm_(mm), tm_(tm), tk_(tk), tn_(tn), d1_(d1), family_(family) {
    for (int i = 0; i < analysis::kOperandCount; ++i) {
      rd_[i] = nullptr;
      wr_[i] = nullptr;
      len_[i] = 0;
    }
  }

  void bind_input(analysis::Operand op, const T* p, std::size_t n) {
    rd_[idx(op)] = p;
    len_[idx(op)] = n;
  }
  void bind_output(analysis::Operand op, T* p, std::size_t n) {
    rd_[idx(op)] = p;
    wr_[idx(op)] = p;
    len_[idx(op)] = n;
  }
  // Writable A/B operand slot of an in-place table (overwrites_inputs): the
  // interpreter may overwrite it with operand sums.  Identical binding to
  // bind_output; the distinct name keeps call sites auditable.
  void bind_inout(analysis::Operand op, T* p, std::size_t n) {
    bind_output(op, p, n);
  }

  void run(const analysis::Schedule& sched, Arena& arena) {
    using analysis::StepKind;
    for (int i = 0; i < sched.step_count; ++i) {
      const analysis::Step& s = sched.steps[i];
      T* dst = wr_[idx(s.dst)];
      STRASSEN_REQUIRE(dst != nullptr,
                       "schedule step writes read-only operand "
                           << analysis::operand_name(s.dst));
      const std::size_t n = len_[idx(s.dst)];
      switch (s.kind) {
        case StepKind::kAdd:
          blas::vadd(mm_, n, dst, rd_[idx(s.a0)], rd_[idx(s.a1)]);
          break;
        case StepKind::kSub:
          blas::vsub(mm_, n, dst, rd_[idx(s.a0)], rd_[idx(s.a1)]);
          break;
        case StepKind::kAddInplace:
          blas::vadd_inplace(mm_, n, dst, rd_[idx(s.a0)]);
          break;
        case StepKind::kSubInplace:
          blas::vsub_inplace(mm_, n, dst, rd_[idx(s.a0)]);
          break;
        case StepKind::kMul:
          winograd_recurse(mm_, dst, rd_[idx(s.a0)], rd_[idx(s.b0)], tm_, tk_,
                           tn_, d1_, arena, family_);
          break;
      }
    }
  }

 private:
  static constexpr int idx(analysis::Operand op) {
    return static_cast<int>(op);
  }

  MM& mm_;
  int tm_, tk_, tn_, d1_;
  analysis::ScheduleFamily family_;
  const T* rd_[analysis::kOperandCount];
  T* wr_[analysis::kOperandCount];
  std::size_t len_[analysis::kOperandCount];
};

// Pushes the schedule's temporaries onto the arena -- one allocation per
// DISTINCT buffer id, sized for the largest shape mapped onto it -- and
// binds each temporary.  For identity mappings (the default family) this is
// byte-for-byte the seed's push order and sizes (tS, tT, tP = qa, qb, qc);
// the low-mem table maps tS and tP onto one buffer sized max(qa, qc), which
// the verifier proved safe (disjoint live ranges).
template <class MM, class T>
void push_and_bind_temps(ScheduleInterpreter<MM, T>& interp,
                         const analysis::Schedule& sched, Arena& arena,
                         std::size_t qa, std::size_t qb, std::size_t qc) {
  using analysis::Operand;
  auto elems = [&](Operand t) {
    return analysis::shape_of(t) == analysis::Shape::kA   ? qa
           : analysis::shape_of(t) == analysis::Shape::kB ? qb
                                                          : qc;
  };
  STRASSEN_REQUIRE(sched.temp_count <= analysis::kMaxTemps,
                   "schedule declares more temporaries than slots exist");
  std::size_t buf_elems[analysis::kMaxTemps] = {};
  T* bufs[analysis::kMaxTemps] = {};
  const int nbuf = analysis::temp_buffer_count(sched);
  for (int i = 0; i < sched.temp_count; ++i) {
    const int b = analysis::temp_buffer_id(sched, i);
    const std::size_t n = elems(sched.temps[i]);
    if (n > buf_elems[b]) buf_elems[b] = n;
  }
  for (int b = 0; b < nbuf; ++b) bufs[b] = arena.push<T>(buf_elems[b]);
  for (int i = 0; i < sched.temp_count; ++i) {
    const Operand t = sched.temps[i];
    interp.bind_output(t, bufs[analysis::temp_buffer_id(sched, i)], elems(t));
  }
}

}  // namespace detail

// C = A * B on Morton blocks.
//   A: (tm<<depth) x (tk<<depth), leaf tiles tm x tk (column-major)
//   B: (tk<<depth) x (tn<<depth), leaf tiles tk x tn
//   C: (tm<<depth) x (tn<<depth), leaf tiles tm x tn
// `arena` must have winograd_workspace_bytes(tm,tk,tn,depth,...,family)
// available.  `family` selects the schedule family per level: kWinograd is
// the seed-exact default (3 temporaries), kLowMem the 2-buffer BDPZ tables.
// kInPlace here runs its DEEPER levels (the in-place top level is
// winograd_recurse_inplace, which needs writable operands).
template <class MM, class T>
void winograd_recurse(MM& mm, T* C, const T* A, const T* B, int tm, int tk,
                      int tn, int depth, Arena& arena,
                      analysis::ScheduleFamily family) {
  if (depth == 0) {
    blas::gemm_leaf(mm, tm, tn, tk, A, tm, B, tk, C, tm,
                    blas::LeafMode::Overwrite);
    return;
  }
  const int d1 = depth - 1;
  const std::size_t scale = std::size_t{1} << (2 * d1);
  const std::size_t qa = static_cast<std::size_t>(tm) * tk * scale;
  const std::size_t qb = static_cast<std::size_t>(tk) * tn * scale;
  const std::size_t qc = static_cast<std::size_t>(tm) * tn * scale;

  // Table selection: the default family runs the paper's schedule at every
  // level; the low-mem family (and the sub-levels of the in-place family)
  // run the 2-buffer table.
  const bool low_mem = family == analysis::ScheduleFamily::kLowMem ||
                       family == analysis::ScheduleFamily::kInPlace;
  const analysis::Schedule& sched =
      low_mem ? analysis::kWinogradLowMem : analysis::kWinograd;

  detail::ScheduleInterpreter<MM, T> interp(mm, tm, tk, tn, d1, family);

  // Quadrants in memory order NW, NE, SW, SE == 11, 12, 21, 22.
  using analysis::Operand;
  interp.bind_input(Operand::kA11, A, qa);
  interp.bind_input(Operand::kA12, A + qa, qa);
  interp.bind_input(Operand::kA21, A + 2 * qa, qa);
  interp.bind_input(Operand::kA22, A + 3 * qa, qa);
  interp.bind_input(Operand::kB11, B, qb);
  interp.bind_input(Operand::kB12, B + qb, qb);
  interp.bind_input(Operand::kB21, B + 2 * qb, qb);
  interp.bind_input(Operand::kB22, B + 3 * qb, qb);
  interp.bind_output(Operand::kC11, C, qc);
  interp.bind_output(Operand::kC12, C + qc, qc);
  interp.bind_output(Operand::kC21, C + 2 * qc, qc);
  interp.bind_output(Operand::kC22, C + 3 * qc, qc);

  Arena::Frame frame(arena);
  detail::push_and_bind_temps(interp, sched, arena, qa, qb, qc);

  interp.run(sched, arena);
}

// C = A * B with the TOP level running the in-place table: the Winograd
// operand sums overwrite A's and B's quadrants, leaving a single C-shaped
// temporary.  A and B must be operand COPIES the caller owns (the
// Morton-staged workspace buffers of core/modgemm.hpp) -- their contents
// are destroyed.  Deeper levels run the low-mem table: a child executing
// in-place would clobber parent operands that are still live.
template <class MM, class T>
void winograd_recurse_inplace(MM& mm, T* C, T* A, T* B, int tm, int tk,
                              int tn, int depth, Arena& arena) {
  if (depth == 0) {
    blas::gemm_leaf(mm, tm, tn, tk, A, tm, B, tk, C, tm,
                    blas::LeafMode::Overwrite);
    return;
  }
  const int d1 = depth - 1;
  const std::size_t scale = std::size_t{1} << (2 * d1);
  const std::size_t qa = static_cast<std::size_t>(tm) * tk * scale;
  const std::size_t qb = static_cast<std::size_t>(tk) * tn * scale;
  const std::size_t qc = static_cast<std::size_t>(tm) * tn * scale;

  const analysis::Schedule& sched = analysis::kWinogradInPlace;
  detail::ScheduleInterpreter<MM, T> interp(
      mm, tm, tk, tn, d1, analysis::ScheduleFamily::kInPlace);

  using analysis::Operand;
  interp.bind_inout(Operand::kA11, A, qa);
  interp.bind_inout(Operand::kA12, A + qa, qa);
  interp.bind_inout(Operand::kA21, A + 2 * qa, qa);
  interp.bind_inout(Operand::kA22, A + 3 * qa, qa);
  interp.bind_inout(Operand::kB11, B, qb);
  interp.bind_inout(Operand::kB12, B + qb, qb);
  interp.bind_inout(Operand::kB21, B + 2 * qb, qb);
  interp.bind_inout(Operand::kB22, B + 3 * qb, qb);
  interp.bind_output(Operand::kC11, C, qc);
  interp.bind_output(Operand::kC12, C + qc, qc);
  interp.bind_output(Operand::kC21, C + 2 * qc, qc);
  interp.bind_output(Operand::kC22, C + 3 * qc, qc);

  Arena::Frame frame(arena);
  detail::push_and_bind_temps(interp, sched, arena, qa, qb, qc);

  interp.run(sched, arena);
}

// C += A * B: the top level runs the accumulating table (C's quadrants are
// inputs whose values survive into the result -- the split path's k-chunk
// chains use this to skip the per-chunk C buffer and beta pass), and the
// seven sub-products recurse with `family` tables.  depth == 0 accumulates
// directly at the leaf.
template <class MM, class T>
void winograd_recurse_acc(MM& mm, T* C, const T* A, const T* B, int tm,
                          int tk, int tn, int depth, Arena& arena,
                          analysis::ScheduleFamily family) {
  if (depth == 0) {
    blas::gemm_leaf(mm, tm, tn, tk, A, tm, B, tk, C, tm,
                    blas::LeafMode::Accumulate);
    return;
  }
  const int d1 = depth - 1;
  const std::size_t scale = std::size_t{1} << (2 * d1);
  const std::size_t qa = static_cast<std::size_t>(tm) * tk * scale;
  const std::size_t qb = static_cast<std::size_t>(tk) * tn * scale;
  const std::size_t qc = static_cast<std::size_t>(tm) * tn * scale;

  const analysis::Schedule& sched = analysis::kWinogradAccum;
  detail::ScheduleInterpreter<MM, T> interp(mm, tm, tk, tn, d1, family);

  using analysis::Operand;
  interp.bind_input(Operand::kA11, A, qa);
  interp.bind_input(Operand::kA12, A + qa, qa);
  interp.bind_input(Operand::kA21, A + 2 * qa, qa);
  interp.bind_input(Operand::kA22, A + 3 * qa, qa);
  interp.bind_input(Operand::kB11, B, qb);
  interp.bind_input(Operand::kB12, B + qb, qb);
  interp.bind_input(Operand::kB21, B + 2 * qb, qb);
  interp.bind_input(Operand::kB22, B + 3 * qb, qb);
  interp.bind_output(Operand::kC11, C, qc);
  interp.bind_output(Operand::kC12, C + qc, qc);
  interp.bind_output(Operand::kC21, C + 2 * qc, qc);
  interp.bind_output(Operand::kC22, C + 3 * qc, qc);

  Arena::Frame frame(arena);
  detail::push_and_bind_temps(interp, sched, arena, qa, qb, qc);

  interp.run(sched, arena);
}

}  // namespace strassen::core
