// winograd.hpp -- the Strassen-Winograd level interpreter and the Morton
// recursion.
//
// This is the computational heart of MODGEMM.  A Morton block of depth d is
// four contiguous sub-blocks (NW=11, NE=12, SW=21, SE=22 in matrix-quadrant
// notation) each of depth d-1, so quadrant access is pure pointer arithmetic
// and all 15 quadrant additions of Winograd's variant are single contiguous
// loops (paper S3.3).
//
// The SCHEDULE -- which quadrant addition or recursive product runs when,
// and which temporaries hold what -- is data, not code: analysis/schedule.hpp
// declares it as constexpr step tables (analysis::kWinograd, 7 recursive
// products + 15 additions -- the minimum for quadrant-based recursion, as
// the paper notes -- with C's quadrants doubling as scratch so only three
// temporaries are live per level), and the verifier
// (analysis/schedule_verify.hpp) proves every shipped table at compile time.
// See docs/ANALYSIS.md for the table format and the exact guarantees.
//
// run_level below is the ONE interpreter every Winograd level runs through,
// whichever way it stores its operands and runs its products.  It owns the
// per-buffer temporary pushes and the step dispatch, and is templated on two
// policies:
//
//   addressing  where each operand lives and how element-wise steps run over
//               it: Morton quadrants with contiguous vadd/vsub (MortonSlots,
//               here) or clipped column-major views (core/packfused.hpp);
//   products    how a recursive product runs: a serial recursive call
//               (SerialProducts), or a task forked onto a TaskGroup and
//               joined before the next element-wise step (the spawn level of
//               parallel/pmodgemm.cpp).
//
// Every operand sum is materialized once, by an element-wise pass into a
// quadrant-sized temporary, on every level, kernel and memory model: the
// leaf products always receive plain tiles and run the kernel's full-rate
// gemm entry.
#pragma once

#include <cstddef>

#include "analysis/schedule.hpp"
#include "blas/kernels.hpp"
#include "blas/level1.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/memmodel.hpp"

namespace strassen::core {

namespace detail {

// Runs one Strassen-Winograd level of `sched`.  `slots` is the addressing
// policy: quad_elems() (elements of one quadrant per analysis::Shape),
// bind_temp(op, base), writable(op), product(step) and elementwise(step).
// `products` is the product policy: run(slots.product(step)) starts one
// recursive product and join() waits for every started one; the interpreter
// joins before the first element-wise step after a run of products, and at
// the end.  The temporaries are pushed onto `arena` -- one push per distinct
// buffer id, sized for the largest shape mapped onto it -- and released on
// return.
template <class T, class Slots, class Products>
void run_level(const analysis::Schedule& sched, Slots& slots,
               Products& products, Arena& arena) {
  Arena::Frame frame(arena);
  std::size_t elems[analysis::kMaxTemps];
  T* bufs[analysis::kMaxTemps] = {};
  const int nbuf =
      analysis::temp_buffer_sizes(sched, slots.quad_elems(), elems);
  for (int b = 0; b < nbuf; ++b) bufs[b] = arena.push<T>(elems[b]);
  for (int i = 0; i < sched.temp_count; ++i)
    slots.bind_temp(sched.temps[i], bufs[analysis::temp_buffer_id(sched, i)]);

  bool pending = false;
  for (int i = 0; i < sched.step_count; ++i) {
    const analysis::Step& s = sched.steps[i];
    STRASSEN_REQUIRE(slots.writable(s.dst),
                     "schedule step writes read-only operand "
                         << analysis::operand_name(s.dst));
    if (analysis::is_product(s.kind)) {
      products.run(slots.product(s));
      pending = true;
      continue;
    }
    if (pending) products.join();
    pending = false;
    slots.elementwise(s);
  }
  if (pending) products.join();
}

// Serial product policy: each product is one recursive call, complete
// before run() returns.
template <class Recurse>
struct SerialProducts {
  Recurse recurse;
  template <class Product>
  void run(const Product& p) {
    recurse(p);
  }
  void join() {}
};

// Morton addressing: every operand is a contiguous quadrant or an arena
// temporary, and element-wise steps are single contiguous blas::vadd/vsub
// calls.  The A/B quadrants are read-only unless the level owns them (the
// in-place table's top level), which the interpreter enforces per step.
template <class MM, class T>
class MortonSlots {
 public:
  // One recursive product: C-shaped destination and its two operands.
  struct Product {
    T* c;
    const T* a;
    const T* b;
  };

  // Quadrants of the level whose children are depth d1 (leaf tiles
  // tm x tk, tk x tn, tm x tn), in memory order NW, NE, SW, SE.
  MortonSlots(MM& mm, T* C, const T* A, const T* B, int tm, int tk, int tn,
              int d1, bool owns_inputs = false)
      : mm_(mm) {
    const std::size_t scale = std::size_t{1} << (2 * d1);
    q_[0] = static_cast<std::size_t>(tm) * tk * scale;
    q_[1] = static_cast<std::size_t>(tk) * tn * scale;
    q_[2] = static_cast<std::size_t>(tm) * tn * scale;
    for (int i = 0; i < 4; ++i) {
      bind(static_cast<int>(analysis::Operand::kA11) + i, A + i * q_[0],
           owns_inputs);
      bind(static_cast<int>(analysis::Operand::kB11) + i, B + i * q_[1],
           owns_inputs);
      bind(static_cast<int>(analysis::Operand::kC11) + i, C + i * q_[2],
           true);
    }
  }

  const std::size_t* quad_elems() const { return q_; }
  void bind_temp(analysis::Operand op, T* p) { bind(idx(op), p, true); }
  bool writable(analysis::Operand op) const { return wr_[idx(op)] != nullptr; }
  Product product(const analysis::Step& s) const {
    return {wr_[idx(s.dst)], rd_[idx(s.a0)], rd_[idx(s.b0)]};
  }

  void elementwise(const analysis::Step& s) {
    using analysis::StepKind;
    T* dst = wr_[idx(s.dst)];
    const std::size_t n = q_[static_cast<int>(analysis::shape_of(s.dst))];
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
        break;  // products go through the product policy
    }
  }

 private:
  static constexpr int idx(analysis::Operand op) {
    return static_cast<int>(op);
  }
  // Writable slots are C quadrants, temporaries and the A/B copies an
  // in-place level owns -- storage the caller handed over as writable.
  void bind(int i, const T* p, bool writable) {
    rd_[i] = p;
    wr_[i] = writable ? const_cast<T*>(p) : nullptr;
  }

  MM& mm_;
  std::size_t q_[3];
  const T* rd_[analysis::kOperandCount] = {};
  T* wr_[analysis::kOperandCount] = {};
};

// The Morton recursion: C = A * B over Morton blocks, every level through
// run_level with the serial product policy.  `owns_inputs` marks a top level
// whose A/B blocks may be overwritten (the in-place family's table runs
// there); children never own their operands.
template <class MM, class T>
void morton_recurse(MM& mm, T* C, const T* A, const T* B, int tm, int tk,
                    int tn, int depth, Arena& arena,
                    analysis::ScheduleFamily family, bool owns_inputs) {
  if (depth == 0) {
    blas::gemm_leaf(mm, tm, tn, tk, A, tm, B, tk, C, tm,
                    blas::LeafMode::Overwrite);
    return;
  }
  MortonSlots<MM, T> slots(mm, C, A, B, tm, tk, tn, depth - 1, owns_inputs);
  SerialProducts products{[&](const typename MortonSlots<MM, T>::Product& p) {
    morton_recurse(mm, p.c, p.a, p.b, tm, tk, tn, depth - 1, arena, family,
                   false);
  }};
  run_level<T>(analysis::level_schedule(family, owns_inputs), slots, products,
               arena);
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
void winograd_recurse(
    MM& mm, T* C, const T* A, const T* B, int tm, int tk, int tn, int depth,
    Arena& arena,
    analysis::ScheduleFamily family = analysis::ScheduleFamily::kWinograd) {
  detail::morton_recurse(mm, C, A, B, tm, tk, tn, depth, arena, family,
                         false);
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
  detail::morton_recurse(mm, C, A, B, tm, tk, tn, depth, arena,
                         analysis::ScheduleFamily::kInPlace, true);
}

}  // namespace strassen::core
