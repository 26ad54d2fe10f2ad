// pmodgemm.hpp -- task-parallel MODGEMM on the work-stealing pool.
//
// The seven Strassen-Winograd products of one recursion level are mutually
// independent: they read the input quadrants and the S/T operand sums, and
// only the U-chain combination afterwards has cross-product dependencies.
// This module exploits exactly that structure:
//
//   * at every recursion level above a leaf cutoff (see spawn_levels below),
//     the 8 operand sums are formed into dedicated temporaries (S1..S4,
//     T1..T4), the 7 products are submitted to the work-stealing pool (each
//     recursing independently, with its own scratch arena from the
//     per-thread cache), and the quadrant combination runs as the spawning
//     task's continuation after the join;
//   * below the cutoff each task runs the serial Morton recursion of
//     core/winograd.hpp unchanged -- so the arithmetic performed (and hence
//     the result, bit for bit) is IDENTICAL to the serial algorithm;
//   * the layout conversions fan out over Morton tile ranges (each tile is
//     written independently);
//   * highly rectangular shapes that need the split decomposition (paper
//     Fig. 4) run each C-block's chain of sub-products as its own pool task:
//     the k-chain within a block stays sequential in chunk order and the
//     blocks write disjoint parts of C, so the result is bit-identical to
//     the serial splitter.
//
// Memory: a spawn level keeps all 15 temporaries live at once
// (4 A-quadrants + 4 B-quadrants + 7 C-quadrants ~ 3.75x the quadrant set of
// the serial schedule) -- the classic space-for-parallelism trade, bounded
// per worker by the depth of its active path (Boyer et al.).  Scratch comes
// from a per-thread arena cache (parallel/arena_pool.hpp), so a worker's
// temporaries are first-touched locally; STRASSEN_NUMA=1 additionally pins
// workers to CPUs (thread_pool.hpp) to keep that locality stable on
// multi-socket hosts.
//
// Restrictions: RawMem only (the cache simulator is not thread-safe by
// design -- a traced run must be a deterministic serial address stream).
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "core/modgemm.hpp"
#include "parallel/thread_pool.hpp"

namespace strassen::parallel {

// spawn_levels value selecting the auto policy: fork the 7 sub-products at
// every level whose children are at least min_task_flops big.
inline constexpr int kSpawnAuto = -1;

struct ParallelOptions {
  layout::TileOptions tiles{};
  // Recursion levels that fork.  kSpawnAuto (default) forks at every level
  // above the min_task_flops cutoff -- deep spawning, which keeps wide pools
  // busy on the lower levels where most of the flops live.  Explicit values
  // keep the historical meaning: 0 = fully serial compute, N > 0 = fork the
  // top N levels and serialize each task's subtree.
  int spawn_levels = kSpawnAuto;
  // Auto-policy leaf cutoff: a sub-product whose padded volume
  // (m_pad * k_pad * n_pad, ~ half its flop count) falls below this runs
  // serially inside its parent task instead of being forked.  The default
  // (2^21 ~ 2M, a ~128^3 product, a few hundred microseconds of leaf work)
  // keeps task overhead well under 1%.  Ignored when spawn_levels >= 0.
  std::int64_t min_task_flops = std::int64_t{1} << 21;
  // Schedule family for the serial subtrees below the spawn cutoff
  // (analysis/schedule.hpp): kAuto defers to STRASSEN_SCHEDULE, then the
  // default 3-temporary family.  Spawn levels always keep their 15 dedicated
  // temporaries (the space-for-parallelism trade is the point of forking);
  // the low-memory families shrink each task's serial arena.  kInPlace runs
  // as kLowMem here -- the parallel recursion never owns throwaway operand
  // copies for a subtree to overwrite.
  analysis::ScheduleFamily schedule = analysis::ScheduleFamily::kAuto;
  // Per-call observability (obs/report.hpp): phase timers, workspace
  // accounting, kernel telemetry plus the parallel section (tasks executed,
  // per-thread distribution, steal count, pool utilization).  Null =
  // subsystem off.
  obs::GemmReport* report = nullptr;
};

// Bytes of spawn-level temporaries + per-task arenas pmodgemm needs beyond
// the Morton buffers themselves (informational; allocation is internal).
// Takes an explicit spawn_levels >= 0; for the auto policy, pass the
// effective depth reported in GemmReport::spawn_levels.  The six-argument
// form assumes the default serial family; the seven-argument form sizes the
// below-cutoff serial arenas for `family` (spawn levels are family-
// independent: always 15 temporaries).
std::size_t pmodgemm_workspace_bytes(int tm, int tk, int tn, int depth,
                                     int spawn_levels, std::size_t elem_size);
std::size_t pmodgemm_workspace_bytes(int tm, int tk, int tn, int depth,
                                     int spawn_levels, std::size_t elem_size,
                                     analysis::ScheduleFamily family);

// C <- alpha * op(A).op(B) + beta * C, using `pool` for parallelism.
// pool == nullptr runs the whole pipeline inline (useful for tests).
// Bit-for-bit identical to core::modgemm for every input.  Arguments are
// validated exactly like the serial entry point (same STRASSEN_REQUIRE
// checks and messages); if an allocation fails mid-call -- a buffer here or
// an arena inside a task, whose exception surfaces at TaskGroup::wait() --
// the call falls back to the serial driver's degradation ladder, so it
// still returns a correct C without partial writes.
void pmodgemm(ThreadPool* pool, Op opa, Op opb, int m, int n, int k,
              double alpha, const double* A, int lda, const double* B, int ldb,
              double beta, double* C, int ldc,
              const ParallelOptions& opt = {});

}  // namespace strassen::parallel
