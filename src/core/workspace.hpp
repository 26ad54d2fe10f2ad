// workspace.hpp -- exact arena sizing for the Winograd recursion.
//
// Each recursion level allocates quadrant-sized temporaries and releases
// them before returning, so the live set is a stack.  Sizing the arena to
// the exact peak lets the whole multiply run with a single allocation; the
// paper's implementations were likewise careful to bound temporary storage
// (S5.1).  How many temporaries a level needs depends on the SCHEDULE
// FAMILY (analysis/schedule.hpp):
//
//   kWinograd   3 buffers per level: qa + qb + qc        (the paper's bound)
//   kLowMem     2 buffers per level: max(qa, qc) + qb    (tS/tP share)
//   kInPlace    top level 1 buffer (qc, operand sums overwrite the Morton
//               A/B copies); deeper levels run the low-mem table
//
// where qa/qb/qc are the A-/B-/C-shaped quadrant sizes of that level.  The
// figures are not coded per family: each level's size is read off the table
// it runs (analysis::level_schedule) through analysis::temp_buffer_sizes,
// the same function the interpreter's pushes use.
#pragma once

#include <cstddef>

#include "analysis/schedule.hpp"

namespace strassen::core {

// Peak bytes of recursion temporaries for a product of Morton blocks with
// leaf tiles (tm x tk) * (tk x tn) and `depth` recursion levels, including
// the arena's per-allocation 64-byte rounding.  The two-argument form is the
// default family (kWinograd); kAuto sizes as kWinograd (the planner's
// largest candidate).
std::size_t winograd_workspace_bytes(int tm, int tk, int tn, int depth,
                                     std::size_t elem_size);
std::size_t winograd_workspace_bytes(int tm, int tk, int tn, int depth,
                                     std::size_t elem_size,
                                     analysis::ScheduleFamily family);

// Bytes one level running `sched` pushes for its temporaries, when its
// children have depth d1 over leaf tiles (tm x tk) * (tk x tn): one
// 64-byte-rounded buffer per distinct buffer id, sized for the largest shape
// mapped onto it -- exactly what core::detail::run_level pushes.  The serial
// sizing above sums this over the levels; the parallel driver prices its
// spawn levels (analysis::kWinogradSpawn) with it.
std::size_t level_temp_bytes(const analysis::Schedule& sched, int tm, int tk,
                             int tn, int d1, std::size_t elem_size);

}  // namespace strassen::core
