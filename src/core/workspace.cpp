#include "core/workspace.hpp"

#include "common/check.hpp"

namespace strassen::core {

std::size_t winograd_workspace_bytes(int tm, int tk, int tn, int depth,
                                     std::size_t elem_size) {
  return winograd_workspace_bytes(tm, tk, tn, depth, elem_size,
                                  analysis::ScheduleFamily::kWinograd);
}

std::size_t winograd_workspace_bytes(int tm, int tk, int tn, int depth,
                                     std::size_t elem_size,
                                     analysis::ScheduleFamily family) {
  STRASSEN_REQUIRE(tm >= 1 && tk >= 1 && tn >= 1 && depth >= 0 && depth < 31,
                   "bad workspace request: tm=" << tm << " tk=" << tk
                                                << " tn=" << tn
                                                << " depth=" << depth);
  std::size_t total = 0;
  // Level l (from the top, l = 1..depth) has children of depth - l; only
  // the top level owns its operands (the in-place table's precondition).
  for (int l = 1; l <= depth; ++l)
    total = checked_add(
        total, level_temp_bytes(analysis::level_schedule(family, l == 1), tm,
                                tk, tn, depth - l, elem_size));
  return total;
}

std::size_t level_temp_bytes(const analysis::Schedule& sched, int tm, int tk,
                             int tn, int d1, std::size_t elem_size) {
  const std::size_t scale = std::size_t{1} << (2 * d1);
  auto quad = [&](int r, int c) {
    const std::size_t bytes = checked_mul(
        checked_mul(checked_mul(static_cast<std::size_t>(r),
                                static_cast<std::size_t>(c)),
                    scale),
        elem_size);
    return checked_add(bytes, 63) / 64 * 64;
  };
  const std::size_t per_shape[3] = {quad(tm, tk), quad(tk, tn), quad(tm, tn)};
  std::size_t bufs[analysis::kMaxTemps];
  const int nbuf = analysis::temp_buffer_sizes(sched, per_shape, bufs);
  std::size_t total = 0;
  for (int b = 0; b < nbuf; ++b) total = checked_add(total, bufs[b]);
  return total;
}

}  // namespace strassen::core
