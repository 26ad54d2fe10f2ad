// analysis/schedule_verify.cpp -- diagnostics layer over the constexpr core,
// plus the compile-time proof of the shipped tables.
#include "analysis/schedule_verify.hpp"

#include <sstream>

namespace strassen::analysis {

// ---- compile-time proof of the shipped schedules --------------------------
// A bad edit to analysis/schedule.hpp stops the library from building; the
// CLI (tools/verify_schedules) and tests re-prove at runtime with readable
// diagnostics.
static_assert(verify_core(kWinograd).violation == Violation::kNone,
              "shipped Winograd schedule failed symbolic verification");
static_assert(verify_core(kWinograd).temp_peak == 3,
              "shipped Winograd schedule must run with exactly 3 live "
              "temporaries (paper section 3.3)");
static_assert(verify_core(kWinograd).products == 7 &&
                  verify_core(kWinograd).linear_ops == 15,
              "shipped Winograd schedule must be 7 products + 15 additions");
static_assert(verify_core(kWinogradLowMem).violation == Violation::kNone,
              "shipped low-memory schedule failed symbolic verification");
static_assert(verify_core(kWinogradLowMem).temp_peak == 2 &&
                  verify_core(kWinogradLowMem).products == 7 &&
                  verify_core(kWinogradLowMem).linear_ops == 15,
              "shipped low-memory schedule must be 7 products + 15 additions "
              "with a 2-temporary peak (Boyer-Dumas-Pernet-Zhou bound)");
static_assert(temp_buffer_count(kWinogradLowMem) == 2,
              "shipped low-memory schedule must occupy exactly 2 arena "
              "buffers (tS/tP share one)");
static_assert(verify_core(kWinogradInPlace).violation == Violation::kNone,
              "shipped in-place schedule failed symbolic verification");
static_assert(verify_core(kWinogradInPlace).temp_peak == 1 &&
                  verify_core(kWinogradInPlace).products == 7 &&
                  verify_core(kWinogradInPlace).linear_ops == 15,
              "shipped in-place schedule must be 7 products + 15 additions "
              "with a single C-shaped temporary");
static_assert(verify_core(kWinogradSpawn).violation == Violation::kNone,
              "shipped spawn schedule failed symbolic verification (fork "
              "independence included)");
static_assert(verify_core(kWinogradSpawn).temp_peak == 15 &&
                  verify_core(kWinogradSpawn).products == 7 &&
                  verify_core(kWinogradSpawn).linear_ops == 15,
              "shipped spawn schedule must be 7 forked products + 15 "
              "additions with all 15 temporaries live across the fork");
static_assert(temp_buffer_count(kWinogradSpawn) == 15,
              "shipped spawn schedule must give every temporary its own "
              "buffer");

namespace {

std::string step_label(const Schedule& sched, int i) {
  std::ostringstream os;
  os << "step " << i;
  if (i >= 0 && i < sched.step_count && sched.steps[i].note[0] != '\0')
    os << " (" << sched.steps[i].note << ")";
  return os.str();
}

std::string step_render(const Step& s) {
  std::ostringstream os;
  const char* dst = operand_name(s.dst);
  switch (s.kind) {
    case StepKind::kAdd:
      os << dst << " = " << operand_name(s.a0) << " + " << operand_name(s.a1);
      break;
    case StepKind::kSub:
      os << dst << " = " << operand_name(s.a0) << " - " << operand_name(s.a1);
      break;
    case StepKind::kAddInplace:
      os << dst << " += " << operand_name(s.a0);
      break;
    case StepKind::kSubInplace:
      os << dst << " -= " << operand_name(s.a0);
      break;
    case StepKind::kMul:
      os << dst << " = " << operand_name(s.a0) << " . " << operand_name(s.b0);
      break;
  }
  return os.str();
}

// Forward pass collecting EVERY forward-detectable violation instead of
// stopping at the first one (the constexpr core's behaviour).  Execution
// continues past a violation where the symbolic state still makes sense, so
// one mutation does not drown the report in cascading noise: an undefined
// read contributes zero coefficients, a skipped malformed step leaves its
// destination untouched.
SymState forward_diagnose(const Schedule& sched,
                          std::vector<std::string>& errors,
                          int last_writer[kOperandCount]) {
  SymState st = detail::initial_state();
  for (int i = 0; i < kOperandCount; ++i) last_writer[i] = -1;
  for (int i = 0; i < sched.step_count; ++i) {
    const Step& s = sched.steps[i];
    Operand bad = Operand::kNone;
    const Violation shape_v = detail::step_shape_check(s, &bad);
    if (shape_v != Violation::kNone) {
      std::ostringstream os;
      os << step_label(sched, i) << ": " << violation_name(shape_v)
         << " on operand " << operand_name(bad) << " in '" << step_render(s)
         << "'";
      errors.push_back(os.str());
      continue;  // malformed: cannot execute symbolically
    }
    if (is_input(s.dst) && !sched.overwrites_inputs) {
      std::ostringstream os;
      os << step_label(sched, i) << ": writes input quadrant "
         << operand_name(s.dst) << " ('" << step_render(s)
         << "'); A/B quadrants are read-only in a table not marked "
            "overwrites_inputs";
      errors.push_back(os.str());
      continue;
    }
    const detail::ReadSet reads = detail::step_reads(s);
    if (is_product(s.kind)) {
      for (int k = 0; k < reads.count; ++k) {
        if (reads.ops[k] == s.dst) {
          std::ostringstream os;
          os << step_label(sched, i) << ": product destination "
             << operand_name(s.dst)
             << " aliases a source operand; recursive products require "
                "disjoint storage";
          errors.push_back(os.str());
        }
      }
    }
    if (sched.forks_products) {
      const Operand conflict = detail::fork_conflict(sched, i);
      if (conflict != Operand::kNone) {
        std::ostringstream os;
        os << step_label(sched, i) << ": " << operand_name(conflict)
           << " shares storage with a product of the same forked run ('"
           << step_render(s)
           << "'); forked products must read and write disjoint storage";
        errors.push_back(os.str());
      }
    }
    for (int k = 0; k < reads.count; ++k) {
      const Operand op = reads.ops[k];
      if (is_temp(op) && !detail::temp_declared(sched, op)) {
        std::ostringstream os;
        os << step_label(sched, i) << ": temporary " << operand_name(op)
           << " is not in the schedule's declared temporary list";
        errors.push_back(os.str());
      }
      if (!st.slot[static_cast<int>(op)].defined) {
        std::ostringstream os;
        os << step_label(sched, i) << ": reads " << operand_name(op)
           << " before any step defined it ('" << step_render(s)
           << "'); a reordering overwrote or delayed the value it expects";
        errors.push_back(os.str());
      }
    }
    if (is_temp(s.dst) && !detail::temp_declared(sched, s.dst)) {
      std::ostringstream os;
      os << step_label(sched, i) << ": temporary " << operand_name(s.dst)
         << " is not in the schedule's declared temporary list";
      errors.push_back(os.str());
    }
    detail::sym_apply(s, st);
    last_writer[static_cast<int>(s.dst)] = i;
  }
  return st;
}

}  // namespace

std::string bilinear_to_string(const Bilinear& b) {
  std::ostringstream os;
  bool any = false;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const int k = b.c[i][j];
      if (k == 0) continue;
      if (any) os << " ";
      os << (k > 0 ? "+" : "-");
      if (k != 1 && k != -1) os << (k > 0 ? k : -k) << "*";
      os << operand_name(static_cast<Operand>(
                static_cast<int>(Operand::kA11) + i))
         << "."
         << operand_name(static_cast<Operand>(
                static_cast<int>(Operand::kB11) + j));
      any = true;
    }
  }
  if (!any) os << "0";
  return os.str();
}

VerifyResult verify_schedule(const Schedule& sched) {
  VerifyResult out;
  if (sched.step_count <= 0 || sched.steps == nullptr) {
    out.errors.push_back("schedule has no steps");
    return out;
  }
  int last_writer[kOperandCount];
  const SymState st = forward_diagnose(sched, out.errors, last_writer);

  {
    Operand dead = Operand::kNone;
    // Report every dead store, not just the first: re-scan from each index.
    for (int from = 0; from < sched.step_count;) {
      Schedule tail = sched;
      tail.steps = sched.steps + from;
      tail.step_count = sched.step_count - from;
      const int i = detail::first_dead_store(tail, &dead);
      if (i < 0) break;
      const int abs_i = from + i;
      std::ostringstream os;
      os << step_label(sched, abs_i) << ": value written to "
         << operand_name(dead)
         << " is never read before being overwritten (dead store -- a later "
            "step clobbers a value the schedule still owed a use)";
      out.errors.push_back(os.str());
      from = abs_i + 1;
    }
  }

  for (Operand c :
       {Operand::kC11, Operand::kC12, Operand::kC21, Operand::kC22}) {
    const SymValue& v = st.slot[static_cast<int>(c)];
    if (!v.defined) {
      out.errors.push_back(std::string("output ") + operand_name(c) +
                           " is never written");
      continue;
    }
    const Bilinear want = c_target(c);
    const int w = last_writer[static_cast<int>(c)];
    if (!(v.bil == want)) {
      std::ostringstream os;
      os << "product identity fails for " << operand_name(c)
         << " (last written at " << step_label(sched, w) << "): computed "
         << bilinear_to_string(v.bil) << ", expected "
         << bilinear_to_string(want);
      out.errors.push_back(os.str());
    }
  }

  int peak_step = -1;
  out.temp_peak = detail::live_temp_peak(sched, &peak_step);
  if (out.temp_peak != sched.declared_temp_peak) {
    std::ostringstream os;
    os << "live-temporary peak is " << out.temp_peak << " (first reached at "
       << step_label(sched, peak_step) << ") but the schedule declares "
       << sched.declared_temp_peak;
    out.errors.push_back(os.str());
  }

  {
    int bstep = -1;
    Operand bop = Operand::kNone;
    const Violation bv = detail::check_temp_buffers(sched, &bstep, &bop);
    if (bv == Violation::kBadTempBuffer) {
      std::ostringstream os;
      os << "temp_buffer maps " << operand_name(bop)
         << " to a buffer id outside [0, " << sched.temp_count << ")";
      out.errors.push_back(os.str());
    } else if (bv == Violation::kSharedTempOverlap) {
      std::ostringstream os;
      os << step_label(sched, bstep) << ": temporary " << operand_name(bop)
         << " shares an arena buffer with another temporary that is still "
            "live here -- shared-buffer temps must have disjoint live ranges";
      out.errors.push_back(os.str());
    }
  }

  for (int i = 0; i < sched.step_count; ++i) {
    if (is_product(sched.steps[i].kind))
      ++out.products;
    else
      ++out.linear_ops;
  }
  out.ok = out.errors.empty();
  return out;
}

}  // namespace strassen::analysis
