// refgemm.cpp -- the frozen reference dgemm and the crew that runs it on
// several threads.
//
// The reference is a plain packed, register-blocked dgemm (8x4 micro-tile
// in GCC/Clang vector extensions, KC x MC blocks of op(A), KC x NC panels of
// op(B)).  It shares no code with the library, so any change to library
// code moves the ratio of the two on the same cells in the right direction,
// while a change of host speed moves both and largely cancels (measured
// set-to-set movement up to 12%, against 30-40% for the absolute rates).
// Do not tune it: a change here shifts every workload's gated rate.
#include <algorithm>
#include <cstring>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kMR = 8, kNR = 4, kKC = 256, kMC = 128, kNC = 1024;
typedef double v4 __attribute__((vector_size(32)));

// acc += a-sliver (kb x kMR, p-major) times b-sliver (kb x kNR, p-major).
void micro_tile(int kb, const double* a, const double* b,
                v4 (&acc)[kNR][kMR / 4]) {
  for (int p = 0; p < kb; ++p) {
    v4 av[kMR / 4];
    std::memcpy(av, a + p * kMR, sizeof av);
    for (int jj = 0; jj < kNR; ++jj) {
      const double bj = b[p * kNR + jj];
      for (int q = 0; q < kMR / 4; ++q) acc[jj][q] += av[q] * bj;
    }
  }
}

}  // namespace

void ref_gemm(const Shape& s, const double* A, int lda, const double* B,
              int ldb, double* C, int ldc, int j0, int j1) {
  const int m = s.m, k = s.k;
  auto a_at = [&](int i, int p) {
    return s.opa == Op::NoTrans ? A[i + static_cast<std::size_t>(p) * lda]
                                : A[p + static_cast<std::size_t>(i) * lda];
  };
  auto b_at = [&](int p, int j) {
    return s.opb == Op::NoTrans ? B[p + static_cast<std::size_t>(j) * ldb]
                                : B[j + static_cast<std::size_t>(p) * ldb];
  };
  for (int j = j0; j < j1; ++j) {
    double* c = C + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < m; ++i) c[i] = s.beta == 0.0 ? 0.0 : s.beta * c[i];
  }
  std::vector<double> ap(static_cast<std::size_t>(kMC + kMR) * kKC);
  std::vector<double> bp(static_cast<std::size_t>(kNC + kNR) * kKC);
  for (int jc = j0; jc < j1; jc += kNC) {
    const int nb = std::min(kNC, j1 - jc);
    for (int pc = 0; pc < k; pc += kKC) {
      const int kb = std::min(kKC, k - pc);
      // alpha.op(B) panel in kNR-column slivers, zero-padded.
      for (int js = 0; js < nb; js += kNR)
        for (int p = 0; p < kb; ++p)
          for (int jj = 0; jj < kNR; ++jj)
            bp[static_cast<std::size_t>(js) * kb + p * kNR + jj] =
                js + jj < nb ? s.alpha * b_at(pc + p, jc + js + jj) : 0.0;
      for (int ic = 0; ic < m; ic += kMC) {
        const int mb = std::min(kMC, m - ic);
        for (int is = 0; is < mb; is += kMR)
          for (int p = 0; p < kb; ++p)
            for (int ii = 0; ii < kMR; ++ii)
              ap[static_cast<std::size_t>(is) * kb + p * kMR + ii] =
                  is + ii < mb ? a_at(ic + is + ii, pc + p) : 0.0;
        for (int js = 0; js < nb; js += kNR)
          for (int is = 0; is < mb; is += kMR) {
            v4 acc[kNR][kMR / 4] = {};
            micro_tile(kb, &ap[static_cast<std::size_t>(is) * kb],
                       &bp[static_cast<std::size_t>(js) * kb], acc);
            const int mr = std::min(kMR, mb - is), nr = std::min(kNR, nb - js);
            for (int jj = 0; jj < nr; ++jj) {
              double* c = C + ic + is +
                          static_cast<std::size_t>(jc + js + jj) * ldc;
              for (int ii = 0; ii < mr; ++ii) c[ii] += acc[jj][ii / 4][ii % 4];
            }
          }
      }
    }
  }
}

Crew::Crew(int threads) {
  for (int t = 0; t < threads; ++t)
    workers_.emplace_back([this, t] {
      std::uint64_t seen = 0;
      for (;;) {
        const std::function<void(int)>* fn = nullptr;
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [&] { return stop_ || round_ != seen; });
          if (stop_) return;
          seen = round_;
          fn = fn_;
        }
        bool ok = true;
        try {
          (*fn)(t);
        } catch (...) {
          ok = false;
        }
        std::lock_guard<std::mutex> lock(mu_);
        threw_ = threw_ || !ok;
        if (--running_ == 0) done_.notify_one();
      }
    });
}

Crew::~Crew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool Crew::run(const std::function<void(int)>& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    threw_ = false;
    running_ = size();
    ++round_;
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [&] { return running_ == 0; });
  return !threw_;
}

}  // namespace perfbench
