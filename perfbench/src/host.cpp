// host.cpp -- host context: CPU, load, memory, and the frozen drift probe.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "blas/kernels/registry.hpp"

namespace perfbench {

namespace {

// Frozen: a fixed 96^3 i-k-j loop on benchmark-owned arrays.  Do not change
// it -- its rate compares hosts and runs, not library versions.
constexpr int kProbeN = 96;
constexpr double kProbeFlops = 2.0 * kProbeN * kProbeN * kProbeN;

struct ProbeArrays {
  alignas(64) double a[kProbeN * kProbeN];
  alignas(64) double b[kProbeN * kProbeN];
  alignas(64) double c[kProbeN * kProbeN];
  ProbeArrays() {
    Rng r(12345);
    for (int i = 0; i < kProbeN * kProbeN; ++i) {
      a[i] = r.uniform();
      b[i] = r.uniform();
    }
  }
};

// Returns one element of the product so that callers can keep it alive.
double probe_loop(ProbeArrays& p) {
  constexpr int n = kProbeN;
  for (int i = 0; i < n * n; ++i) p.c[i] = 0.0;
  for (int j = 0; j < n; ++j)
    for (int q = 0; q < n; ++q) {
      const double bqj = p.b[q + j * n];
      for (int i = 0; i < n; ++i) p.c[i + j * n] += p.a[i + q * n] * bqj;
    }
  return p.c[n * n / 2];
}

}  // namespace

double host_probe_gflops() {
  static const auto arrays = std::make_unique<ProbeArrays>();
  static volatile double sink = 0.0;
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    sink = sink + probe_loop(*arrays);
    best = std::min(best, static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return kProbeFlops / best * 1e-9;
}

double load_average() {
  std::ifstream f("/proc/loadavg");
  double l = 0.0;
  f >> l;
  return l;
}

double steal_seconds() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ...", summed over all CPUs in clock ticks.
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  return f ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostInfo host_info() {
  HostInfo h;
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  namespace k = strassen::blas::kernels;
  h.kernel = k::kind_name(k::active_kernel());
  h.kernel_variant = k::variant_name(k::avx2_variant());
  return h;
}

}  // namespace perfbench
