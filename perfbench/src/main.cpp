// main.cpp -- perfbench: one seeded workload, checked, timed, one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced
// variant (spans plus per-call reports) and prints every per-layer metric.
// A context line (seed, cell order, host, per-cell path) precedes the result,
// which is always the last line of standard output.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

long parse_int(const std::string& flag, const std::string& v, long lo,
               long hi) {
  std::size_t used = 0;
  long x = 0;
  try {
    x = std::stol(v, &used);
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": '" + v + "'");
  }
  if (used != v.size() || x < lo || x > hi)
    usage("bad value for " + flag + ": '" + v + "'");
  return x;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << json_string(ms[i].name) << ": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": "
       << json_string(ms[i].unit) << "}";
  os << "}";
  return os.str();
}

std::string context_json(Session& s, const HostInfo& h, bool trace,
                         double seconds, const std::string& trace_out,
                         const Recorder* rec) {
  const Workload& w = s.workload();
  std::ostringstream os;
  os << "{\"context\": {\"workload\": " << json_string(w.name)
     << ", \"seed\": " << w.seed << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"seconds\": " << json_number(seconds)
     << ", \"threads\": " << w.threads;
  os << ", \"host\": {\"cpu_model\": " << json_string(h.cpu_model)
     << ", \"nproc\": " << h.nproc
     << ", \"leaf_kernel\": " << json_string(h.kernel)
     << ", \"kernel_variant\": " << json_string(h.kernel_variant)
     << ", \"loadavg_start\": " << json_number(h.load_start)
     << ", \"loadavg_end\": " << json_number(h.load_end)
     << ", \"steal_s\": " << json_number(h.steal_s) << "}";
  std::vector<double> probes = s.untraced.probe_gflops;
  probes.insert(probes.end(), s.traced.probe_gflops.begin(),
                s.traced.probe_gflops.end());
  os << ", \"host_probe_gflops\": " << json_number(median(probes));
  os << ", \"absolute\": " << metrics_json(absolute_metrics(s));
  os << ", \"passes\": {\"untraced\": " << s.untraced.passes
     << ", \"traced\": " << s.traced.passes << "}";
  os << ", \"cell_order\": [";
  for (std::size_t i = 0; i < s.order_strings.size(); ++i)
    os << (i ? ", " : "") << json_string(s.order_strings[i]);
  os << "], \"setup_s\": [";
  for (std::size_t i = 0; i < s.setup_seconds.size(); ++i)
    os << (i ? ", " : "") << json_number(s.setup_seconds[i]);
  os << "], \"cells\": [";
  for (std::size_t u = 0; u < s.paths.size(); ++u) {
    const CellPath& p = s.paths[u];
    const std::string name =
        w.kind == Kind::kBatched
            ? std::to_string(w.cells.size()) + " items"
            : w.cells[u].name;
    const std::vector<double>& mod = s.untraced.mod[u];
    auto rate = [&](const std::vector<double>& t) {
      return json_number(t.empty() ? 0.0 : w.unit_flops(u) / median(t) * 1e-9);
    };
    os << (u ? ", " : "") << "{\"cell\": " << json_string(name)
       << ", \"samples\": " << mod.size() << ", \"gflops\": " << rate(mod)
       << ", \"ref_gflops\": " << rate(s.untraced.ref[u]);
    if (!s.untraced.blk[u].empty())
      os << ", \"blocked_gflops\": " << rate(s.untraced.blk[u]);
    os << ", \"p90_ms\": "
       << json_number(mod.empty() ? 0.0 : percentile(mod, 0.9) * 1e3)
       << ", \"ms\": [";
    for (std::size_t i = 0; i < mod.size(); ++i)
      os << (i ? ", " : "") << json_number(std::round(mod[i] * 1e6) / 1e3);
    os << "], \"algo\": "
       << json_string(p.algo) << ", \"strategy\": "
       << json_string(p.strategy) << ", \"schedule\": "
       << json_string(p.schedule) << ", \"fallback\": "
       << json_string(p.fallback) << ", \"split\": "
       << (p.split ? "true" : "false") << ", \"direct\": "
       << (p.direct ? "true" : "false") << ", \"depth\": " << p.depth
       << ", \"tiles\": [" << p.tile_m << ", " << p.tile_k << ", "
       << p.tile_n << "], \"products\": " << p.products << "}";
  }
  os << "], \"worst_check_ratio\": " << json_number(s.worst_check_ratio)
     << ", \"failed_frac\": "
     << json_number(s.attempted > 0 ? static_cast<double>(s.failed) /
                                          static_cast<double>(s.attempted)
                                    : 0.0);
  if (rec != nullptr)
    os << ", \"spans\": " << rec->spans().size()
       << ", \"span_dump\": " << json_string(trace_out);
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out")
      usage("unknown flag " + flag);
    args[flag] = argv[i + 1];
  }
  for (const char* f : {"--workload", "--seed", "--seconds", "--trace"})
    if (!args.count(f)) usage(std::string("missing ") + f);
  const std::string name = args["--workload"];
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == name;
  if (!known) usage("unknown workload '" + name + "'");
  const auto seed = static_cast<std::uint64_t>(
      parse_int("--seed", args["--seed"], 0, 1L << 62));
  const double seconds =
      static_cast<double>(parse_int("--seconds", args["--seconds"], 1, 600));
  const bool trace = parse_int("--trace", args["--trace"], 0, 1) == 1;
  const std::string trace_out =
      args.count("--trace-out") ? args["--trace-out"] : "";

  try {
    HostInfo host = host_info();
    host.load_start = load_average();
    const double steal_start = steal_seconds();
    // Input generation is not part of set-up.
    Session s(make_workload(name, seed));
    s.setup();
    std::vector<Metric> metrics;
    std::unique_ptr<Recorder> rec;
    if (!trace) {
      s.measure(seconds, nullptr);
      metrics = end_to_end_metrics(s);
    } else {
      // Half the time alternates traced and untraced passes (the span and
      // report overhead, obs.overhead_frac); half runs the layer probes.
      rec = std::make_unique<Recorder>();
      s.measure(seconds / 2, rec.get());
      probe_layers(s, *rec, seconds / 2);
      metrics = layer_metrics(s, *rec);
      if (!trace_out.empty()) rec->write_json(trace_out);
    }
    host.load_end = load_average();
    host.steal_s = std::round((steal_seconds() - steal_start) * 100) / 100;
    std::cout << context_json(s, host, trace, seconds, trace_out, rec.get())
              << "\n";
    std::cout << "{\"correct\": " << (s.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << s.attempted
              << ", \"failed\": " << s.failed
              << ", \"metrics\": " << metrics_json(metrics) << "}"
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
