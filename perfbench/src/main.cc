// perfbench — one workload run, printed as a single JSON line on stdout.
//
//   perfbench --workload sim-delta|sim-sharded|live-n32 --seed N
//             --seconds S --trace 0|1 --node-bin PATH --work-dir DIR [--smoke]
//
// perfbench/run.py builds this binary, runs it, checks the line and turns
// it into the benchmark's result. Progress and diagnostics go to stderr.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common/stats.h"
#include "report.h"

namespace perfbench {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(const std::vector<double>& values, double p) {
  mmrfd::SampleSet set;
  for (double x : values) set.add(x);
  return set.percentile(p);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const std::string& workload, const RunArgs& args,
                  const Report& r) {
  std::cout << "{\"workload\": " << json_string(workload)
            << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"build\": {\"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
            << "}, \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    std::cout << (i ? ", " : "") << "{\"name\": " << json_string(c.name)
              << ", \"ok\": " << (c.ok ? "true" : "false")
              << ", \"detail\": " << json_string(c.detail) << "}";
  }
  std::cout << "], \"metrics\": [";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "{\"name\": " << json_string(m.name)
              << ", \"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit)
              << ", \"samples\": " << m.samples << "}";
  }
  std::cout << "]}" << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload sim-delta|sim-sharded|live-n32 "
               "--seed N --seconds S --trace 0|1 --node-bin PATH "
               "--work-dir DIR [--smoke]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> opts;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      opts[key.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "node-bin", "work-dir"}) {
    if (!opts.count(required)) return usage();
  }
  const std::string workload = opts["workload"];
  try {
    args.seed = std::stoull(opts["seed"]);
    args.seconds = std::stod(opts["seconds"]);
    args.trace = opts["trace"] == "1";
    args.node_binary = opts["node-bin"];
    args.work_dir = opts["work-dir"];
    Report r;
    if (workload == "sim-delta") {
      r = run_sim_delta(args);
    } else if (workload == "sim-sharded") {
      r = run_sim_sharded(args);
    } else if (workload == "live-n32") {
      r = run_live(args);
    } else {
      return usage();
    }
    print_report(workload, args, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
