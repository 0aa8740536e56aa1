// What one benchmark run hands back to run.py: named metrics with unit and
// sample count, the correctness checks it made, and the attempted/failed
// obligation counts. main.cc prints it as one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  std::uint64_t samples{0};
};

struct Check {
  std::string name;
  bool ok{false};
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// Detection obligations: one per (crash, correct observer) pair.
  std::uint64_t attempted{0};
  /// Obligations left undetected (live: plus unexpected exits and missing
  /// node reports).
  std::uint64_t failed{0};

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

/// Run-shape arguments shared by every workload.
struct RunArgs {
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool smoke{false};         ///< tiny sizes, for the self-test
  std::string node_binary;   ///< mmrfd-node (live workload)
  std::string work_dir;      ///< scratch space inside the checkout
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (the mean of the two middle values for an
/// even count).
double median(std::vector<double> values);
/// The p-th percentile (0-100) of a non-empty sample, as mmrfd::SampleSet
/// defines it.
double percentile(const std::vector<double>& values, double p);

Report run_sim_delta(const RunArgs& args);
Report run_sim_sharded(const RunArgs& args);
Report run_live(const RunArgs& args);

}  // namespace perfbench
