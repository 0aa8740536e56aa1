// live-n32: 32 mmrfd-node processes over loopback UDP (n = 32, f = 8), 8
// SIGKILLs per cluster lifetime, delta encoding, 100 ms pacing, tracing
// off. No delay is injected; the traffic is real loopback traffic. The
// transport, the live node's threads and the supervisor do the work here;
// the core does little. One lifetime gives only 8 independent kill phases,
// so a run pools several lifetimes, each with its own crash-plan seed.
//
// Node CPU comes from getrusage(RUSAGE_CHILDREN): the nodes are this
// process's only children, and live::Supervisor reaps every one of them
// before run() returns.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "live/supervisor.h"
#include "obs/trace_assembler.h"
#include "report.h"
#include "runtime/crash_plan.h"

namespace perfbench {
namespace {

using namespace mmrfd;

struct Shape {
  std::uint32_t n{32};
  std::uint32_t f{8};
  std::uint32_t kills{8};
  double lifetime_s{3.0};
};

Shape shape_for(const RunArgs& args) {
  return args.smoke ? Shape{8, 2, 2, 2.0} : Shape{};
}

// The live ctest suites bind 43000-48600; exp_live defaults to 41000+.
// Lifetimes rotate through 100 blocks of 64 ports above both.
constexpr std::uint32_t kPortBase = 51000;
constexpr std::uint32_t kPortBlocks = 100;
constexpr std::uint32_t kPortBlock = 64;

struct Usage {
  double user_s{0};
  double sys_s{0};
  double ctx_switches{0};
  double maxrss_mib{0};
};

Usage children_usage() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  // For RUSAGE_CHILDREN this is the largest single child's peak, in KiB.
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

struct Lifetime {
  live::LiveRunResult run;
  double wall_s{0};
  double user_s{0};
  double sys_s{0};
  double ctx_switches{0};
  std::uint64_t obligations{0};
  std::uint64_t failed{0};
  std::string report_dir;
};

Lifetime run_lifetime(const RunArgs& args, const Shape& s, std::uint64_t seed,
                      std::uint32_t index, bool trace) {
  const std::uint64_t lseed = seed * 1000 + index;
  const runtime::CrashPlan plan = runtime::CrashPlan::uniform(
      s.kills, s.n, from_seconds(s.lifetime_s * 0.3),
      from_seconds(s.lifetime_s * 0.6), lseed);
  std::vector<live::CrashEvent> schedule;
  for (const auto& e : plan.entries) schedule.push_back({e.victim, e.when, {}});

  live::SupervisorConfig cfg;
  cfg.n = s.n;
  cfg.f = s.f;
  cfg.base_port = static_cast<std::uint16_t>(
      kPortBase + ((seed * 7 + index) % kPortBlocks) * kPortBlock);
  cfg.pacing = from_millis(100);
  cfg.delta = true;
  cfg.telemetry = Duration::zero();  // no supervisor-side sampling
  cfg.node_binary = args.node_binary;
  cfg.trace = trace;
  cfg.trace_capacity = std::max<std::uint32_t>(16384, s.n * 1024);
  cfg.report_dir = args.work_dir + "/live/l" + std::to_string(index) +
                   (trace ? "-trace" : "");
  std::filesystem::remove_all(cfg.report_dir);

  Lifetime l;
  l.report_dir = cfg.report_dir;
  const Usage u0 = children_usage();
  const auto t0 = Clock::now();
  live::Supervisor supervisor(cfg);
  l.run = supervisor.run(schedule, from_seconds(s.lifetime_s));
  l.wall_s = seconds_since(t0);
  const Usage u1 = children_usage();
  l.user_s = u1.user_s - u0.user_s;
  l.sys_s = u1.sys_s - u0.sys_s;
  l.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  l.obligations = static_cast<std::uint64_t>(l.run.crashes.size()) *
                  (s.n - l.run.crashes.size());
  const std::uint64_t detected = l.run.detection_latencies.count();
  l.failed = (l.obligations > detected ? l.obligations - detected : 0) +
             l.run.unexpected_exits + l.run.missing_reports;
  return l;
}

void add_trace_layers(Report& r, const Lifetime& traced) {
  if (!traced.run.trace) {
    r.check("trace_assembled", false, "traced lifetime produced no trace");
    return;
  }
  double pacing = 0, resend = 0, wire = 0;
  std::size_t observers = 0;
  for (const obs::CrashTimeline& ct : traced.run.trace->crashes) {
    for (const obs::ObserverBreakdown& ob : ct.observers) {
      pacing += static_cast<double>(ob.pacing_ns);
      resend += static_cast<double>(ob.resend_wait_ns);
      wire += static_cast<double>(ob.wire_ns);
    }
    observers += ct.observers.size();
  }
  const double k = observers > 0 ? static_cast<double>(observers) * 1e6 : 1;
  r.add("obs.pacing_ms", pacing / k, "ms", observers);
  r.add("obs.resend_wait_ms", resend / k, "ms", observers);
  r.add("obs.wire_ms", wire / k, "ms", observers);

  // The loopback oracle: one clock for every node, so the true skew is 0
  // and no rx precedes its tx. Reported, not gated.
  const auto t0 = Clock::now();
  const auto assembled = obs::assemble_from_dir(traced.report_dir, true);
  r.add("obs.assemble_s", seconds_since(t0), "s", 1);
  const auto unskewed = obs::assemble_from_dir(traced.report_dir, false);
  r.check("trace_assembled", assembled.has_value() && unskewed.has_value(),
          "assemble_from_dir on " + traced.report_dir);
  if (!assembled || !unskewed) return;
  r.add("obs.causal_violations", static_cast<double>(assembled->causal_violations),
        "count", assembled->matched_pairs);
  r.add("obs.causal_violations_noskew",
        static_cast<double>(unskewed->causal_violations), "count",
        unskewed->matched_pairs);
  std::vector<double> skew_us;
  for (const obs::SkewEstimate& e : assembled->skew) {
    if (e.reachable) skew_us.push_back(std::abs(static_cast<double>(e.offset_ns)) / 1e3);
  }
  if (!skew_us.empty()) {
    r.add("obs.skew_abs_p50_us", percentile(skew_us, 50), "us", skew_us.size());
    r.add("obs.skew_abs_max_us", *std::max_element(skew_us.begin(), skew_us.end()),
          "us", skew_us.size());
  }
}

}  // namespace

Report run_live(const RunArgs& args) {
  const Shape s = shape_for(args);
  Report r;
  std::vector<Lifetime> lifetimes;
  // Lifetimes per run: a pure function of --seconds (one lifetime costs
  // about its horizon plus 0.1-0.2 s of spawn and teardown), at least two.
  const std::size_t count =
      args.smoke ? 2
                 : std::max<std::size_t>(
                       2, static_cast<std::size_t>(args.seconds /
                                                   (s.lifetime_s + 0.25)));
  for (std::uint32_t k = 0; k < count; ++k) {
    lifetimes.push_back(run_lifetime(args, s, args.seed, k, false));
  }

  std::vector<double> lat, overhead, cpu_per_round;
  double user = 0, sys = 0, ctx = 0, false_susp = 0, resend_waves = 0;
  std::uint64_t rounds = 0, queries = 0, full = 0, wire_bytes = 0,
                dgram_sent = 0, dgram_recv = 0;
  double horizon_s = 0;
  std::vector<double> rtt_p50;
  for (std::size_t i = 0; i < lifetimes.size(); ++i) {
    const Lifetime& l = lifetimes[i];
    const live::LiveRunResult& run = l.run;
    const std::string tag = "[lifetime " + std::to_string(i) + "]";
    r.check("strong_completeness" + tag,
            run.strong_completeness && l.failed == 0,
            std::to_string(run.detection_latencies.count()) + "/" +
                std::to_string(l.obligations) + " pairs detected, " +
                std::to_string(run.unexpected_exits) + " unexpected exits, " +
                std::to_string(run.missing_reports) + " missing reports");
    r.check("kills_performed" + tag, run.crashes.size() == s.kills,
            std::to_string(run.crashes.size()) + " of " + std::to_string(s.kills));
    r.attempted += l.obligations;
    r.failed += l.failed;
    for (double x : run.detection_latencies.samples()) lat.push_back(x);
    overhead.push_back(l.wall_s - to_seconds(run.horizon));
    horizon_s += to_seconds(run.horizon);
    user += l.user_s;
    sys += l.sys_s;
    cpu_per_round.push_back((l.user_s + l.sys_s) / static_cast<double>(run.rounds));
    ctx += l.ctx_switches;
    rounds += run.rounds;
    queries += run.queries_sent();
    full += run.full_queries_sent;
    wire_bytes += run.wire_bytes_sent;
    dgram_sent += run.datagrams_sent;
    dgram_recv += run.datagrams_received;
    false_susp += static_cast<double>(run.false_suspicions);
    resend_waves += static_cast<double>(run.metrics.counter_value("rt.resend_waves"));
    if (const obs::HistogramSnapshot* h = run.metrics.find_histogram("rt.round_rtt_ns")) {
      rtt_p50.push_back(h->percentile(0.50) / 1e6);
    }
  }
  const auto k = static_cast<double>(lifetimes.size());
  const auto per_round = [&](double x) { return x / static_cast<double>(rounds); };

  if (!args.trace) {
    r.add("events_per_s", static_cast<double>(dgram_sent + dgram_recv) / horizon_s,
          "1/s", dgram_sent + dgram_recv);
    r.add("setup_s", median(overhead), "s", overhead.size());
    r.add("peak_rss_mib", children_usage().maxrss_mib, "MiB", 1);
    r.add("detect_p50_ms", percentile(lat, 50) * 1e3, "ms", lat.size());
    r.add("detect_p90_ms", percentile(lat, 90) * 1e3, "ms", lat.size());
    r.add("detect_p99_ms", percentile(lat, 99) * 1e3, "ms", lat.size());
    r.add("false_suspicions", false_susp / k, "count", lifetimes.size());
    r.add("bytes_per_query",
          static_cast<double>(wire_bytes) / static_cast<double>(queries), "B",
          queries);
    // Median over lifetimes: robust to a co-tenant's burst on the host.
    r.add("cpu_us_per_round", median(cpu_per_round) * 1e6, "us", rounds);
    r.add("undetected_share",
          r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0, "1",
          r.attempted);
    return r;
  }

  r.add("live.cpu_us_per_round", median(cpu_per_round) * 1e6, "us", rounds);
  r.add("live.cpu_user_us_per_round", per_round(user) * 1e6, "us", rounds);
  r.add("live.cpu_sys_us_per_round", per_round(sys) * 1e6, "us", rounds);
  r.add("live.ctx_switches_per_round", per_round(ctx), "count", rounds);
  r.add("transport.datagrams_per_round", per_round(static_cast<double>(dgram_sent)),
        "count", rounds);
  r.add("rt.full_query_share",
        static_cast<double>(full) / static_cast<double>(queries), "1", queries);
  r.add("rt.resend_waves_per_round", per_round(resend_waves), "count", rounds);
  if (!rtt_p50.empty()) {
    r.add("live.round_rtt_p50_ms", median(rtt_p50), "ms", rtt_p50.size());
  }
  r.add("live.false_suspicions", false_susp / k, "count", lifetimes.size());
  r.add("live.overhead_s", median(overhead), "s", overhead.size());

  // One extra lifetime with tracing on, for the latency split and the
  // loopback oracle; its CPU is kept out of the figures above.
  const Lifetime traced = run_lifetime(
      args, s, args.seed, static_cast<std::uint32_t>(lifetimes.size()), true);
  r.check("strong_completeness[traced lifetime]",
          traced.run.strong_completeness && traced.failed == 0,
          std::to_string(traced.run.detection_latencies.count()) + "/" +
              std::to_string(traced.obligations) + " pairs detected");
  r.attempted += traced.obligations;
  r.failed += traced.failed;
  add_trace_layers(r, traced);
  return r;
}

}  // namespace perfbench
