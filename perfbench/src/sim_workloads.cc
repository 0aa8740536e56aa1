// The two simulator workloads.
//
// sim-delta: the serial reference engine (runtime::MmrCluster) at n = 1000,
// f = 250 with delta-encoded queries, 1 s pacing with 10% jitter,
// exponential 1 ms mean delay, f/2 crashes and a 1% delay spike — the
// exp_scale configuration. The event heap, net delivery and the core's
// merge/fan-out do nearly all of the work; the codec, UDP and the live
// threads do none. Its traced run steps the simulation event by event and
// charges each step to a layer by the deltas it causes in public counters.
//
// sim-sharded: the same cluster on runtime::ShardedMmrCluster with 4
// shards. The same layers run concurrently, plus the engine's windows and
// cross-shard exchange, so a change that helps serial and hurts sharded
// shows up here.
//
// Both are closed loops: a node issues round k+1 only after round k's
// quorum plus the pacing delay. Crash instants follow an open schedule
// drawn from the seed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "metrics/analysis.h"
#include "obs/metrics_registry.h"
#include "report.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"
#include "runtime/sharded_cluster.h"
#include "transport/codec.h"

namespace perfbench {
namespace {

using namespace mmrfd;

constexpr int kSetupRepeats = 15;
constexpr std::size_t kMaxRepeats = 8;
constexpr std::uint32_t kShards = 4;
/// Each repeat advances the simulation in this many equal slices of the
/// horizon and times every slice on its own (25 ms of simulated time, about
/// as much wall time, each at the 10 s horizon). Finer slices filter more
/// of the host's noise: the same repeats gave 10.38 s at 1 slice, 10.19 s
/// at 20 and 9.88 s at 400.
constexpr int kSlices = 400;
constexpr int kSlicesPerReference = 10;
/// The reference host: events_per_s is the rate on a host that runs the
/// reference loop's 40 chunks per repeat (800,000 of its events) in this
/// time. A 4-thread x86-64 VM took 0.21-0.26 s under co-tenant load.
constexpr double kReferenceHost_s = 0.16;

struct Shape {
  std::uint32_t n{1000};
  double horizon_s{10};
  std::uint32_t shards{kShards};
};

Shape shape_for(const RunArgs& args) {
  return args.smoke ? Shape{40, 10, 2} : Shape{};
}

/// Whether a run starts another repeat. Every repeat runs the same seed, so
/// it is the same input and the same event sequence; only how many fit
/// depends on the host's speed (a full-size repeat took 10-19 s on a
/// 4-thread x86-64 VM). An untraced run makes at least two, then goes on
/// while that brings its end nearer to --seconds.
bool another_repeat(const RunArgs& args, std::size_t done, double elapsed_s) {
  if (args.trace) return done < 1;
  if (args.smoke) return done < 3;
  if (done < 2) return true;
  return done < kMaxRepeats &&
         elapsed_s + 0.5 * elapsed_s / static_cast<double>(done) < args.seconds;
}

runtime::MmrClusterConfig cluster_config(const Shape& s, std::uint64_t seed) {
  runtime::MmrClusterConfig cfg;
  cfg.n = s.n;
  cfg.f = (s.n + 3) / 4;
  cfg.seed = seed;
  cfg.pacing = from_millis(1000);
  cfg.pacing_jitter = 0.1;
  cfg.mean_delay = from_millis(1);
  cfg.delay_preset = net::DelayPreset::kExponential;
  cfg.delta_queries = true;
  // ~1% of the nodes slow down 2000x in [65%, 75%] of the horizon, past the
  // pacing period: false suspicions and their repairs are part of the run.
  runtime::SpikeSpec spike;
  spike.start = from_seconds(s.horizon_s * 0.65);
  spike.end = from_seconds(s.horizon_s * 0.75);
  spike.factor = 2000.0;
  for (std::uint32_t i = 0; i < std::max<std::uint32_t>(1, s.n / 100); ++i) {
    spike.affected.push_back(ProcessId{i});
  }
  cfg.spike = spike;
  return cfg;
}

runtime::CrashPlan crash_plan(const Shape& s, const runtime::MmrClusterConfig& cfg) {
  return runtime::CrashPlan::uniform(cfg.f / 2, s.n,
                                     from_seconds(s.horizon_s * 0.2),
                                     from_seconds(s.horizon_s * 0.6), cfg.seed);
}

/// Counts what crosses net::Network::set_size_fn: every send, per recipient.
struct Tap {
  std::uint64_t queries{0};
  std::uint64_t full_queries{0};
  std::uint64_t query_bytes{0};
  std::uint64_t responses{0};
};

void install_tap(runtime::MmrNetwork& net, Tap* tap) {
  net.set_size_fn([tap](const runtime::MmrMessage& m) {
    const std::size_t size = std::visit(
        [](const auto& msg) { return transport::wire_size(msg); }, m);
    if (const auto* q = std::get_if<core::QueryMessage>(&m)) {
      ++tap->queries;
      tap->query_bytes += size;
      if (!q->is_delta()) ++tap->full_queries;
    } else {
      ++tap->responses;
    }
    return size;
  });
}

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double cpu_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpu_seconds(ru);
}

double peak_rss_mib_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One repeat's end-to-end outcome.
struct Outcome {
  double wall_s{0};      ///< start() through the end of metric analysis
  /// wall_s cut into its parts: start(), the kSlices slices of the horizon,
  /// then metric analysis.
  std::vector<double> slice_s;
  /// The reference loop's chunks run between slices (not part of wall_s).
  std::vector<double> reference_s;
  double analysis_s{0};
  double cpu_s{0};       ///< user+sys, start() through the end of the run
  std::uint64_t events{0};
  std::uint64_t messages{0};
  std::uint64_t rounds{0};
  std::vector<double> latencies_s;
  std::uint64_t obligations{0};
  bool complete{false};
  std::uint64_t false_suspicions{0};
  Tap tap;
  double rtt_p50_ms{0};
};

void read_round_rtt(Outcome& o, const obs::RegistrySnapshot& snap) {
  o.rounds = snap.counter_value("sim.rounds");
  if (const obs::HistogramSnapshot* h = snap.find_histogram("sim.round_rtt_ns")) {
    o.rtt_p50_ms = h->percentile(0.50) / 1e6;
  }
}

/// Set-up time: wall time of one cluster construction, each in a freshly
/// forked child. A child allocates from untouched memory, as a process's
/// first construction does; repeats inside one process reuse freed memory
/// and come out bimodal (measured 24 ms and 46 ms at n = 1000). All of them
/// run before the first repeat: a child forked from a parent whose heap a
/// repeat has used pays copy-on-write faults and came out ~40% slower.
template <typename Construct>
std::vector<double> cold_setup_s(Construct construct) {
  std::vector<double> out;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("setup probe: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("setup probe: fork failed");
    if (pid == 0) {
      close(fds[0]);
      try {
        const auto t0 = Clock::now();
        const auto cluster = construct();  // never destroyed: _exit below
        const double secs = seconds_since(t0);
        _exit(write(fds[1], &secs, sizeof secs) == sizeof secs ? 0 : 1);
      } catch (...) {
        _exit(1);  // the parent reports the failure
      }
    }
    close(fds[1]);
    double secs = 0;
    const bool got = read(fds[0], &secs, sizeof secs) == sizeof secs;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("setup probe: child failed");
    }
    out.push_back(secs);
  }
  return out;
}

/// A fixed reference workload that uses none of the program: a small
/// discrete-event loop (a binary heap of 25,000 pending events; each event
/// reads and writes nine cells of a 1000 x 1000 table and schedules one
/// more). Run in chunks between the simulation's slices, it sees the same
/// host as the simulation does. The host's co-tenants slow both alike: over
/// ten sim-delta runs the simulation's quietest wall time spread 0.196
/// (IQR / median) and its rate scaled by the loop's time 0.020.
class ReferenceLoop {
 public:
  static constexpr int kStepsPerChunk = 20'000;

  ReferenceLoop() : table_(kSide * kSide) {
    for (int i = 0; i < kPending; ++i) {
      heap_.push({next() % 2000, draw_cell(), draw_cell()});
    }
  }

  /// Runs kStepsPerChunk events and returns their wall time.
  double timed_chunk() {
    const auto t0 = Clock::now();
    for (int i = 0; i < kStepsPerChunk; ++i) {
      const Event e = heap_.top();
      heap_.pop();
      std::uint32_t* row = &table_[e.a * kSide];
      for (std::uint32_t k = 0; k < 8; ++k) {
        std::uint32_t& cell = row[(e.b + k * 127) % kSide];
        sum_ += cell;
        cell += static_cast<std::uint32_t>(e.t & 7);
      }
      sum_ += table_[e.b * kSide + e.a];
      heap_.push({e.t + 1 + next() % 2000, e.b, draw_cell()});
    }
    const double secs = seconds_since(t0);
    sink_ = sum_;
    return secs;
  }

 private:
  static constexpr std::uint32_t kSide = 1000;
  static constexpr int kPending = 25'000;

  struct Event {
    std::uint64_t t;
    std::uint32_t a, b;
    bool operator>(const Event& o) const { return t > o.t; }
  };

  std::uint64_t next() {  // xorshift64
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }
  std::uint32_t draw_cell() { return static_cast<std::uint32_t>(next() % kSide); }

  std::vector<std::uint32_t> table_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::uint64_t rng_{88172645463325252ULL};
  std::uint64_t sum_{0};
  volatile std::uint64_t sink_{0};
};

/// Runs start() and the horizon slice by slice, timing each part into
/// o.slice_s. `run_until` advances the cluster to a simulated instant.
/// With a reference loop, one of its chunks runs after every
/// kSlicesPerReference slices, timed into o.reference_s.
template <typename Cluster>
void run_sliced(Outcome& o, Cluster& cluster, const Shape& s,
                const runtime::CrashPlan& plan, ReferenceLoop* reference) {
  auto t = Clock::now();
  cluster.start(plan);
  o.slice_s.push_back(seconds_since(t));
  for (int k = 1; k <= kSlices; ++k) {
    t = Clock::now();
    cluster.run_until(from_seconds(s.horizon_s * k / kSlices));
    o.slice_s.push_back(seconds_since(t));
    if (reference != nullptr && k % kSlicesPerReference == 0) {
      o.reference_s.push_back(reference->timed_chunk());
    }
  }
}

double total_s(const std::vector<double>& values) {
  double total = 0;
  for (double x : values) total += x;
  return total;
}

// --- serial ---------------------------------------------------------------

struct SerialTrial {
  obs::MetricsRegistry registry;
  Tap tap;
  std::unique_ptr<runtime::MmrCluster> cluster;
};

std::unique_ptr<SerialTrial> build_serial(const runtime::MmrClusterConfig& base) {
  auto t = std::make_unique<SerialTrial>();
  runtime::MmrClusterConfig cfg = base;
  cfg.registry = &t->registry;
  t->cluster = std::make_unique<runtime::MmrCluster>(cfg);
  install_tap(t->cluster->network(), &t->tap);
  return t;
}

void analyse_full(Outcome& o, const runtime::MmrCluster& cluster, const Shape& s) {
  const auto t0 = Clock::now();
  const metrics::Analysis analysis(cluster.log(), s.n, from_seconds(s.horizon_s));
  o.complete = true;
  for (const auto& summary : analysis.crash_summaries()) {
    o.obligations += summary.observers;
    for (double lat : summary.latencies.samples()) o.latencies_s.push_back(lat);
    if (!summary.completeness_latency) o.complete = false;
  }
  o.false_suspicions = analysis.false_suspicions().size();
  o.analysis_s = seconds_since(t0);
}

void finish_serial(Outcome& o, SerialTrial& t) {
  o.events = t.cluster->simulation().events_fired();
  o.messages = t.cluster->network().stats().messages_sent;
  o.tap = t.tap;
  read_round_rtt(o, t.registry.snapshot());
}

Outcome run_serial(SerialTrial& t, const Shape& s, const runtime::CrashPlan& plan,
                   ReferenceLoop* reference) {
  Outcome o;
  const double cpu0 = cpu_self();
  const auto t0 = Clock::now();
  run_sliced(o, *t.cluster, s, plan, reference);
  // The reference loop is single-threaded and CPU-bound: its wall time is
  // its CPU time.
  o.cpu_s = cpu_self() - cpu0 - total_s(o.reference_s);
  analyse_full(o, *t.cluster, s);
  o.slice_s.push_back(o.analysis_s);
  o.wall_s = seconds_since(t0) - total_s(o.reference_s);
  finish_serial(o, t);
  return o;
}

/// The traced run's ledger: every step of the simulation charged to the
/// layer whose work it was, judged by the counter deltas it caused.
struct Ledger {
  double start_s{0};            ///< MmrCluster::start()
  double query_rx_s{0};         ///< query delivered -> on_query -> response sent
  std::uint64_t query_rx{0};
  double response_rx_s{0};      ///< response delivered -> on_response
  std::uint64_t response_rx{0};
  double round_tick_s{0};       ///< finish_round + query fan-out
  std::uint64_t round_ticks{0};
  std::uint64_t round_tick_peers{0};
  double other_s{0};            ///< crashes, dropped deliveries, idle timers
  std::uint64_t other{0};
  double gaps_s{0};             ///< between steps: stepping and bookkeeping
  std::uint64_t pending_peak{0};
  double analysis_s{0};
  double wall_s{0};             ///< start() through the end of analysis
};

Outcome run_serial_stepped(SerialTrial& t, const Shape& s,
                           const runtime::CrashPlan& plan, Ledger& ledger) {
  Outcome o;
  sim::Simulation& sim = t.cluster->simulation();
  const runtime::MmrNetwork& net = t.cluster->network();
  const TimePoint deadline = from_seconds(s.horizon_s);

  const double cpu0 = cpu_self();
  const auto t0 = Clock::now();
  t.cluster->start(plan);
  auto prev = Clock::now();
  ledger.start_s = std::chrono::duration<double>(prev - t0).count();
  std::chrono::nanoseconds query_rx{0}, response_rx{0}, tick{0}, other{0}, gaps{0};
  for (TimePoint next = sim.next_event_time(); next <= deadline;
       next = sim.next_event_time()) {
    ledger.pending_peak = std::max<std::uint64_t>(ledger.pending_peak,
                                                  sim.events_pending());
    const std::uint64_t q0 = t.tap.queries;
    const std::uint64_t r0 = t.tap.responses;
    const std::uint64_t d0 = net.stats().messages_delivered;
    const auto a = Clock::now();
    sim.run_until(next);
    const auto b = Clock::now();
    gaps += a - prev;
    prev = b;
    const auto busy = b - a;
    if (const std::uint64_t dq = t.tap.queries - q0; dq > 0) {
      tick += busy;
      ++ledger.round_ticks;
      ledger.round_tick_peers += dq;
    } else if (t.tap.responses != r0) {
      query_rx += busy;
      ++ledger.query_rx;
    } else if (net.stats().messages_delivered != d0) {
      response_rx += busy;
      ++ledger.response_rx;
    } else {
      other += busy;
      ++ledger.other;
    }
  }
  sim.run_until(deadline);  // idle tail: advance the clock to the horizon
  o.cpu_s = cpu_self() - cpu0;
  const auto end_run = Clock::now();
  gaps += end_run - prev;
  analyse_full(o, *t.cluster, s);
  const auto t1 = Clock::now();
  o.wall_s = std::chrono::duration<double>(t1 - t0).count();
  const auto secs = [](std::chrono::nanoseconds d) {
    return std::chrono::duration<double>(d).count();
  };
  ledger.query_rx_s = secs(query_rx);
  ledger.response_rx_s = secs(response_rx);
  ledger.round_tick_s = secs(tick);
  ledger.other_s = secs(other);
  ledger.gaps_s = secs(gaps);
  ledger.analysis_s = std::chrono::duration<double>(t1 - end_run).count();
  ledger.wall_s = o.wall_s;
  finish_serial(o, t);
  return o;
}

// --- sharded --------------------------------------------------------------

struct ShardedTrial {
  std::vector<std::unique_ptr<Tap>> taps;  ///< one per shard network
  std::unique_ptr<runtime::ShardedMmrCluster> cluster;
};

std::unique_ptr<ShardedTrial> build_sharded(const runtime::MmrClusterConfig& cfg,
                                            std::uint32_t shards) {
  auto t = std::make_unique<ShardedTrial>();
  t->cluster = std::make_unique<runtime::ShardedMmrCluster>(cfg, shards);
  // Each shard's size_fn runs on that shard's worker thread: one tap each.
  for (std::uint32_t sh = 0; sh < shards; ++sh) {
    t->taps.push_back(std::make_unique<Tap>());
    install_tap(t->cluster->network(sh), t->taps.back().get());
  }
  return t;
}

/// Engine-level numbers from the sharded engine's getters.
struct EngineStats {
  std::uint64_t windows{0};
  double run_s{0};
  std::uint64_t cross_shard{0};
  double imbalance{0};  ///< busiest shard's events / mean shard events
};

Outcome run_sharded(ShardedTrial& t, const Shape& s, const runtime::CrashPlan& plan,
                    ReferenceLoop* reference, EngineStats& es) {
  Outcome o;
  runtime::ShardedMmrCluster& cluster = *t.cluster;
  const double cpu0 = cpu_self();
  const auto t0 = Clock::now();
  run_sliced(o, cluster, s, plan, reference);
  o.cpu_s = cpu_self() - cpu0 - total_s(o.reference_s);
  es.run_s = seconds_since(t0) - total_s(o.reference_s);
  const auto a0 = Clock::now();
  const metrics::RollupSummary sum =
      metrics::summarize_rollup(cluster.rollup(), cluster.crashes(), s.n);
  o.analysis_s = seconds_since(a0);
  o.slice_s.push_back(o.analysis_s);
  o.wall_s = seconds_since(t0) - total_s(o.reference_s);
  o.latencies_s = sum.detection_latencies.samples();
  o.complete = sum.strong_completeness;
  o.false_suspicions = sum.false_suspicions;
  const std::uint64_t crashed = cluster.crashes().size();
  o.obligations = crashed * (s.n - crashed);
  sim::ShardedEngine& engine = cluster.engine();
  o.events = engine.events_fired();
  o.messages = cluster.stats().messages_sent;
  for (const auto& tap : t.taps) {
    o.tap.queries += tap->queries;
    o.tap.full_queries += tap->full_queries;
    o.tap.query_bytes += tap->query_bytes;
    o.tap.responses += tap->responses;
  }
  read_round_rtt(o, cluster.telemetry());
  es.windows = engine.windows_run();
  es.cross_shard = engine.cross_shard_posts();
  std::uint64_t busiest = 0;
  for (std::uint32_t sh = 0; sh < engine.shard_count(); ++sh) {
    busiest = std::max(busiest, engine.shard(sh).events_fired());
  }
  const double mean = static_cast<double>(o.events) / engine.shard_count();
  es.imbalance = mean > 0 ? static_cast<double>(busiest) / mean : 0;
  return o;
}

// --- shared reporting ---------------------------------------------------------

/// Attempted = (crash, correct observer) obligations; failed = undetected.
/// Every repeat is the same input, so the first one stands for the run.
void count_obligations(Report& r, const Outcome& o) {
  r.attempted += o.obligations;
  r.failed += o.obligations - std::min<std::uint64_t>(o.obligations,
                                                      o.latencies_s.size());
}

/// A time with the host's fast noise filtered out: the sum over parts (the
/// simulation's slices, or the reference loop's chunks) of each part's
/// fastest time among the repeats. Every repeat does the same work part for
/// part, and a co-tenant on the host only ever slows a part down; much of
/// its load comes and goes within seconds, so each part's fastest time is
/// the steadiest estimate of the program's own.
double quietest_s(const std::vector<Outcome>& repeats,
                  std::vector<double> Outcome::*parts) {
  double total = 0;
  for (std::size_t k = 0; k < (repeats.front().*parts).size(); ++k) {
    double best = (repeats.front().*parts)[k];
    for (const Outcome& o : repeats) best = std::min(best, (o.*parts)[k]);
    total += best;
  }
  return total;
}

/// The end-to-end metrics every sim workload reports. The state metrics
/// come from the first repeat (the others are checked identical to it).
void report_end_to_end(Report& r, const std::vector<Outcome>& repeats,
                       const std::vector<double>& setup_s) {
  const Outcome& o = repeats.front();
  double best_cpu_per_round = 0;
  for (const Outcome& rep : repeats) {
    const double cpu_per_round = rep.cpu_s / static_cast<double>(rep.rounds);
    if (best_cpu_per_round == 0 || cpu_per_round < best_cpu_per_round) {
      best_cpu_per_round = cpu_per_round;
    }
  }
  count_obligations(r, o);
  // The load on the host also drifts over minutes, by up to 1.8x, which no
  // filter inside one run can undo; it slows the reference loop alike, so
  // the rate is scaled by how fast the loop ran next to the simulation.
  const double wall_s = quietest_s(repeats, &Outcome::slice_s);
  const double reference_s = quietest_s(repeats, &Outcome::reference_s);
  const double wall_rate = static_cast<double>(o.events) / wall_s;
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    std::fprintf(stderr, "perfbench: repeat %zu wall %.3f s, reference loop %.4f s\n",
                 i, repeats[i].wall_s, total_s(repeats[i].reference_s));
  }
  std::fprintf(stderr,
               "perfbench: slice-wise quietest wall %.3f s, reference loop %.4f s\n",
               wall_s, reference_s);
  r.add("events_per_s", wall_rate * reference_s / kReferenceHost_s, "1/s",
        o.events * repeats.size());
  r.add("events_per_wall_s", wall_rate, "1/s", o.events * repeats.size());
  r.add("setup_s", median(setup_s), "s", setup_s.size());
  r.add("peak_rss_mib", peak_rss_mib_self(), "MiB", 1);
  r.add("detect_p50_ms", percentile(o.latencies_s, 50) * 1e3, "ms",
        o.latencies_s.size());
  r.add("detect_p90_ms", percentile(o.latencies_s, 90) * 1e3, "ms",
        o.latencies_s.size());
  r.add("detect_p99_ms", percentile(o.latencies_s, 99) * 1e3, "ms",
        o.latencies_s.size());
  r.add("false_suspicions", static_cast<double>(o.false_suspicions), "count", 1);
  r.add("bytes_per_query",
        static_cast<double>(o.tap.query_bytes) / static_cast<double>(o.tap.queries),
        "B", o.tap.queries);
  r.add("cpu_us_per_round", best_cpu_per_round * 1e6, "us", o.rounds);
  r.add("undetected_share",
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0, "1",
        r.attempted);
}

/// Strong completeness of the first repeat, and every later repeat
/// reproducing it: same events, messages, detections and false suspicions.
void check_repeats(Report& r, const std::vector<Outcome>& repeats) {
  const Outcome& o = repeats.front();
  r.check("strong_completeness",
          o.complete && o.latencies_s.size() == o.obligations,
          std::to_string(o.latencies_s.size()) + "/" +
              std::to_string(o.obligations) + " (crash, observer) pairs detected");
  for (std::size_t i = 1; i < repeats.size(); ++i) {
    const Outcome& rep = repeats[i];
    r.check("repeat_identical[" + std::to_string(i) + "]",
            rep.events == o.events && rep.messages == o.messages &&
                rep.latencies_s == o.latencies_s &&
                rep.false_suspicions == o.false_suspicions,
            std::to_string(rep.events) + " events, " +
                std::to_string(rep.messages) + " messages vs " +
                std::to_string(o.events) + ", " + std::to_string(o.messages) +
                " in the first repeat");
  }
}

}  // namespace

Report run_sim_delta(const RunArgs& args) {
  const Shape s = shape_for(args);
  Report r;
  const runtime::MmrClusterConfig cfg = cluster_config(s, args.seed);
  const runtime::CrashPlan plan = crash_plan(s, cfg);
  const std::vector<double> setup_s = cold_setup_s(
      [&] { return std::make_unique<runtime::MmrCluster>(cfg); });
  std::vector<Outcome> repeats;
  ReferenceLoop reference;
  for (const auto t0 = Clock::now();
       another_repeat(args, repeats.size(), seconds_since(t0));) {
    auto trial = build_serial(cfg);
    repeats.push_back(run_serial(*trial, s, plan, args.trace ? nullptr : &reference));
  }
  check_repeats(r, repeats);
  if (!args.trace) {
    report_end_to_end(r, repeats, setup_s);
    return r;
  }
  count_obligations(r, repeats.front());

  // Traced rerun of the first repeat: same seed, stepped event by event.
  const Outcome& plain = repeats.front();
  auto trial = build_serial(cfg);
  Ledger l;
  const Outcome traced = run_serial_stepped(*trial, s, plan, l);
  r.check("traced_events_fired", traced.events == plain.events,
          std::to_string(traced.events) + " traced vs " +
              std::to_string(plain.events) + " untraced");
  r.check("traced_messages_sent", traced.messages == plain.messages,
          std::to_string(traced.messages) + " traced vs " +
              std::to_string(plain.messages) + " untraced");
  const double busy = l.start_s + l.query_rx_s + l.response_rx_s +
                      l.round_tick_s + l.other_s + l.analysis_s;
  const double unattributed = l.gaps_s;
  const double closure = busy + unattributed - l.wall_s;
  r.check("ledger_closes", std::abs(closure) <= 1e-6 * l.wall_s + 1e-6,
          "layers + unattributed - traced wall = " + std::to_string(closure) + " s");

  const auto per = [](double secs, std::uint64_t count) {
    return count > 0 ? secs * 1e9 / static_cast<double>(count) : 0.0;
  };
  r.add("core.query_rx_ns", per(l.query_rx_s, l.query_rx), "ns", l.query_rx);
  r.add("core.response_rx_ns", per(l.response_rx_s, l.response_rx), "ns",
        l.response_rx);
  r.add("runtime.round_tick_ns_per_peer", per(l.round_tick_s, l.round_tick_peers),
        "ns", l.round_tick_peers);
  r.add("sim.other_ns", per(l.other_s, l.other), "ns", l.other);
  r.add("core.query_rx_s", l.query_rx_s, "s", l.query_rx);
  r.add("core.response_rx_s", l.response_rx_s, "s", l.response_rx);
  r.add("runtime.round_tick_s", l.round_tick_s, "s", l.round_ticks);
  r.add("sim.other_s", l.other_s + l.start_s, "s", l.other + 1);
  r.add("metrics.analysis_s", l.analysis_s, "s", 1);
  r.add("metrics.false_suspicions", static_cast<double>(plain.false_suspicions),
        "count", 1);
  r.add("sim.unattributed_s", unattributed, "s", 1);
  r.add("sim.traced_wall_s", l.wall_s, "s", 1);
  r.add("sim.untraced_wall_s", plain.wall_s, "s", 1);
  r.add("trace.overhead_pct", (l.wall_s - plain.wall_s) / plain.wall_s * 100.0,
        "%", 1);
  r.add("sim.pending_peak", static_cast<double>(l.pending_peak), "count", 1);
  r.add("sim.events", static_cast<double>(traced.events), "count", 1);
  r.add("net.queries_full_share",
        static_cast<double>(traced.tap.full_queries) /
            static_cast<double>(traced.tap.queries),
        "1", traced.tap.queries);
  r.add("obs.round_rtt_p50_ms", traced.rtt_p50_ms, "ms", traced.rounds);
  return r;
}

Report run_sim_sharded(const RunArgs& args) {
  const Shape s = shape_for(args);
  Report r;
  const runtime::MmrClusterConfig cfg = cluster_config(s, args.seed);
  const runtime::CrashPlan plan = crash_plan(s, cfg);
  const std::vector<double> setup_s = cold_setup_s(
      [&] { return std::make_unique<runtime::ShardedMmrCluster>(cfg, s.shards); });
  std::vector<Outcome> repeats;
  ReferenceLoop reference;
  EngineStats es;
  for (const auto t0 = Clock::now();
       another_repeat(args, repeats.size(), seconds_since(t0));) {
    auto trial = build_sharded(cfg, s.shards);
    EngineStats rep_es;
    repeats.push_back(run_sharded(*trial, s, plan,
                                  args.trace ? nullptr : &reference, rep_es));
    if (repeats.size() == 1) es = rep_es;
  }
  check_repeats(r, repeats);
  if (!args.trace) {
    report_end_to_end(r, repeats, setup_s);
    return r;
  }
  count_obligations(r, repeats.front());
  // Per-layer numbers from the first repeat's engine getters; stepping the
  // sharded engine event by event would respawn its worker threads on every
  // run_until.
  const Outcome& o = repeats.front();
  r.add("sim.windows", static_cast<double>(es.windows), "count", 1);
  r.add("sim.window_wall_us",
        es.windows > 0 ? es.run_s * 1e6 / static_cast<double>(es.windows) : 0,
        "us", es.windows);
  r.add("sim.cross_shard_share",
        static_cast<double>(es.cross_shard) / static_cast<double>(o.events), "1",
        o.events);
  r.add("sim.shard_imbalance", es.imbalance, "1", s.shards);
  r.add("sim.events", static_cast<double>(o.events), "count", 1);
  r.add("metrics.analysis_s", o.analysis_s, "s", 1);
  r.add("metrics.false_suspicions", static_cast<double>(o.false_suspicions),
        "count", 1);
  r.add("net.queries_full_share",
        static_cast<double>(o.tap.full_queries) / static_cast<double>(o.tap.queries),
        "1", o.tap.queries);
  r.add("obs.round_rtt_p50_ms", o.rtt_p50_ms, "ms", o.rounds);
  return r;
}

}  // namespace perfbench
