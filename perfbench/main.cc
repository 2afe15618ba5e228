// perfbench: the repository benchmark.
//
//   perfbench --workload <http_mix|rpc_kv|mesh_rubbos> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, measured with tracing off;
// --trace 1 prints the per-layer metrics from a separate traced run. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; lines before it starting with '#' are diagnostics (host stamp,
// sample counts, flags). Any failed check makes the exit code 1.
#include <dirent.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_util.h"
#include "metrics/proc_stat.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up is repeated this many times per run; setup_s takes the median.
constexpr int kColdSetups = 5;
// Warm-up runs windows of this length until serving is steady (WarmUp).
constexpr double kWarmWindowSec = 0.1;
constexpr double kMinWarmSec = 2.0;
constexpr size_t kMaxWarmWindows = 60;
constexpr int kWarmBlock = 5;
constexpr double kSteadyTolerance = 0.05;
// The measured time is cut into rounds of about kRoundSec, each a closed-
// loop slice (kClosedShare of it) followed by an open-loop slice.
constexpr double kRoundSec = 3.0;
constexpr double kClosedShare = 0.6;
// Longest wait for server counters to settle once the load has stopped.
constexpr double kSettleSec = 2.0;
// Host steal share from which a measurement round is left out, or, when it
// has to be kept, the run is flagged: at 6-24% steal over a run, mesh_rubbos
// and http_mix throughput fell by 17-55% and open-loop p95 rose 3-100x
// against quiet runs.
constexpr double kStealFlagShare = 0.02;

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's end_to_end and per_layer entries; run.py fails a run
// whose names or units differ from that file.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"throughput_rps", "1/s"},
    {"p50_ms", "ms"},           {"p99_ms", "ms"},
    {"ol_p50_ms", "ms"},        {"ol_p95_ms", "ms"},
    {"server_cpu_us_per_req", "us"}, {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"client.cpu_share", "share"},
    {"client.queued_share", "share"},
    {"io.syscalls_per_req", "count"},
    {"io.sqes_per_submit", "count"},
    {"io.cqes_per_submit", "count"},
    {"io.uring_fallbacks", "count"},
    {"net.write_calls_per_resp", "count"},
    {"net.zero_writes_per_resp", "count"},
    {"servers.logical_switches_per_req", "count"},
    {"servers.os_ctx_switches_per_req", "count"},
    {"servers.wakeups_per_req", "count"},
    {"servers.loop_busy_share", "share"},
    {"servers.worker_busy_share", "share"},
    {"servers.non_handler_p50_us", "us"},
    {"runtime.dispatch_batches_per_req", "count"},
    {"runtime.spin_capped_flushes_per_resp", "count"},
    {"runtime.buffer_pool_hit_rate", "share"},
    {"core.heavy_path_share", "share"},
    {"core.reclassifications", "count"},
    {"core.light_p99_ms", "ms"},
    {"proto.http_parse_ns", "ns"},
    {"proto.http_serialize_ns", "ns"},
    {"proto.rpc_parse_ns", "ns"},
    {"proto.rpc_serialize_ns", "ns"},
    {"app.handler_us.http_light", "us"},
    {"app.handler_us.http_heavy", "us"},
    {"app.handler_us.lookup", "us"},
    {"app.handler_us.read", "us"},
    {"app.handler_us.write", "us"},
    {"app.kv_get_ns", "ns"},
    {"app.kv_put_ns", "ns"},
    {"mesh.cache_hit_rate", "share"},
    {"mesh.singleflight_waits_per_miss", "count"},
    {"mesh.fanout_calls_per_page", "count"},
    {"mesh.partial_failures", "count"},
    {"mesh.render_p50_ms", "ms"},
    {"mesh.db_query_p50_ms", "ms"},
    {"rubbos.app_requests_per_page", "count"},
    {"rubbos.db_queries_per_page", "count"},
    {"trace.overhead_share", "share"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end) return false;
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(a->workload) && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// ---- Server-side accounting over one window ----

// Every thread of the process except the calling (generator) thread: the
// server threads, plus in a traced run the probe threads.
std::vector<int> ServerTids() {
  std::vector<int> tids;
  const int self = hynet::CurrentTid();
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      const int tid = std::atoi(e->d_name);
      if (tid > 0 && tid != self) tids.push_back(tid);
    }
    closedir(d);
  }
  return tids;
}

std::string ThreadName(int tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/comm", tid);
  std::string name;
  if (FILE* f = std::fopen(path, "r")) {
    char buf[32] = {};
    if (std::fgets(buf, sizeof(buf), f)) name = buf;
    std::fclose(f);
  }
  return name;
}

// CPU time the hypervisor gave to other guests, summed over all CPUs (the
// steal column of /proc/stat). Rounds with steal are left out of the
// medians, and the run's share is reported so interference shows in the log.
double StealSec() {
  unsigned long long f[8] = {};
  if (FILE* fp = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(fp, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &f[0],
                    &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]) != 8) {
      f[7] = 0;
    }
    std::fclose(fp);
  }
  return static_cast<double>(f[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct Window {
  double wall_sec = 0;
  hynet::ServerCounters counters;  // delta over the window
  std::vector<std::pair<uint64_t, uint64_t>> tiers;  // per-tier deltas
  std::pair<uint64_t, uint64_t> pool{0, 0};
  hynet::ThreadCpuTimes cpu;       // all server threads
  uint64_t ctx_switches = 0;
  double loop_cpu_sec = 0, worker_cpu_sec = 0;
  int loops = 0, workers = 0;
};

class WindowMeter {
 public:
  explicit WindowMeter(const Deployment& dep)
      : dep_(dep), tids_(ServerTids()) {
    for (int tid : tids_) cpu0_.push_back(hynet::ReadThreadCpu(tid));
    ctx0_ = hynet::SumCtxSwitches(tids_);
    c0_ = dep.Counters();
    tiers0_ = dep.TierBalance();
    pool0_ = dep.BufferPool();
    t0_ = NowNs();
  }

  Window Stop() const {
    Window w;
    w.wall_sec = static_cast<double>(NowNs() - t0_) / 1e9;
    w.counters = dep_.Counters() - c0_;
    const auto tiers = dep_.TierBalance();
    for (size_t i = 0; i < tiers.size(); ++i) {
      w.tiers.emplace_back(tiers[i].first - tiers0_[i].first,
                           tiers[i].second - tiers0_[i].second);
    }
    const auto pool = dep_.BufferPool();
    w.pool = {pool.first - pool0_.first, pool.second - pool0_.second};
    w.ctx_switches = (hynet::SumCtxSwitches(tids_) - ctx0_).Total();
    for (size_t i = 0; i < tids_.size(); ++i) {
      const hynet::ThreadCpuTimes d = hynet::ReadThreadCpu(tids_[i]) - cpu0_[i];
      w.cpu += d;
      const std::string name = ThreadName(tids_[i]);
      if (name.rfind("loop-", 0) == 0) {
        w.loop_cpu_sec += d.Total();
        ++w.loops;
      } else if (name.find("worker") != std::string::npos) {
        w.worker_cpu_sec += d.Total();
        ++w.workers;
      }
    }
    return w;
  }

 private:
  const Deployment& dep_;
  std::vector<int> tids_;
  std::vector<hynet::ThreadCpuTimes> cpu0_;
  hynet::CtxSwitchCounts ctx0_;
  hynet::ServerCounters c0_;
  std::vector<std::pair<uint64_t, uint64_t>> tiers0_;
  std::pair<uint64_t, uint64_t> pool0_;
  int64_t t0_ = 0;
};

// ---- One run ----

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
};

double Ms(double ns) { return ns / 1e6; }

class Run {
 public:
  Run(const Workload& w, const Args& args)
      : w_(w), args_(args), ops_(w.make_ops(args.seed)) {}

  int Execute() {
    if (args_.trace == 0) {
      MeasureEndToEnd();
    } else {
      MeasureLayers();
    }
    CheckServers();
    driver_.reset();
    dep_.reset();  // every server thread joined before reporting
    return Report();
  }

 private:
  DriverConfig Config() {
    DriverConfig c;
    c.wire = w_.wire;
    c.server = hynet::InetAddr::Loopback(dep_->Port());
    c.connections = w_.connections;
    c.depth = w_.depth;
    c.rcv_buf_bytes = w_.rcv_buf_bytes;
    c.seed = args_.seed;
    c.tracer = &tracer_;
    return c;
  }

  // Deploys the system and waits for its first good answers; returns the
  // seconds that took.
  double SetUpOnce() {
    driver_.reset();
    dep_.reset();
    const int64_t t0 = NowNs();
    dep_ = w_.deploy(&tracer_);
    driver_ = std::make_unique<Driver>(Config(), &ops_,
                                       static_cast<int>(w_.classes.size()));
    const PhaseResult first = driver_->Run(0);
    tally_.Add(first);
    if (first.ok == 0 || first.failed) Fail("set-up: first request failed");
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  // Runs short windows until serving is steady; returns the seconds spent.
  // Steady means: at least kMinWarmSec has passed (a fresh rpc_kv server
  // serves at ~30% of its steady rate for the first 1.0-1.2 s, a plateau a
  // throughput test alone would accept), the mean throughput of the last
  // kWarmBlock windows is within kSteadyTolerance of the block before, and
  // reclassifications have stopped rising faster (on rpc_kv the classifier
  // keeps re-deciding at a steady rate, so they never stop outright).
  double WarmUp() {
    const int64_t t0 = NowNs();
    std::vector<double> tput;
    std::vector<double> recl;  // reclassifications per window
    uint64_t last = dep_->Counters().reclassifications;
    const auto block = [](const std::vector<double>& v, int back) {
      double sum = 0;
      for (int i = 0; i < kWarmBlock; ++i) sum += v[v.size() - 1 - i - back];
      return sum;
    };
    bool steady = false;
    while (!steady && tput.size() < kMaxWarmWindows) {
      const PhaseResult r = driver_->Run(kWarmWindowSec);
      tally_.Add(r);
      const uint64_t now = dep_->Counters().reclassifications;
      recl.push_back(static_cast<double>(now - last));
      last = now;
      tput.push_back(r.Throughput());
      if (tput.size() * kWarmWindowSec < kMinWarmSec) continue;
      const double level = block(tput, 0), before = block(tput, kWarmBlock);
      steady = std::abs(level - before) <= kSteadyTolerance * before &&
               block(recl, 0) <= 1.5 * block(recl, kWarmBlock) + 20;
    }
    warm_windows_ = static_cast<int>(tput.size());
    if (!steady) {
      std::printf("# FLAG warm-up did not reach a steady state in %.1f s\n",
                  kMaxWarmWindows * kWarmWindowSec);
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  // Rounds of one closed-loop slice then one open-loop slice; every latency,
  // rate and CPU metric is the median over its slices. Interleaving spreads
  // both loops over the whole run, so a stall or a burst of work from a
  // neighbour on the host moves a few slices of each, not one loop's result.
  // Rounds in which other guests took kStealFlagShare or more of the host's
  // CPU time are left out while at least half the rounds remain
  // (RoundsToReport): a vCPU taken away stalls every thread on it, and the
  // figures of such a round say more about the host than the program.
  void MeasureEndToEnd() {
    std::vector<double> cold;
    for (int i = 0; i < kColdSetups; ++i) cold.push_back(SetUpOnce());
    const double warm = WarmUp();
    const int rounds =
        std::max(3, static_cast<int>(std::lround(args_.seconds / kRoundSec)));
    const double closed_slice = args_.seconds * kClosedShare / rounds;
    const double open_slice = args_.seconds * (1 - kClosedShare) / rounds;

    struct Round {
      std::map<std::string, double> metrics;
      uint64_t closed_samples = 0, open_samples = 0;
      double steal_share = 0;
    };
    std::vector<Round> measured;
    const double run_steal0 = StealSec();
    const int64_t run_t0 = NowNs();
    double client_cpu = 0, closed_sec = 0;
    std::vector<double> ol_all;
    uint64_t queued = 0, arrivals = 0;
    double max_lag = 0;
    for (int i = 0; i < rounds; ++i) {
      Round& round = measured.emplace_back();
      const double steal0 = StealSec();
      const int64_t t0 = NowNs();
      const WindowMeter meter(*dep_);
      const PhaseResult r = driver_->Run(closed_slice);
      const Window win = meter.Stop();
      tally_.Add(r);
      const Quantile p99 = Percentile(r.AllLatency(), 0.99);
      round.metrics["throughput_rps"] = r.Throughput();
      round.metrics["p50_ms"] = Ms(Percentile(r.AllLatency(), 0.5).value);
      round.metrics["p99_ms"] = Ms(p99.value);
      round.metrics["server_cpu_us_per_req"] =
          PerRequest(win.cpu.Total() * 1e6, r.ok);
      round.closed_samples = p99.count;
      client_cpu += r.client_cpu_sec;
      closed_sec += r.seconds;

      const PhaseResult o = driver_->Run(open_slice, w_.open_rate);
      tally_.Add(o);
      const std::vector<double> ol = o.AllLatency();
      const Quantile ol95 = Percentile(ol, 0.95);
      round.metrics["ol_p50_ms"] = Ms(Percentile(ol, 0.5).value);
      round.metrics["ol_p95_ms"] = Ms(ol95.value);
      round.open_samples = ol95.count;
      ol_all.insert(ol_all.end(), ol.begin(), ol.end());
      queued += o.queued;
      arrivals += o.arrivals;
      max_lag = std::max(max_lag, o.max_lag_ms);
      round.steal_share =
          (StealSec() - steal0) /
          (static_cast<double>(NowNs() - t0) / 1e9 * hynet::OnlineCpuCount());
    }

    std::vector<double> steal;
    for (const Round& round : measured) steal.push_back(round.steal_share);
    const std::vector<size_t> kept = RoundsToReport(steal, kStealFlagShare);
    std::map<std::string, std::vector<double>> per_slice;
    uint64_t min_all = UINT64_MAX, min_open = UINT64_MAX;
    double kept_steal = 0;
    for (size_t i : kept) {
      for (const auto& [name, value] : measured[i].metrics) {
        per_slice[name].push_back(value);
      }
      min_all = std::min(min_all, measured[i].closed_samples);
      min_open = std::min(min_open, measured[i].open_samples);
      kept_steal = std::max(kept_steal, steal[i]);
    }
    for (const auto& [name, values] : per_slice) {
      metrics_[name] = Median(values);
    }
    metrics_["setup_s"] = Median(cold) + warm;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics_["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

    const double cpu_share = client_cpu / closed_sec;
    const double steal_share =
        (StealSec() - run_steal0) /
        (static_cast<double>(NowNs() - run_t0) / 1e9 *
         hynet::OnlineCpuCount());
    std::printf(
        "# rounds=%d reported=%zu | fewest samples per reported slice: "
        "closed=%llu (beyond p99: %llu) open=%llu (beyond p95: %llu)\n",
        rounds, kept.size(), static_cast<unsigned long long>(min_all),
        static_cast<unsigned long long>(SamplesBeyond(min_all, 0.99)),
        static_cast<unsigned long long>(min_open),
        static_cast<unsigned long long>(SamplesBeyond(min_open, 0.95)));
    std::printf(
        "# setup cold_median_s=%.4f warm_s=%.3f warm_windows=%d | open loop "
        "p99_ms=%.4f (diagnostic, %zu samples) max_lag_ms=%.3f "
        "queued=%llu/%llu | client_cpu_share=%.3f host_steal_share=%.4f "
        "(median round %.4f, worst reported round %.4f)\n",
        Median(cold), warm, warm_windows_, Ms(Percentile(ol_all, 0.99).value),
        ol_all.size(), max_lag, static_cast<unsigned long long>(queued),
        static_cast<unsigned long long>(arrivals), cpu_share, steal_share,
        Median(steal), kept_steal);
    FlagClient(cpu_share);
    if (kept_steal >= kStealFlagShare) {
      std::printf("# FLAG a reported round had host steal share %.4f >= %.2f: "
                  "other guests on the host took CPU time, so this run is "
                  "not comparable\n",
                  kept_steal, kStealFlagShare);
    }
  }

  // Slices: untraced closed loop, traced closed loop (the counter window),
  // traced open loop, and, where the deployment has probes, a traced closed
  // loop with the probes running. The probes get a slice of their own so
  // their calls do not count in the window's per-request ratios.
  void MeasureLayers() {
    SetUpOnce();
    WarmUp();
    const bool probes = dep_->HasProbes();
    const double slice = args_.seconds / (probes ? 4 : 3);
    const PhaseResult plain = driver_->Run(slice);
    tally_.Add(plain);

    tracer_.Enable(true);
    const WindowMeter meter(*dep_);
    const PhaseResult traced = driver_->Run(slice);
    const Window win = meter.Stop();
    tally_.Add(traced);
    const PhaseResult open = driver_->Run(slice, w_.open_rate);
    tally_.Add(open);
    if (probes) {
      dep_->StartProbes(&tracer_, args_.seed);
      tally_.Add(driver_->Run(slice));
      if (const uint64_t probe_failures = dep_->StopProbes()) {
        tally_.failed += probe_failures;
        Fail("mesh probes failed");
      }
    }
    tracer_.Enable(false);

    const hynet::ServerCounters& c = win.counters;
    const uint64_t reqs = traced.ok;
    const auto share = [](double part, double whole) {
      return whole > 0 ? part / whole : 0.0;
    };
    const auto per_resp = [&](uint64_t n) {
      return PerRequest(static_cast<double>(n), c.responses_sent);
    };
    const double client_share = plain.client_cpu_sec / plain.seconds;
    auto& m = metrics_;
    m["client.cpu_share"] = client_share;
    m["client.queued_share"] = share(open.queued, open.arrivals);
    const uint64_t waits = c.uring_submit_batches ? c.uring_submit_batches
                                                  : c.loop_iterations;
    m["io.syscalls_per_req"] = PerRequest(
        static_cast<double>(c.read_calls + c.write_calls +
                            c.wakeup_writes_issued + waits),
        reqs);
    m["io.sqes_per_submit"] =
        share(c.uring_sqes_submitted, c.uring_submit_batches);
    m["io.cqes_per_submit"] =
        share(c.uring_cqes_reaped, c.uring_submit_batches);
    m["io.uring_fallbacks"] =
        static_cast<double>(dep_->Counters().uring_fallbacks);
    m["net.write_calls_per_resp"] = per_resp(c.write_calls);
    m["net.zero_writes_per_resp"] = per_resp(c.zero_writes);
    m["servers.logical_switches_per_req"] =
        PerRequest(c.logical_switches, reqs);
    m["servers.os_ctx_switches_per_req"] = PerRequest(win.ctx_switches, reqs);
    m["servers.wakeups_per_req"] = PerRequest(c.wakeup_writes_issued, reqs);
    m["servers.loop_busy_share"] =
        share(win.loop_cpu_sec, win.wall_sec * win.loops);
    m["servers.worker_busy_share"] =
        share(win.worker_cpu_sec, win.wall_sec * win.workers);
    m["runtime.dispatch_batches_per_req"] =
        PerRequest(c.dispatch_batches, reqs);
    m["runtime.spin_capped_flushes_per_resp"] = per_resp(c.spin_capped_flushes);
    m["runtime.buffer_pool_hit_rate"] =
        share(win.pool.first, win.pool.first + win.pool.second);
    m["core.heavy_path_share"] =
        share(c.heavy_path_responses,
              c.light_path_responses + c.heavy_path_responses);
    m["core.reclassifications"] = static_cast<double>(c.reclassifications);
    const Quantile light = Percentile(plain.latency[0], 0.99);
    m["core.light_p99_ms"] = Ms(light.value);
    m["mesh.cache_hit_rate"] =
        share(c.cache_hits, c.cache_hits + c.cache_misses);
    m["mesh.singleflight_waits_per_miss"] =
        share(c.cache_singleflight_waits, c.cache_misses);
    m["mesh.fanout_calls_per_page"] = PerRequest(c.mesh_fanout_calls, reqs);
    m["mesh.partial_failures"] = static_cast<double>(c.mesh_partial_failures);
    if (win.tiers.size() == 3) {  // web, app, db
      m["rubbos.app_requests_per_page"] = PerRequest(win.tiers[1].first, reqs);
      m["rubbos.db_queries_per_page"] = PerRequest(win.tiers[2].first, reqs);
    }
    m["trace.overhead_share"] =
        1.0 - share(traced.Throughput(), plain.Throughput());
    for (const auto& [name, ns] : dep_->Replay(ops_)) m[name] = ns;
    SpanMetrics();
    WriteSpans();
    FlagClient(client_share);
  }

  // Handler durations per class, request self time outside the handler
  // (client span minus its handler child), and the mesh probe latencies.
  void SpanMetrics() {
    std::map<std::string, std::vector<double>> durations;
    std::map<uint64_t, Span> requests;    // client.request by span id
    std::map<uint64_t, std::vector<Span>> children;
    for (const Span& s : tracer_.Spans()) {
      durations[s.name].push_back(static_cast<double>(s.Duration()));
      if (std::strcmp(s.name, "client.request") == 0) {
        requests[s.id] = s;
      } else if (s.parent) {
        children[s.parent].push_back(s);
      }
    }
    std::vector<double> self;
    for (const auto& [id, kids] : children) {
      const auto it = requests.find(id);
      if (it != requests.end()) {
        self.push_back(static_cast<double>(SelfTimeNs(it->second, kids)));
      }
    }
    metrics_["servers.non_handler_p50_us"] = Median(self) / 1e3;
    const char* handlers[] = {"http_light", "http_heavy", "lookup", "read",
                              "write"};
    for (const char* h : handlers) {
      metrics_[std::string("app.handler_us.") + h] =
          Median(durations[std::string("app.handler.") + h]) / 1e3;
    }
    metrics_["mesh.render_p50_ms"] = Ms(Median(durations["mesh.render"]));
    metrics_["mesh.db_query_p50_ms"] = Ms(Median(durations["mesh.db_query"]));
    std::printf("# spans kept=%zu dropped=%llu request_self_samples=%zu\n",
                tracer_.Spans().size(),
                static_cast<unsigned long long>(tracer_.Dropped()),
                self.size());
  }

  void WriteSpans() {
    const char* dir = std::getenv("PERFBENCH_SPANS_DIR");
    if (!dir || !*dir) return;
    const std::string path = std::string(dir) + "/" + w_.name + "-seed" +
                             std::to_string(args_.seed) + ".json";
    if (!tracer_.WriteJson(path)) Fail("cannot write spans to " + path);
    std::printf("# spans written to %s\n", path.c_str());
  }

  // Correctness checks on the servers once the load has stopped. A server
  // thread may count a response just after the client has read it, so the
  // per-tier balance gets up to kSettleSec to settle.
  void CheckServers() {
    if (!dep_) return;
    auto tiers = dep_->TierBalance();
    const auto balanced = [&] {
      for (const auto& [handled, sent] : tiers) {
        if (handled != sent) return false;
      }
      return true;
    };
    for (int64_t until = NowNs() + static_cast<int64_t>(kSettleSec * 1e9);
         !balanced() && NowNs() < until; tiers = dep_->TierBalance()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (size_t i = 0; i < tiers.size(); ++i) {
      if (tiers[i].first != tiers[i].second) {
        Fail("tier " + std::to_string(i) + ": requests_handled " +
             std::to_string(tiers[i].first) + " != responses_sent " +
             std::to_string(tiers[i].second));
      }
    }
    const hynet::ServerCounters c = dep_->Counters();
    if (c.mesh_partial_failures || c.degraded_responses) {
      Fail("mesh: partial failures or degraded pages");
    }
    if (w_.wire == Wire::kRpc &&
        (c.uring_fallbacks || !c.uring_submit_batches)) {
      Fail("rpc_kv must run on io_uring completion, but the server fell back");
    }
  }

  void FlagClient(double cpu_share) {
    if (cpu_share >= 0.9) {
      std::printf("# FLAG client.cpu_share=%.3f >= 0.9: the client, not the "
                  "server, may be what is measured\n", cpu_share);
    }
  }

  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }

  int Report() {
    if (tally_.failed) Fail(std::to_string(tally_.failed) + " requests failed");
    std::printf("# error_rate=%.6g (%llu failed of %llu attempted)\n",
                ErrorRate(tally_.failed, tally_.attempted),
                static_cast<unsigned long long>(tally_.failed),
                static_cast<unsigned long long>(tally_.attempted));
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally_.attempted);
    json += ", \"failed\": " + std::to_string(tally_.failed);
    json += ", \"metrics\": {";
    bool first = true;
    const std::span<const MetricDef> defs =
        args_.trace ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef& d : defs) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", d.name, metrics_[d.name], d.unit);
      json += buf;
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct_ ? 0 : 1;
  }

  const Workload& w_;
  const Args& args_;
  const std::vector<Op> ops_;
  Tracer tracer_;
  std::unique_ptr<Deployment> dep_;
  std::unique_ptr<Driver> driver_;
  Tally tally_;
  std::map<std::string, double> metrics_;
  int warm_windows_ = 0;
  bool correct_ = true;
};

// The host stamp also carries the workload's open-loop rate, which run.py
// checks against the workload's `why` in BENCHMARK.json.
void PrintHost(const Args& a, const Workload& w) {
  utsname u{};
  uname(&u);
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf(
      "# host {\"nproc\": %d, \"kernel\": \"%s\", \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"open_rate\": %g}\n",
      hynet::OnlineCpuCount(), u.release, __VERSION__, PERFBENCH_BUILD_TYPE,
      sha && *sha ? sha : "unknown", a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace,
      w.open_rate);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const auto& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  const Workload& workload = *FindWorkload(args.workload);
  PrintHost(args, workload);
  try {
    Run run(workload, args);
    return run.Execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
