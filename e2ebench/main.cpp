// End-to-end job benchmark for the EasyHPS runtime.
//
//   e2e_bench --workload <lcs-fine|nussinov-coarse|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|tiny]
//             [--spans <path>]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics, measured from outside the program
// by a forwarding DpProblem (probe.hpp) and by micro-timings of each layer's
// public functions (layers.cpp).  Every timed job is compared with
// solveReference.  The last stdout line is the result object; the line
// before it is the run stamp.  See README.md for workloads and metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "easyhps/dp/autotune.hpp"
#include "easyhps/dp/editdist.hpp"
#include "easyhps/dp/lcs.hpp"
#include "easyhps/dp/nussinov.hpp"
#include "easyhps/dp/sequence.hpp"
#include "easyhps/runtime/runtime.hpp"
#include "easyhps/serve/service.hpp"
#include "layers.hpp"
#include "probe.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace easyhps;
using e2e::Clock;
using e2e::Layer;
using e2e::nowNs;

// ---------------------------------------------------------------- workloads

enum class Kind { kLcs, kNussinov, kServe };

struct Workload {
  Kind kind;
  std::int64_t n;      // sequence length (matrix edge)
  std::int64_t block;  // process partition edge
  std::int64_t sub;    // thread partition edge
};

// lcs-fine: ~2 us of kernel work per sub-block, so per-task layers dominate.
// nussinov-coarse: 36 heavy triangular tasks with whole-segment halos, so
// the kernel over SparseWindow and bulk halo bytes dominate.
// serve-mixed: open-loop arrivals into one persistent Service, a share of
// them repeats warmed pool contents (cache hits) and the rest are unique.
std::optional<Workload> workloadFor(const std::string& name, bool tiny) {
  if (name == "lcs-fine") {
    return tiny ? Workload{Kind::kLcs, 256, 64, 16}
                : Workload{Kind::kLcs, 2048, 64, 16};
  }
  if (name == "nussinov-coarse") {
    return tiny ? Workload{Kind::kNussinov, 256, 64, 16}
                : Workload{Kind::kNussinov, 1024, 128, 32};
  }
  if (name == "serve-mixed") {
    return tiny ? Workload{Kind::kServe, 64, 32, 8}
                : Workload{Kind::kServe, 256, 64, 16};
  }
  return std::nullopt;
}

// serve-mixed traffic.  The rate is a constant, never calibrated from the
// build under test: a faster build must face the same offered load.  At
// ~15 ms per executed 256^2 job the cluster saturates near 50 unique jobs/s;
// 34 arrivals/s with 40% repeats offers ~20 unique jobs/s (~40% load).  The
// repeat share stays below one half so the latency median falls inside the
// executed-job distribution instead of on the gap between hits and misses.
constexpr double kArrivalsPerSecond = 34.0;
constexpr double kRepeatShare = 0.4;
constexpr int kPoolSize = 8;

constexpr int kComputeThreads = 4;  // 2 slaves x 2 threads

// Traced runs keep the spans of this many probed jobs (batch) or executed
// arrivals (serve-mixed), which bounds the timeline file to a few MB.
constexpr std::size_t kSpanJobs = 3;
constexpr std::size_t kServeSpanJobs = 40;

RuntimeConfig configFor(const Workload& w) {
  RuntimeConfig cfg;
  cfg.slaveCount = 2;
  cfg.threadsPerSlave = 2;
  cfg.processPartitionRows = cfg.processPartitionCols = w.block;
  cfg.threadPartitionRows = cfg.threadPartitionCols = w.sub;
  return cfg;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::shared_ptr<const DpProblem> makeProblem(Kind kind, std::int64_t n,
                                             std::uint64_t seed) {
  switch (kind) {
    case Kind::kLcs:
      return std::make_shared<LongestCommonSubsequence>(
          randomSequence(n, mix(seed, 1)), randomSequence(n, mix(seed, 2)));
    case Kind::kNussinov:
      return std::make_shared<Nussinov>(randomRna(n, mix(seed, 3)));
    case Kind::kServe:
      return std::make_shared<EditDistance>(randomSequence(n, mix(seed, 4)),
                                            randomSequence(n, mix(seed, 5)));
  }
  return nullptr;
}

/// 64-bit digest of every active cell, in row-major order.  The oracle keeps
/// one digest per distinct input instead of its whole reference table, so
/// the benchmark's own memory does not grow with the number of inputs.
template <typename Get>
std::uint64_t tableDigest(const DpProblem& p, Get&& get) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::int64_t r = 0; r < p.rows(); ++r) {
    for (std::int64_t c = 0; c < p.cols(); ++c) {
      if (p.cellActive(r, c)) {
        h = (h ^ static_cast<std::uint32_t>(get(r, c))) * 0x100000001B3ULL;
        h ^= h >> 29;
      }
    }
  }
  return h;
}

std::uint64_t referenceDigest(const DpProblem& p) {
  const DenseMatrix<Score> ref = p.solveReference();
  return tableDigest(
      p, [&](std::int64_t r, std::int64_t c) { return ref.at(r, c); });
}

bool matchesReference(const DpProblem& p, const Window& w,
                      std::uint64_t digest) {
  return tableDigest(p, [&](std::int64_t r, std::int64_t c) {
           return w.get(r, c);
         }) == digest;
}

std::int64_t activeCells(const DpProblem& p) {
  std::int64_t n = 0;
  for (std::int64_t r = 0; r < p.rows(); ++r) {
    for (std::int64_t c = 0; c < p.cols(); ++c) {
      n += p.cellActive(r, c) ? 1 : 0;
    }
  }
  return n;
}

// ------------------------------------------------------------------ helpers

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Quantile q of the samples in each of five consecutive windows of the run
/// (keyed by due time), then the median of the five.  One burst of outside
/// load moves one window, not the reported value.
double windowedQuantile(const std::vector<std::pair<double, double>>& samples,
                        double runSeconds, double q) {
  constexpr int kWindows = 5;
  std::vector<std::vector<double>> windows(kWindows);
  for (const auto& [at, value] : samples) {
    const int w = std::clamp(static_cast<int>(at / runSeconds * kWindows), 0,
                             kWindows - 1);
    windows[static_cast<std::size_t>(w)].push_back(value);
  }
  std::vector<double> perWindow;
  for (const auto& w : windows) {
    if (!w.empty()) {
      perWindow.push_back(quantile(w, q));
    }
  }
  return median(perWindow);
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.substr(0, s.find('\0'));
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

/// Metrics of one run, printed as the final JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  void print(bool correct, std::int64_t attempted, std::int64_t failed) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      out << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
          << (std::isfinite(m.value) ? m.value : 0.0)
          << ", \"unit\": " << jsonString(m.unit) << "}";
      first = false;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

/// Run stamp: what a number depends on besides the code.  The autotuner
/// re-sweeps in every set-up; `tiles_stable` is false when the sweeps of one
/// run disagreed (the timed jobs use the last one).
struct Stamp {
  std::vector<std::string> setupTiles;
  std::string kernelPath;
  std::string tiles;

  void print(const std::string& workload) const {
    bool stable = true;
    for (const std::string& t : setupTiles) {
      stable = stable && t == setupTiles.front();
    }
    std::cout << "STAMP {\"workload\": " << jsonString(workload)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu_model\": " << jsonString(cpuModel())
              << ", \"build_type\": " << jsonString(E2E_BUILD_TYPE)
              << ", \"kernel_path\": " << jsonString(kernelPath)
              << ", \"kernel_tiles\": " << jsonString(tiles)
              << ", \"tiles_stable\": " << (stable ? "true" : "false") << "}"
              << std::endl;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  int setups = 3;  // untraced runs report the median set-up time
  std::string spansPath;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool setupOk = true;
};

/// Accumulates the RunStats counters the per-layer table reports.
struct RunTotals {
  std::int64_t jobs = 0;
  std::int64_t tasks = 0;
  double messages = 0, bytesViaMaster = 0, bytesP2p = 0;
  double blocksAssembled = 0, earlyStarts = 0, retries = 0;

  void add(const RunStats& s) {
    ++jobs;
    tasks += s.tasks;
    messages += static_cast<double>(s.messages);
    bytesViaMaster += static_cast<double>(s.bytesViaMaster);
    bytesP2p += static_cast<double>(s.bytesPeerToPeer);
    blocksAssembled += static_cast<double>(s.blocksAssembled);
    earlyStarts += static_cast<double>(s.blocksStartedEarly);
    retries += static_cast<double>(s.retries);
  }

  void report(Report& rep) const {
    const double n = static_cast<double>(std::max<std::int64_t>(jobs, 1));
    rep.add("runtime.messages_per_task",
            ratio(messages, static_cast<double>(tasks)), "count");
    rep.add("runtime.bytes_via_master", bytesViaMaster / n, "B");
    rep.add("runtime.bytes_p2p", bytesP2p / n, "B");
    rep.add("runtime.blocks_assembled", blocksAssembled / n, "count");
    rep.add("runtime.early_starts", earlyStarts / n, "count");
    rep.add("runtime.retries", retries / n, "count");
  }
};

/// dp.* and dag.* rows from a probe sink over `jobs` traced jobs whose
/// summed wall time is `wallS`, plus the serial two-level solve's sink.
void reportProbe(const e2e::SpanSink& sink, double jobs, double wallS,
                 const e2e::SpanSink& serial, Report& rep) {
  const e2e::LayerTotals k = sink.totals(Layer::kKernel);
  const e2e::LayerTotals ks = serial.totals(Layer::kKernel);
  const double kernelS = seconds(k.ns);
  const double inJob = ratio(static_cast<double>(k.cells), kernelS) / 1e6;
  const double serialRate =
      ratio(static_cast<double>(ks.cells), seconds(ks.ns)) / 1e6;
  rep.add("dp.kernel_s", ratio(kernelS, jobs), "s");
  rep.add("dp.kernel_calls", ratio(static_cast<double>(k.calls), jobs),
          "count");
  rep.add("dp.kernel_mcells_s", inJob, "Mcell/s");
  rep.add("dp.kernel_serial_mcells_s", serialRate, "Mcell/s");
  rep.add("dp.kernel_inflation", ratio(serialRate, inJob), "ratio");
  rep.add("runtime.non_kernel_share",
          1.0 - ratio(kernelS, wallS * kComputeThreads), "ratio");
  const auto meanUs = [&](Layer l) {
    const e2e::LayerTotals t = sink.totals(l);
    return ratio(static_cast<double>(t.ns), static_cast<double>(t.calls)) /
           1e3;
  };
  rep.add("dag.slave_dag_us", meanUs(Layer::kSlaveDag), "us");
  rep.add("dag.halo_for_us", meanUs(Layer::kHaloFor), "us");
  rep.add("dag.master_dag_ms", meanUs(Layer::kMasterDag) / 1e3, "ms");
}

void reportLayers(const e2e::LayerValues& v, Report& rep) {
  for (const auto& [name, value] : v) {
    const bool gbs = name == "msg.bulk_gb_s";
    rep.add(name, value, gbs ? "GB/s" : "us");
  }
}

struct ServeRows {
  std::vector<double> queueMs, execMs, ttfbMs, lateMs;
  double hitRatio = 0.0;

  void report(Report& rep) const {
    rep.add("serve.queue_wait_ms_p50", median(queueMs), "ms");
    rep.add("serve.exec_ms_p50", median(execMs), "ms");
    rep.add("serve.exec_ms_p90", quantile(execMs, 0.9), "ms");
    rep.add("serve.ttfb_ms_p50", median(ttfbMs), "ms");
    rep.add("serve.gen_late_ms_p90", quantile(lateMs, 0.9), "ms");
    rep.add("cache.hit_ratio", hitRatio, "ratio");
  }
};

/// Serial two-level solve of `problem` through a probe: the single-threaded
/// kernel rate the in-job rate is compared with.  Returns the table.
Window serialSolve(const std::shared_ptr<const DpProblem>& problem,
                   const RuntimeConfig& cfg, e2e::SpanSink& sink) {
  const auto solve = [&](const DpProblem& p) {
    return solveBlockedTwoLevel(p, cfg.processPartitionRows,
                                cfg.processPartitionCols,
                                cfg.threadPartitionRows,
                                cfg.threadPartitionCols);
  };
  // Untimed first pass: dense windows use their own autotuner sweep, which
  // would otherwise land inside the first probed kernel call.
  solve(*problem);
  return solve(e2e::ProbeProblem(problem, sink, -1, false));
}

// ------------------------------------------------------------ batch jobs

Outcome runBatch(const Args& a, const Workload& w, Report& rep,
                 Stamp& stamp) {
  const RuntimeConfig cfg = configFor(w);
  Outcome out;

  // Set-up, repeated: inputs, reference answer, first job (which pays the
  // autotuner sweep).  The last repetition's state is kept.
  std::shared_ptr<const DpProblem> problem;
  std::uint64_t ref = 0;
  std::int64_t cells = 0;
  std::vector<double> setupS;
  for (int k = 0; k < a.setups; ++k) {
    problem.reset();
    const std::int64_t t0 = nowNs();
    problem = makeProblem(w.kind, w.n, a.seed);
    ref = referenceDigest(*problem);
    cells = activeCells(*problem);
    autotune::reset();
    const RunResult first = Runtime(cfg).run(*problem);
    out.setupOk = out.setupOk && matchesReference(*problem, first.matrix, ref);
    setupS.push_back(seconds(nowNs() - t0));
    stamp.setupTiles.push_back(first.stats.kernelTiles);
  }

  // Timed jobs.  Traced runs alternate untraced and probed jobs, so the
  // tracing overhead is measured in the same run.
  e2e::SpanSink sink;
  std::vector<double> wallS, untracedS, tracedS;
  RunTotals totals;
  double untracedTaskS = 0.0;
  std::int64_t untracedTasks = 0;
  const Runtime runtime(cfg);
  const std::int64_t phaseStart = nowNs();
  const int minJobs = 3;
  for (std::int64_t job = 0;
       job < minJobs || seconds(nowNs() - phaseStart) < a.seconds; ++job) {
    const bool traced = a.trace && job % 2 == 1;
    std::shared_ptr<const DpProblem> run = problem;
    if (traced) {
      run = std::make_shared<e2e::ProbeProblem>(
          problem, sink, job, tracedS.size() < kSpanJobs);
    }
    ++out.attempted;
    try {
      const std::int64_t t0 = nowNs();
      const RunResult r = runtime.run(*run);
      const std::int64_t t1 = nowNs();
      const double s = seconds(t1 - t0);
      wallS.push_back(s);
      (traced ? tracedS : untracedS).push_back(s);
      if (traced) {
        sink.recordJob(job, t0, t1);
      } else {
        untracedTaskS += s;
        untracedTasks += r.stats.completedTasks;
      }
      totals.add(r.stats);
      stamp.kernelPath = r.stats.kernelPathName;
      stamp.tiles = r.stats.kernelTiles;
      if (!matchesReference(*problem, r.matrix, ref)) {
        ++out.failed;
      }
    } catch (const std::exception& e) {
      std::cerr << "job " << job << " failed: " << e.what() << "\n";
      ++out.failed;
    }
    // Untimed: hand the finished job's freed pages back, so each job's
    // peak RSS starts from the same baseline whichever arenas its threads
    // happened to use.
    malloc_trim(0);
  }

  if (!a.trace) {
    rep.add("cells_per_s", ratio(static_cast<double>(cells), median(wallS)),
            "cell/s");
    rep.add("job_s_p50", median(wallS), "s");
    rep.add("latency_ms_p50", median(wallS) * 1e3, "ms");
    rep.add("latency_ms_p90", quantile(wallS, 0.9) * 1e3, "ms");
    rep.add("setup_s", median(setupS), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  double tracedTotal = 0.0;
  for (const double s : tracedS) {
    tracedTotal += s;
  }
  e2e::SpanSink serialSink;
  const Window solved = serialSolve(problem, cfg, serialSink);
  out.setupOk = out.setupOk && matchesReference(*problem, solved, ref);
  reportProbe(sink, static_cast<double>(tracedS.size()), tracedTotal,
              serialSink, rep);
  rep.add("runtime.us_per_task",
          ratio(untracedTaskS, static_cast<double>(untracedTasks)) * 1e6,
          "us");
  totals.report(rep);
  reportLayers(e2e::measureLayers(*problem, cfg, solved), rep);
  rep.add("trace.overhead_ratio", ratio(median(tracedS), median(untracedS)),
          "ratio");

  // The serve layer on this workload's job shape: one closed-loop miss
  // then a repeat (a cache hit) through a persistent Service.
  ServeRows serveRows;
  {
    serve::ServiceConfig sc;
    sc.runtime = cfg;
    serve::Service service(sc);
    const auto fresh = makeProblem(w.kind, w.n, a.seed);
    for (int i = 0; i < 2; ++i) {
      const std::int64_t due = nowNs();
      serve::JobTicket t = service.submit(fresh);
      serveRows.lateMs.push_back(static_cast<double>(nowNs() - due) / 1e6);
      const auto o = t.wait();
      if (o->state != serve::JobState::kDone ||
          !matchesReference(*problem, *o->matrix, ref)) {
        out.setupOk = false;
        continue;
      }
      serveRows.queueMs.push_back(o->stats.queueWaitSeconds * 1e3);
      if (!o->stats.cacheHit) {
        serveRows.execMs.push_back(o->stats.execSeconds * 1e3);
        serveRows.ttfbMs.push_back(o->stats.timeToFirstBlockSeconds * 1e3);
      }
    }
    const serve::ServiceMetrics m = service.metrics();
    serveRows.hitRatio = ratio(static_cast<double>(m.cacheHits),
                               static_cast<double>(m.cacheHits + m.cacheMisses));
    service.shutdown();
  }
  serveRows.report(rep);

  if (!a.spansPath.empty()) {
    sink.writeChromeTrace(a.spansPath);
  }
  return out;
}

// ------------------------------------------------------------ serve-mixed

struct Arrival {
  double dueS = 0.0;
  int pool = -1;    // index into the warmed pool, or -1
  int unique = -1;  // index into the unique inputs, or -1
};

struct ServeSetup {
  std::vector<std::shared_ptr<const DpProblem>> pool, unique;
  std::vector<std::uint64_t> poolRef, uniqueRef;  // reference digests
  std::vector<Arrival> arrivals;
  std::unique_ptr<serve::Service> service;
  std::optional<Window> warmTable;  // a warmed pool entry (cache micro)
};

/// Inputs, schedule, references, Service boot and pool warm-up.  The
/// schedule depends on the seed, the constant rate and the run length only.
ServeSetup setUpServe(const Args& a, const Workload& w,
                      const RuntimeConfig& cfg, bool& ok) {
  ServeSetup s;
  const int poolSize = a.tiny ? 2 : kPoolSize;
  for (int k = 0; k < poolSize; ++k) {
    s.pool.push_back(makeProblem(w.kind, w.n, mix(a.seed, 100 + k)));
    s.poolRef.push_back(referenceDigest(*s.pool.back()));
  }
  // A Poisson process conditioned on its count: rate x seconds arrivals at
  // independent uniform times, and exactly the repeat share of them drawn
  // from the pool.  Fixing the counts keeps the offered work and the hit
  // ratio identical across seeds; only the timing and contents vary.
  std::mt19937_64 rng(mix(a.seed, 7));
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kArrivalsPerSecond * a.seconds)));
  std::vector<double> times(n);
  std::uniform_real_distribution<double> when(0.0, a.seconds);
  for (double& t : times) {
    t = when(rng);
  }
  std::sort(times.begin(), times.end());
  std::vector<bool> repeat(n, false);
  std::fill_n(repeat.begin(),
              static_cast<std::size_t>(std::round(kRepeatShare * n)), true);
  std::shuffle(repeat.begin(), repeat.end(), rng);
  std::uniform_int_distribution<int> pick(0, poolSize - 1);
  for (std::size_t i = 0; i < n; ++i) {
    Arrival arr;
    arr.dueS = times[i];
    if (repeat[i]) {
      arr.pool = pick(rng);
    } else {
      arr.unique = static_cast<int>(s.unique.size());
      s.unique.push_back(
          makeProblem(w.kind, w.n, mix(a.seed, 100000 + s.unique.size())));
      s.uniqueRef.push_back(referenceDigest(*s.unique.back()));
    }
    s.arrivals.push_back(arr);
  }
  autotune::reset();
  serve::ServiceConfig sc;
  sc.runtime = cfg;
  s.service = std::make_unique<serve::Service>(sc);
  std::vector<serve::JobTicket> warm;
  for (const auto& p : s.pool) {
    warm.push_back(s.service->submit(p));
  }
  for (std::size_t k = 0; k < warm.size(); ++k) {
    const auto o = warm[k].wait();
    const bool done = o->state == serve::JobState::kDone;
    ok = ok && done && matchesReference(*s.pool[k], *o->matrix, s.poolRef[k]);
    if (done && !s.warmTable.has_value()) {
      s.warmTable = *o->matrix;
    }
  }
  return s;
}

Outcome runServe(const Args& a, const Workload& w, Report& rep,
                 Stamp& stamp) {
  const RuntimeConfig cfg = configFor(w);
  Outcome out;
  std::optional<ServeSetup> s;
  std::vector<double> setupS;
  for (int k = 0; k < a.setups; ++k) {
    s.reset();  // shuts the previous repetition's Service down, untimed
    const std::int64_t t0 = nowNs();
    s = setUpServe(a, w, cfg, out.setupOk);
    setupS.push_back(seconds(nowNs() - t0));
    stamp.setupTiles.push_back(s->service->metrics().tiles);
  }
  serve::Service& service = *s->service;
  const std::int64_t cellsPerJob = activeCells(*s->pool.front());

  struct Pending {
    std::optional<serve::JobTicket> ticket;  // reset once harvested
    const Arrival* arrival;
    std::int64_t dueNs, submitNs, returnNs;
    bool traced;
  };
  e2e::SpanSink sink;
  std::vector<Pending> pending;
  std::size_t harvested = 0;
  std::vector<std::pair<double, double>> latencyMs;  // (due s, latency ms)
  std::vector<double> execS, untracedExecS, tracedExecS;
  ServeRows rows;
  RunTotals totals;
  double untracedTaskS = 0.0, tracedWallS = 0.0;
  std::int64_t untracedTasks = 0;

  const auto harvest = [&](Pending& p) {
    const auto o = p.ticket->wait();
    p.ticket.reset();  // frees the finished table
    const Arrival& arr = *p.arrival;
    const bool done = o->state == serve::JobState::kDone;
    const DpProblem& problem =
        arr.pool >= 0 ? *s->pool[arr.pool] : *s->unique[arr.unique];
    const std::uint64_t ref =
        arr.pool >= 0 ? s->poolRef[arr.pool] : s->uniqueRef[arr.unique];
    if (!done || !matchesReference(problem, *o->matrix, ref)) {
      ++out.failed;
      return;
    }
    const serve::JobStats& st = o->stats;
    if (st.cacheHit) {
      latencyMs.emplace_back(arr.dueS,
                             static_cast<double>(p.returnNs - p.dueNs) / 1e6);
      return;
    }
    latencyMs.emplace_back(
        arr.dueS, static_cast<double>(p.submitNs - p.dueNs) / 1e6 +
                      (st.queueWaitSeconds + st.execSeconds) * 1e3);
    execS.push_back(st.execSeconds);
    (p.traced ? tracedExecS : untracedExecS).push_back(st.execSeconds);
    rows.queueMs.push_back(st.queueWaitSeconds * 1e3);
    rows.execMs.push_back(st.execSeconds * 1e3);
    rows.ttfbMs.push_back(st.timeToFirstBlockSeconds * 1e3);
    totals.add(st.run);
    if (p.traced) {
      tracedWallS += st.execSeconds;
    } else {
      untracedTaskS += st.execSeconds;
      untracedTasks += st.run.completedTasks;
    }
  };

  const serve::ServiceMetrics before = service.metrics();
  const std::int64_t start = nowNs() + 2'000'000;
  for (std::size_t i = 0; i < s->arrivals.size(); ++i) {
    const Arrival& arr = s->arrivals[i];
    const std::int64_t due = start + static_cast<std::int64_t>(arr.dueS * 1e9);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    const std::int64_t submitNs = nowNs();
    rows.lateMs.push_back(static_cast<double>(submitNs - due) / 1e6);
    std::shared_ptr<const DpProblem> problem =
        arr.pool >= 0 ? s->pool[arr.pool] : s->unique[arr.unique];
    const bool traced = a.trace && arr.unique >= 0 && i % 2 == 1;
    if (traced) {
      problem = std::make_shared<e2e::ProbeProblem>(
          problem, sink, static_cast<std::int64_t>(i),
          tracedExecS.size() + (pending.size() - harvested) < kServeSpanJobs);
    }
    ++out.attempted;
    serve::Admission adm = service.trySubmit(std::move(problem));
    const std::int64_t returnNs = nowNs();
    if (!adm.accepted()) {
      ++out.failed;
      continue;
    }
    pending.push_back(
        {*std::move(adm.ticket), &arr, due, submitNs, returnNs, traced});
    // Check finished jobs while the next arrival is still comfortably far
    // off, so finished tables are freed during the run.
    const std::int64_t nextDue =
        i + 1 < s->arrivals.size()
            ? start + static_cast<std::int64_t>(s->arrivals[i + 1].dueS * 1e9)
            : INT64_MAX;
    while (harvested < pending.size() && nextDue - nowNs() > 2'000'000) {
      const serve::JobState st = pending[harvested].ticket->state();
      if (st == serve::JobState::kQueued || st == serve::JobState::kRunning) {
        break;
      }
      harvest(pending[harvested]);
      ++harvested;
    }
  }
  for (; harvested < pending.size(); ++harvested) {
    harvest(pending[harvested]);
  }
  const serve::ServiceMetrics after = service.metrics();
  stamp.kernelPath = after.kernelPath;
  stamp.tiles = after.tiles;

  if (!a.trace) {
    rep.add("cells_per_s",
            ratio(static_cast<double>(cellsPerJob), median(execS)), "cell/s");
    rep.add("job_s_p50", median(execS), "s");
    rep.add("latency_ms_p50", windowedQuantile(latencyMs, a.seconds, 0.5),
            "ms");
    rep.add("latency_ms_p90", windowedQuantile(latencyMs, a.seconds, 0.9),
            "ms");
    rep.add("setup_s", median(setupS), "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
  }

  const std::int64_t hits = after.cacheHits - before.cacheHits;
  const std::int64_t misses = after.cacheMisses - before.cacheMisses;
  rows.hitRatio =
      ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  rows.report(rep);
  const std::shared_ptr<const DpProblem> sample = s->pool.front();
  e2e::SpanSink serialSink;
  const Window solved = serialSolve(sample, cfg, serialSink);
  out.setupOk =
      out.setupOk && matchesReference(*sample, solved, s->poolRef.front());
  reportProbe(sink, static_cast<double>(tracedExecS.size()), tracedWallS,
              serialSink, rep);
  rep.add("runtime.us_per_task",
          ratio(untracedTaskS, static_cast<double>(untracedTasks)) * 1e6,
          "us");
  totals.report(rep);
  reportLayers(e2e::measureLayers(*sample, cfg, *s->warmTable), rep);
  rep.add("trace.overhead_ratio",
          ratio(median(tracedExecS), median(untracedExecS)), "ratio");
  if (!a.spansPath.empty()) {
    sink.writeChromeTrace(a.spansPath);
  }
  return out;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--size") {
      a.tiny = val == "tiny";
    } else if (key == "--spans") {
      a.spansPath = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold (it otherwise rises after the first large
  // free), so tables and windows are returned to the OS when freed and
  // peak_rss_mb tracks live data rather than how much freed memory the
  // per-thread arenas happened to retain.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args a;
  try {
    if (!parseArgs(argc, argv, a)) {
      std::cerr << "usage: e2e_bench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1> [--size full|tiny] "
                   "[--spans <path>]\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    return 2;
  }
  const std::optional<Workload> w = workloadFor(a.workload, a.tiny);
  if (!w.has_value()) {
    std::cerr << "unknown workload: " << a.workload << "\n";
    return 2;
  }
  if (a.trace) {
    a.setups = 1;  // set-up time is reported by untraced runs only
  }
  Report rep;
  Stamp stamp;
  Outcome out;
  try {
    out = w->kind == Kind::kServe ? runServe(a, *w, rep, stamp)
                                  : runBatch(a, *w, rep, stamp);
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }
  stamp.print(a.workload);
  rep.print(out.setupOk && out.failed == 0, out.attempted, out.failed);
  return 0;
}
