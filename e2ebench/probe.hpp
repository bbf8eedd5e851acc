#pragma once
// Layer probe: a forwarding DpProblem that times the calls the runtime makes
// into the `dp` and `dag` layers, plus an in-memory span log exported as
// Chrome trace-event JSON.  Everything is measured from outside the program:
// the runtime sees an ordinary DpProblem.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "easyhps/dp/problem.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class Layer : int { kKernel, kSlaveDag, kHaloFor, kMasterDag, kCount };

inline const char* layerSpanName(Layer l) {
  switch (l) {
    case Layer::kKernel:
      return "dp.kernel";
    case Layer::kSlaveDag:
      return "dag.slave_dag";
    case Layer::kHaloFor:
      return "dag.halo_for";
    case Layer::kMasterDag:
      return "dag.master_dag";
    case Layer::kCount:
      break;
  }
  return "job";
}

struct LayerTotals {
  std::int64_t ns = 0;
  std::int64_t calls = 0;
  std::int64_t cells = 0;  // kernel only: cells of the rects computed
};

struct Span {
  Layer layer;
  std::int64_t startNs;
  std::int64_t endNs;
  std::int64_t job;
};

/// Collects per-layer totals and spans from every thread that calls into a
/// probe.  Each thread appends to its own buffer (registered once per sink),
/// so recording takes no lock on the hot path.
class SpanSink {
 public:
  SpanSink() : id_(nextId().fetch_add(1) + 1) {}
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  /// Adds one call to the layer totals; stores its span too when `keep`.
  void record(Layer layer, std::int64_t startNs, std::int64_t endNs,
              std::int64_t job, std::int64_t cells, bool keep) {
    Buffer& b = bufferForThisThread();
    LayerTotals& t = b.totals[static_cast<int>(layer)];
    t.ns += endNs - startNs;
    ++t.calls;
    t.cells += cells;
    if (keep) {
      b.spans.push_back(Span{layer, startNs, endNs, job});
    }
  }

  /// Sums over all threads.  Call only once the recording threads joined
  /// or went quiet (the jobs being measured have finished).
  LayerTotals totals(Layer layer) const {
    std::lock_guard<std::mutex> lock(mutex_);
    LayerTotals out;
    for (const Buffer& b : buffers_) {
      const LayerTotals& t = b.totals[static_cast<int>(layer)];
      out.ns += t.ns;
      out.calls += t.calls;
      out.cells += t.cells;
    }
    return out;
  }

  /// Job-level span from the load thread (the parent of the layer spans).
  void recordJob(std::int64_t job, std::int64_t startNs, std::int64_t endNs) {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(Span{Layer::kCount, startNs, endNs, job});
  }

  /// Writes every stored span as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto).  Thread 0 holds the job spans; layer spans carry their job
  /// id in args.
  void writeChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const Span& s : jobs_) {
      origin = std::min(origin, s.startNs);
    }
    for (const Buffer& b : buffers_) {
      for (const Span& s : b.spans) {
        origin = std::min(origin, s.startNs);
      }
    }
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const Span& s, std::size_t tid) {
      out << (first ? "\n" : ",\n") << "{\"name\":\""
          << layerSpanName(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << tid << ",\"ts\":" << static_cast<double>(s.startNs - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
          << ",\"args\":{\"job\":" << s.job << "}}";
      first = false;
    };
    for (const Span& s : jobs_) {
      emit(s, 0);
    }
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
      for (const Span& s : buffers_[i].spans) {
        emit(s, i + 1);
      }
    }
    out << "\n]}\n";
  }

 private:
  struct Buffer {
    LayerTotals totals[static_cast<int>(Layer::kCount)];
    std::vector<Span> spans;
  };

  static std::atomic<std::uint64_t>& nextId() {
    static std::atomic<std::uint64_t> id{0};
    return id;
  }

  Buffer& bufferForThisThread() {
    // Cached per thread; a sink id (never an address) tells a stale cache
    // entry from a live one, so a new sink at a reused address re-registers.
    struct Cached {
      std::uint64_t sink = 0;
      Buffer* buffer = nullptr;
    };
    thread_local Cached cached;
    if (cached.sink != id_) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.emplace_back();  // deque: existing buffers never move
      cached = Cached{id_, &buffers_.back()};
    }
    return *cached.buffer;
  }

  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;  // growth guarded by mutex_
  std::vector<Span> jobs_;      // guarded by mutex_
};

/// Forwards every DpProblem call to `inner`; times computeBlock /
/// computeBlockSparse / slaveDagFor / haloFor / masterDag into `sink`, and
/// keeps their spans when `keepSpans` (the timeline is bounded by probing
/// only some jobs with it).  The fingerprint is forwarded too, so a probed
/// job hits the same result-cache entry as the plain one.
class ProbeProblem final : public easyhps::DpProblem {
 public:
  ProbeProblem(std::shared_ptr<const easyhps::DpProblem> inner,
               SpanSink& sink, std::int64_t job, bool keepSpans)
      : inner_(std::move(inner)), sink_(sink), job_(job),
        keep_(keepSpans) {}

  std::string name() const override { return inner_->name(); }
  std::int64_t rows() const override { return inner_->rows(); }
  std::int64_t cols() const override { return inner_->cols(); }
  easyhps::PatternKind masterPatternKind() const override {
    return inner_->masterPatternKind();
  }
  easyhps::PatternKind slavePatternKind() const override {
    return inner_->slavePatternKind();
  }
  easyhps::Score boundary(std::int64_t r, std::int64_t c) const override {
    return inner_->boundary(r, c);
  }
  bool cellActive(std::int64_t r, std::int64_t c) const override {
    return inner_->cellActive(r, c);
  }
  bool rectActive(const easyhps::CellRect& rect) const override {
    return inner_->rectActive(rect);
  }
  easyhps::PartitionedDag masterDag(
      const easyhps::BlockGrid& grid) const override {
    const std::int64_t t0 = nowNs();
    auto dag = inner_->masterDag(grid);
    sink_.record(Layer::kMasterDag, t0, nowNs(), job_, 0, keep_);
    return dag;
  }
  easyhps::PartitionedDag slaveDagFor(
      const easyhps::CellRect& blockRect, std::int64_t threadPartitionRows,
      std::int64_t threadPartitionCols) const override {
    const std::int64_t t0 = nowNs();
    auto dag = inner_->slaveDagFor(blockRect, threadPartitionRows,
                                   threadPartitionCols);
    sink_.record(Layer::kSlaveDag, t0, nowNs(), job_, 0, keep_);
    return dag;
  }
  std::vector<easyhps::CellRect> haloFor(
      const easyhps::CellRect& rect) const override {
    const std::int64_t t0 = nowNs();
    auto halos = inner_->haloFor(rect);
    sink_.record(Layer::kHaloFor, t0, nowNs(), job_, 0, keep_);
    return halos;
  }
  void computeBlock(easyhps::Window& w,
                    const easyhps::CellRect& rect) const override {
    const std::int64_t t0 = nowNs();
    inner_->computeBlock(w, rect);
    sink_.record(Layer::kKernel, t0, nowNs(), job_, rect.cellCount(), keep_);
  }
  void computeBlockSparse(easyhps::SparseWindow& w,
                          const easyhps::CellRect& rect) const override {
    const std::int64_t t0 = nowNs();
    inner_->computeBlockSparse(w, rect);
    sink_.record(Layer::kKernel, t0, nowNs(), job_, rect.cellCount(), keep_);
  }
  easyhps::DenseMatrix<easyhps::Score> solveReference() const override {
    return inner_->solveReference();
  }
  double blockOps(const easyhps::CellRect& rect) const override {
    return inner_->blockOps(rect);
  }
  bool fingerprint(easyhps::util::Hasher& h) const override {
    return inner_->fingerprint(h);
  }

 private:
  std::shared_ptr<const easyhps::DpProblem> inner_;
  SpanSink& sink_;
  std::int64_t job_;
  bool keep_;
};

}  // namespace e2e
