#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "easyhps/cache/key.hpp"
#include "easyhps/cache/result_cache.hpp"
#include "easyhps/msg/cluster.hpp"
#include "easyhps/runtime/wire.hpp"
#include "easyhps/sched/policy.hpp"
#include "easyhps/store/block_store.hpp"
#include "easyhps/util/archive.hpp"
#include "probe.hpp"

namespace e2e {
namespace {

using namespace easyhps;

// Repeated batches; every layer reports the median batch, which keeps a
// single descheduled batch from moving the number.
constexpr int kBatches = 15;

// Defeats dead-code elimination of results the timing loops discard.
std::atomic<std::int64_t> g_consumed{0};
void consume(std::int64_t v) { g_consumed.fetch_add(v, std::memory_order_relaxed); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over batches of the per-op time in microseconds.  `prepare(b)`
/// runs untimed before batch b; `op(i)` is the timed operation.
template <typename Prepare, typename Op>
double perOpUs(int ops, Prepare&& prepare, Op&& op) {
  std::vector<double> perOp;
  for (int b = 0; b < kBatches; ++b) {
    prepare(b);
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < ops; ++i) {
      op(i);
    }
    perOp.push_back(static_cast<double>(nowNs() - t0) / 1e3 / ops);
  }
  return median(perOp);
}

CellRect intersect(const CellRect& a, const CellRect& b) {
  const std::int64_t r0 = std::max(a.row0, b.row0);
  const std::int64_t c0 = std::max(a.col0, b.col0);
  const std::int64_t r1 = std::min(a.rowEnd(), b.rowEnd());
  const std::int64_t c1 = std::min(a.colEnd(), b.colEnd());
  if (r1 <= r0 || c1 <= c0) {
    return CellRect{};
  }
  return CellRect{r0, c0, r1 - r0, c1 - c0};
}

std::int64_t totalCells(const std::vector<CellRect>& rects) {
  std::int64_t n = 0;
  for (const CellRect& r : rects) {
    n += r.cellCount();
  }
  return n;
}

/// One workload's block-level shapes: a representative block (the one
/// with the median halo volume), its halo rectangles, and the sub-rects of
/// it that later blocks read (what a Result ack and a peer fetch carry).
struct Shape {
  explicit Shape(PartitionedDag d) : dag(std::move(d)) {}

  PartitionedDag dag;
  VertexId vertex = -1;
  CellRect rect;
  std::vector<CellRect> halos;
  std::vector<CellRect> ackRects;
  CellRect largestHalo;
};

Shape shapeOf(const DpProblem& problem, const RuntimeConfig& cfg) {
  Shape s(buildMasterDag(problem, cfg.processPartitionRows,
                         cfg.processPartitionCols));
  const std::int64_t n = s.dag.vertexCount();
  std::vector<std::vector<CellRect>> halos(static_cast<std::size_t>(n));
  std::vector<std::pair<std::int64_t, VertexId>> volume;
  for (VertexId v = 0; v < n; ++v) {
    halos[static_cast<std::size_t>(v)] = problem.haloFor(s.dag.rectOf(v));
    volume.emplace_back(totalCells(halos[static_cast<std::size_t>(v)]), v);
  }
  std::sort(volume.begin(), volume.end());
  s.vertex = volume[volume.size() / 2].second;
  s.rect = s.dag.rectOf(s.vertex);
  s.halos = halos[static_cast<std::size_t>(s.vertex)];
  for (const CellRect& h : s.halos) {
    if (h.cellCount() > s.largestHalo.cellCount()) {
      s.largestHalo = h;
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    for (const CellRect& h : halos[static_cast<std::size_t>(u)]) {
      const CellRect part = intersect(h, s.rect);
      if (part.cellCount() > 0 &&
          std::find(s.ackRects.begin(), s.ackRects.end(), part) ==
              s.ackRects.end()) {
        s.ackRects.push_back(part);
      }
    }
  }
  if (s.ackRects.empty()) {
    s.ackRects.push_back(s.rect);  // a sink block: its result is assembled
  }
  return s;
}

std::vector<Score> cellsFor(const CellRect& rect) {
  std::vector<Score> v(static_cast<std::size_t>(rect.cellCount()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<Score>(i % 977);
  }
  return v;
}

wire::AssignPayload assignFor(const Shape& s) {
  wire::AssignPayload a;
  a.job = 7;
  a.vertex = s.vertex;
  a.rect = s.rect;
  int owner = 1;
  for (const CellRect& h : s.halos) {
    const BlockCoord b = s.dag.grid.blockOfCell(h.row0, h.col0);
    a.sources.push_back({h, s.dag.vertexAt(b.bi, b.bj), owner});
    owner = owner == 1 ? 2 : 1;
  }
  a.ackRects = s.ackRects;
  a.streamRects = s.ackRects;
  return a;
}

void measureWire(const Shape& s, LayerValues& out) {
  const wire::AssignPayload assign = assignFor(s);
  out["wire.assign_us"] = perOpUs(
      200, [](int) {},
      [&](int) {
        const msg::Payload p = wire::encodeAssign(assign);
        consume(static_cast<std::int64_t>(wire::decodeAssign(p).sources.size()));
      });

  wire::ResultPayload result;
  result.job = 7;
  result.vertex = s.vertex;
  result.rect = s.rect;
  for (const CellRect& r : s.ackRects) {
    result.edges.push_back({r, cellsFor(r)});
  }
  result.checksum = 12345;
  result.edgesChecksum = wire::resultChecksum(result);
  std::vector<wire::ResultPayload> results;
  constexpr int kResultOps = 100;
  out["wire.result_us"] = perOpUs(
      kResultOps,
      [&](int) { results.assign(kResultOps, result); },
      [&](int i) {
        const msg::Payload p = wire::encodeResult(std::move(results[i]));
        consume(static_cast<std::int64_t>(wire::decodeResult(p).edges.size()));
      });

  wire::HaloDataPayload halo;
  halo.job = 7;
  halo.rect = s.largestHalo;
  halo.found = true;
  halo.data = cellsFor(s.largestHalo);
  halo.checksum = wire::blockChecksum(-1, halo.rect, halo.data);
  std::vector<wire::HaloDataPayload> halos;
  constexpr int kHaloOps = 20;
  out["wire.halo_data_us"] = perOpUs(
      kHaloOps, [&](int) { halos.assign(kHaloOps, halo); },
      [&](int i) {
        const msg::Payload p = wire::encodeHaloData(std::move(halos[i]));
        wire::ScoreCells cells;
        wire::decodeHaloData(p, cells);
        consume(static_cast<std::int64_t>(cells.cells().size()));
      });
}

void measureStore(const Shape& s, LayerValues& out) {
  store::BlockStore store(256ULL << 20);
  constexpr int kOps = 64;
  const std::vector<Score> block = cellsFor(s.rect);
  std::vector<std::vector<Score>> blocks;
  out["store.put_us"] = perOpUs(
      kOps,
      [&](int) {
        store.clearAll();
        blocks.assign(kOps, block);
      },
      [&](int i) {
        consume(static_cast<std::int64_t>(
            store.put(7, i, s.rect, std::move(blocks[i]), 99).size()));
      });
  std::vector<Score> scratch;
  const std::size_t nAck = s.ackRects.size();
  out["store.extract_us"] = perOpUs(
      kOps, [](int) {},
      [&](int i) {
        store.extractInto(7, i, s.ackRects[static_cast<std::size_t>(i) % nAck],
                          scratch);
        consume(static_cast<std::int64_t>(scratch.size()));
      });
}

void measureSched(const Shape& s, int workers, LayerValues& out) {
  const DagPattern& dag = s.dag.dag;
  const std::int64_t n = dag.vertexCount();
  std::vector<double> perCycle;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::int64_t> preds(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) {
      preds[static_cast<std::size_t>(v)] = dag.predCount(v);
    }
    auto policy = makePolicy(PolicyKind::kDynamic, s.dag, workers);
    const std::int64_t t0 = nowNs();
    for (VertexId v : dag.sources()) {
      policy->onReady(v);
    }
    std::int64_t done = 0;
    int worker = 0;
    while (done < n) {
      const auto v = policy->pick(worker);
      worker = (worker + 1) % workers;
      if (!v.has_value()) {
        break;  // the dynamic pool never refuses a queued task
      }
      ++done;
      for (VertexId succ : dag.successors(*v)) {
        if (--preds[static_cast<std::size_t>(succ)] == 0) {
          policy->onReady(succ);
        }
      }
    }
    perCycle.push_back(static_cast<double>(nowNs() - t0) / 1e3 /
                       static_cast<double>(std::max<std::int64_t>(done, 1)));
  }
  out["sched.pick_us"] = median(perCycle);
}

void measureMsg(const Shape& s, LayerValues& out) {
  constexpr int kPing = 1, kPong = 2, kWake = 3, kAck = 4, kBulk = 5;
  constexpr int kRoundTrips = 200;
  constexpr int kWakeups = 200;
  constexpr int kBulkMsgs = 64;
  constexpr int kBulkWindow = 8;
  const msg::Payload small = wire::encodeAssign(assignFor(s));
  const std::vector<Score> blockCells = cellsFor(s.rect);
  const double bulkBytes =
      static_cast<double>(blockCells.size() * sizeof(Score));

  std::vector<double> pingUs, wakeUs, bulkGbs;
  msg::Cluster::run(2, [&](msg::Comm& comm) {
    if (comm.rank() == 0) {
      for (int b = 0; b < kBatches; ++b) {
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kRoundTrips; ++i) {
          comm.send(1, kPing, small);
          comm.recv(1, kPong);
        }
        pingUs.push_back(static_cast<double>(nowNs() - t0) / 1e3 /
                         kRoundTrips);
      }
      for (int i = 0; i < kWakeups; ++i) {
        // Give the receiver time to block inside recvFor, so each sample
        // measures a wake-up, not a message already waiting.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        msg::PayloadWriter w;
        w.put<std::int64_t>(nowNs());
        comm.send(1, kWake, std::move(w).take());
        comm.recv(1, kAck);
      }
      for (int b = 0; b < kBatches; ++b) {
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kBulkMsgs; ++i) {
          msg::PayloadWriter w;
          w.put<std::int64_t>(i);
          w.putVectorZeroCopy(blockCells);
          comm.send(1, kBulk, std::move(w).take());
          if ((i + 1) % kBulkWindow == 0) {
            comm.recv(1, kAck);
          }
        }
        const double seconds = static_cast<double>(nowNs() - t0) / 1e9;
        bulkGbs.push_back(bulkBytes * kBulkMsgs / seconds / 1e9);
      }
    } else {
      for (int i = 0; i < kBatches * kRoundTrips; ++i) {
        msg::Message m = comm.recv(0, kPing);
        comm.send(0, kPong, std::move(m.payload));
      }
      for (int i = 0; i < kWakeups; ++i) {
        auto m = comm.recvFor(0, kWake, std::chrono::seconds(5));
        const std::int64_t woke = nowNs();
        if (m.has_value()) {
          ByteReader r(m->payload);
          wakeUs.push_back(static_cast<double>(woke - r.get<std::int64_t>()) /
                           1e3);
        }
        comm.send(0, kAck, msg::Payload{});
      }
      for (int i = 0; i < kBatches * kBulkMsgs; ++i) {
        const msg::Message m = comm.recv(0, kBulk);
        consume(static_cast<std::int64_t>(m.payload.size()));
        if ((i % kBulkMsgs + 1) % kBulkWindow == 0) {
          comm.send(0, kAck, msg::Payload{});
        }
      }
    }
  });
  out["msg.pingpong_us"] = median(pingUs);
  out["msg.recvfor_wake_us"] = median(wakeUs);
  out["msg.bulk_gb_s"] = median(bulkGbs);
}

void measureCache(const DpProblem& problem, const RuntimeConfig& cfg,
                  const Window& solved, LayerValues& out) {
  cache::ResultCache cache(1LL << 30);
  const cache::CacheKey key = *cache::jobKey(problem, cfg);
  cache.insert(key, solved, 1);
  out["cache.find_us"] = perOpUs(
      1000, [](int) {},
      [&](int) { consume(cache.find(key) != nullptr ? 1 : 0); });
  out["cache.key_us"] = perOpUs(
      100, [](int) {},
      [&](int) { consume(cache::jobKey(problem, cfg).has_value() ? 1 : 0); });
}

}  // namespace

LayerValues measureLayers(const DpProblem& problem, const RuntimeConfig& cfg,
                          const Window& solved) {
  const Shape shape = shapeOf(problem, cfg);
  LayerValues out;
  measureMsg(shape, out);
  measureWire(shape, out);
  measureStore(shape, out);
  measureSched(shape, cfg.slaveCount, out);
  measureCache(problem, cfg, solved, out);
  return out;
}

}  // namespace e2e
