#pragma once
// Micro-timings of single layers (msg, wire, store, sched, cache), each
// sized from the workload's own block and halo shapes so that it predicts
// the end-to-end row it is listed against in README.md.

#include <map>
#include <string>

#include "easyhps/dp/problem.hpp"
#include "easyhps/runtime/config.hpp"

namespace e2e {

/// Metric name -> value (units are fixed per name by the caller's table).
using LayerValues = std::map<std::string, double>;

/// Runs every micro-timing for `problem` under `cfg`'s partition.  `solved`
/// is a finished table of `problem` (the warm result-cache entry).
/// Takes a few hundred milliseconds per layer at the benchmark's sizes.
LayerValues measureLayers(const easyhps::DpProblem& problem,
                          const easyhps::RuntimeConfig& cfg,
                          const easyhps::Window& solved);

}  // namespace e2e
