// The benchmark's metrics: their names and units (BENCHMARK.json lists the
// same ones; `python3 perfbench/run.py --self-test` checks that they agree)
// and how each is computed from a run's set-up rounds and passes.
#pragma once

#include <vector>

#include "workloads.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// Printed by untraced runs (--trace 0).
const std::vector<MetricDef>& endToEndMetrics();
/// Printed by traced runs (--trace 1).
const std::vector<MetricDef>& perLayerMetrics();

/// Everything one run measured.
struct RunData {
  std::vector<SetupTimes> setups;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;  ///< empty unless the run is traced
  double peakRssMb = 0.0;
};

/// Values in definition order. Times come from the fastest pass (set-up: the
/// median round). endToEndValues needs a set-up round and an untraced pass;
/// perLayerValues also needs a traced pass.
std::vector<double> endToEndValues(const RunData& run);
std::vector<double> perLayerValues(const RunData& run);

}  // namespace perfbench
