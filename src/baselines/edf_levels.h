// EDF-3CompressionLevels baseline (paper Section 6, after Lee & Song [11]).
//
// Like EDF-NoCompression, but each task may run at one of a small number of
// discrete compression levels (by default the paper's 27% / 55% / 82%
// accuracy targets). For each task the scheduler picks, over machines in
// least-loaded order, the highest level that fits the deadline and the
// remaining energy budget.
#pragma once

#include <vector>

#include "baselines/edf_nocompress.h"
#include "sched/schedule.h"
#include "sched/types.h"

namespace dsct {

struct EdfLevelsOptions {
  /// Accuracy targets defining the discrete levels (clamped per task).
  std::vector<double> accuracyTargets{0.27, 0.55, 0.82};
  /// Cooperative stop token, polled per task; unplaced tasks stay dropped.
  const CancelToken* cancel = nullptr;
  /// Optional per-machine energy caps (J, indexed like the instance's
  /// machines): a level only fits on machine r if r's accumulated energy
  /// stays within (*machineEnergyCaps)[r] — the availability layer's
  /// battery charge (DESIGN.md §15). Null means uncapped, and the result
  /// is bit-identical to a build without this field; otherwise the vector
  /// must hold one cap per machine.
  const std::vector<double>* machineEnergyCaps = nullptr;
};

BaselineResult solveEdfLevels(const Instance& inst,
                              const EdfLevelsOptions& options = {});

}  // namespace dsct
