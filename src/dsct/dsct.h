// Umbrella header for the dsct library.
//
// Reproduction of "Scheduling Machine Learning Compressible Inference Tasks
// with Limited Energy Budget" (da Silva Barros et al., ICPP 2024).
//
// Typical use:
//   dsct::Instance inst = dsct::makeScenario(spec, thetaMin, thetaMax, seed);
//   dsct::ApproxResult result = dsct::solveApprox(inst);
//   // result.schedule        — integral task→machine schedule
//   // result.totalAccuracy   — SOL
//   // result.upperBound      — OPT of the fractional relaxation
#pragma once

#include "accuracy/exponential.h"
#include "accuracy/fit.h"
#include "accuracy/levels.h"
#include "accuracy/piecewise.h"
#include "baselines/edf_levels.h"
#include "baselines/edf_nocompress.h"
#include "baselines/levels_opt.h"
#include "core/solver_api.h"
#include "core/solver_registry.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "experiments/scenarios.h"
#include "io/instance_io.h"
#include "mipmodel/dsct_lp.h"
#include "mipmodel/dsct_mip.h"
#include "sched/approx.h"
#include "sched/energy_profile.h"
#include "sched/fr_opt.h"
#include "sched/guarantee.h"
#include "sched/kkt.h"
#include "sched/naive_solution.h"
#include "sched/refine_profile.h"
#include "sched/render.h"
#include "sched/schedule.h"
#include "sched/single_machine.h"
#include "sched/types.h"
#include "sched/validator.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "sim/renewable.h"
#include "sim/serving.h"
#include "solver/mip.h"
#include "solver/model.h"
#include "solver/simplex.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/arrivals.h"
#include "workload/generator.h"
#include "workload/gpu_catalog.h"
#include "workload/scenario.h"
