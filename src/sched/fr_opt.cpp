#include "sched/fr_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "sched/naive_solution.h"
#include "sched/profile_evaluator.h"
#include "solver/model.h"
#include "solver/simplex.h"
#include "util/check.h"
#include "util/timer.h"

namespace dsct {

namespace {

constexpr double kImprovementTol = 1e-10;
/// The search certifies its incumbent once θ* − V(best) is at most this
/// share of max(1, |θ*|) (DESIGN.md §25).
constexpr double kCertifyTol = 1e-9;
/// Smallest in-out step: the query point moves at least this share of the
/// way from the incumbent to the master's maximiser.
constexpr double kMinStep = 1.0 / 1024.0;

/// Per-machine load ceiling (seconds): the horizon, tightened to
/// cap_r / P_r where per-machine energy caps apply (DESIGN.md §15). The
/// search's master LP bounds every load by these ceilings, so a capped solve
/// never proposes a load the machine's battery cannot deliver.
EnergyProfile loadCeilings(const Instance& inst,
                           const std::vector<double>* machineEnergyCaps) {
  const double horizon = inst.maxDeadline();
  EnergyProfile ceilings(static_cast<std::size_t>(inst.numMachines()),
                         horizon);
  if (machineEnergyCaps != nullptr) {
    for (int r = 0; r < inst.numMachines(); ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      const double power = inst.machine(r).power();
      if (power <= 0.0) continue;
      ceilings[i] =
          std::min(ceilings[i], std::max(0.0, (*machineEnergyCaps)[i]) / power);
    }
  }
  return ceilings;
}

/// One Kelley cut θ <= V(p_k) + slack_k + g_k·(p − p_k), kept as
/// θ − g_k·p <= rhs.
struct Cut {
  std::vector<double> gradient;
  double rhs = 0.0;

  /// The cut's bound on V at `p`.
  double at(const EnergyProfile& p) const {
    double value = rhs;
    for (std::size_t r = 0; r < p.size(); ++r) value += gradient[r] * p[r];
    return value;
  }
};

/// Where the search ended: the best profile it visited, its value, and the
/// least master optimum, which bounds every profile's value.
struct SearchResult {
  EnergyProfile best;
  double bestValue = 0.0;
  double bound = 0.0;
  bool cancelled = false;
};

/// The certified cutting-plane search (DESIGN.md §25): maximises the
/// concave V(p) over {Σ_r P_r·p_r <= B, 0 <= p <= ceilings} from `start`.
/// Each master LP maximises θ under every cut of the bundle. Each iteration
/// queries a point between the incumbent and the master's maximiser q (an
/// in-out step: halfway, and closer to the incumbent after each query that
/// fails to beat it), and q itself when that query beat the incumbent or
/// its cut leaves (θ*, q) standing. The search stops once θ* − V(best) <=
/// kCertifyTol·max(1, |θ*|), at the iteration cap 32·(m + 1), on a master
/// LP that does not solve, or at a cancel poll.
SearchResult searchProfile(const Instance& inst,
                           const ProfileEvaluator& evaluator,
                           const EnergyProfile& ceilings,
                           const EnergyProfile& start,
                           const CancelToken* cancel,
                           FrOptCounters& counters) {
  const int m = inst.numMachines();
  const std::size_t um = static_cast<std::size_t>(m);
  // The budget row's right-hand side is B, or the energy the ceilings allow
  // when that is less: always finite, so a DBL_MAX budget (the generator's
  // reference solve) stays out of the LP's row scaling.
  double reach = 0.0;
  for (int r = 0; r < m; ++r) {
    reach += inst.machine(r).power() * ceilings[static_cast<std::size_t>(r)];
  }
  const double budget = std::min(inst.energyBudget(), reach);
  // Columns p_0..p_{m-1} and θ, the budget row's logical, then one logical
  // per cut.
  const std::size_t firstCutLogical = um + 2;
  // A basic optimum binds at most m + 1 cuts, so shedding the slack ones
  // before an iteration adds its (at most two) cuts keeps every master at
  // or below 2(m + 1) cuts.
  const std::size_t maxCuts = 2 * (um + 1);
  const long long maxIterations = 32LL * (m + 1);

  SearchResult out{start, -std::numeric_limits<double>::infinity(),
                   inst.totalAmax(), false};
  std::vector<Cut> bundle;

  // Adds the cut at `p` and adopts p when it beats the incumbent by more
  // than kImprovementTol; the first query, at `start`, always adopts.
  const auto query = [&](const EnergyProfile& p) {
    ProfileCut cut = evaluator.evaluateWithCut(p);
    double rhs = cut.value + cut.slack;
    for (std::size_t r = 0; r < um; ++r) rhs -= cut.gradient[r] * p[r];
    bundle.push_back({std::move(cut.gradient), rhs});
    if (cut.value > out.bestValue + kImprovementTol) {
      out.best = p;
      out.bestValue = cut.value;
    }
  };

  const auto solveMaster = [&]() {
    lp::Model master;
    master.setMaximize(true);
    for (std::size_t r = 0; r < um; ++r) {
      master.addVariable(0.0, ceilings[r], 0.0);
    }
    const int theta = master.addVariable(-lp::kInfinity, lp::kInfinity, 1.0);
    std::vector<std::pair<int, double>> budgetRow;
    for (int r = 0; r < m; ++r) {
      budgetRow.emplace_back(r, inst.machine(r).power());
    }
    master.addConstraint(std::move(budgetRow), lp::Sense::kLe, budget);
    for (const Cut& cut : bundle) {
      std::vector<std::pair<int, double>> row;
      for (int r = 0; r < m; ++r) {
        const double g = cut.gradient[static_cast<std::size_t>(r)];
        if (g != 0.0) row.emplace_back(r, -g);
      }
      row.emplace_back(theta, 1.0);
      master.addConstraint(std::move(row), lp::Sense::kLe, cut.rhs);
    }
    counters.peakCuts =
        std::max(counters.peakCuts, static_cast<int>(bundle.size()));
    ++counters.masterLpSolves;
    return lp::solveLp(master);
  };

  // Drops every cut whose logical is basic (slack) at the master's optimum.
  const auto shedSlackCuts = [&](const lp::LpBasis& basis) {
    std::vector<Cut> kept;
    for (std::size_t k = 0; k < bundle.size(); ++k) {
      if (basis.status[firstCutLogical + k] == lp::BasisStatus::kBasic) {
        continue;
      }
      kept.push_back(std::move(bundle[k]));
    }
    bundle = std::move(kept);
  };

  query(start);
  double step = 0.5;
  for (long long iteration = 0;; ++iteration) {
    if (stopRequested(cancel)) {
      out.cancelled = true;
      break;
    }
    const lp::LpResult master = solveMaster();
    if (master.status != lp::SolveStatus::kOptimal) {
      ++counters.searchCapHits;
      break;
    }
    const double thetaStar = master.objective;
    out.bound = std::min(out.bound, thetaStar);
    const double tol = kCertifyTol * std::max(1.0, std::abs(thetaStar));
    if (thetaStar - out.bestValue <= tol) break;
    if (iteration == maxIterations) {
      ++counters.searchCapHits;
      break;
    }
    ++counters.searchIterations;
    if (bundle.size() + 2 > maxCuts) shedSlackCuts(master.basis);

    // The maximiser, snapped into the box and scaled into the budget the LP
    // met only to its feasibility tolerance.
    EnergyProfile q(um);
    double energy = 0.0;
    for (std::size_t r = 0; r < um; ++r) {
      q[r] = std::clamp(master.x[r], 0.0, ceilings[r]);
      energy += inst.machine(static_cast<int>(r)).power() * q[r];
    }
    if (energy > budget) {
      const double scale = budget / energy;
      for (double& load : q) load *= scale;
    }
    EnergyProfile inner(um);
    for (std::size_t r = 0; r < um; ++r) {
      inner[r] = out.best[r] + step * (q[r] - out.best[r]);
    }
    const double incumbent = out.bestValue;
    query(inner);
    // Concavity gives V(inner) >= (1 − step)·V(incumbent) + step·V(q), so q
    // can beat the incumbent only when the inner point did; on
    // battery-capped fleets, whose optimum sits on a vertex of the box, it
    // usually does. A miss means the maximiser lies past where V turns
    // down: the next query stays closer to the incumbent.
    const bool improved = out.bestValue > incumbent;
    step = improved ? 0.5 : std::max(kMinStep, 0.5 * step);
    if (improved || bundle.back().at(q) >= thetaStar - tol) query(q);
  }
  return out;
}

}  // namespace

FrOptResult solveFrOpt(const Instance& inst, const FrOptOptions& options) {
  DSCT_CHECK_MSG(options.machineEnergyCaps == nullptr ||
                     options.machineEnergyCaps->size() ==
                         static_cast<std::size_t>(inst.numMachines()),
                 "machineEnergyCaps has " << options.machineEnergyCaps->size()
                     << " entries for " << inst.numMachines() << " machines");
  const Stopwatch totalWatch;
  ProfileEvaluator evaluator(inst);

  NaiveSolution naive = computeNaiveSolution(inst);
  FrOptResult result{std::move(naive.schedule), std::move(naive.profile),
                     {}, {}, {}, 0.0, inst.totalAmax(), 0.0, false};

  // Per-machine load ceilings: the horizon, tightened by the energy caps.
  // With caps active the naive start is projected onto the capped box and
  // re-materialised, so refine starts from a cap-feasible schedule.
  const bool capped = options.machineEnergyCaps != nullptr;
  const EnergyProfile ceilings = loadCeilings(inst, options.machineEnergyCaps);
  if (capped) {
    EnergyProfile clamped = result.naiveProfile;
    bool changed = false;
    for (std::size_t r = 0; r < clamped.size(); ++r) {
      if (clamped[r] > ceilings[r]) {
        clamped[r] = ceilings[r];
        changed = true;
      }
    }
    if (changed) {
      result.schedule = evaluator.schedule(clamped);
      result.naiveProfile = std::move(clamped);
    }
  }

  // One RefineProfile pass (Algorithm 4), with the token and the energy caps
  // forwarded into its round loop.
  double currentAccuracy = result.schedule.totalAccuracy(inst);
  if (stopRequested(options.cancel)) {
    result.cancelled = true;
  } else {
    const Stopwatch watch;
    RefineOptions refineOptions;
    refineOptions.cancel = options.cancel;
    refineOptions.machineEnergyCaps = options.machineEnergyCaps;
    // The plan is a temporary: it is freed before the search starts, so a
    // solve holds its largest structure only while refine walks it.
    result.refineStats = refineProfile(
        inst, buildRefinePlan(inst, evaluator.sortedSegments()),
        result.schedule, refineOptions);
    ++result.counters.outerRounds;
    currentAccuracy = result.schedule.totalAccuracy(inst);
    result.counters.refineSeconds += watch.elapsedSeconds();

    // The search starts at the refined loads; its first cut is also the
    // re-solve of those loads (Algorithm 2's core, exact for any profile).
    // Its best profile is materialised only when the fused value beats the
    // incumbent, and adopted on the materialised accuracy (it can differ
    // from the fused sum in the last ulp).
    const Stopwatch searchWatch;
    const SearchResult search =
        searchProfile(inst, evaluator, ceilings, result.schedule.machineLoads(),
                      options.cancel, result.counters);
    result.cancelled = search.cancelled;
    result.upperBound = search.bound;
    if (search.bestValue > currentAccuracy + kImprovementTol) {
      FractionalSchedule candidate = evaluator.schedule(search.best);
      const double accuracy = candidate.totalAccuracy(inst);
      if (accuracy > currentAccuracy + kImprovementTol) {
        result.schedule = std::move(candidate);
      }
    }
    result.counters.searchSeconds += searchWatch.elapsedSeconds();
  }

  result.refinedProfile = result.schedule.machineLoads();
  result.totalAccuracy = result.schedule.totalAccuracy(inst);
  result.energy = result.schedule.energy(inst);

  const EvaluatorCounters ec = evaluator.counters();
  result.counters.evaluations = ec.evaluations;
  result.counters.scheduleSolves = ec.scheduleSolves;
  result.counters.slackQueries = result.refineStats.slack.queries;
  result.counters.slackHits = result.refineStats.slack.hits;
  result.counters.slackRebuilds = result.refineStats.slack.rebuilds;
  result.counters.slackInvalidations = result.refineStats.slack.invalidations;
  result.counters.totalSeconds = totalWatch.elapsedSeconds();
  return result;
}

}  // namespace dsct
