#include "sched/fr_opt.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sched/naive_solution.h"
#include "solver/model.h"
#include "solver/simplex.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dsct {

namespace {

constexpr double kImprovementTol = 1e-10;

/// Per-machine load ceiling (seconds): the horizon, tightened to
/// cap_r / P_r where per-machine energy caps apply (DESIGN.md §15). Every
/// profile move below projects onto these ceilings, so a capped solve never
/// proposes a load the machine's battery cannot deliver.
EnergyProfile loadCeilings(const Instance& inst,
                           const std::vector<double>* machineEnergyCaps) {
  const double horizon = inst.maxDeadline();
  EnergyProfile ceilings(static_cast<std::size_t>(inst.numMachines()),
                         horizon);
  if (machineEnergyCaps != nullptr) {
    for (int r = 0; r < inst.numMachines(); ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      if (i >= machineEnergyCaps->size()) break;
      const double power = inst.machine(r).power();
      if (power <= 0.0) continue;
      ceilings[i] =
          std::min(ceilings[i], std::max(0.0, (*machineEnergyCaps)[i]) / power);
    }
  }
  return ceilings;
}

/// Grant unused budget to machines below their ceiling, most efficient
/// first. With strict deadlines the funded machines cannot always absorb
/// their naive profiles (their loads stall below p_r); the leftover energy
/// then buys *parallel* capacity on so-far unfunded machines.
EnergyProfile expandProfile(const Instance& inst, const EnergyProfile& loads,
                            double leftover, const EnergyProfile& ceilings) {
  EnergyProfile profile = loads;
  for (int r : inst.machinesByEfficiencyDesc()) {
    if (leftover <= 0.0) break;
    const double power = inst.machine(r).power();
    const double grow =
        std::min(ceilings[static_cast<std::size_t>(r)] -
                     profile[static_cast<std::size_t>(r)],
                 leftover / power);
    if (grow <= 0.0) continue;
    profile[static_cast<std::size_t>(r)] += grow;
    leftover -= grow * power;
  }
  return profile;
}

/// Expansion candidates: the efficiency-greedy profile above, plus one
/// profile per machine that grants the whole leftover to that machine. With
/// binding deadlines the best recipient is not necessarily the most
/// efficient machine — a fast machine adds capacity inside every deadline
/// window — so each candidate is evaluated by re-solving.
std::vector<EnergyProfile> expansionCandidates(const Instance& inst,
                                               const EnergyProfile& loads,
                                               double leftover,
                                               const EnergyProfile& ceilings) {
  std::vector<EnergyProfile> candidates;
  candidates.push_back(expandProfile(inst, loads, leftover, ceilings));
  for (int r = 0; r < inst.numMachines(); ++r) {
    const double power = inst.machine(r).power();
    const double grow = std::min(ceilings[static_cast<std::size_t>(r)] -
                                     loads[static_cast<std::size_t>(r)],
                                 leftover / power);
    if (grow <= 0.0) continue;
    EnergyProfile profile = loads;
    profile[static_cast<std::size_t>(r)] += grow;
    candidates.push_back(std::move(profile));
  }
  return candidates;
}

}  // namespace

std::optional<PairMove> bestPairMove(const Instance& inst,
                                     const ProfileEvaluator& evaluator,
                                     const EnergyProfile& loads,
                                     double baseAccuracy, ThreadPool* pool,
                                     const PairProbeHook* probeHook,
                                     const EnergyProfile* maxLoads) {
  const double horizon = inst.maxDeadline();
  const int m = inst.numMachines();
  const auto ceilingOf = [&](int r) {
    return maxLoads != nullptr ? (*maxLoads)[static_cast<std::size_t>(r)]
                               : horizon;
  };

  struct Direction {
    int from;
    int to;
    double cap;  ///< largest energy-conserving transfer (J)
  };
  std::vector<Direction> directions;
  for (int from = 0; from < m; ++from) {
    const double available =
        loads[static_cast<std::size_t>(from)] * inst.machine(from).power();
    if (available <= 1e-12) continue;
    for (int to = 0; to < m; ++to) {
      if (to == from) continue;
      // The recipient can absorb at most its headroom to the horizon (or
      // its energy-cap ceiling when one applies). A larger transfer would
      // have to clamp the recipient while still deducting the full delta
      // from the donor — destroying energy — so the probe values past this
      // cap are meaningless and the old uncapped screen (probes at
      // available/2, available/64, available) could dismiss a direction
      // whose entire improvement region lies within the much smaller cap.
      const double headroom =
          (ceilingOf(to) - loads[static_cast<std::size_t>(to)]) *
          inst.machine(to).power();
      const double cap = std::min(available, headroom);
      if (cap <= 1e-12) continue;
      directions.push_back({from, to, cap});
    }
  }

  // Each direction is an independent concave 1-D search against the shared
  // base loads: pure work, fanned across the pool when one is given. The
  // reduction below is index-ordered, so serial and parallel runs pick the
  // same move.
  const auto probe = [&](std::size_t k) -> PairMove {
    const Direction& dir = directions[k];
    const double powerFrom = inst.machine(dir.from).power();
    const double powerTo = inst.machine(dir.to).power();
    const auto valueAt = [&](double delta) {
      EnergyProfile profile = loads;
      profile[static_cast<std::size_t>(dir.from)] -= delta / powerFrom;
      // delta <= cap keeps the recipient at or below the horizon: energy is
      // conserved without clamping.
      profile[static_cast<std::size_t>(dir.to)] += delta / powerTo;
      if (probeHook != nullptr) (*probeHook)(dir.from, dir.to, delta, profile);
      return evaluator.evaluate(profile);
    };
    PairMove move;
    move.from = dir.from;
    move.to = dir.to;
    move.accuracy = baseAccuracy;
    // Quick screen: skip directions with no improvement anywhere.
    if (valueAt(dir.cap / 2.0) <= baseAccuracy + kImprovementTol &&
        valueAt(dir.cap / 64.0) <= baseAccuracy + kImprovementTol &&
        valueAt(dir.cap) <= baseAccuracy + kImprovementTol) {
      return move;  // not improving; filtered by the reduction
    }
    // V(delta) is concave (LP value of its right-hand side): ternary search
    // pins the best transfer size along this direction.
    double lo = 0.0;
    double hi = dir.cap;
    for (int iter = 0; iter < 48 && hi - lo > 1e-12 * dir.cap; ++iter) {
      const double m1 = lo + (hi - lo) / 3.0;
      const double m2 = hi - (hi - lo) / 3.0;
      if (valueAt(m1) < valueAt(m2)) {
        lo = m1;
      } else {
        hi = m2;
      }
    }
    move.delta = (lo + hi) / 2.0;
    move.profile = loads;
    move.profile[static_cast<std::size_t>(dir.from)] -= move.delta / powerFrom;
    move.profile[static_cast<std::size_t>(dir.to)] += move.delta / powerTo;
    if (probeHook != nullptr) {
      (*probeHook)(dir.from, dir.to, move.delta, move.profile);
    }
    move.accuracy = evaluator.evaluate(move.profile);
    return move;
  };

  std::vector<PairMove> moves;
  if (pool != nullptr && directions.size() > 1) {
    moves = pool->parallelMap(directions.size(), probe);
  } else {
    moves.reserve(directions.size());
    for (std::size_t k = 0; k < directions.size(); ++k) {
      moves.push_back(probe(k));
    }
  }

  std::optional<PairMove> best;
  for (PairMove& move : moves) {
    if (move.accuracy <= baseAccuracy + kImprovementTol) continue;
    if (!best || move.accuracy > best->accuracy) best = std::move(move);
  }
  return best;
}

FrOptResult solveFrOpt(const Instance& inst, const FrOptOptions& options) {
  const Stopwatch totalWatch;
  ProfileEvaluator evaluator(inst);
  ThreadPool* pool = options.pool;

  NaiveSolution naive = computeNaiveSolution(inst);
  FrOptResult result{std::move(naive.schedule), std::move(naive.profile),
                     {}, {}, {}, 0.0, 0.0, false};

  // Per-machine load ceilings: the horizon, tightened by the energy caps.
  // With caps active the naive start is projected onto the capped box and
  // re-materialised, so every later move starts from a cap-feasible profile.
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

  // Cooperative stop: polled at the outer rounds and inside the escape
  // searches. Marks the result cancelled exactly when a poll fires, so a
  // solve that runs to completion never reports cancellation.
  const auto stopNow = [&]() {
    if (stopRequested(options.cancel)) {
      result.cancelled = true;
      return true;
    }
    return false;
  };

  // Forward the token (and the energy caps) into RefineProfile's round loop.
  RefineOptions refineOptions;
  refineOptions.cancel = options.cancel;
  refineOptions.machineEnergyCaps = options.machineEnergyCaps;
  // Refine's ψ order depends on the instance alone: every refine call of
  // this solve walks one plan (DESIGN.md §19).
  const Stopwatch planWatch;
  const RefinePlan plan = buildRefinePlan(inst, evaluator.sortedSegments());
  result.counters.refineSeconds += planWatch.elapsedSeconds();
  // True while the schedule is the one a transfer-free, uncut refine call
  // returned. Refine is a function of (instance, schedule, options), so the
  // next call would move nothing either and is skipped (DESIGN.md §19).
  bool settled = false;

  // Alternate three fixed-point steps until none improves:
  //  * expandProfile — spend leftover budget on additional parallel
  //    capacity (complementary slackness on the budget row);
  //  * refineProfile — move energy between (segment, machine) pairs
  //    (explores the profile space, Algorithm 3);
  //  * solveForProfile — re-derive the optimal allocation for the current
  //    machine loads (Algorithm 2's core, exact for any given profile).
  // The plain paper pipeline is one refine pass; the extra steps repair the
  // cases a transfer-only pass cannot reach (DESIGN.md §6).
  constexpr int kMaxOuterRounds = 16;
  double currentAccuracy = result.schedule.totalAccuracy(inst);

  // Adopt `profile` when it beats the incumbent. The fused evaluator value
  // screens candidates cheaply; a full schedule is materialised only on
  // improvement, and the final comparison re-checks on the materialised
  // accuracy (it can differ from the fused sum in the last ulp).
  const auto maybeAdoptProfile = [&](const EnergyProfile& profile) {
    if (evaluator.cached(profile) <= currentAccuracy + kImprovementTol) {
      return false;
    }
    FractionalSchedule candidate = evaluator.schedule(profile);
    const double accuracy = candidate.totalAccuracy(inst);
    if (accuracy <= currentAccuracy + kImprovementTol) return false;
    result.schedule = std::move(candidate);
    currentAccuracy = accuracy;
    settled = false;
    return true;
  };

  // Escape step for plateaus of the first-order moves: move a quantum of
  // *profile energy* between machines and re-solve. Because the optimal
  // value is a concave function of the profile vector (LP value of its
  // RHS), a pairwise line search over transfer sizes recovers composite
  // moves that single (segment, machine) transfers cannot express. Best-
  // improvement rounds: every direction is probed against the same base,
  // the best move is adopted, then the search restarts from the new loads.
  const auto pairSearch = [&]() {
    bool improved = false;
    for (;;) {
      if (stopNow()) break;
      const EnergyProfile loads = result.schedule.machineLoads();
      const std::optional<PairMove> move =
          bestPairMove(inst, evaluator, loads, currentAccuracy, pool, nullptr,
                       capped ? &ceilings : nullptr);
      if (!move.has_value() || !maybeAdoptProfile(move->profile)) break;
      ++result.counters.pairMoves;
      improved = true;
    }
    return improved;
  };

  // Direction search over the profile polytope
  // {p : Σ p_r P_r <= B, 0 <= p_r <= d_max}. V(p) — the optimal accuracy
  // for profile caps p — is concave (LP value as a function of its RHS) but
  // kinked: at a kink, directional derivatives are superadditive, so a
  // joint multi-machine move can improve while every pairwise move fails.
  // We therefore compute both one-sided derivatives per machine and solve a
  // tiny direction LP (split d = u − v); a concave line search along the
  // resulting direction then takes the step.
  const auto directionSearch = [&]() {
    const double horizon = inst.maxDeadline();
    const int m = inst.numMachines();
    bool improvedAny = false;
    EnergyProfile p = result.schedule.machineLoads();
    for (int iter = 0; iter < 24; ++iter) {
      if (stopNow()) break;
      const double v0 = evaluator.cached(p);
      const double eps = std::max(1e-10, 1e-7 * horizon);
      // The 2m one-sided derivative probes are independent: batch them
      // through the evaluator (fanning across the pool when given).
      std::vector<EnergyProfile> probes;
      std::vector<int> probeMachine;  ///< r for probe i; up if >= 0 else ~r
      for (int r = 0; r < m; ++r) {
        if (p[static_cast<std::size_t>(r)] + eps <=
            ceilings[static_cast<std::size_t>(r)]) {
          EnergyProfile q = p;
          q[static_cast<std::size_t>(r)] += eps;
          probes.push_back(std::move(q));
          probeMachine.push_back(r);
        }
        if (p[static_cast<std::size_t>(r)] >= eps) {
          EnergyProfile q = p;
          q[static_cast<std::size_t>(r)] -= eps;
          probes.push_back(std::move(q));
          probeMachine.push_back(~r);
        }
      }
      const std::vector<double> probeValues =
          evaluator.evaluateBatch(probes, pool);
      std::vector<double> gainUp(static_cast<std::size_t>(m), 0.0);
      std::vector<double> lossDown(static_cast<std::size_t>(m), 0.0);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (probeMachine[i] >= 0) {
          gainUp[static_cast<std::size_t>(probeMachine[i])] =
              (probeValues[i] - v0) / eps;
        } else {
          lossDown[static_cast<std::size_t>(~probeMachine[i])] =
              (v0 - probeValues[i]) / eps;
        }
      }
      // Direction LP: max Σ gainUp_r u_r − Σ lossDown_r v_r
      //   s.t. Σ P_r (u_r − v_r) <= budget slack,
      //        0 <= u_r <= ceiling_r − p_r, 0 <= v_r <= p_r
      // (ceiling_r = d_max, tightened by the per-machine energy cap).
      lp::Model dir;
      dir.setMaximize(true);
      std::vector<std::pair<int, double>> budgetRow;
      for (int r = 0; r < m; ++r) {
        const double power = inst.machine(r).power();
        const int u = dir.addVariable(
            0.0,
            std::max(0.0, ceilings[static_cast<std::size_t>(r)] -
                              p[static_cast<std::size_t>(r)]),
            gainUp[static_cast<std::size_t>(r)]);
        const int v = dir.addVariable(0.0, p[static_cast<std::size_t>(r)],
                                      -lossDown[static_cast<std::size_t>(r)]);
        budgetRow.emplace_back(u, power);
        budgetRow.emplace_back(v, -power);
      }
      double slack = inst.energyBudget();
      for (int r = 0; r < m; ++r) {
        slack -= p[static_cast<std::size_t>(r)] * inst.machine(r).power();
      }
      dir.addConstraint(std::move(budgetRow), lp::Sense::kLe,
                        std::max(0.0, slack));
      ++result.counters.directionLpSolves;
      const lp::LpResult dirRes = lp::solveLp(dir);
      if (dirRes.status != lp::SolveStatus::kOptimal ||
          dirRes.objective <= 1e-9) {
        break;  // no improving direction at this kink
      }
      EnergyProfile direction(static_cast<std::size_t>(m), 0.0);
      for (int r = 0; r < m; ++r) {
        direction[static_cast<std::size_t>(r)] =
            dirRes.x[static_cast<std::size_t>(2 * r)] -
            dirRes.x[static_cast<std::size_t>(2 * r + 1)];
      }
      // Concave line search along p + t·direction, t in [0, 1].
      const auto at = [&](double t) {
        EnergyProfile q = p;
        for (int r = 0; r < m; ++r) {
          q[static_cast<std::size_t>(r)] = std::clamp(
              q[static_cast<std::size_t>(r)] +
                  t * direction[static_cast<std::size_t>(r)],
              0.0, ceilings[static_cast<std::size_t>(r)]);
        }
        return q;
      };
      double lo = 0.0, hi = 1.0;
      for (int ls = 0; ls < 48 && hi - lo > 1e-12; ++ls) {
        const double m1 = lo + (hi - lo) / 3.0;
        const double m2 = hi - (hi - lo) / 3.0;
        if (evaluator.cached(at(m1)) < evaluator.cached(at(m2))) {
          lo = m1;
        } else {
          hi = m2;
        }
      }
      // Prefer the full step when the line search plateaus at the boundary.
      EnergyProfile next = at((lo + hi) / 2.0);
      if (evaluator.cached(at(1.0)) >= evaluator.cached(next)) next = at(1.0);
      if (evaluator.cached(next) <= v0 + kImprovementTol) break;
      p = std::move(next);
      if (maybeAdoptProfile(p)) {
        ++result.counters.directionSteps;
        improvedAny = true;
      }
    }
    return improvedAny;
  };

  double best = currentAccuracy;
  for (int round = 0; round < kMaxOuterRounds; ++round) {
    if (stopNow()) break;
    ++result.counters.outerRounds;

    {
      const Stopwatch watch;
      const double leftover =
          inst.energyBudget() - result.schedule.energy(inst);
      if (leftover > 1e-12 * std::max(1.0, inst.energyBudget())) {
        const EnergyProfile loads = result.schedule.machineLoads();
        const std::vector<EnergyProfile> candidates =
            expansionCandidates(inst, loads, leftover, ceilings);
        const std::vector<double> values =
            evaluator.evaluateBatch(candidates, pool);
        // Adopting only the argmax (first on ties) matches the sequential
        // adopt-each-improving-candidate chain: the chain's final incumbent
        // is exactly the first maximal improving candidate.
        std::size_t bestIdx = candidates.size();
        double bestValue = currentAccuracy + kImprovementTol;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          if (values[i] > bestValue) {
            bestValue = values[i];
            bestIdx = i;
          }
        }
        if (bestIdx < candidates.size()) {
          maybeAdoptProfile(candidates[bestIdx]);
        }
      }
      result.counters.expandSeconds += watch.elapsedSeconds();
    }

    // A skipped call counts as the transfer-free call it would repeat; its
    // maybeAdoptProfile would re-reject the loads it already rejected.
    RefineStats stats;
    if (!settled) {
      const Stopwatch watch;
      stats = refineProfile(inst, plan, result.schedule, refineOptions);
      result.refineStats.add(stats);
      // A call cut short saw the token stop, and a token stays stopped.
      settled = stats.transfers == 0 && refineOptions.maxRounds > 0 &&
                !stopRequested(refineOptions.cancel);
      // refineProfile mutates the schedule in place; refresh the incumbent
      // accuracy before re-solving for the refined loads.
      currentAccuracy = result.schedule.totalAccuracy(inst);
      maybeAdoptProfile(result.schedule.machineLoads());
      result.counters.refineSeconds += watch.elapsedSeconds();
    }

    if (stats.transfers == 0 && currentAccuracy <= best + kImprovementTol) {
      // First-order fixed point reached: try the pairwise profile search,
      // then the Frank-Wolfe refinement, before concluding.
      bool escaped;
      {
        const Stopwatch watch;
        escaped = pairSearch();
        result.counters.pairSeconds += watch.elapsedSeconds();
      }
      if (!escaped) {
        const Stopwatch watch;
        escaped = directionSearch();
        result.counters.directionSeconds += watch.elapsedSeconds();
      }
      if (!escaped) break;
    }
    best = std::max(best, currentAccuracy);
  }

  result.refinedProfile = result.schedule.machineLoads();
  result.totalAccuracy = result.schedule.totalAccuracy(inst);
  result.energy = result.schedule.energy(inst);

  const EvaluatorCounters ec = evaluator.counters();
  result.counters.evaluations = ec.evaluations;
  result.counters.cacheHits = ec.cacheHits;
  result.counters.scheduleSolves = ec.scheduleSolves;
  result.counters.slackQueries = result.refineStats.slack.queries;
  result.counters.slackHits = result.refineStats.slack.hits;
  result.counters.slackRebuilds = result.refineStats.slack.rebuilds;
  result.counters.slackInvalidations = result.refineStats.slack.invalidations;
  result.counters.totalSeconds = totalWatch.elapsedSeconds();
  return result;
}

}  // namespace dsct
