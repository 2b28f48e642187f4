#include "core/solver_registry.h"

#include <sstream>
#include <utility>

#include "baselines/edf_levels.h"
#include "baselines/edf_nocompress.h"
#include "baselines/levels_opt.h"
#include "mipmodel/dsct_lp.h"
#include "mipmodel/dsct_mip.h"
#include "sched/approx.h"
#include "sched/fr_opt.h"
#include "util/check.h"

namespace dsct {

namespace {

class FunctionSolver final : public Solver {
 public:
  FunctionSolver(
      std::string name, std::string displayName,
      SolverCapabilities capabilities,
      std::function<SolveOutcome(const Instance&, const SolveContext&)> fn)
      : name_(std::move(name)),
        displayName_(std::move(displayName)),
        capabilities_(capabilities),
        fn_(std::move(fn)) {}

  const std::string& name() const override { return name_; }
  const std::string& displayName() const override { return displayName_; }
  SolverCapabilities capabilities() const override { return capabilities_; }

 protected:
  SolveOutcome doSolve(const Instance& inst,
                       const SolveContext& context) const override {
    return fn_(inst, context);
  }

 private:
  std::string name_;
  std::string displayName_;
  SolverCapabilities capabilities_;
  std::function<SolveOutcome(const Instance&, const SolveContext&)> fn_;
};

SolveOutcome fromBaseline(const Instance& inst, BaselineResult res) {
  SolveOutcome outcome;
  if (res.cancelled) outcome.status = OutcomeStatus::kCancelled;
  outcome.schedule = std::move(res.schedule);
  fillFromIntegral(inst, outcome);
  return outcome;
}

/// The availability layer's per-machine energy caps, or null when the
/// context carries none.
const std::vector<double>* energyCaps(const SolveContext& context) {
  return context.availability != nullptr &&
                 !context.availability->machineEnergyCaps.empty()
             ? &context.availability->machineEnergyCaps
             : nullptr;
}

/// FR-OPT's options from the context: its pool, token and energy caps.
FrOptOptions frOptOptions(const SolveContext& context) {
  FrOptOptions options;
  options.pool = context.pool;
  options.cancel = context.cancel;
  options.machineEnergyCaps = energyCaps(context);
  return options;
}

SolveOutcome solveMipOutcome(const Instance& inst, const SolveContext& context,
                             bool warmStart) {
  bool cancelled = false;
  std::optional<ApproxResult> warm;
  if (warmStart) {
    warm = solveApprox(inst, frOptOptions(context));
    cancelled = warm->fractional.cancelled;
  }
  lp::MipOptions mipOptions;
  mipOptions.timeLimitSeconds = context.mipTimeLimitSeconds;
  mipOptions.cancel = context.cancel;
  // The LP warm-start slot rides with the warm-started MIP only; mip-cold is
  // the deliberately cold reference point and ignores it.
  LpWarmStartSlot* slot = warmStart ? context.lpWarm : nullptr;
  const MipSolveSummary summary =
      solveDsctMip(inst, mipOptions, warm ? &warm->schedule : nullptr,
                   slot != nullptr ? &slot->basis : nullptr,
                   slot != nullptr ? slot->structure : 0);
  SolveOutcome outcome;
  if (cancelled || summary.result.cancelled) {
    outcome.status = OutcomeStatus::kCancelled;
  }
  outcome.lpCounters = summary.result.lpCounters;
  if (slot != nullptr && !summary.result.rootBasis.empty()) {
    slot->structure = summary.lpStructure;
    slot->basis = summary.result.rootBasis;
  }
  outcome.upperBound = summary.result.bestBound;
  if (summary.schedule.has_value()) {
    outcome.schedule = *summary.schedule;
    fillFromIntegral(inst, outcome);
  }
  return outcome;
}

}  // namespace

std::unique_ptr<Solver> makeSolver(
    std::string name, std::string displayName, SolverCapabilities capabilities,
    std::function<SolveOutcome(const Instance&, const SolveContext&)> fn) {
  return std::make_unique<FunctionSolver>(std::move(name),
                                          std::move(displayName), capabilities,
                                          std::move(fn));
}

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  return registry;
}

void SolverRegistry::add(std::unique_ptr<Solver> solver,
                         std::vector<std::string> aliases) {
  DSCT_CHECK(solver != nullptr);
  const std::lock_guard<std::mutex> lock(mutex_);
  const Solver* raw = solver.get();
  DSCT_CHECK_MSG(byName_.emplace(raw->name(), raw).second,
                 "duplicate solver name: " + raw->name());
  for (const std::string& alias : aliases) {
    DSCT_CHECK_MSG(byName_.emplace(alias, raw).second,
                   "duplicate solver alias: " + alias);
  }
  aliases_.emplace(raw->name(), std::move(aliases));
  solvers_.push_back(std::move(solver));
}

const Solver* SolverRegistry::find(const std::string& nameOrAlias) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = byName_.find(nameOrAlias);
  return it == byName_.end() ? nullptr : it->second;
}

const Solver& SolverRegistry::resolve(const std::string& nameOrAlias) const {
  const Solver* solver = find(nameOrAlias);
  if (solver == nullptr) {
    std::ostringstream msg;
    msg << "unknown solver '" << nameOrAlias << "' (registered:";
    for (const std::string& name : names()) msg << ' ' << name;
    msg << ')';
    DSCT_CHECK_MSG(false, msg.str());
  }
  return *solver;
}

std::vector<const Solver*> SolverRegistry::solvers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Solver*> out;
  out.reserve(solvers_.size());
  for (const auto& solver : solvers_) out.push_back(solver.get());
  return out;
}

std::vector<std::string> SolverRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& solver : solvers_) out.push_back(solver->name());
  return out;
}

std::vector<std::string> SolverRegistry::aliasesOf(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = aliases_.find(name);
  return it == aliases_.end() ? std::vector<std::string>{} : it->second;
}

SolverRegistry::SolverRegistry() {
  SolverCapabilities approxCaps;
  approxCaps.integral = true;
  approxCaps.fractional = true;
  approxCaps.availabilityAware = true;  // honours per-machine energy caps
  add(makeSolver(
          "approx", "DSCT-EA-Approx", approxCaps,
          [](const Instance& inst, const SolveContext& context) {
            ApproxResult res = solveApprox(inst, frOptOptions(context));
            SolveOutcome outcome;
            if (res.fractional.cancelled) {
              outcome.status = OutcomeStatus::kCancelled;
            }
            outcome.counters = res.fractional.counters;
            outcome.fractional = std::move(res.fractional.schedule);
            outcome.schedule = std::move(res.schedule);
            fillFromIntegral(inst, outcome);
            outcome.upperBound = res.upperBound;
            outcome.guaranteeG = res.guarantee.g;
            return outcome;
          }),
      {"dsct-ea-approx"});

  SolverCapabilities frOptCaps;
  frOptCaps.integral = false;
  frOptCaps.fractional = true;
  frOptCaps.availabilityAware = true;  // honours per-machine energy caps
  add(makeSolver(
          "fr-opt", "DSCT-EA-FR-OPT", frOptCaps,
          [](const Instance& inst, const SolveContext& context) {
            FrOptResult res = solveFrOpt(inst, frOptOptions(context));
            SolveOutcome outcome;
            if (res.cancelled) outcome.status = OutcomeStatus::kCancelled;
            outcome.counters = res.counters;
            outcome.fractional = std::move(res.schedule);
            fillFromFractional(inst, outcome);
            // A fractional optimum is its own upper bound; the realised
            // loads are the refined profile (Fig. 6 plots them).
            outcome.upperBound = res.totalAccuracy;
            outcome.machineLoads = std::move(res.refinedProfile);
            return outcome;
          }),
      {"fropt"});

  add(makeSolver("edf", "EDF-NoCompression", SolverCapabilities{},
                 [](const Instance& inst, const SolveContext& context) {
                   return fromBaseline(
                       inst, solveEdfNoCompression(inst, context.cancel));
                 }),
      {"edf-nocompress"});

  SolverCapabilities edf3Caps;
  edf3Caps.availabilityAware = true;  // honours per-machine energy caps
  add(makeSolver("edf3", "EDF-3CompressionLevels", edf3Caps,
                 [](const Instance& inst, const SolveContext& context) {
                   EdfLevelsOptions options;
                   options.cancel = context.cancel;
                   options.machineEnergyCaps = energyCaps(context);
                   return fromBaseline(inst, solveEdfLevels(inst, options));
                 }),
      {"edf-levels"});

  SolverCapabilities levelsOptCaps;
  levelsOptCaps.availabilityAware = true;  // honours per-machine energy caps
  add(makeSolver("levels-opt", "EDF-LevelsOpt", levelsOptCaps,
                 [](const Instance& inst, const SolveContext& context) {
                   EdfLevelsOptOptions options;
                   options.cancel = context.cancel;
                   options.machineEnergyCaps = energyCaps(context);
                   return fromBaseline(inst, solveEdfLevelsOpt(inst, options));
                 }),
      {"edf3-opt"});

  SolverCapabilities mipCaps;
  mipCaps.integral = true;
  mipCaps.exact = true;
  mipCaps.deterministic = false;  // the incumbent depends on the time limit
  SolverCapabilities mipWarmCaps = mipCaps;
  mipWarmCaps.usesLpWarmStart = true;  // root relaxation basis carry
  add(makeSolver("mip-warm", "DSCT-EA-Opt (MIP, warm-started)", mipWarmCaps,
                 [](const Instance& inst, const SolveContext& context) {
                   return solveMipOutcome(inst, context, /*warmStart=*/true);
                 }),
      {"mip"});
  add(makeSolver("mip-cold", "DSCT-EA-Opt (MIP, cold)", mipCaps,
                 [](const Instance& inst, const SolveContext& context) {
                   return solveMipOutcome(inst, context, /*warmStart=*/false);
                 }));

  SolverCapabilities frLpCaps;
  frLpCaps.integral = false;
  frLpCaps.fractional = true;
  frLpCaps.exact = true;
  frLpCaps.usesLpWarmStart = true;
  add(makeSolver(
          "fr-lp", "DSCT-EA-FR (LP via simplex)", frLpCaps,
          [](const Instance& inst, const SolveContext& context) {
            const DsctLp lpModel = buildFractionalLp(inst);
            lp::LpOptions lpOptions;
            lpOptions.timeLimitSeconds = context.lpTimeLimitSeconds;
            lpOptions.cancel = context.cancel;
            SolveOutcome outcome;
            LpWarmStartSlot* slot = context.lpWarm;
            std::uint64_t structure = 0;
            if (slot != nullptr) {
              structure = lp::structuralFingerprint(lpModel.model);
              if (!slot->basis.empty()) {
                if (slot->structure == structure) {
                  lpOptions.warmBasis = &slot->basis;
                } else {
                  // Structure drifted since the snapshot: solve cold.
                  ++outcome.lpCounters.warmStartsAttempted;
                  ++outcome.lpCounters.warmStartsRejected;
                }
              }
            }
            const lp::LpResult res = lp::solveLp(lpModel.model, lpOptions);
            outcome.lpCounters.add(res.counters);
            if (res.cancelled) outcome.status = OutcomeStatus::kCancelled;
            if (res.status == lp::SolveStatus::kOptimal) {
              if (slot != nullptr) {
                slot->structure = structure;
                slot->basis = res.basis;
              }
              outcome.fractional = extractFractional(inst, lpModel, res.x);
              fillFromFractional(inst, outcome);
              outcome.upperBound = res.objective;
            }
            return outcome;
          }),
      {"frlp"});
}

}  // namespace dsct
