// dsct command-line tool.
//
//   dsct_cli solvers
//   dsct_cli generate --tasks N --machines M [--rho R] [--beta B]
//            [--theta-min T] [--theta-max T] [--seed S] --out FILE
//   dsct_cli solve INSTANCE [--algo NAME] [--time-limit SEC]
//            [--out SCHEDULE] [--gantt]
//   dsct_cli info INSTANCE [--tasks]
//   dsct_cli validate INSTANCE SCHEDULE
//   dsct_cli simulate INSTANCE SCHEDULE
//   dsct_cli scenarios [DIR]
//   dsct_cli serve [--scenario FILE] [--policy NAME]
//            [--fallback NAME,NAME,...]
//            [--gpus T4,V100] [--rate R] [--horizon S] [--epoch S]
//            [--budget J] [--seed N] [--backlog] [--load-factor F]
//            [--faults] [--fault-seed N] [--mtbf S] [--mttr S]
//            [--slow-mtbf S] [--slow-mean S] [--slow-factor F]
//            [--shock-prob P] [--shock-factor F] [--max-retries N]
//            [--epoch-time-limit S] [--incidents]
//            [--avail] [--avail-seed N] [--depart-mtbf S] [--depart-mean S]
//            [--battery J] [--battery-init F] [--recharge W]
//            [--no-battery-cap] [--incidents-csv FILE]
//            [--no-lp-warm] [--shards K] [--shard-seed N]
//
// `--algo` and `--policy` accept any name or alias from the solver registry
// (run `dsct_cli solvers` for the list); `--policy` and `--fallback` are
// restricted to solvers with the integral capability.
//
// `serve --scenario FILE` loads a declarative scenario (DESIGN.md §16) and
// materialises fleet and request trace from it; explicit flags override the
// file's values, exactly as they override the generator's defaults without
// a scenario. `--gpus`/`--rate` conflict with a scenario's own machine/task
// classes and are rejected.
// `scenarios` lists every *.dsct file in DIR (default: the repo zoo).
//
// Exit code 0 on success (and, for `validate`, a feasible schedule);
// 1 on usage errors, 2 on infeasibility. A flag the subcommand does not
// read is a usage error.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dsct/dsct.h"
#include "util/csv.h"

namespace {

using namespace dsct;

/// The whole of a numeric flag's value. A partial parse ("2x", or "2.9" for
/// an integer flag), an out-of-range value, NaN or ±inf is a usage error
/// naming the flag.
template <typename T>
T parseNumber(const std::string& key, const std::string& text) {
  try {
    std::size_t used = 0;
    T value{};
    if constexpr (std::is_integral_v<T>) {
      value = std::stoi(text, &used);
    } else {
      value = std::stod(text, &used);
    }
    if (used == text.size() && std::isfinite(static_cast<double>(value))) {
      return value;
    }
  } catch (const std::logic_error&) {
    // std::invalid_argument or std::out_of_range: reported below.
  }
  throw std::invalid_argument("--" + key + " expects a finite " +
                              (std::is_integral_v<T> ? "integer" : "number") +
                              ", got '" + text + "'");
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double getDouble(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : parseNumber<double>(key, it->second);
  }
  int getInt(const std::string& key, int fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : parseNumber<int>(key, it->second);
  }
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "1";  // boolean flag
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  dsct_cli solvers\n"
      "  dsct_cli generate --tasks N --machines M [--rho R] [--beta B]\n"
      "           [--theta-min T] [--theta-max T] [--seed S] --out FILE\n"
      "  dsct_cli solve INSTANCE [--algo NAME] [--time-limit SEC]\n"
      "           [--out SCHEDULE] [--gantt]\n"
      "  dsct_cli info INSTANCE [--tasks]\n"
      "  dsct_cli validate INSTANCE SCHEDULE\n"
      "  dsct_cli simulate INSTANCE SCHEDULE\n"
      "  dsct_cli scenarios [DIR]\n"
      "  dsct_cli serve [--scenario FILE] [--policy NAME]\n"
      "           [--fallback NAME,NAME,...]\n"
      "           [--gpus T4,V100] [--rate R] [--horizon S] [--epoch S]\n"
      "           [--budget J] [--seed N] [--backlog] [--load-factor F]\n"
      "           [--faults] [--fault-seed N] [--mtbf S] [--mttr S]\n"
      "           [--slow-mtbf S] [--slow-mean S] [--slow-factor F]\n"
      "           [--shock-prob P] [--shock-factor F] [--max-retries N]\n"
      "           [--epoch-time-limit S] [--incidents]\n"
      "           [--avail] [--avail-seed N] [--depart-mtbf S]\n"
      "           [--depart-mean S] [--battery J] [--battery-init F]\n"
      "           [--recharge W] [--no-battery-cap] [--incidents-csv FILE]\n"
      "           [--no-lp-warm] [--shards K] [--shard-seed N]\n"
      "\n"
      "NAME is any solver name or alias from `dsct_cli solvers`.\n";
  return 1;
}

/// Comma-separated list → vector of non-empty entries.
std::vector<std::string> splitList(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream stream(list);
  for (std::string item; std::getline(stream, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int cmdSolvers(const Args&) {
  Table table({"name", "aliases", "algorithm", "schedules", "capabilities"});
  for (const Solver* solver : SolverRegistry::instance().solvers()) {
    const SolverCapabilities caps = solver->capabilities();
    std::string aliases;
    for (const std::string& alias :
         SolverRegistry::instance().aliasesOf(solver->name())) {
      if (!aliases.empty()) aliases += ", ";
      aliases += alias;
    }
    std::string schedules;
    if (caps.integral) schedules = "integral";
    if (caps.fractional)
      schedules += schedules.empty() ? "fractional" : "+fractional";
    std::string flags;
    if (caps.exact) flags += "exact ";
    if (caps.availabilityAware) flags += "avail ";
    if (caps.usesLpWarmStart) flags += "lp-warm ";
    if (!caps.deterministic) flags += "nondeterministic ";
    if (!flags.empty()) flags.pop_back();
    table.addRow({solver->name(), aliases.empty() ? "-" : aliases,
                  solver->displayName(), schedules, flags.empty() ? "-" : flags});
  }
  table.print(std::cout);
  return 0;
}

int cmdGenerate(const Args& args) {
  if (!args.has("out")) return usage();
  ScenarioSpec spec;
  spec.numTasks = args.getInt("tasks", 20);
  spec.numMachines = args.getInt("machines", 3);
  spec.rho = args.getDouble("rho", 0.35);
  spec.beta = args.getDouble("beta", 0.5);
  const double thetaMin = args.getDouble("theta-min", 0.1);
  const double thetaMax = args.getDouble("theta-max", 1.0);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const Instance inst = makeScenario(spec, thetaMin, thetaMax, seed);
  io::writeInstanceFile(args.get("out", ""), inst);
  std::cout << "wrote " << args.get("out", "") << ": " << inst.numTasks()
            << " tasks, " << inst.numMachines() << " machines, budget "
            << inst.energyBudget() << " J\n";
  return 0;
}

void printSummary(const Instance& inst, const IntegralSchedule& schedule,
                  const std::string& algo) {
  const ValidationReport report = validate(inst, schedule);
  std::cout << "algorithm      : " << algo << '\n'
            << "total accuracy : " << schedule.totalAccuracy(inst) << '\n'
            << "avg accuracy   : " << schedule.averageAccuracy(inst) << '\n'
            << "energy         : " << schedule.energy(inst) << " / "
            << inst.energyBudget() << " J\n"
            << "scheduled      : " << schedule.numScheduled() << " / "
            << inst.numTasks() << '\n'
            << "validation     : " << report.summary() << '\n';
}

int cmdSolve(const Args& args) {
  if (args.positional.empty()) return usage();
  const Instance inst = io::readInstanceFile(args.positional[0]);
  const std::string algo = args.get("algo", "approx");
  const Solver* solver = SolverRegistry::instance().find(algo);
  if (solver == nullptr) {
    std::cerr << "unknown solver '" << algo
              << "' — run `dsct_cli solvers` for the list\n";
    return usage();
  }
  SolveContext context;
  context.mipTimeLimitSeconds = args.getDouble("time-limit", 60.0);
  context.lpTimeLimitSeconds = args.getDouble("time-limit", -1.0);
  const SolveOutcome outcome = solver->solve(inst, context);
  if (outcome.lpCounters.pivots > 0) {
    std::cout << "lp pivots      : " << outcome.lpCounters.pivots << " ("
              << outcome.lpCounters.phase1Pivots << " phase-1, "
              << outcome.lpCounters.refactorizations << " refactorisations)\n";
  }
  if (!outcome.solved()) {
    std::cout << "status         : no solution within limits\n";
    return 2;
  }
  if (outcome.upperBound > 0.0) {
    std::cout << "upper bound    : " << outcome.upperBound << '\n';
  }
  if (outcome.guaranteeG > 0.0) {
    std::cout << "guarantee G    : " << outcome.guaranteeG << '\n';
  }
  if (!outcome.schedule.has_value()) {
    // Fractional-only solver: report the relaxation objective; there is no
    // integral schedule to validate, render, or persist.
    std::cout << "algorithm      : " << solver->displayName() << '\n'
              << "objective      : " << outcome.totalAccuracy << '\n'
              << "energy         : " << outcome.energy << " / "
              << inst.energyBudget() << " J\n";
    return 0;
  }
  printSummary(inst, *outcome.schedule, solver->name());
  if (args.has("gantt")) {
    std::cout << '\n' << renderGantt(inst, *outcome.schedule);
  }
  if (args.has("out")) {
    io::writeScheduleFile(args.get("out", ""), *outcome.schedule);
    std::cout << "schedule       : written to " << args.get("out", "") << '\n';
  }
  return 0;
}

int cmdInfo(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const Instance inst = io::readInstanceFile(args.positional[0]);
  std::cout << "tasks          : " << inst.numTasks() << '\n'
            << "machines       : " << inst.numMachines() << '\n'
            << "energy budget  : " << inst.energyBudget() << " J\n"
            << "horizon d_max  : " << inst.maxDeadline() << " s\n"
            << "total work     : " << inst.totalFmax() << " TFLOP\n"
            << "cluster speed  : " << inst.totalSpeed() << " TFLOPS\n"
            << "cluster power  : " << inst.totalPower() << " W\n";
  Table machines({"machine", "TFLOPS", "GFLOPS/W", "W"});
  for (const Machine& m : inst.machines()) {
    machines.addRow({m.name, formatFixed(m.speed, 2),
                     formatFixed(m.efficiency * 1e3, 1),
                     formatFixed(m.power(), 0)});
  }
  machines.print(std::cout);
  if (args.has("tasks")) {
    Table tasks({"task", "deadline (s)", "fmax (TFLOP)", "amax", "theta"});
    for (const Task& t : inst.tasks()) {
      tasks.addRow({t.name, formatFixed(t.deadline, 4),
                    formatFixed(t.fmax(), 3), formatFixed(t.amax(), 3),
                    formatFixed(t.accuracy.theta(), 3)});
    }
    tasks.print(std::cout);
  }
  const GuaranteeBreakdown g = approximationGuarantee(inst);
  std::cout << "approx bound G : " << g.g << " (theta range " << g.thetaMin
            << " .. " << g.thetaMax << ")\n";
  return 0;
}

int cmdValidate(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const Instance inst = io::readInstanceFile(args.positional[0]);
  const IntegralSchedule schedule =
      io::readScheduleFile(args.positional[1], inst);
  const ValidationReport report = validate(inst, schedule);
  std::cout << report.summary() << '\n';
  return report.feasible ? 0 : 2;
}

int cmdSimulate(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const Instance inst = io::readInstanceFile(args.positional[0]);
  const IntegralSchedule schedule =
      io::readScheduleFile(args.positional[1], inst);
  const sim::ExecutionResult exec = sim::executeSchedule(inst, schedule);
  std::cout << "total accuracy : " << exec.totalAccuracy << '\n'
            << "energy         : " << exec.totalEnergy << " J\n"
            << "makespan       : " << exec.makespan << " s\n"
            << "deadline misses: " << exec.deadlineMisses << '\n';
  return exec.deadlineMisses == 0 ? 0 : 2;
}

/// List every *.dsct file in a directory: one table row per scenario, parse
/// errors reported inline. Exit 2 if any file fails to parse.
int cmdScenarios(const Args& args) {
  const std::string dir = args.positional.empty()
#ifdef DSCT_SCENARIO_DIR
                              ? DSCT_SCENARIO_DIR
#else
                              ? "scenarios"
#endif
                              : args.positional[0];
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".dsct") files.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "cannot list scenario directory '" << dir << "': "
              << ec.message() << '\n';
    return 1;
  }
  std::sort(files.begin(), files.end());
  Table table({"file", "name", "seed", "machines", "task classes", "horizon",
               "policy"});
  int failures = 0;
  for (const std::filesystem::path& path : files) {
    try {
      const Scenario sc = loadScenarioFile(path.string());
      int machineCount = 0;
      for (const MachineClass& mc : sc.machineClasses) {
        machineCount +=
            mc.count * static_cast<int>(std::max<std::size_t>(
                           mc.gpus.size(), 1));
      }
      std::string classes;
      for (const TaskClass& tc : sc.taskClasses) {
        if (!classes.empty()) classes += ", ";
        classes += tc.name;
      }
      table.addRow({path.filename().string(), sc.name,
                    std::to_string(sc.seed), std::to_string(machineCount),
                    classes, formatFixed(sc.serving.horizonSeconds, 1),
                    sc.serving.policy});
    } catch (const ScenarioError& e) {
      ++failures;
      std::cerr << "parse error: " << e.what() << '\n';
    }
  }
  table.print(std::cout);
  std::cout << files.size() << " scenario(s) in " << dir << '\n';
  return failures == 0 ? 0 : 2;
}

int cmdServe(const Args& args) {
  std::vector<Machine> machines;
  sim::ServingOptions options;
  std::string policy;
  std::string scenarioName;

  if (args.has("scenario")) {
    if (args.has("gpus") || args.has("rate")) {
      std::cerr << "--gpus/--rate conflict with --scenario (the scenario's "
                   "machine and task classes define fleet and load)\n";
      return usage();
    }
    Scenario sc = loadScenarioFile(args.get("scenario", ""));
    // Only the seed and the horizon feed the request trace, so they are
    // applied to the Scenario BEFORE materialisation (a clamped --horizon
    // also shrinks the sampled arrival windows); every other flag overrides
    // the file's value below, like the generator's defaults.
    if (args.has("seed")) {
      sc.seed = static_cast<std::uint64_t>(args.getInt("seed", 0));
    }
    if (args.has("horizon")) {
      sc.serving.horizonSeconds = args.getDouble("horizon", 0.0);
    }
    policy = sc.serving.policy;
    machines = materializeMachines(sc);
    options = makeServingOptions(sc);
    scenarioName = sc.name;
  } else {
    policy = "approx";
    machines = machinesFromCatalog(splitList(args.get("gpus", "T4,V100")));
    options.arrivalRatePerSecond = 18.0;
    options.horizonSeconds = 5.0;
    options.epochSeconds = 0.5;
    options.energyBudgetPerEpoch = 40.0;
    options.seed = 2024;
  }

  // Every flag, in both modes: a flag that is present overrides the value
  // above. See ServingOptions for the semantics of each.
  const auto setDouble = [&](const char* flag, double& field) {
    if (args.has(flag)) field = args.getDouble(flag, field);
  };
  const auto setInt = [&](const char* flag, int& field) {
    if (args.has(flag)) field = args.getInt(flag, field);
  };
  const auto setSeed = [&](const char* flag, std::uint64_t& field) {
    if (args.has(flag)) {
      field = static_cast<std::uint64_t>(args.getInt(flag, 0));
    }
  };
  policy = args.get("policy", policy);
  if (args.has("fallback")) {
    options.fallbackChain = splitList(args.get("fallback", ""));
  }
  setDouble("rate", options.arrivalRatePerSecond);
  setDouble("horizon", options.horizonSeconds);
  setDouble("epoch", options.epochSeconds);
  setDouble("budget", options.energyBudgetPerEpoch);
  setSeed("seed", options.seed);
  if (args.has("backlog")) options.carryBacklog = true;
  setDouble("load-factor", options.admissionLoadFactor);
  // Availability layer: departing/returning machines and battery-budgeted
  // fleets (DESIGN.md §15). Departures and batteries turn it on, as the
  // scenario DSL's `departures:` and `battery:` keys do.
  sim::AvailabilityOptions& avail = options.availability;
  if (args.has("avail") || args.has("depart-mtbf") || args.has("battery")) {
    avail.enabled = true;
  }
  setSeed("avail-seed", avail.seed);
  setDouble("depart-mtbf", avail.departMtbfSeconds);
  setDouble("depart-mean", avail.departMeanSeconds);
  setDouble("battery", avail.batteryCapacityJoules);
  setDouble("battery-init", avail.batteryInitialFraction);
  setDouble("recharge", avail.rechargeWatts);
  if (args.has("no-battery-cap")) avail.capGlobalBudget = false;
  setInt("shards", options.shards);
  setSeed("shard-seed", options.shardSeed);
  sim::FaultOptions& faults = options.faults;
  if (args.has("faults")) faults.enabled = true;
  setSeed("fault-seed", faults.seed);
  setDouble("mtbf", faults.mtbfSeconds);
  setDouble("mttr", faults.mttrSeconds);
  setDouble("slow-mtbf", faults.slowdownMtbfSeconds);
  setDouble("slow-mean", faults.slowdownMeanSeconds);
  setDouble("slow-factor", faults.slowdownFactor);
  setDouble("shock-prob", faults.budgetShockProbability);
  setDouble("shock-factor", faults.budgetShockFactor);
  setInt("max-retries", faults.maxRetries);
  // Per-epoch solve budget (cooperative cancellation).
  setDouble("epoch-time-limit", options.epochTimeLimitSeconds);
  if (args.has("no-lp-warm")) options.lpWarmStarts = false;

  const Solver* primary = SolverRegistry::instance().find(policy);
  if (primary == nullptr || !primary->capabilities().integral) {
    std::cerr << "unknown or non-integral serving policy '" << policy
              << "' — run `dsct_cli solvers` for the list\n";
    return usage();
  }

  const sim::ServingStats s = sim::runServing(machines, policy, options);
  if (!scenarioName.empty()) {
    std::cout << "scenario       : " << scenarioName << " ("
              << args.get("scenario", "") << ")\n";
  }
  std::cout << "policy         : " << primary->displayName() << '\n'
            << "requests       : " << s.requests << " (" << s.served
            << " served over " << s.epochs << " epochs)\n"
            << "mean accuracy  : " << s.meanAccuracy << '\n'
            << "mean latency   : " << s.meanLatency << " s\n"
            << "energy         : " << s.totalEnergy << " J\n"
            << "deadline misses: " << s.deadlineMisses << '\n';
  if (!scenarioName.empty()) {
    std::cout << "miss penalty   : " << s.missPenalty << '\n';
  }
  if (options.faults.enabled || options.admissionLoadFactor > 0.0) {
    std::cout << "interruptions  : " << s.interruptions << " (" << s.retries
              << " retries, " << s.abandoned << " abandoned)\n"
              << "fallbacks      : " << s.fallbacks << " ("
              << s.policyFailures << " policy failures, "
              << s.validatorRejections << " validator rejections)\n"
              << "shed           : " << s.shed << '\n'
              << "shocked epochs : " << s.budgetShockEpochs << " ("
              << s.noMachineEpochs << " with no machine alive)\n";
  }
  if (options.epochTimeLimitSeconds > 0.0) {
    std::cout << "solve timeouts : " << s.policyTimeouts << '\n';
  }
  if (options.availability.enabled) {
    std::cout << "departures     : " << s.machineDepartures
              << " machine-epochs\n"
              << "battery        : " << s.batteryExhaustions
              << " exhaustions, " << s.batteryCappedEpochs
              << " budget-capped epochs\n";
  }
  if (options.shards > 1) {
    std::cout << "sharded epochs : " << s.shardedEpochs << " ("
              << s.shardPriceIterations << " price iterations, "
              << s.shardPriceDivergences << " divergences)\n"
              << "shard top-ups  : " << s.shardTopUpCells << " cells, "
              << s.shardTopUpEnergy << " J\n";
  }
  if (s.lpPivots > 0) {
    std::cout << "lp pivots      : " << s.lpPivots << " ("
              << s.lpRefactorizations << " refactorisations)\n"
              << "lp warm starts : " << s.lpWarmStartsUsed << " used, "
              << s.lpWarmStartsRepaired << " repaired, "
              << s.lpWarmStartsRejected << " rejected\n";
  }
  if (args.has("incidents-csv")) {
    const std::string path = args.get("incidents-csv", "");
    CsvWriter csv(path, {"epoch", "kind", "depth", "payload"});
    for (const sim::EpochIncident& incident : s.incidents) {
      std::ostringstream payload;
      payload.precision(std::numeric_limits<double>::max_digits10);
      payload << incident.value;
      csv.addRow({std::to_string(incident.epoch), toString(incident.kind),
                  std::to_string(incident.depth), payload.str()});
    }
    std::cout << "incident log   : " << s.incidents.size() << " rows to "
              << path << '\n';
  }
  if (args.has("incidents")) {
    for (const sim::EpochIncident& incident : s.incidents) {
      std::cout << "incident       : epoch " << incident.epoch << ' '
                << toString(incident.kind) << " (" << incident.value;
      if (incident.kind == sim::IncidentKind::kPolicyTimeout) {
        std::cout << ", depth " << incident.depth;
      }
      std::cout << ")\n";
    }
  }
  return 0;
}

/// A subcommand and every flag it reads.
struct Command {
  std::string name;
  int (*run)(const Args&);
  std::vector<std::string> flags;
};

const Command kCommands[] = {
    {"solvers", cmdSolvers, {}},
    {"generate", cmdGenerate,
     {"tasks", "machines", "rho", "beta", "theta-min", "theta-max", "seed",
      "out"}},
    {"solve", cmdSolve, {"algo", "time-limit", "out", "gantt"}},
    {"info", cmdInfo, {"tasks"}},
    {"validate", cmdValidate, {}},
    {"simulate", cmdSimulate, {}},
    {"scenarios", cmdScenarios, {}},
    {"serve", cmdServe,
     {"scenario", "policy", "fallback", "gpus", "rate", "horizon", "epoch",
      "budget", "seed", "backlog", "load-factor", "faults", "fault-seed",
      "mtbf", "mttr", "slow-mtbf", "slow-mean", "slow-factor", "shock-prob",
      "shock-factor", "max-retries", "epoch-time-limit", "incidents",
      "avail", "avail-seed", "depart-mtbf", "depart-mean", "battery",
      "battery-init", "recharge", "no-battery-cap", "incidents-csv",
      "no-lp-warm", "shards", "shard-seed"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parseArgs(argc, argv);
  for (const Command& c : kCommands) {
    if (c.name != command) continue;
    for (const auto& [flag, value] : args.options) {
      if (std::find(c.flags.begin(), c.flags.end(), flag) == c.flags.end()) {
        std::cerr << "unknown flag --" << flag << " for `" << c.name << "`\n";
        return usage();
      }
    }
    try {
      return c.run(args);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }
  return usage();
}
