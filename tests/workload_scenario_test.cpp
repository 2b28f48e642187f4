// Parser and materialisation battery for the scenario DSL
// (workload/scenario.h): a negative-path test per malformed construct —
// every diagnostic must name the offending line — a validation regression
// test per field, round-trip determinism pins, and golden equivalence
// between a parsed file and the equivalent programmatic configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "workload/arrivals.h"
#include "workload/gpu_catalog.h"
#include "workload/scenario.h"

namespace dsct {
namespace {

// Minimal valid scaffolding: the parser requires at least one machine class
// and one task class, so malformed-snippet tests splice into this frame.
constexpr const char* kValidText = R"(
scenario {
  name: frame
  seed: 5
}
machine class {
  name: pool
  gpus: T4
}
task class {
  name: web
  arrival: poisson 18
}
serving {
  horizon: 4
  epoch: 0.5
  budget: 40
}
)";

/// Assert that parsing fails with a ScenarioError whose message carries
/// `file:line:` and contains `needle`, and whose line() matches.
void expectError(const std::string& text, int line,
                 const std::string& needle) {
  try {
    parseScenario(text, "test.dsct");
    FAIL() << "expected ScenarioError (" << needle << ") for:\n" << text;
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("test.dsct:" + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(ScenarioParser, ParsesTheFullGrammar) {
  const Scenario sc = parseScenario(R"(
# A comment-only line.
scenario {
  name: everything
  seed: 77
}
machine class {
  name: catalog
  gpus: T4, V100
  count: 2
}
machine class
{
  name: random   # brace on its own line above
  count: 3
  speed: 4 12
  efficiency: 10 40
  seed: 9
}
sla class {
  name: gold
  tightness: 0.6
  miss penalty: 4
}
task class {
  name: web
  arrival: diurnal 4 30 12
  theta: 0.2 3.5
  deadline: 0.4 1.5
  sla: gold
  start: 1
  end: 9
  seed: 11
}
task class {
  name: burst
  arrival: flash-crowd 6 5 4 2
}
serving {
  horizon: 10
  epoch: 0.5
  budget: 45
  policy: edf3
  fallback: edf, approx
  backlog: on
  load factor: 8
  departures: 4 1.5
  battery: 60 20 0.8
  avail seed: 3
}
)");
  EXPECT_EQ(sc.name, "everything");
  EXPECT_EQ(sc.seed, 77u);
  ASSERT_EQ(sc.machineClasses.size(), 2u);
  EXPECT_EQ(sc.machineClasses[0].gpus,
            (std::vector<std::string>{"T4", "V100"}));
  EXPECT_EQ(sc.machineClasses[0].count, 2);
  EXPECT_EQ(sc.machineClasses[1].count, 3);
  EXPECT_DOUBLE_EQ(sc.machineClasses[1].speedLoTflops, 4.0);
  EXPECT_DOUBLE_EQ(sc.machineClasses[1].speedHiTflops, 12.0);
  EXPECT_EQ(sc.machineClasses[1].seed, 9u);
  ASSERT_EQ(sc.slaTiers.size(), 1u);
  EXPECT_DOUBLE_EQ(sc.slaTiers[0].deadlineTightness, 0.6);
  EXPECT_DOUBLE_EQ(sc.slaTiers[0].missPenalty, 4.0);
  ASSERT_EQ(sc.taskClasses.size(), 2u);
  const TaskClass& web = sc.taskClasses[0];
  EXPECT_EQ(web.arrival.kind, ArrivalProcess::Kind::kDiurnal);
  EXPECT_DOUBLE_EQ(web.arrival.rate, 4.0);
  EXPECT_DOUBLE_EQ(web.arrival.peakRate, 30.0);
  EXPECT_DOUBLE_EQ(web.thetaLo, 0.2);
  EXPECT_EQ(web.sla, "gold");
  EXPECT_DOUBLE_EQ(web.startSeconds, 1.0);
  EXPECT_DOUBLE_EQ(web.endSeconds, 9.0);
  EXPECT_EQ(sc.taskClasses[1].arrival.kind,
            ArrivalProcess::Kind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(sc.serving.horizonSeconds, 10.0);
  EXPECT_EQ(sc.serving.policy, "edf3");
  EXPECT_EQ(sc.serving.fallback, (std::vector<std::string>{"edf", "approx"}));
  EXPECT_TRUE(sc.serving.carryBacklog);
  EXPECT_DOUBLE_EQ(sc.serving.admissionLoadFactor, 8.0);
  EXPECT_TRUE(sc.serving.availabilityEnabled);
  EXPECT_DOUBLE_EQ(sc.serving.departMtbfSeconds, 4.0);
  EXPECT_DOUBLE_EQ(sc.serving.batteryCapacityJoules, 60.0);
  EXPECT_DOUBLE_EQ(sc.serving.batteryInitialFraction, 0.8);
  EXPECT_EQ(sc.serving.availSeed, 3u);
}

// --- Negative paths: one test per malformed construct ----------------------

TEST(ScenarioParserErrors, EmptyFile) {
  expectError("", 1, "empty");
  expectError("# only a comment\n\n", 1, "empty");
}

TEST(ScenarioParserErrors, UnknownBlock) {
  expectError("cluster {\n}\n", 1, "unknown block 'cluster'");
}

TEST(ScenarioParserErrors, UnknownKeyInEachBlock) {
  expectError("machine class {\n  bogus: 1\n}\n", 2,
              "unknown key 'bogus' in machine class");
  expectError("task class {\n  name: t\n  bogus: 1\n}\n", 3,
              "unknown key 'bogus' in task class");
  expectError("sla class {\n  name: s\n  bogus: 1\n}\n", 3,
              "unknown key 'bogus' in sla class");
  expectError("serving {\n  bogus: 1\n}\n", 2,
              "unknown key 'bogus' in serving block");
  expectError("scenario {\n  bogus: 1\n}\n", 2,
              "unknown key 'bogus' in scenario block");
}

TEST(ScenarioParserErrors, MissingOpeningBrace) {
  expectError("machine class\n  name: pool\n}\n", 1, "missing its opening");
}

TEST(ScenarioParserErrors, UnclosedBlockNamesTheOpeningLine) {
  expectError("machine class {\n  name: pool\n", 1, "never closed");
}

TEST(ScenarioParserErrors, StrayClosingBrace) {
  expectError("}\n", 1, "unbalanced '}'");
  expectError("machine class {\n  name: p\n  gpus: T4\n}\n}\n", 5,
              "unbalanced '}'");
}

TEST(ScenarioParserErrors, NestedBrace) {
  expectError("machine class {\n{\n}\n}\n", 2, "unexpected '{'");
}

TEST(ScenarioParserErrors, MissingColon) {
  expectError("machine class {\n  name pool\n}\n", 2, "expected 'key: value'");
}

TEST(ScenarioParserErrors, EmptyValue) {
  expectError("machine class {\n  name:\n}\n", 2, "empty value for 'name'");
}

TEST(ScenarioParserErrors, NonNumericValue) {
  expectError("task class {\n  name: t\n  arrival: poisson fast\n}\n", 3,
              "non-numeric value 'fast'");
  expectError("machine class {\n  name: p\n  count: two\n}\n", 3,
              "non-numeric value 'two' for 'count'");
  expectError("serving {\n  horizon: 4x\n}\n", 2, "non-numeric value '4x'");
  expectError("scenario {\n  seed: -3\n}\n", 2, "non-negative integer");
}

TEST(ScenarioParserErrors, DuplicateNamesPointAtBothLines) {
  expectError(
      "machine class {\n  name: pool\n  gpus: T4\n}\nmachine class {\n"
      "  name: pool\n  gpus: T4\n}\n",
      5, "duplicate machine class name 'pool' (first declared at line 1)");
  expectError(
      "task class {\n  name: web\n}\ntask class {\n  name: web\n}\n", 4,
      "duplicate task class name 'web' (first declared at line 1)");
  expectError(
      "sla class {\n  name: gold\n}\nsla class {\n  name: gold\n}\n", 4,
      "duplicate sla class name 'gold' (first declared at line 1)");
  expectError("serving {\n}\nserving {\n}\n", 3,
              "duplicate serving block (first declared at line 1)");
  expectError("scenario {\n}\nscenario {\n}\n", 3,
              "duplicate scenario block (first declared at line 1)");
}

TEST(ScenarioParserErrors, UnknownGpu) {
  expectError("machine class {\n  name: p\n  gpus: T4, H9000\n}\n", 3,
              "unknown GPU 'H9000'");
}

TEST(ScenarioParserErrors, GpusMixedWithRandomRanges) {
  expectError("machine class {\n  name: p\n  gpus: T4\n  speed: 4 12\n}\n",
              1, "mixes 'gpus' with 'speed'/'efficiency'");
}

TEST(ScenarioParserErrors, MissingClassName) {
  expectError("machine class {\n  gpus: T4\n}\n", 1,
              "machine class needs a 'name'");
  expectError("task class {\n  arrival: poisson 2\n}\n", 1,
              "task class needs a 'name'");
  expectError("sla class {\n  tightness: 0.5\n}\n", 1,
              "sla class needs a 'name'");
}

TEST(ScenarioParserErrors, UnknownArrivalProcess) {
  expectError("task class {\n  name: t\n  arrival: weibull 3\n}\n", 3,
              "unknown arrival process 'weibull'");
}

TEST(ScenarioParserErrors, ArrivalArityMismatch) {
  expectError("task class {\n  name: t\n  arrival: poisson 2 3\n}\n", 3,
              "'poisson' arrival takes 1 argument (rate), got 2");
  expectError("task class {\n  name: t\n  arrival: mmpp 2 3\n}\n", 3,
              "'mmpp' arrival takes 4 arguments");
}

TEST(ScenarioParserErrors, UnknownSlaReference) {
  expectError(
      "machine class {\n  name: p\n  gpus: T4\n}\n"
      "task class {\n  name: web\n  arrival: poisson 2\n  sla: gold\n}\n",
      5, "references unknown sla class 'gold'");
}

TEST(ScenarioParserErrors, MissingMachineOrTaskClass) {
  expectError("task class {\n  name: t\n}\n", 1,
              "declares no machine class");
  expectError("machine class {\n  name: p\n  gpus: T4\n}\n", 1,
              "declares no task class");
}

TEST(ScenarioParserErrors, EndBeforeStart) {
  expectError(
      "task class {\n  name: t\n  start: 5\n  end: 2\n}\n", 4,
      "end <= start");
}

// --- Field validation: one regression test per field ------------------------

TEST(ScenarioFieldValidation, PoissonRateMustBePositive) {
  expectError("task class {\n  name: t\n  arrival: poisson 0\n}\n", 3,
              "rate must be positive");
  expectError("task class {\n  name: t\n  arrival: poisson -2\n}\n", 3,
              "rate must be positive");
}

TEST(ScenarioFieldValidation, DiurnalRates) {
  expectError("task class {\n  name: t\n  arrival: diurnal 10 4 12\n}\n", 3,
              "peak rate must be positive and >= the base rate");
  expectError("task class {\n  name: t\n  arrival: diurnal 4 10 0\n}\n", 3,
              "period must be positive");
}

TEST(ScenarioFieldValidation, MmppRatesAndDwells) {
  expectError("task class {\n  name: t\n  arrival: mmpp 0 4 1 1\n}\n", 3,
              "low rate must be positive");
  expectError("task class {\n  name: t\n  arrival: mmpp 5 4 1 1\n}\n", 3,
              "high rate must be >= the low rate");
  expectError("task class {\n  name: t\n  arrival: mmpp 2 4 0 1\n}\n", 3,
              "dwell times must be positive");
}

TEST(ScenarioFieldValidation, FlashCrowdFields) {
  expectError("task class {\n  name: t\n  arrival: flash-crowd 0 5 4 2\n}\n",
              3, "base rate must be positive");
  expectError(
      "task class {\n  name: t\n  arrival: flash-crowd 6 0.5 4 2\n}\n", 3,
      "burst factor must be >= 1");
  expectError(
      "task class {\n  name: t\n  arrival: flash-crowd 6 5 -1 2\n}\n", 3,
      "burst start must be non-negative");
  expectError("task class {\n  name: t\n  arrival: flash-crowd 6 5 4 0\n}\n",
              3, "decay must be positive");
}

TEST(ScenarioFieldValidation, SlaTightnessMustBePositive) {
  expectError("sla class {\n  name: s\n  tightness: 0\n}\n", 3,
              "'tightness' must be positive");
}

TEST(ScenarioFieldValidation, SlaPenaltyMustBeNonNegative) {
  expectError("sla class {\n  name: s\n  miss penalty: -1\n}\n", 3,
              "'miss penalty' must be non-negative");
}

TEST(ScenarioFieldValidation, ThetaAndDeadlineRanges) {
  expectError("task class {\n  name: t\n  theta: 0 2\n}\n", 3,
              "'theta' must be positive");
  expectError("task class {\n  name: t\n  theta: 3 2\n}\n", 3,
              "range is descending");
  expectError("task class {\n  name: t\n  deadline: -0.5\n}\n", 3,
              "'deadline' must be positive");
}

TEST(ScenarioFieldValidation, CountMustBePositiveInteger) {
  expectError("machine class {\n  name: p\n  count: 0\n}\n", 3,
              "positive integer");
  expectError("machine class {\n  name: p\n  count: 2.5\n}\n", 3,
              "positive integer");
}

TEST(ScenarioFieldValidation, ServingFields) {
  expectError("serving {\n  horizon: 0\n}\n", 2, "'horizon' must be positive");
  expectError("serving {\n  epoch: -1\n}\n", 2, "'epoch' must be positive");
  expectError("serving {\n  budget: -5\n}\n", 2,
              "'budget' must be non-negative");
  expectError("serving {\n  load factor: -1\n}\n", 2,
              "'load factor' must be non-negative");
  expectError("serving {\n  backlog: maybe\n}\n", 2, "must be on/off");
}

TEST(ScenarioFieldValidation, AvailabilityFields) {
  expectError("serving {\n  departures: 4\n}\n", 2,
              "'departures' takes 2 numbers");
  expectError("serving {\n  departures: -1 1\n}\n", 2,
              "mtbf must be non-negative");
  expectError("serving {\n  departures: 4 0\n}\n", 2,
              "mean absence must be positive");
  expectError("serving {\n  battery: 60\n}\n", 2, "'battery' takes");
  expectError("serving {\n  battery: -1 10\n}\n", 2,
              "capacity must be non-negative");
  expectError("serving {\n  battery: 60 10 1.5\n}\n", 2,
              "initial fraction must be in [0, 1]");
}

// --- Round-trip determinism -------------------------------------------------

TEST(ScenarioDeterminism, ParseTwiceIsIdentical) {
  const Scenario a = parseScenario(kValidText);
  const Scenario b = parseScenario(kValidText);
  EXPECT_EQ(a, b);
}

TEST(ScenarioDeterminism, MaterialiseTwiceIsBitIdentical) {
  const Scenario sc = parseScenario(kValidText);
  const std::vector<sim::RequestSpec> ra = materializeRequests(sc);
  const std::vector<sim::RequestSpec> rb = materializeRequests(sc);
  ASSERT_FALSE(ra.empty());
  EXPECT_EQ(ra, rb);  // exact double equality — bit-identical replay

  const std::vector<Machine> ma = materializeMachines(sc);
  const std::vector<Machine> mb = materializeMachines(sc);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].name, mb[i].name);
    EXPECT_EQ(ma[i].speed, mb[i].speed);
    EXPECT_EQ(ma[i].efficiency, mb[i].efficiency);
  }
}

TEST(ScenarioDeterminism, MasterSeedChangesTheTrace) {
  Scenario sc = parseScenario(kValidText);
  const std::vector<sim::RequestSpec> ra = materializeRequests(sc);
  sc.seed = 999;
  const std::vector<sim::RequestSpec> rb = materializeRequests(sc);
  EXPECT_NE(ra, rb);
}

TEST(ScenarioDeterminism, ExplicitClassSeedPinsTheClassStream) {
  // With an explicit per-class seed, changing the master seed must NOT move
  // that class's draws.
  const char* text =
      "machine class {\n  name: p\n  gpus: T4\n}\n"
      "task class {\n  name: t\n  arrival: poisson 18\n  seed: 11\n}\n"
      "serving {\n  horizon: 4\n}\n";
  Scenario sc = parseScenario(text);
  const std::vector<sim::RequestSpec> ra = materializeRequests(sc);
  sc.seed = 999;
  EXPECT_EQ(ra, materializeRequests(sc));
}

// --- Golden equivalence: parsed file vs programmatic configuration ----------

TEST(ScenarioGolden, ParsedFileMatchesProgrammaticScenario) {
  const char* text = R"(
scenario {
  name: golden
  seed: 21
}
machine class {
  name: pool
  gpus: T4, V100
  count: 2
}
sla class {
  name: gold
  tightness: 0.6
  miss penalty: 4
}
task class {
  name: web
  arrival: poisson 18
  theta: 0.2 3.5
  deadline: 0.4 1.5
  sla: gold
}
serving {
  horizon: 6
  epoch: 0.5
  budget: 40
  policy: edf3
}
)";
  // The same scenario assembled in code, field by field.
  Scenario prog;
  prog.name = "golden";
  prog.seed = 21;
  MachineClass mc;
  mc.name = "pool";
  mc.gpus = {"T4", "V100"};
  mc.count = 2;
  mc.line = 6;  // header lines differ only in provenance
  prog.machineClasses.push_back(mc);
  SlaTier gold;
  gold.name = "gold";
  gold.deadlineTightness = 0.6;
  gold.missPenalty = 4.0;
  gold.line = 11;
  prog.slaTiers.push_back(gold);
  TaskClass tc;
  tc.name = "web";
  tc.arrival.kind = ArrivalProcess::Kind::kPoisson;
  tc.arrival.rate = 18.0;
  tc.thetaLo = 0.2;
  tc.thetaHi = 3.5;
  tc.relDeadlineLo = 0.4;
  tc.relDeadlineHi = 1.5;
  tc.sla = "gold";
  tc.line = 16;
  prog.taskClasses.push_back(tc);
  prog.serving.horizonSeconds = 6.0;
  prog.serving.epochSeconds = 0.5;
  prog.serving.energyBudgetPerEpoch = 40.0;
  prog.serving.policy = "edf3";
  prog.serving.line = 23;

  const Scenario parsed = parseScenario(text);
  EXPECT_EQ(parsed, prog);

  // Materialisation of both must be bit-identical.
  EXPECT_EQ(materializeRequests(parsed), materializeRequests(prog));
}

TEST(ScenarioGolden, TraceMatchesHandRolledSampler) {
  // Replicate materializeRequests by hand for a single poisson class with an
  // explicit seed: arrivals first (one contiguous draw chain), then
  // deadline×tightness and θ per request.
  const char* text =
      "machine class {\n  name: p\n  gpus: T4\n}\n"
      "sla class {\n  name: gold\n  tightness: 0.6\n  miss penalty: 4\n}\n"
      "task class {\n  name: t\n  arrival: poisson 18\n  theta: 0.2 3.5\n"
      "  deadline: 0.4 1.5\n  sla: gold\n  seed: 11\n}\n"
      "serving {\n  horizon: 6\n}\n";
  const Scenario sc = parseScenario(text);
  const std::vector<sim::RequestSpec> got = materializeRequests(sc);

  Rng rng(11);
  const std::vector<double> times =
      ArrivalProcess::poisson(18.0).sample(6.0, rng);
  ASSERT_EQ(got.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(got[i].arrival, times[i]);
    EXPECT_EQ(got[i].relDeadline, rng.uniform(0.4, 1.5) * 0.6);
    EXPECT_EQ(got[i].theta, rng.uniform(0.2, 3.5));
    EXPECT_EQ(got[i].missPenalty, 4.0);
  }
}

// --- Materialisation surface -------------------------------------------------

TEST(ScenarioMaterialise, CatalogClassExpandsCountTimesGpus) {
  const Scenario sc = parseScenario(
      "machine class {\n  name: pool\n  gpus: T4, V100\n  count: 3\n}\n"
      "task class {\n  name: t\n  arrival: poisson 5\n}\n");
  const std::vector<Machine> machines = materializeMachines(sc);
  ASSERT_EQ(machines.size(), 6u);
  EXPECT_EQ(machines[0].name, "pool-T4-0");
  EXPECT_EQ(machines[1].name, "pool-V100-0");
  EXPECT_EQ(machines[0].speed, gpuByName("T4").toMachine().speed);
}

TEST(ScenarioMaterialise, RandomClassDrawsWithinRanges) {
  const Scenario sc = parseScenario(
      "machine class {\n  name: r\n  count: 20\n  speed: 4 12\n"
      "  efficiency: 10 40\n  seed: 3\n}\n"
      "task class {\n  name: t\n  arrival: poisson 5\n}\n");
  const std::vector<Machine> machines = materializeMachines(sc);
  ASSERT_EQ(machines.size(), 20u);
  for (const Machine& m : machines) {
    EXPECT_GE(m.speed, 4.0);
    EXPECT_LE(m.speed, 12.0);
    // efficiency is stored in TFLOP/J = GFLOPS/W × 1e-3
    EXPECT_GE(m.efficiency, 10.0 * 1e-3);
    EXPECT_LE(m.efficiency, 40.0 * 1e-3);
  }
}

TEST(ScenarioMaterialise, RequestsAreSortedAndWindowed) {
  const Scenario sc = parseScenario(
      "machine class {\n  name: p\n  gpus: T4\n}\n"
      "task class {\n  name: a\n  arrival: poisson 10\n  start: 2\n"
      "  end: 4\n}\n"
      "task class {\n  name: b\n  arrival: poisson 10\n}\n"
      "serving {\n  horizon: 6\n}\n");
  const std::vector<sim::RequestSpec> reqs = materializeRequests(sc);
  ASSERT_FALSE(reqs.empty());
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_LE(reqs[i - 1].arrival, reqs[i].arrival);
  }
  for (const sim::RequestSpec& r : reqs) {
    EXPECT_GE(r.arrival, 0.0);
    EXPECT_LT(r.arrival, 6.0);
  }
}

TEST(ScenarioMaterialise, ServingOptionsCarryTheBlock) {
  const Scenario sc = parseScenario(
      "machine class {\n  name: p\n  gpus: T4\n}\n"
      "task class {\n  name: t\n  arrival: poisson 18\n}\n"
      "serving {\n  horizon: 4\n  epoch: 0.25\n  budget: 33\n"
      "  backlog: on\n  load factor: 7\n  fallback: edf\n"
      "  departures: 4 1.5\n  battery: 60 20 0.8\n  avail seed: 9\n}\n");
  const sim::ServingOptions o = makeServingOptions(sc);
  EXPECT_DOUBLE_EQ(o.horizonSeconds, 4.0);
  EXPECT_DOUBLE_EQ(o.epochSeconds, 0.25);
  EXPECT_DOUBLE_EQ(o.energyBudgetPerEpoch, 33.0);
  EXPECT_TRUE(o.carryBacklog);
  EXPECT_DOUBLE_EQ(o.admissionLoadFactor, 7.0);
  EXPECT_EQ(o.fallbackChain, std::vector<std::string>{"edf"});
  EXPECT_FALSE(o.requestTrace.empty());
  EXPECT_TRUE(o.availability.enabled);
  EXPECT_DOUBLE_EQ(o.availability.departMtbfSeconds, 4.0);
  EXPECT_DOUBLE_EQ(o.availability.departMeanSeconds, 1.5);
  EXPECT_DOUBLE_EQ(o.availability.batteryCapacityJoules, 60.0);
  EXPECT_DOUBLE_EQ(o.availability.batteryInitialFraction, 0.8);
  EXPECT_DOUBLE_EQ(o.availability.rechargeWatts, 20.0);
  EXPECT_EQ(o.availability.seed, 9u);
}

TEST(ScenarioMaterialise, EmptyTraceIsRejectedLoudly) {
  // Rates are valid but the arrival window is empty of draws in expectation:
  // a 1e-6 s horizon with rate 1 almost surely materialises nothing, and the
  // driver would silently substitute its internal Poisson stream.
  const Scenario sc = parseScenario(
      "machine class {\n  name: p\n  gpus: T4\n}\n"
      "task class {\n  name: t\n  arrival: poisson 1\n}\n"
      "serving {\n  horizon: 0.000001\n}\n");
  EXPECT_THROW(makeServingOptions(sc), CheckError);
}

TEST(ScenarioMaterialise, InstanceSnapshotsTheWholeRun) {
  const Scenario sc = parseScenario(
      "machine class {\n  name: p\n  gpus: T4, V100\n}\n"
      "sla class {\n  name: gold\n  tightness: 0.6\n}\n"
      "task class {\n  name: t\n  arrival: poisson 18\n  sla: gold\n}\n"
      "serving {\n  horizon: 4\n  epoch: 0.5\n  budget: 30\n}\n");
  const Instance inst = materializeInstance(sc);
  const std::vector<sim::RequestSpec> reqs = materializeRequests(sc);
  EXPECT_EQ(static_cast<std::size_t>(inst.numTasks()), reqs.size());
  EXPECT_EQ(inst.numMachines(), 2);
  // budget = per-epoch budget × ceil(horizon / epoch) = 30 × 8
  EXPECT_DOUBLE_EQ(inst.energyBudget(), 240.0);
  // Instance sorts tasks by deadline.
  for (int i = 1; i < inst.numTasks(); ++i) {
    EXPECT_LE(inst.tasks()[i - 1].deadline, inst.tasks()[i].deadline);
  }
}

TEST(ScenarioMaterialise, FindSlaResolvesOrReturnsNull) {
  const Scenario sc = parseScenario(
      "machine class {\n  name: p\n  gpus: T4\n}\n"
      "sla class {\n  name: gold\n  tightness: 0.5\n}\n"
      "task class {\n  name: t\n  arrival: poisson 5\n  sla: gold\n}\n");
  ASSERT_NE(sc.findSla("gold"), nullptr);
  EXPECT_DOUBLE_EQ(sc.findSla("gold")->deadlineTightness, 0.5);
  EXPECT_EQ(sc.findSla("silver"), nullptr);
  EXPECT_EQ(sc.findSla(""), nullptr);
}

TEST(ScenarioLoadFile, MissingFileNamesThePath) {
  try {
    loadScenarioFile("/nonexistent/nowhere.dsct");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/nowhere.dsct"),
              std::string::npos);
  }
}

// --- New arrival processes (workload/arrivals.h) -----------------------------

TEST(ArrivalProcesses, MmppIsDeterministicAndWithinHorizon) {
  const ArrivalProcess p = ArrivalProcess::mmpp(2.0, 40.0, 2.0, 1.0);
  EXPECT_EQ(p.kind(), ArrivalProcess::Kind::kMmpp);
  Rng r1(7), r2(7);
  const std::vector<double> a = p.sample(50.0, r1);
  EXPECT_EQ(a, p.sample(50.0, r2));
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 0.0);
    EXPECT_LT(a[i], 50.0);
    if (i > 0) {
      EXPECT_GE(a[i], a[i - 1]);
    }
  }
  // Stationary mean rate (2·2 + 40·1) / 3 = 44/3 ≈ 14.67; the empirical
  // rate over a long horizon should land in the same ballpark.
  EXPECT_NEAR(p.rateAt(0.0), 44.0 / 3.0, 1e-12);
  Rng r3(11);
  const double n = static_cast<double>(p.sample(400.0, r3).size());
  EXPECT_NEAR(n / 400.0, 44.0 / 3.0, 4.0);
}

TEST(ArrivalProcesses, FlashCrowdSpikesAfterStart) {
  const ArrivalProcess p = ArrivalProcess::flashCrowd(5.0, 8.0, 10.0, 3.0);
  EXPECT_EQ(p.kind(), ArrivalProcess::Kind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(p.rateAt(0.0), 5.0);   // before the burst
  EXPECT_DOUBLE_EQ(p.rateAt(10.0), 40.0); // at the spike
  EXPECT_GT(p.rateAt(11.0), 5.0);
  EXPECT_LT(p.rateAt(11.0), 40.0);
  Rng rng(5);
  const std::vector<double> a = p.sample(20.0, rng);
  int before = 0, after = 0;
  for (const double t : a) (t < 10.0 ? before : after)++;
  // Equal-length windows; the burst side must dominate clearly.
  EXPECT_GT(after, before);
}

TEST(ArrivalProcesses, FactoriesValidateLoudly) {
  EXPECT_THROW(ArrivalProcess::mmpp(0.0, 4.0, 1.0, 1.0), CheckError);
  EXPECT_THROW(ArrivalProcess::mmpp(5.0, 4.0, 1.0, 1.0), CheckError);
  EXPECT_THROW(ArrivalProcess::mmpp(2.0, 4.0, 0.0, 1.0), CheckError);
  EXPECT_THROW(ArrivalProcess::flashCrowd(0.0, 2.0, 1.0, 1.0), CheckError);
  EXPECT_THROW(ArrivalProcess::flashCrowd(5.0, 0.5, 1.0, 1.0), CheckError);
  EXPECT_THROW(ArrivalProcess::flashCrowd(5.0, 2.0, -1.0, 1.0), CheckError);
  EXPECT_THROW(ArrivalProcess::flashCrowd(5.0, 2.0, 1.0, 0.0), CheckError);
}

}  // namespace
}  // namespace dsct
