// Benchmark runner: sets up one workload, runs measured passes of it for a
// wall-clock budget, checks every pass's outputs, and prints the metrics as
// one JSON line. perfbench/README.md describes the workloads and metrics;
// perfbench/run.py builds this program and runs it.
//
//   perfbench_runner --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace-out FILE] [--repo DIR]
//   perfbench_runner --list-metrics
//
// The last line of standard output is
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {NAME: {"value": V, "unit": U}, ...}}
// The exit code is 1 when an output check failed, 2 on bad arguments and 3
// when the workload could not be set up (then no result line is printed).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Set-up repeats at least kMinSetups times and until kSetupSeconds have
// passed, at most kMaxSetups times: one set-up of the small workloads lasts
// milliseconds, too short to time once.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMaxReportedFailures = 20;

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
  std::string repo = ".";
  bool listMetrics = false;
};

std::optional<Args> parseArgs(int argc, char** argv, std::string& error) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args.listMetrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return std::nullopt;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!std::isfinite(args.seconds) || args.seconds <= 0.0) {
          throw std::invalid_argument(value);
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.traceOut = value;
      } else if (flag == "--repo") {
        args.repo = value;
      } else {
        error = "unknown flag " + flag;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      error = "bad value '" + value + "' for " + flag;
      return std::nullopt;
    }
  }
  if (!args.listMetrics && args.workload.empty()) {
    error = "--workload is required";
    return std::nullopt;
  }
  return args;
}

int usage(const std::string& error) {
  std::cerr << "perfbench_runner: " << error << "\n"
            << "usage: perfbench_runner --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] [--repo DIR]\n"
            << "       perfbench_runner --list-metrics\n"
            << "workloads:";
  for (const std::string& name : workloadNames()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

dsct::Json metricList(const std::vector<MetricDef>& defs) {
  dsct::Json list = dsct::Json::array();
  for (const MetricDef& def : defs) {
    dsct::Json entry = dsct::Json::object();
    entry.set("name", def.name);
    entry.set("unit", def.unit);
    entry.set("better", def.better);
    list.push(std::move(entry));
  }
  return list;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// The last set-up round and the last traced pass as trace spans. The cell
/// solves of one sharded epoch point to a span covering all of them.
std::vector<Span> traceSpans(const RunData& run) {
  std::vector<Span> spans;
  const int thread = threadNumber();
  const SetupTimes& setup = run.setups.back();
  if (setup.parse.seconds() > 0.0) {
    spans.push_back({"workload.parse", "workload", setup.parse, -1, -1,
                     thread});
  }
  spans.push_back({"workload.materialize", "workload", setup.materialize, -1,
                   -1, thread});
  const PassResult& pass = run.traced.back();
  spans.insert(spans.end(), pass.spans.begin(), pass.spans.end());
  std::map<long long, Interval> epochs;
  for (const SolveRecord& solve : pass.solves) {
    spans.push_back({solve.solver, "core", solve.time, solve.epoch,
                     pass.sharded ? solve.epoch : -1, solve.thread});
    if (!pass.sharded) continue;
    const auto [it, fresh] = epochs.try_emplace(solve.epoch, solve.time);
    if (!fresh) {
      it->second.start = std::min(it->second.start, solve.time.start);
      it->second.end = std::max(it->second.end, solve.time.end);
    }
  }
  for (const auto& [epoch, window] : epochs) {
    spans.push_back({"shard.epoch_cells", "shard", window, epoch, -1, thread});
  }
  return spans;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Args> parsed = parseArgs(argc, argv, error);
  if (!parsed) return usage(error);
  const Args& args = *parsed;
  if (args.listMetrics) {
    dsct::Json list = dsct::Json::object();
    list.set("end_to_end", metricList(endToEndMetrics()));
    list.set("per_layer", metricList(perLayerMetrics()));
    std::cout << list.dump(2) << '\n';
    return 0;
  }
  const std::unique_ptr<Workload> workload =
      makeWorkload(args.workload, args.repo);
  if (workload == nullptr) {
    return usage("unknown workload '" + args.workload + "'");
  }
  const std::uint64_t seed = args.seed.value_or(workload->defaultSeed());

  RunData run;
  try {
    const double setupStart = nowSeconds();
    while (run.setups.size() < kMinSetups ||
           (run.setups.size() < kMaxSetups &&
            nowSeconds() - setupStart < kSetupSeconds)) {
      run.setups.push_back(workload->setup(seed));
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: set-up failed: " << e.what() << '\n';
    return 3;
  }

  // Passes repeat until the next one would overrun --seconds. A traced run
  // alternates untraced and traced passes, so the tracing overhead compares
  // passes made under the same machine load.
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  const double phaseStart = nowSeconds();
  for (;;) {
    const bool traced = args.trace && run.traced.size() < run.untraced.size();
    const double passStart = nowSeconds();
    const long long requests = workload->requestsPerPass();
    attempted += requests;
    PassResult pass;
    try {
      pass = workload->run(traced);
    } catch (const std::exception& e) {
      failed += requests;
      failures.push_back(std::string("a pass threw: ") + e.what());
      break;
    }
    // The workloads are deterministic, and tracing must not change results:
    // every pass reproduces the first pass's outputs exactly.
    if (!run.untraced.empty()) {
      for (const std::string& field : diffOutputs(run.untraced.front(), pass)) {
        pass.failures.push_back("output differs from the first pass: " +
                                field);
      }
    }
    if (!pass.failures.empty()) {
      failed += requests;
      failures.insert(failures.end(), pass.failures.begin(),
                      pass.failures.end());
    }
    (traced ? run.traced : run.untraced).push_back(std::move(pass));
    const double now = nowSeconds();
    const bool balanced =
        !args.trace || run.traced.size() == run.untraced.size();
    if (balanced && (now - phaseStart) + (now - passStart) > args.seconds) {
      break;
    }
  }
  run.peakRssMb = peakRssMb();

  for (std::size_t i = 0; i < failures.size() && i < kMaxReportedFailures;
       ++i) {
    std::cout << "check failed: " << failures[i] << '\n';
  }
  const bool measured =
      !run.untraced.empty() && (!args.trace || !run.traced.empty());
  dsct::Json metrics = dsct::Json::object();
  if (measured) {
    const std::vector<MetricDef>& defs =
        args.trace ? perLayerMetrics() : endToEndMetrics();
    const std::vector<double> values =
        args.trace ? perLayerValues(run) : endToEndValues(run);
    std::cout << args.workload << " seed " << seed << ": "
              << run.untraced.size() << " untraced and " << run.traced.size()
              << " traced passes; untraced pass seconds:";
    for (const PassResult& pass : run.untraced) {
      std::cout << ' ' << pass.run.seconds();
    }
    std::cout << '\n';
    for (std::size_t i = 0; i < defs.size(); ++i) {
      std::cout << "  " << defs[i].name << " = " << values[i] << ' '
                << defs[i].unit << '\n';
      dsct::Json metric = dsct::Json::object();
      metric.set("value", values[i]);
      metric.set("unit", defs[i].unit);
      metrics.set(defs[i].name, std::move(metric));
    }
    if (args.trace) {
      const PassResult& last = run.traced.back();
      std::cout << "  core.solve_tail_s is p"
                << tailPercentile(last.solves.size()) << " of "
                << last.solves.size() << " solves\n";
      if (!args.traceOut.empty()) {
        if (writeChromeTrace(args.traceOut, traceSpans(run))) {
          std::cout << "  trace: " << args.traceOut << '\n';
        } else {
          std::cerr << "perfbench_runner: cannot write " << args.traceOut
                    << '\n';
        }
      }
    }
  }
  const bool correct = failures.empty() && measured;
  dsct::Json result = dsct::Json::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump(0) << std::endl;
  return correct ? 0 : 1;
}
