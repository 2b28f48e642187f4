#include "workload/scenario.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "accuracy/fit.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/gpu_catalog.h"

namespace dsct {

namespace {

// --- Lexical helpers --------------------------------------------------------

std::string trim(std::string s) {
  const auto notSpace = [](unsigned char c) { return std::isspace(c) == 0; };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), notSpace));
  s.erase(std::find_if(s.rbegin(), s.rend(), notSpace).base(), s.end());
  return s;
}

/// Cut the `#` comment and trim.
std::string stripLine(const std::string& line) {
  const auto hash = line.find('#');
  return trim(hash == std::string::npos ? line : line.substr(0, hash));
}

/// Lowercase and collapse internal whitespace runs — keys and block headers
/// are matched in this normal form ("Miss  Penalty" == "miss penalty").
std::string normalizeKey(const std::string& raw) {
  std::string out;
  bool pendingSpace = false;
  for (const char c : trim(raw)) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      pendingSpace = !out.empty();
      continue;
    }
    if (pendingSpace) out += ' ';
    pendingSpace = false;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::vector<std::string> splitWs(const std::string& value) {
  std::vector<std::string> out;
  std::istringstream stream(value);
  for (std::string tok; stream >> tok;) out.push_back(tok);
  return out;
}

std::vector<std::string> splitCommaList(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream stream(value);
  for (std::string item; std::getline(stream, item, ',');) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One `key: value` body line with its source position.
struct KeyLine {
  std::string key;    ///< normalized
  std::string value;  ///< trimmed, original case
  int line = 0;
};

// --- The parser -------------------------------------------------------------

class Parser {
 public:
  Parser(std::string_view text, const std::string& filename)
      : file_(filename) {
    std::string line;
    std::istringstream stream{std::string(text)};
    while (std::getline(stream, line)) lines_.push_back(line);
  }

  Scenario parse() {
    Scenario sc;
    sc.sourceFile = file_;
    bool sawAnyBlock = false;
    std::size_t i = 0;
    while (i < lines_.size()) {
      const int headerLine = static_cast<int>(i) + 1;
      std::string text = stripLine(lines_[i]);
      if (text.empty()) {
        ++i;
        continue;
      }
      if (text == "}") {
        fail(headerLine, "unbalanced '}' — no block is open here");
      }
      bool braceOnHeader = false;
      if (text.back() == '{') {
        braceOnHeader = true;
        text = trim(text.substr(0, text.size() - 1));
      }
      const std::string header = normalizeKey(text);
      if (header != "scenario" && header != "machine class" &&
          header != "task class" && header != "sla class" &&
          header != "serving") {
        fail(headerLine,
             "unknown block '" + text +
                 "' — expected 'machine class', 'task class', 'sla class', "
                 "'serving', or 'scenario'");
      }
      ++i;
      if (!braceOnHeader) {
        while (i < lines_.size() && stripLine(lines_[i]).empty()) ++i;
        if (i >= lines_.size() || stripLine(lines_[i]) != "{") {
          fail(headerLine,
               "block '" + header + "' is missing its opening '{'");
        }
        ++i;
      }
      const std::vector<KeyLine> body = readBody(i, header, headerLine);
      dispatchBlock(sc, header, headerLine, body);
      sawAnyBlock = true;
    }
    if (!sawAnyBlock) {
      fail(1, "scenario file is empty — expected at least one block");
    }
    finalize(sc);
    return sc;
  }

 private:
  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw ScenarioError(file_, line, msg);
  }

  /// Read `key: value` lines until the closing '}'; advances `i` past it.
  std::vector<KeyLine> readBody(std::size_t& i, const std::string& header,
                                int headerLine) {
    std::vector<KeyLine> body;
    while (i < lines_.size()) {
      const int bodyLine = static_cast<int>(i) + 1;
      const std::string text = stripLine(lines_[i]);
      ++i;
      if (text.empty()) continue;
      if (text == "}") return body;
      if (text == "{") {
        fail(bodyLine, "unexpected '{' inside block '" + header + "'");
      }
      const auto colon = text.find(':');
      if (colon == std::string::npos) {
        fail(bodyLine, "expected 'key: value' inside '" + header +
                           "', got '" + text + "'");
      }
      KeyLine kl;
      kl.key = normalizeKey(text.substr(0, colon));
      kl.value = trim(text.substr(colon + 1));
      kl.line = bodyLine;
      if (kl.key.empty()) fail(bodyLine, "empty key before ':'");
      if (kl.value.empty()) {
        fail(bodyLine, "empty value for '" + kl.key + "'");
      }
      body.push_back(std::move(kl));
    }
    fail(headerLine,
         "block '" + header + "' opened here is never closed — missing '}'");
  }

  double parseNumber(const KeyLine& kl, const std::string& token) const {
    const char* begin = token.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end != begin + token.size() || token.empty() || !std::isfinite(v)) {
      fail(kl.line,
           "non-numeric value '" + token + "' for '" + kl.key + "'");
    }
    return v;
  }

  double parseSingleNumber(const KeyLine& kl) const {
    const std::vector<std::string> toks = splitWs(kl.value);
    if (toks.size() != 1) {
      fail(kl.line, "'" + kl.key + "' takes one number, got '" + kl.value +
                        "'");
    }
    return parseNumber(kl, toks[0]);
  }

  /// `lo [hi]` — one number means a degenerate range.
  std::pair<double, double> parseRange(const KeyLine& kl) const {
    const std::vector<std::string> toks = splitWs(kl.value);
    if (toks.empty() || toks.size() > 2) {
      fail(kl.line, "'" + kl.key + "' takes 'lo [hi]', got '" + kl.value +
                        "'");
    }
    const double lo = parseNumber(kl, toks[0]);
    const double hi = toks.size() == 2 ? parseNumber(kl, toks[1]) : lo;
    if (hi < lo) {
      fail(kl.line, "'" + kl.key + "' range is descending (" + kl.value +
                        ")");
    }
    return {lo, hi};
  }

  std::uint64_t parseSeed(const KeyLine& kl) const {
    const std::vector<std::string> toks = splitWs(kl.value);
    if (toks.size() != 1 || toks[0].empty() || toks[0][0] == '-') {
      fail(kl.line, "'" + kl.key + "' takes one non-negative integer, got '" +
                        kl.value + "'");
    }
    const char* begin = toks[0].c_str();
    char* end = nullptr;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (end != begin + toks[0].size()) {
      fail(kl.line,
           "non-numeric value '" + toks[0] + "' for '" + kl.key + "'");
    }
    return static_cast<std::uint64_t>(v);
  }

  bool parseOnOff(const KeyLine& kl) const {
    const std::string v = normalizeKey(kl.value);
    if (v == "on" || v == "true" || v == "yes") return true;
    if (v == "off" || v == "false" || v == "no") return false;
    fail(kl.line,
         "'" + kl.key + "' must be on/off, got '" + kl.value + "'");
  }

  /// Field validation with the offending line: positive unless stated.
  void require(bool ok, const KeyLine& kl, const std::string& what) const {
    if (!ok) {
      fail(kl.line, "'" + kl.key + "' " + what + " (got '" + kl.value + "')");
    }
  }

  ArrivalSpec parseArrival(const KeyLine& kl) const {
    std::vector<std::string> toks = splitWs(kl.value);
    const std::string process = normalizeKey(toks.empty() ? "" : toks[0]);
    const auto expectArgs = [&](std::size_t n, const char* shape) {
      if (toks.size() - 1 != n) {
        fail(kl.line, "'" + process + "' arrival takes " + shape + ", got " +
                          std::to_string(toks.size() - 1) + " argument(s)");
      }
    };
    ArrivalSpec spec;
    if (process == "poisson") {
      expectArgs(1, "1 argument (rate)");
      spec.kind = ArrivalProcess::Kind::kPoisson;
      spec.rate = parseNumber(kl, toks[1]);
      require(spec.rate > 0.0, kl, "rate must be positive");
    } else if (process == "diurnal") {
      expectArgs(3, "3 arguments (base peak period)");
      spec.kind = ArrivalProcess::Kind::kDiurnal;
      spec.rate = parseNumber(kl, toks[1]);
      spec.peakRate = parseNumber(kl, toks[2]);
      spec.periodSeconds = parseNumber(kl, toks[3]);
      require(spec.rate >= 0.0, kl, "base rate must be non-negative");
      require(spec.peakRate >= spec.rate && spec.peakRate > 0.0, kl,
              "peak rate must be positive and >= the base rate");
      require(spec.periodSeconds > 0.0, kl, "period must be positive");
    } else if (process == "mmpp") {
      expectArgs(4, "4 arguments (rate-low rate-high dwell-low dwell-high)");
      spec.kind = ArrivalProcess::Kind::kMmpp;
      spec.rate = parseNumber(kl, toks[1]);
      spec.peakRate = parseNumber(kl, toks[2]);
      spec.dwellLowSeconds = parseNumber(kl, toks[3]);
      spec.dwellHighSeconds = parseNumber(kl, toks[4]);
      require(spec.rate > 0.0, kl, "low rate must be positive");
      require(spec.peakRate >= spec.rate, kl,
              "high rate must be >= the low rate");
      require(spec.dwellLowSeconds > 0.0 && spec.dwellHighSeconds > 0.0, kl,
              "dwell times must be positive");
    } else if (process == "flash-crowd" || process == "flash crowd") {
      expectArgs(4, "4 arguments (base burst-factor start decay)");
      spec.kind = ArrivalProcess::Kind::kFlashCrowd;
      spec.rate = parseNumber(kl, toks[1]);
      spec.burstFactor = parseNumber(kl, toks[2]);
      spec.startSeconds = parseNumber(kl, toks[3]);
      spec.decaySeconds = parseNumber(kl, toks[4]);
      require(spec.rate > 0.0, kl, "base rate must be positive");
      require(spec.burstFactor >= 1.0, kl, "burst factor must be >= 1");
      require(spec.startSeconds >= 0.0, kl,
              "burst start must be non-negative");
      require(spec.decaySeconds > 0.0, kl, "decay must be positive");
    } else {
      fail(kl.line, "unknown arrival process '" +
                        (toks.empty() ? kl.value : toks[0]) +
                        "' — expected poisson, diurnal, mmpp, or flash-crowd");
    }
    return spec;
  }

  void dispatchBlock(Scenario& sc, const std::string& header, int headerLine,
                     const std::vector<KeyLine>& body) {
    if (header == "scenario") {
      parseScenarioBlock(sc, headerLine, body);
    } else if (header == "machine class") {
      parseMachineClass(sc, headerLine, body);
    } else if (header == "task class") {
      parseTaskClass(sc, headerLine, body);
    } else if (header == "sla class") {
      parseSlaClass(sc, headerLine, body);
    } else {
      parseServingBlock(sc, headerLine, body);
    }
  }

  void parseScenarioBlock(Scenario& sc, int headerLine,
                          const std::vector<KeyLine>& body) {
    if (scenarioLine_ != 0) {
      fail(headerLine, "duplicate scenario block (first declared at line " +
                           std::to_string(scenarioLine_) + ")");
    }
    scenarioLine_ = headerLine;
    for (const KeyLine& kl : body) {
      if (kl.key == "name") {
        sc.name = kl.value;
      } else if (kl.key == "seed") {
        sc.seed = parseSeed(kl);
      } else {
        fail(kl.line, "unknown key '" + kl.key + "' in scenario block");
      }
    }
  }

  void parseMachineClass(Scenario& sc, int headerLine,
                         const std::vector<KeyLine>& body) {
    MachineClass mc;
    mc.line = headerLine;
    bool sawRange = false;
    for (const KeyLine& kl : body) {
      if (kl.key == "name") {
        mc.name = kl.value;
      } else if (kl.key == "count") {
        const double v = parseSingleNumber(kl);
        require(v >= 1.0 && v == std::floor(v) && v <= 1e9, kl,
                "must be a positive integer");
        mc.count = static_cast<int>(v);
      } else if (kl.key == "gpus") {
        mc.gpus = splitCommaList(kl.value);
        require(!mc.gpus.empty(), kl, "needs at least one catalog name");
        for (const std::string& g : mc.gpus) {
          try {
            gpuByName(g);
          } catch (const CheckError&) {
            fail(kl.line, "unknown GPU '" + g + "' — not in the catalog");
          }
        }
      } else if (kl.key == "speed") {
        std::tie(mc.speedLoTflops, mc.speedHiTflops) = parseRange(kl);
        require(mc.speedLoTflops > 0.0, kl, "must be positive (TFLOPS)");
        sawRange = true;
      } else if (kl.key == "efficiency") {
        std::tie(mc.effLoGflopsPerWatt, mc.effHiGflopsPerWatt) =
            parseRange(kl);
        require(mc.effLoGflopsPerWatt > 0.0, kl,
                "must be positive (GFLOPS/W)");
        sawRange = true;
      } else if (kl.key == "seed") {
        mc.seed = parseSeed(kl);
      } else {
        fail(kl.line, "unknown key '" + kl.key + "' in machine class");
      }
    }
    if (mc.name.empty()) fail(headerLine, "machine class needs a 'name'");
    if (!mc.gpus.empty() && sawRange) {
      fail(headerLine, "machine class '" + mc.name +
                           "' mixes 'gpus' with 'speed'/'efficiency' — a "
                           "class is either catalog-backed or random");
    }
    for (const MachineClass& other : sc.machineClasses) {
      if (other.name == mc.name) {
        fail(headerLine, "duplicate machine class name '" + mc.name +
                             "' (first declared at line " +
                             std::to_string(other.line) + ")");
      }
    }
    sc.machineClasses.push_back(std::move(mc));
  }

  void parseSlaClass(Scenario& sc, int headerLine,
                     const std::vector<KeyLine>& body) {
    SlaTier tier;
    tier.line = headerLine;
    for (const KeyLine& kl : body) {
      if (kl.key == "name") {
        tier.name = kl.value;
      } else if (kl.key == "tightness" || kl.key == "deadline tightness") {
        tier.deadlineTightness = parseSingleNumber(kl);
        require(tier.deadlineTightness > 0.0, kl, "must be positive");
      } else if (kl.key == "miss penalty" || kl.key == "penalty") {
        tier.missPenalty = parseSingleNumber(kl);
        require(tier.missPenalty >= 0.0, kl, "must be non-negative");
      } else {
        fail(kl.line, "unknown key '" + kl.key + "' in sla class");
      }
    }
    if (tier.name.empty()) fail(headerLine, "sla class needs a 'name'");
    for (const SlaTier& other : sc.slaTiers) {
      if (other.name == tier.name) {
        fail(headerLine, "duplicate sla class name '" + tier.name +
                             "' (first declared at line " +
                             std::to_string(other.line) + ")");
      }
    }
    sc.slaTiers.push_back(std::move(tier));
  }

  void parseTaskClass(Scenario& sc, int headerLine,
                      const std::vector<KeyLine>& body) {
    TaskClass tc;
    tc.line = headerLine;
    int endLine = 0;
    for (const KeyLine& kl : body) {
      if (kl.key == "name") {
        tc.name = kl.value;
      } else if (kl.key == "arrival") {
        tc.arrival = parseArrival(kl);
      } else if (kl.key == "theta") {
        std::tie(tc.thetaLo, tc.thetaHi) = parseRange(kl);
        require(tc.thetaLo > 0.0, kl, "must be positive");
      } else if (kl.key == "deadline") {
        std::tie(tc.relDeadlineLo, tc.relDeadlineHi) = parseRange(kl);
        require(tc.relDeadlineLo > 0.0, kl, "must be positive (seconds)");
      } else if (kl.key == "sla") {
        tc.sla = kl.value;
      } else if (kl.key == "start") {
        tc.startSeconds = parseSingleNumber(kl);
        require(tc.startSeconds >= 0.0, kl, "must be non-negative");
      } else if (kl.key == "end") {
        tc.endSeconds = parseSingleNumber(kl);
        require(tc.endSeconds > 0.0, kl, "must be positive");
        endLine = kl.line;
      } else if (kl.key == "seed") {
        tc.seed = parseSeed(kl);
      } else {
        fail(kl.line, "unknown key '" + kl.key + "' in task class");
      }
    }
    if (tc.name.empty()) fail(headerLine, "task class needs a 'name'");
    if (tc.endSeconds >= 0.0 && tc.endSeconds <= tc.startSeconds) {
      fail(endLine != 0 ? endLine : headerLine,
           "task class '" + tc.name + "' has end <= start");
    }
    for (const TaskClass& other : sc.taskClasses) {
      if (other.name == tc.name) {
        fail(headerLine, "duplicate task class name '" + tc.name +
                             "' (first declared at line " +
                             std::to_string(other.line) + ")");
      }
    }
    sc.taskClasses.push_back(std::move(tc));
  }

  void parseServingBlock(Scenario& sc, int headerLine,
                         const std::vector<KeyLine>& body) {
    if (servingLine_ != 0) {
      fail(headerLine, "duplicate serving block (first declared at line " +
                           std::to_string(servingLine_) + ")");
    }
    servingLine_ = headerLine;
    ServingBlock& s = sc.serving;
    s.line = headerLine;
    for (const KeyLine& kl : body) {
      if (kl.key == "horizon") {
        s.horizonSeconds = parseSingleNumber(kl);
        require(s.horizonSeconds > 0.0, kl, "must be positive (seconds)");
      } else if (kl.key == "epoch") {
        s.epochSeconds = parseSingleNumber(kl);
        require(s.epochSeconds > 0.0, kl, "must be positive (seconds)");
      } else if (kl.key == "budget") {
        s.energyBudgetPerEpoch = parseSingleNumber(kl);
        require(s.energyBudgetPerEpoch >= 0.0, kl,
                "must be non-negative (J per epoch)");
      } else if (kl.key == "policy") {
        s.policy = kl.value;
      } else if (kl.key == "fallback") {
        s.fallback = splitCommaList(kl.value);
        require(!s.fallback.empty(), kl, "needs at least one solver name");
      } else if (kl.key == "backlog") {
        s.carryBacklog = parseOnOff(kl);
      } else if (kl.key == "load factor") {
        s.admissionLoadFactor = parseSingleNumber(kl);
        require(s.admissionLoadFactor >= 0.0, kl, "must be non-negative");
      } else if (kl.key == "departures") {
        const std::vector<std::string> toks = splitWs(kl.value);
        if (toks.size() != 2) {
          fail(kl.line,
               "'departures' takes 2 numbers (mtbf mean-absence), got '" +
                   kl.value + "'");
        }
        s.departMtbfSeconds = parseNumber(kl, toks[0]);
        s.departMeanSeconds = parseNumber(kl, toks[1]);
        require(s.departMtbfSeconds >= 0.0, kl,
                "mtbf must be non-negative (seconds)");
        require(s.departMeanSeconds > 0.0, kl,
                "mean absence must be positive (seconds)");
        s.availabilityEnabled = true;
      } else if (kl.key == "battery") {
        const std::vector<std::string> toks = splitWs(kl.value);
        if (toks.size() != 2 && toks.size() != 3) {
          fail(kl.line,
               "'battery' takes 'capacity recharge [initial-fraction]', "
               "got '" +
                   kl.value + "'");
        }
        s.batteryCapacityJoules = parseNumber(kl, toks[0]);
        s.rechargeWatts = parseNumber(kl, toks[1]);
        if (toks.size() == 3) {
          s.batteryInitialFraction = parseNumber(kl, toks[2]);
        }
        require(s.batteryCapacityJoules >= 0.0, kl,
                "capacity must be non-negative (J)");
        require(s.rechargeWatts >= 0.0, kl,
                "recharge must be non-negative (W)");
        require(s.batteryInitialFraction >= 0.0 &&
                    s.batteryInitialFraction <= 1.0,
                kl, "initial fraction must be in [0, 1]");
        s.availabilityEnabled = true;
      } else if (kl.key == "avail seed") {
        s.availSeed = parseSeed(kl);
      } else if (kl.key == "shards") {
        const double v = parseSingleNumber(kl);
        require(v >= 0.0 && v == std::floor(v) && v <= 1e9, kl,
                "must be a non-negative integer (cell count) up to 1e9");
        s.shards = static_cast<int>(v);
      } else if (kl.key == "shard seed") {
        s.shardSeed = parseSeed(kl);
      } else {
        fail(kl.line, "unknown key '" + kl.key + "' in serving block");
      }
    }
  }

  void finalize(const Scenario& sc) const {
    if (sc.machineClasses.empty()) {
      fail(1, "scenario declares no machine class");
    }
    if (sc.taskClasses.empty()) {
      fail(1, "scenario declares no task class");
    }
    for (const TaskClass& tc : sc.taskClasses) {
      if (!tc.sla.empty() && sc.findSla(tc.sla) == nullptr) {
        fail(tc.line, "task class '" + tc.name +
                          "' references unknown sla class '" + tc.sla + "'");
      }
    }
  }

  std::string file_;
  std::vector<std::string> lines_;
  int scenarioLine_ = 0;
  int servingLine_ = 0;
};

/// Per-class RNG stream: an explicit class seed wins; otherwise derive a
/// distinct stream from the scenario master seed (machine classes and task
/// classes live in disjoint stream ranges).
std::uint64_t classSeed(const Scenario& sc, std::uint64_t explicitSeed,
                        std::uint64_t stream) {
  return explicitSeed != 0 ? explicitSeed : deriveSeed(sc.seed, stream);
}

}  // namespace

ArrivalProcess ArrivalSpec::toProcess() const {
  switch (kind) {
    case ArrivalProcess::Kind::kPoisson:
      return ArrivalProcess::poisson(rate);
    case ArrivalProcess::Kind::kDiurnal:
      return ArrivalProcess::diurnal(rate, peakRate, periodSeconds);
    case ArrivalProcess::Kind::kMmpp:
      return ArrivalProcess::mmpp(rate, peakRate, dwellLowSeconds,
                                  dwellHighSeconds);
    case ArrivalProcess::Kind::kFlashCrowd:
      return ArrivalProcess::flashCrowd(rate, burstFactor, startSeconds,
                                        decaySeconds);
  }
  DSCT_CHECK_MSG(false, "unreachable arrival kind");
}

const SlaTier* Scenario::findSla(const std::string& slaName) const {
  if (slaName.empty()) return nullptr;
  for (const SlaTier& tier : slaTiers) {
    if (tier.name == slaName) return &tier;
  }
  return nullptr;
}

Scenario parseScenario(std::string_view text, const std::string& filename) {
  return Parser(text, filename).parse();
}

Scenario loadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ScenarioError(path, 1, "cannot open scenario file");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseScenario(buffer.str(), path);
}

std::vector<Machine> materializeMachines(const Scenario& scenario) {
  std::vector<Machine> out;
  for (std::size_t c = 0; c < scenario.machineClasses.size(); ++c) {
    const MachineClass& mc = scenario.machineClasses[c];
    if (!mc.gpus.empty()) {
      for (int k = 0; k < mc.count; ++k) {
        for (const std::string& g : mc.gpus) {
          Machine m = gpuByName(g).toMachine();
          m.name = mc.name + "-" + g + "-" + std::to_string(k);
          out.push_back(std::move(m));
        }
      }
    } else {
      Rng rng(classSeed(scenario, mc.seed, 1000 + c));
      for (int k = 0; k < mc.count; ++k) {
        Machine m;
        m.speed = rng.uniform(mc.speedLoTflops, mc.speedHiTflops);
        // File values are GFLOPS/W (the human-scale unit of the catalog
        // tables); Machine::efficiency is TFLOP/J.
        m.efficiency =
            rng.uniform(mc.effLoGflopsPerWatt, mc.effHiGflopsPerWatt) * 1e-3;
        m.name = mc.name + "-" + std::to_string(k);
        out.push_back(std::move(m));
      }
    }
  }
  return out;
}

std::vector<sim::RequestSpec> materializeRequests(const Scenario& scenario) {
  std::vector<sim::RequestSpec> out;
  const double horizon = scenario.serving.horizonSeconds;
  for (std::size_t c = 0; c < scenario.taskClasses.size(); ++c) {
    const TaskClass& tc = scenario.taskClasses[c];
    const double start = tc.startSeconds;
    const double end =
        tc.endSeconds < 0.0 ? horizon : std::min(tc.endSeconds, horizon);
    if (end <= start) continue;
    const SlaTier* tier = scenario.findSla(tc.sla);
    const double tightness = tier != nullptr ? tier->deadlineTightness : 1.0;
    const double penalty = tier != nullptr ? tier->missPenalty : 1.0;
    Rng rng(classSeed(scenario, tc.seed, 2000 + c));
    const ArrivalProcess process = tc.arrival.toProcess();
    // Arrivals are sampled first (one contiguous draw chain), then each
    // request's deadline and θ — a fixed order, so the class stream replays
    // bit-identically.
    const std::vector<double> times = process.sample(end - start, rng);
    out.reserve(out.size() + times.size());
    for (const double t : times) {
      sim::RequestSpec req;
      req.arrival = start + t;
      req.relDeadline =
          rng.uniform(tc.relDeadlineLo, tc.relDeadlineHi) * tightness;
      req.theta = rng.uniform(tc.thetaLo, tc.thetaHi);
      req.missPenalty = penalty;
      out.push_back(req);
    }
  }
  // Merge the class streams by arrival; stable, so ties keep class order.
  std::stable_sort(out.begin(), out.end(),
                   [](const sim::RequestSpec& a, const sim::RequestSpec& b) {
                     return a.arrival < b.arrival;
                   });
  return out;
}

sim::ServingOptions makeServingOptions(const Scenario& scenario) {
  const ServingBlock& s = scenario.serving;
  sim::ServingOptions o;
  o.horizonSeconds = s.horizonSeconds;
  o.epochSeconds = s.epochSeconds;
  o.energyBudgetPerEpoch = s.energyBudgetPerEpoch;
  o.carryBacklog = s.carryBacklog;
  o.admissionLoadFactor = s.admissionLoadFactor;
  o.seed = scenario.seed;
  if (!s.fallback.empty()) o.fallbackChain = s.fallback;
  o.requestTrace = materializeRequests(scenario);
  // An empty trace would silently fall back to the driver's internal Poisson
  // generator — reject it loudly instead.
  DSCT_CHECK_MSG(!o.requestTrace.empty(),
                 "scenario '" << scenario.name
                              << "' materialised zero requests — widen the "
                                 "arrival windows or raise the rates");
  o.availability.enabled = s.availabilityEnabled;
  o.availability.seed = s.availSeed;
  o.availability.departMtbfSeconds = s.departMtbfSeconds;
  o.availability.departMeanSeconds = s.departMeanSeconds;
  o.availability.batteryCapacityJoules = s.batteryCapacityJoules;
  o.availability.batteryInitialFraction = s.batteryInitialFraction;
  o.availability.rechargeWatts = s.rechargeWatts;
  o.shards = s.shards;
  o.shardSeed = s.shardSeed;
  return o;
}

Instance materializeInstance(const Scenario& scenario) {
  const std::vector<sim::RequestSpec> requests =
      materializeRequests(scenario);
  // Accuracy-curve shape parameters mirror the serving driver's defaults so
  // the batch snapshot and the serving run see the same tasks.
  const sim::ServingOptions defaults;
  std::vector<Task> tasks;
  tasks.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const sim::RequestSpec& req = requests[i];
    tasks.push_back(Task{req.arrival + req.relDeadline,
                         makePaperAccuracy(defaults.amin, defaults.amax,
                                           req.theta, defaults.segments),
                         "req-" + std::to_string(i)});
  }
  const double epochs = std::ceil(scenario.serving.horizonSeconds /
                                  scenario.serving.epochSeconds);
  return Instance(std::move(tasks), materializeMachines(scenario),
                  scenario.serving.energyBudgetPerEpoch * epochs);
}

}  // namespace dsct
