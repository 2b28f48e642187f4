#include "io/instance_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"

namespace dsct::io {

namespace {

/// Tokenised, comment-stripped line reader that tracks line numbers for
/// error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty line's tokens; empty vector at EOF.
  std::vector<std::string> next() {
    std::string line;
    while (std::getline(is_, line)) {
      ++lineNumber_;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream ss(line);
      std::vector<std::string> tokens;
      std::string token;
      while (ss >> token) tokens.push_back(token);
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  int lineNumber() const { return lineNumber_; }

 private:
  std::istream& is_;
  int lineNumber_ = 0;
};

double parseDouble(const std::string& token, int line) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    DSCT_CHECK_MSG(false, "line " << line << ": expected number, got '"
                                  << token << "'");
  }
  DSCT_CHECK_MSG(consumed == token.size(),
                 "line " << line << ": trailing characters in '" << token
                         << "'");
  DSCT_CHECK_MSG(std::isfinite(value),
                 "line " << line << ": expected finite number, got '" << token
                         << "'");
  return value;
}

int parseInt(const std::string& token, int line) {
  const double value = parseDouble(token, line);
  // Range first: casting a double outside int's range is undefined.
  DSCT_CHECK_MSG(value >= std::numeric_limits<int>::min() &&
                     value <= std::numeric_limits<int>::max() &&
                     value == std::trunc(value),
                 "line " << line << ": expected integer, got '" << token
                         << "'");
  return static_cast<int>(value);
}

/// Names are written as single tokens; spaces are escaped as '\s'.
std::string escapeName(const std::string& name) {
  std::string out;
  for (char ch : name) {
    if (ch == ' ') {
      out += "\\s";
    } else {
      out += ch;
    }
  }
  return out.empty() ? std::string("_") : out;
}

std::string unescapeName(const std::string& token) {
  std::string out;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] == '\\' && i + 1 < token.size() && token[i + 1] == 's') {
      out += ' ';
      ++i;
    } else {
      out += token[i];
    }
  }
  return out == "_" ? std::string() : out;
}

}  // namespace

void writeInstance(std::ostream& os, const Instance& inst) {
  os << "dsct-instance v1\n";
  os << std::setprecision(17);
  os << "budget " << inst.energyBudget() << '\n';
  for (const Machine& m : inst.machines()) {
    os << "machine " << escapeName(m.name) << ' ' << m.speed << ' '
       << m.efficiency << '\n';
  }
  for (const Task& t : inst.tasks()) {
    const PiecewiseLinearAccuracy& acc = t.accuracy;
    os << "task " << escapeName(t.name) << ' ' << t.deadline << ' '
       << (acc.numSegments() + 1);
    for (int k = 0; k <= acc.numSegments(); ++k) {
      os << ' ' << acc.breakpoint(k) << ' ' << acc.valueAt(k);
    }
    os << '\n';
  }
}

void writeInstanceFile(const std::string& path, const Instance& inst) {
  std::ofstream out(path);
  DSCT_CHECK_MSG(out, "cannot open " << path << " for writing");
  writeInstance(out, inst);
}

Instance readInstance(std::istream& is) {
  LineReader reader(is);
  auto header = reader.next();
  DSCT_CHECK_MSG(header.size() == 2 && header[0] == "dsct-instance" &&
                     header[1] == "v1",
                 "line " << reader.lineNumber()
                         << ": expected 'dsct-instance v1' header");
  double budget = 0.0;
  bool sawBudget = false;
  std::vector<Machine> machines;
  std::vector<Task> tasks;
  for (auto tokens = reader.next(); !tokens.empty(); tokens = reader.next()) {
    const int line = reader.lineNumber();
    if (tokens[0] == "budget") {
      DSCT_CHECK_MSG(tokens.size() == 2, "line " << line << ": budget <J>");
      budget = parseDouble(tokens[1], line);
      sawBudget = true;
    } else if (tokens[0] == "machine") {
      DSCT_CHECK_MSG(tokens.size() == 4,
                     "line " << line << ": machine <name> <speed> <eff>");
      machines.push_back(Machine{parseDouble(tokens[2], line),
                                 parseDouble(tokens[3], line),
                                 unescapeName(tokens[1])});
    } else if (tokens[0] == "task") {
      DSCT_CHECK_MSG(tokens.size() >= 4,
                     "line " << line
                             << ": task <name> <deadline> <numPoints> ...");
      const double deadline = parseDouble(tokens[2], line);
      const int points = parseInt(tokens[3], line);
      DSCT_CHECK_MSG(points >= 2, "line " << line << ": need >= 2 points");
      DSCT_CHECK_MSG(tokens.size() == 4 + 2 * static_cast<std::size_t>(points),
                     "line " << line << ": expected " << 2 * points
                             << " coordinates");
      std::vector<double> flops;
      std::vector<double> values;
      for (int k = 0; k < points; ++k) {
        flops.push_back(
            parseDouble(tokens[4 + 2 * static_cast<std::size_t>(k)], line));
        values.push_back(
            parseDouble(tokens[5 + 2 * static_cast<std::size_t>(k)], line));
      }
      tasks.push_back(Task{
          deadline,
          PiecewiseLinearAccuracy::fromPoints(std::move(flops),
                                              std::move(values)),
          unescapeName(tokens[1])});
    } else {
      DSCT_CHECK_MSG(false,
                     "line " << line << ": unknown directive '" << tokens[0]
                             << "'");
    }
  }
  DSCT_CHECK_MSG(sawBudget, "missing 'budget' line");
  return Instance(std::move(tasks), std::move(machines), budget);
}

Instance readInstanceFile(const std::string& path) {
  std::ifstream in(path);
  DSCT_CHECK_MSG(in, "cannot open " << path);
  return readInstance(in);
}

void writeSchedule(std::ostream& os, const IntegralSchedule& schedule) {
  os << "dsct-schedule v1\n";
  os << std::setprecision(17);
  for (int j = 0; j < schedule.numTasks(); ++j) {
    os << "assign " << j << ' ' << schedule.machineOf(j) << ' '
       << schedule.duration(j) << '\n';
  }
}

void writeScheduleFile(const std::string& path,
                       const IntegralSchedule& schedule) {
  std::ofstream out(path);
  DSCT_CHECK_MSG(out, "cannot open " << path << " for writing");
  writeSchedule(out, schedule);
}

IntegralSchedule readSchedule(std::istream& is, const Instance& inst) {
  LineReader reader(is);
  auto header = reader.next();
  DSCT_CHECK_MSG(header.size() == 2 && header[0] == "dsct-schedule" &&
                     header[1] == "v1",
                 "line " << reader.lineNumber()
                         << ": expected 'dsct-schedule v1' header");
  std::vector<int> machineOf(static_cast<std::size_t>(inst.numTasks()), -1);
  std::vector<double> duration(static_cast<std::size_t>(inst.numTasks()), 0.0);
  for (auto tokens = reader.next(); !tokens.empty(); tokens = reader.next()) {
    const int line = reader.lineNumber();
    DSCT_CHECK_MSG(tokens.size() == 4 && tokens[0] == "assign",
                   "line " << line
                           << ": assign <task> <machine> <duration>");
    const int task = parseInt(tokens[1], line);
    DSCT_CHECK_MSG(task >= 0 && task < inst.numTasks(),
                   "line " << line << ": task index out of range");
    const int machine = parseInt(tokens[2], line);
    DSCT_CHECK_MSG(machine >= -1 && machine < inst.numMachines(),
                   "line " << line << ": machine index out of range");
    machineOf[static_cast<std::size_t>(task)] = machine;
    duration[static_cast<std::size_t>(task)] = parseDouble(tokens[3], line);
  }
  return IntegralSchedule::build(inst, std::move(machineOf),
                                 std::move(duration));
}

IntegralSchedule readScheduleFile(const std::string& path,
                                  const Instance& inst) {
  std::ifstream in(path);
  DSCT_CHECK_MSG(in, "cannot open " << path);
  return readSchedule(in, inst);
}

}  // namespace dsct::io
