#include "io/instance_io.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sched/approx.h"
#include "sched/validator.h"
#include "tests/test_support.h"
#include "util/check.h"
#include "util/rng.h"

namespace dsct {
namespace {

using testing::randomInstance;
using testing::tinyInstance;

void expectSameInstance(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.numTasks(), b.numTasks());
  ASSERT_EQ(a.numMachines(), b.numMachines());
  EXPECT_DOUBLE_EQ(a.energyBudget(), b.energyBudget());
  for (int r = 0; r < a.numMachines(); ++r) {
    EXPECT_DOUBLE_EQ(a.machine(r).speed, b.machine(r).speed);
    EXPECT_DOUBLE_EQ(a.machine(r).efficiency, b.machine(r).efficiency);
    EXPECT_EQ(a.machine(r).name, b.machine(r).name);
  }
  for (int j = 0; j < a.numTasks(); ++j) {
    EXPECT_DOUBLE_EQ(a.task(j).deadline, b.task(j).deadline);
    EXPECT_EQ(a.task(j).name, b.task(j).name);
    EXPECT_TRUE(a.task(j).accuracy == b.task(j).accuracy);
  }
}

TEST(InstanceIo, RoundTripTiny) {
  const Instance inst = tinyInstance(37.5);
  std::stringstream buffer;
  io::writeInstance(buffer, inst);
  const Instance back = io::readInstance(buffer);
  expectSameInstance(inst, back);
}

TEST(InstanceIo, RoundTripRandomGenerated) {
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = randomInstance(deriveSeed(900, trial), 12, 4);
    std::stringstream buffer;
    io::writeInstance(buffer, inst);
    const Instance back = io::readInstance(buffer);
    expectSameInstance(inst, back);
  }
}

TEST(InstanceIo, RoundTripFiles) {
  const std::string path = ::testing::TempDir() + "/dsct_inst.txt";
  const Instance inst = randomInstance(3, 6, 2);
  io::writeInstanceFile(path, inst);
  expectSameInstance(inst, io::readInstanceFile(path));
}

TEST(InstanceIo, NamesWithSpacesSurvive) {
  std::vector<Task> tasks{
      Task{1.0, testing::twoSegment(), "my little task"}};
  std::vector<Machine> machines{Machine{1.0, 0.01, "RTX A2000 12GB"}};
  const Instance inst(std::move(tasks), std::move(machines), 5.0);
  std::stringstream buffer;
  io::writeInstance(buffer, inst);
  const Instance back = io::readInstance(buffer);
  EXPECT_EQ(back.task(0).name, "my little task");
  EXPECT_EQ(back.machine(0).name, "RTX A2000 12GB");
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "dsct-instance v1\n"
      "# a comment\n"
      "\n"
      "budget 10.0   # trailing comment\n"
      "machine m0 2.0 0.05\n"
      "task t0 1.5 2 0 0.1 3 0.9\n");
  const Instance inst = io::readInstance(in);
  EXPECT_EQ(inst.numTasks(), 1);
  EXPECT_DOUBLE_EQ(inst.energyBudget(), 10.0);
  EXPECT_DOUBLE_EQ(inst.task(0).fmax(), 3.0);
}

TEST(InstanceIo, RejectsMalformedInput) {
  const auto expectReject = [](const std::string& text) {
    std::stringstream in(text);
    EXPECT_THROW(io::readInstance(in), CheckError) << text;
  };
  expectReject("not-a-header\nbudget 1\n");
  expectReject("dsct-instance v2\nbudget 1\n");
  expectReject("dsct-instance v1\nmachine m0 1.0 0.01\n");  // no budget
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0\n");
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
               "task t0 1.0 2 0 0.1\n");  // too few coordinates
  expectReject("dsct-instance v1\nbudget abc\nmachine m0 1.0 0.01\n");
  expectReject("dsct-instance v1\nbudget 1\nfrobnicate x\n");
  expectReject("dsct-instance v1\nbudget 1\nmachine m0 1.0 0.01\n"
               "task t0 1.0 2 0 0.9 3 0.1\n");  // decreasing accuracy
}

// --- Non-finite and non-integral numbers ---------------------------------
// Every numeric field is checked to be finite, and every index to be an int,
// before it is used: an infinite deadline once made FR-OPT stop below the LP
// optimum, and casting nan or 1e12 to int is undefined.

using Lines = std::vector<std::vector<std::string>>;

std::string joinLines(const Lines& lines) {
  std::string text;
  for (const std::vector<std::string>& tokens : lines) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      text += (i == 0 ? "" : " ") + tokens[i];
    }
    text += '\n';
  }
  return text;
}

/// Expects `read` to throw a CheckError that names line `line` (1-based).
template <typename Read>
void expectRejectedAtLine(const Read& read, const std::string& text,
                          int line) {
  std::stringstream in(text);
  try {
    read(in);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const CheckError& e) {
    const std::string needle = "line " + std::to_string(line) + ":";
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

const Lines kInstanceLines = {
    {"dsct-instance", "v1"},
    {"budget", "10"},
    {"machine", "m0", "2.0", "0.05"},
    {"task", "t0", "1.5", "2", "0", "0.1", "3", "0.9"},
};

/// (line index, token index) of every numeric field in kInstanceLines.
const std::vector<std::pair<std::size_t, std::size_t>> kInstanceNumbers = {
    {1, 1}, {2, 2}, {2, 3}, {3, 2}, {3, 3}, {3, 4}, {3, 5}, {3, 6}, {3, 7}};

const auto readInstanceFrom = [](std::istream& in) {
  return io::readInstance(in);
};

TEST(InstanceIo, RejectsNonFiniteNumbers) {
  std::stringstream valid(joinLines(kInstanceLines));
  ASSERT_NO_THROW(io::readInstance(valid));
  for (const auto& [line, token] : kInstanceNumbers) {
    for (const char* bad : {"inf", "-inf", "nan"}) {
      Lines lines = kInstanceLines;
      lines[line][token] = bad;
      SCOPED_TRACE(joinLines(lines));
      expectRejectedAtLine(readInstanceFrom, joinLines(lines),
                           static_cast<int>(line) + 1);
    }
  }
}

TEST(InstanceIo, RejectsNonIntegralPointCounts) {
  for (const char* bad : {"nan", "1e12", "-1e12", "2.5"}) {
    Lines lines = kInstanceLines;
    lines[3][3] = bad;
    SCOPED_TRACE(bad);
    expectRejectedAtLine(readInstanceFrom, joinLines(lines), 4);
  }
}

TEST(ScheduleIo, RejectsNonFiniteNumbers) {
  const Instance inst = tinyInstance();
  const auto read = [&inst](std::istream& in) {
    return io::readSchedule(in, inst);
  };
  const Lines valid = {{"dsct-schedule", "v1"},
                       {"assign", "0", "0", "0.5"},
                       {"assign", "1", "1", "0.25"}};
  std::stringstream in(joinLines(valid));
  ASSERT_NO_THROW(io::readSchedule(in, inst));
  for (std::size_t token = 1; token <= 3; ++token) {
    for (const char* bad : {"inf", "-inf", "nan"}) {
      Lines lines = valid;
      lines[2][token] = bad;
      SCOPED_TRACE(joinLines(lines));
      expectRejectedAtLine(read, joinLines(lines), 3);
    }
  }
}

TEST(ScheduleIo, RejectsNonIntegralIndices) {
  const Instance inst = tinyInstance();
  const auto read = [&inst](std::istream& in) {
    return io::readSchedule(in, inst);
  };
  for (std::size_t token = 1; token <= 2; ++token) {
    for (const char* bad : {"nan", "1e12", "-1e12", "2.5"}) {
      Lines lines = {{"dsct-schedule", "v1"}, {"assign", "0", "0", "0.5"}};
      lines[1][token] = bad;
      SCOPED_TRACE(joinLines(lines));
      expectRejectedAtLine(read, joinLines(lines), 2);
    }
  }
}

TEST(InstanceIo, GarbageInputsThrowCleanly) {
  // Deterministic pseudo-random byte soup: the reader must throw CheckError
  // (never crash or accept) on every sample.
  Rng rng(20202);
  for (int trial = 0; trial < 50; ++trial) {
    std::string soup = "dsct-instance v1\n";
    const int lines = rng.uniformInt(1, 6);
    for (int l = 0; l < lines; ++l) {
      const int len = rng.uniformInt(1, 40);
      for (int i = 0; i < len; ++i) {
        soup += static_cast<char>(rng.uniformInt(32, 126));
      }
      soup += '\n';
    }
    std::stringstream in(soup);
    try {
      const Instance inst = io::readInstance(in);
      // Accepting is fine only if the soup happened to be vacuous (no
      // budget line would already throw, so this is unreachable unless a
      // line formed a valid directive set — astronomically unlikely but
      // not an error per se).
      SUCCEED();
    } catch (const CheckError&) {
      SUCCEED();
    } catch (...) {
      FAIL() << "non-CheckError escape on trial " << trial << ": " << soup;
    }
  }
}

TEST(ScheduleIo, RoundTrip) {
  const Instance inst = randomInstance(5, 8, 3);
  const IntegralSchedule schedule = solveApprox(inst).schedule;
  std::stringstream buffer;
  io::writeSchedule(buffer, schedule);
  const IntegralSchedule back = io::readSchedule(buffer, inst);
  ASSERT_EQ(back.numTasks(), schedule.numTasks());
  for (int j = 0; j < schedule.numTasks(); ++j) {
    EXPECT_EQ(back.machineOf(j), schedule.machineOf(j));
    EXPECT_DOUBLE_EQ(back.duration(j), schedule.duration(j));
    EXPECT_DOUBLE_EQ(back.start(j), schedule.start(j));
  }
  EXPECT_DOUBLE_EQ(back.totalAccuracy(inst), schedule.totalAccuracy(inst));
}

TEST(ScheduleIo, RejectsBadIndices) {
  const Instance inst = tinyInstance();
  std::stringstream bad1("dsct-schedule v1\nassign 7 0 1.0\n");
  EXPECT_THROW(io::readSchedule(bad1, inst), CheckError);
  std::stringstream bad2("dsct-schedule v1\nassign 0 9 1.0\n");
  EXPECT_THROW(io::readSchedule(bad2, inst), CheckError);
  std::stringstream bad3("dsct-schedule v1\nassign 0 0\n");
  EXPECT_THROW(io::readSchedule(bad3, inst), CheckError);
}

TEST(ScheduleIo, FullPipelineThroughFiles) {
  // Solve, persist, reload, validate: the tool workflow.
  const std::string dir = ::testing::TempDir();
  const Instance inst = randomInstance(11, 10, 3);
  io::writeInstanceFile(dir + "/pipeline_inst.txt", inst);
  const Instance loaded = io::readInstanceFile(dir + "/pipeline_inst.txt");
  const ApproxResult res = solveApprox(loaded);
  io::writeScheduleFile(dir + "/pipeline_sched.txt", res.schedule);
  const IntegralSchedule back =
      io::readScheduleFile(dir + "/pipeline_sched.txt", loaded);
  EXPECT_TRUE(validate(loaded, back).feasible);
  EXPECT_NEAR(back.totalAccuracy(loaded), res.totalAccuracy, 1e-12);
}

}  // namespace
}  // namespace dsct
