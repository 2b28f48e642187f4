#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "accuracy/exponential.h"
#include "accuracy/fit.h"
#include "accuracy/levels.h"
#include "accuracy/piecewise.h"
#include "util/check.h"

namespace dsct {
namespace {

PiecewiseLinearAccuracy sample() {
  // Slopes 0.4, 0.2, 0.1 over [0,1], [1,2], [2,4].
  return PiecewiseLinearAccuracy::fromPoints({0.0, 1.0, 2.0, 4.0},
                                             {0.1, 0.5, 0.7, 0.9});
}

TEST(Piecewise, BasicAccessors) {
  const auto f = sample();
  EXPECT_EQ(f.numSegments(), 3);
  EXPECT_DOUBLE_EQ(f.fmax(), 4.0);
  EXPECT_DOUBLE_EQ(f.amin(), 0.1);
  EXPECT_DOUBLE_EQ(f.amax(), 0.9);
  EXPECT_DOUBLE_EQ(f.slope(0), 0.4);
  EXPECT_DOUBLE_EQ(f.slope(2), 0.1);
  EXPECT_DOUBLE_EQ(f.theta(), 0.4);
}

TEST(Piecewise, ValueInterpolatesAndClamps) {
  const auto f = sample();
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.1);
  EXPECT_DOUBLE_EQ(f.value(0.5), 0.3);
  EXPECT_DOUBLE_EQ(f.value(1.0), 0.5);
  EXPECT_DOUBLE_EQ(f.value(3.0), 0.8);
  EXPECT_DOUBLE_EQ(f.value(4.0), 0.9);
  EXPECT_DOUBLE_EQ(f.value(-1.0), 0.1);   // clamp below
  EXPECT_DOUBLE_EQ(f.value(100.0), 0.9);  // clamp above
}

TEST(Piecewise, SegmentOf) {
  const auto f = sample();
  EXPECT_EQ(f.segmentOf(0.0), 0);
  EXPECT_EQ(f.segmentOf(0.99), 0);
  EXPECT_EQ(f.segmentOf(1.0), 1);
  EXPECT_EQ(f.segmentOf(3.9), 2);
  EXPECT_EQ(f.segmentOf(4.0), 2);
  EXPECT_EQ(f.segmentOf(99.0), 2);
}

TEST(Piecewise, MarginalGainAndLossAtBreakpoints) {
  const auto f = sample();
  // Interior of a segment: gain == loss == slope.
  EXPECT_DOUBLE_EQ(f.marginalGain(0.5), 0.4);
  EXPECT_DOUBLE_EQ(f.marginalLoss(0.5), 0.4);
  // At a breakpoint: gain is the right slope, loss the left slope.
  EXPECT_DOUBLE_EQ(f.marginalGain(1.0), 0.2);
  EXPECT_DOUBLE_EQ(f.marginalLoss(1.0), 0.4);
  // At the ends.
  EXPECT_DOUBLE_EQ(f.marginalGain(0.0), 0.4);
  EXPECT_DOUBLE_EQ(f.marginalGain(4.0), 0.0);
  EXPECT_DOUBLE_EQ(f.marginalLoss(4.0), 0.1);
}

TEST(Piecewise, InverseRoundTrips) {
  const auto f = sample();
  for (double a : {0.1, 0.3, 0.5, 0.6, 0.7, 0.85, 0.9}) {
    const double flops = f.inverse(a);
    EXPECT_NEAR(f.value(flops), a, 1e-12) << "a=" << a;
  }
  EXPECT_DOUBLE_EQ(f.inverse(0.1), 0.0);
  EXPECT_DOUBLE_EQ(f.inverse(0.9), 4.0);
  EXPECT_THROW(f.inverse(0.95), CheckError);
}

TEST(Piecewise, SegmentView) {
  const auto f = sample();
  const AccuracySegment seg = f.segment(1);
  EXPECT_DOUBLE_EQ(seg.slope, 0.2);
  EXPECT_DOUBLE_EQ(seg.fLo, 1.0);
  EXPECT_DOUBLE_EQ(seg.fHi, 2.0);
  EXPECT_DOUBLE_EQ(seg.flops(), 1.0);
}

TEST(Piecewise, RejectsNonConcave) {
  EXPECT_THROW(PiecewiseLinearAccuracy::fromPoints({0.0, 1.0, 2.0},
                                                   {0.0, 0.1, 0.5}),
               CheckError);
}

TEST(Piecewise, RejectsDecreasingValues) {
  EXPECT_THROW(
      PiecewiseLinearAccuracy::fromPoints({0.0, 1.0}, {0.5, 0.2}),
      CheckError);
}

TEST(Piecewise, RejectsBadBreakpoints) {
  EXPECT_THROW(
      PiecewiseLinearAccuracy::fromPoints({0.5, 1.0}, {0.0, 0.2}),
      CheckError);
  EXPECT_THROW(
      PiecewiseLinearAccuracy::fromPoints({0.0, 0.0}, {0.0, 0.2}),
      CheckError);
  EXPECT_THROW(PiecewiseLinearAccuracy::fromPoints({0.0}, {0.0}), CheckError);
}

TEST(Piecewise, RejectsOutOfRangeAccuracy) {
  EXPECT_THROW(
      PiecewiseLinearAccuracy::fromPoints({0.0, 1.0}, {0.0, 1.5}),
      CheckError);
}

TEST(Piecewise, LinearFactory) {
  const auto f = PiecewiseLinearAccuracy::linear(0.1, 0.9, 2.0);
  EXPECT_EQ(f.numSegments(), 1);
  EXPECT_DOUBLE_EQ(f.value(1.0), 0.5);
}

TEST(Exponential, MatchesClosedForm) {
  const ExponentialAccuracyModel model(0.001, 0.82, 0.1);
  EXPECT_DOUBLE_EQ(model.value(0.0), 0.001);
  EXPECT_NEAR(model.derivative(0.0), 0.1, 1e-12);
  // Monotone increasing, concave.
  double prev = model.value(0.0);
  double prevSlope = model.derivative(0.0);
  for (double f = 0.5; f < 40.0; f += 0.5) {
    EXPECT_GT(model.value(f), prev);
    EXPECT_LT(model.derivative(f), prevSlope);
    prev = model.value(f);
    prevSlope = model.derivative(f);
  }
}

TEST(Exponential, CoverageInversion) {
  const ExponentialAccuracyModel model(0.001, 0.82, 0.5);
  const double f = model.flopsForCoverage(0.01);
  EXPECT_NEAR(model.value(f), 0.82 - 0.01 * (0.82 - 0.001), 1e-12);
  EXPECT_THROW(model.flopsForCoverage(0.0), CheckError);
}

TEST(Exponential, RejectsBadParameters) {
  EXPECT_THROW(ExponentialAccuracyModel(0.5, 0.4, 0.1), CheckError);
  EXPECT_THROW(ExponentialAccuracyModel(0.0, 0.8, -1.0), CheckError);
  EXPECT_THROW(ExponentialAccuracyModel(-0.1, 0.8, 0.1), CheckError);
}

TEST(Breakpoints, UniformSpacing) {
  const auto bp = makeBreakpoints(10.0, 5, BreakpointSpacing::kUniform);
  ASSERT_EQ(bp.size(), 6u);
  EXPECT_DOUBLE_EQ(bp.front(), 0.0);
  EXPECT_DOUBLE_EQ(bp.back(), 10.0);
  EXPECT_DOUBLE_EQ(bp[1], 2.0);
}

TEST(Breakpoints, GeometricSpacingIsDenserNearZero) {
  const auto bp = makeBreakpoints(10.0, 4, BreakpointSpacing::kGeometric);
  ASSERT_EQ(bp.size(), 5u);
  EXPECT_DOUBLE_EQ(bp.front(), 0.0);
  EXPECT_DOUBLE_EQ(bp.back(), 10.0);
  for (std::size_t k = 0; k + 2 < bp.size(); ++k) {
    EXPECT_LT(bp[k + 1] - bp[k], bp[k + 2] - bp[k + 1]);
  }
}

TEST(FitInterpolate, EndpointsExactAndConcave) {
  const ExponentialAccuracyModel model(0.001, 0.82, 0.1);
  const double fmax = model.flopsForCoverage(0.01);
  const auto fit = fitInterpolate(
      model, makeBreakpoints(fmax, 5, BreakpointSpacing::kGeometric));
  EXPECT_DOUBLE_EQ(fit.amin(), 0.001);
  EXPECT_NEAR(fit.amax(), 0.82, 1e-12);
  EXPECT_EQ(fit.numSegments(), 5);
  // Construction validates concavity; also check the fit tracks the model.
  for (double f = 0.0; f <= fmax; f += fmax / 37.0) {
    EXPECT_NEAR(fit.value(f), model.value(f), 0.05);
  }
}

TEST(MakePaperAccuracy, MatchesPaperParameters) {
  const auto acc = makePaperAccuracy(0.001, 0.82, 0.1);
  EXPECT_EQ(acc.numSegments(), 5);
  EXPECT_DOUBLE_EQ(acc.amin(), 0.001);
  EXPECT_NEAR(acc.amax(), 0.82, 1e-9);
  EXPECT_GT(acc.fmax(), 0.0);
  // The first-segment slope tracks θ (the interpolated chord is slightly
  // shallower than the true derivative at 0).
  EXPECT_GT(acc.theta(), 0.05);
  EXPECT_LT(acc.theta(), 0.12);
}

TEST(MakePaperAccuracy, HigherThetaMeansSmallerFmax) {
  const auto slow = makePaperAccuracy(0.001, 0.82, 0.1);
  const auto fast = makePaperAccuracy(0.001, 0.82, 1.0);
  EXPECT_GT(slow.fmax(), fast.fmax());
  EXPECT_NEAR(slow.fmax() / fast.fmax(), 10.0, 1e-6);
}

TEST(MakePaperAccuracy, AmaxWithoutTheCurveIsBitIdentical) {
  // Admission control ranks fresh requests by paperAccuracyAmax − amin, so
  // it must reproduce the built curve's amax() and value(0) to the bit.
  const std::vector<std::pair<double, double>> ranges = {
      {0.001, 0.82}, {0.0, 1.0}, {0.3, 0.31}, {0.05, 0.95}};
  constexpr int kThetas = 2000;
  for (const auto& [amin, amax] : ranges) {
    for (double eps : {0.01, 0.001, 0.2}) {
      for (int segments : {1, 3, 5, 8}) {
        for (int k = 0; k <= kThetas; ++k) {
          const double theta =
              1e-3 * std::pow(1e6, static_cast<double>(k) / kThetas);
          const PiecewiseLinearAccuracy curve =
              makePaperAccuracy(amin, amax, theta, segments, eps);
          ASSERT_EQ(paperAccuracyAmax(amin, amax, theta, segments, eps),
                    curve.amax())
              << "amin " << amin << " amax " << amax << " theta " << theta
              << " segments " << segments << " eps " << eps;
          ASSERT_EQ(curve.value(0.0), amin);
        }
      }
    }
  }
}

TEST(MakePaperAccuracy, AmaxWithoutTheCurveRunsTheSameChecks) {
  EXPECT_THROW(paperAccuracyAmax(0.001, 0.82, 0.0), CheckError);
  EXPECT_THROW(paperAccuracyAmax(0.5, 0.4, 1.0), CheckError);
  EXPECT_THROW(paperAccuracyAmax(-0.1, 0.8, 1.0), CheckError);
  EXPECT_THROW(paperAccuracyAmax(0.001, 0.82, 1.0, 5, 1.0), CheckError);
  EXPECT_THROW(paperAccuracyAmax(0.001, 0.82, 1.0, 0), CheckError);
}

TEST(Levels, ForTargetsSortedAndClamped) {
  const auto acc = PiecewiseLinearAccuracy::fromPoints({0.0, 1.0, 2.0, 4.0},
                                                       {0.1, 0.5, 0.7, 0.9});
  const auto levels = levelsForTargets(acc, {0.95, 0.5, 0.3});
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_LT(levels[0].flops, levels[1].flops);
  EXPECT_LT(levels[1].flops, levels[2].flops);
  EXPECT_DOUBLE_EQ(levels[0].accuracy, 0.3);
  EXPECT_DOUBLE_EQ(levels[1].accuracy, 0.5);
  EXPECT_DOUBLE_EQ(levels[2].accuracy, 0.9);  // clamped to amax
  EXPECT_DOUBLE_EQ(levels[2].flops, 4.0);
}

TEST(Levels, DeduplicatesAfterClamping) {
  const auto acc = PiecewiseLinearAccuracy::linear(0.0, 0.5, 1.0);
  const auto levels = levelsForTargets(acc, {0.6, 0.9});
  EXPECT_EQ(levels.size(), 1u);  // both clamp to amax
}

TEST(Levels, PaperThreeLevels) {
  const auto acc = makePaperAccuracy(0.001, 0.82, 0.5);
  const auto levels = paperThreeLevels(acc);
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_NEAR(levels[0].accuracy, 0.27, 1e-9);
  EXPECT_NEAR(levels[1].accuracy, 0.55, 1e-9);
  EXPECT_NEAR(levels[2].accuracy, 0.82, 1e-9);
}

}  // namespace
}  // namespace dsct
