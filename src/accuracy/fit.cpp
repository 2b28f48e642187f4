#include "accuracy/fit.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace dsct {

std::vector<double> makeBreakpoints(double fmax, int segments,
                                    BreakpointSpacing spacing) {
  DSCT_CHECK(fmax > 0.0);
  DSCT_CHECK(segments >= 1);
  std::vector<double> bp(static_cast<std::size_t>(segments) + 1);
  bp[0] = 0.0;
  const auto segCount = static_cast<double>(segments);
  if (spacing == BreakpointSpacing::kUniform) {
    for (int k = 1; k <= segments; ++k) {
      bp[static_cast<std::size_t>(k)] = fmax * static_cast<double>(k) / segCount;
    }
  } else {
    // Geometric: segment lengths grow by a fixed ratio so early segments
    // (where a concave curve bends fastest) are short. Ratio 2 doubles each
    // segment length; lengths L, 2L, 4L, ... summing to fmax.
    constexpr double kRatio = 2.0;
    const double total = (std::pow(kRatio, segCount) - 1.0) / (kRatio - 1.0);
    double f = 0.0;
    double len = fmax / total;
    for (int k = 1; k <= segments; ++k) {
      f += len;
      bp[static_cast<std::size_t>(k)] = f;
      len *= kRatio;
    }
    bp.back() = fmax;  // kill accumulated round-off
  }
  return bp;
}

PiecewiseLinearAccuracy fitInterpolate(const ExponentialAccuracyModel& model,
                                       std::vector<double> breakpoints) {
  DSCT_CHECK(breakpoints.size() >= 2);
  std::vector<double> values(breakpoints.size());
  for (std::size_t k = 0; k < breakpoints.size(); ++k) {
    values[k] = model.value(breakpoints[k]);
  }
  // Affine rescale so the fit spans exactly [amin, amax]; an affine map of a
  // concave function stays concave.
  const double lo = values.front();
  const double hi = values.back();
  DSCT_CHECK(hi > lo);
  const double scale = (model.amax() - model.amin()) / (hi - lo);
  for (double& v : values) {
    v = model.amin() + (v - lo) * scale;
  }
  return PiecewiseLinearAccuracy::fromPoints(std::move(breakpoints),
                                             std::move(values));
}

PiecewiseLinearAccuracy makePaperAccuracy(double amin, double amax,
                                          double theta, int segments,
                                          double eps) {
  const ExponentialAccuracyModel model(amin, amax, theta);
  const double fmax = model.flopsForCoverage(eps);
  auto bp = makeBreakpoints(fmax, segments, BreakpointSpacing::kGeometric);
  return fitInterpolate(model, std::move(bp));
}

double paperAccuracyAmax(double amin, double amax, double theta, int segments,
                         double eps) {
  const ExponentialAccuracyModel model(amin, amax, theta);
  const double fmax = model.flopsForCoverage(eps);
  DSCT_CHECK(fmax > 0.0);
  DSCT_CHECK(segments >= 1);
  // fitInterpolate's rescale of the last breakpoint, which makeBreakpoints
  // sets to fmax exactly.
  const double lo = model.value(0.0);
  const double hi = model.value(fmax);
  DSCT_CHECK(hi > lo);
  const double scale = (model.amax() - model.amin()) / (hi - lo);
  return model.amin() + (hi - lo) * scale;
}

}  // namespace dsct
