// Fitting concave piecewise-linear accuracy functions to smooth models.
//
// The paper constructs each task's accuracy function by "performing a linear
// regression with 5 segments over an exponential accuracy function"
// (Section 6). fitInterpolate samples the model at breakpoints (chords of a
// concave function are automatically concave), then rescales affinely so the
// fit hits amin at 0 and amax at fmax exactly.
#pragma once

#include <vector>

#include "accuracy/exponential.h"
#include "accuracy/piecewise.h"

namespace dsct {

enum class BreakpointSpacing {
  kUniform,    ///< equally spaced in f
  kGeometric,  ///< denser near 0, where the exponential curve bends
};

/// Breakpoint grid 0 = f0 < ... < fK = fmax.
std::vector<double> makeBreakpoints(double fmax, int segments,
                                    BreakpointSpacing spacing);

/// Chord interpolation of `model` on the given breakpoints, affinely rescaled
/// to pass through (0, amin) and (fmax, amax).
PiecewiseLinearAccuracy fitInterpolate(const ExponentialAccuracyModel& model,
                                       std::vector<double> breakpoints);

/// The paper's task construction: 5 geometric segments fitted on an
/// exponential model of efficiency theta, covering all but `eps` of the
/// accuracy range. fmax is where the fit reaches amax.
PiecewiseLinearAccuracy makePaperAccuracy(double amin, double amax,
                                          double theta, int segments = 5,
                                          double eps = 0.01);

/// makePaperAccuracy(amin, amax, theta, segments, eps).amax(), bit for bit,
/// without building the curve: the fit's affine rescale of the model's value
/// at fmax. Runs the model's argument checks and the fit's, not the curve's.
double paperAccuracyAmax(double amin, double amax, double theta,
                         int segments = 5, double eps = 0.01);

}  // namespace dsct
