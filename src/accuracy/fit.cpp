#include "accuracy/fit.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dsct {

namespace {

/// Solve the dense symmetric system A x = b by Gaussian elimination with
/// partial pivoting. A is row-major n×n. Small n (breakpoint count), so a
/// dense direct solve is appropriate.
std::vector<double> solveDense(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  DSCT_CHECK(a.size() == n * n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a[row * n + col]) > std::fabs(a[pivot * n + col])) {
        pivot = row;
      }
    }
    DSCT_CHECK_MSG(std::fabs(a[pivot * n + col]) > 1e-12,
                   "singular normal equations in least-squares fit");
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k) {
        std::swap(a[pivot * n + k], a[col * n + k]);
      }
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) {
        a[row * n + k] -= factor * a[col * n + k];
      }
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= a[i * n + k] * x[k];
    x[i] = acc / a[i * n + i];
  }
  return x;
}

/// Rebuild a concave PWL function from fitted breakpoint values: slopes are
/// projected to the non-increasing, non-negative cone and values re-anchored
/// at v0.
PiecewiseLinearAccuracy rebuildConcave(const std::vector<double>& breakpoints,
                                       const std::vector<double>& values) {
  const std::size_t segments = breakpoints.size() - 1;
  std::vector<double> slopes(segments);
  std::vector<double> weights(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    const double df = breakpoints[k + 1] - breakpoints[k];
    slopes[k] = (values[k + 1] - values[k]) / df;
    weights[k] = df;
  }
  std::vector<double> projected = isotonicNonIncreasing(slopes, weights);
  for (double& s : projected) s = std::max(0.0, s);
  std::vector<double> out(values.size());
  out[0] = std::clamp(values[0], 0.0, 1.0);
  for (std::size_t k = 0; k < segments; ++k) {
    out[k + 1] = out[k] + projected[k] * (breakpoints[k + 1] - breakpoints[k]);
  }
  // Clamp into [0,1] while preserving monotonicity/concavity: accuracy values
  // should already lie in range; numerical excess is shaved off the top by
  // uniform rescale of the gains.
  if (out.back() > 1.0) {
    const double scale = (1.0 - out.front()) / (out.back() - out.front());
    for (std::size_t k = 1; k < out.size(); ++k) {
      out[k] = out.front() + (out[k] - out.front()) * scale;
    }
  }
  return PiecewiseLinearAccuracy::fromPoints(breakpoints, out);
}

}  // namespace

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

PiecewiseLinearAccuracy fitLeastSquares(
    const std::function<double(double)>& fn, std::vector<double> breakpoints,
    int samplesPerSegment) {
  DSCT_CHECK(breakpoints.size() >= 2);
  DSCT_CHECK(samplesPerSegment >= 2);
  const std::size_t nv = breakpoints.size();
  std::vector<double> ata(nv * nv, 0.0);
  std::vector<double> atb(nv, 0.0);
  // Hat-function basis: on segment k, a sample at x contributes to values
  // v_k and v_{k+1} with weights (1-u) and u, u = (x-f_k)/(f_{k+1}-f_k).
  for (std::size_t k = 0; k + 1 < nv; ++k) {
    const double f0 = breakpoints[k];
    const double f1 = breakpoints[k + 1];
    for (int s = 0; s < samplesPerSegment; ++s) {
      const double u = (static_cast<double>(s) + 0.5) /
                       static_cast<double>(samplesPerSegment);
      const double x = f0 + u * (f1 - f0);
      const double y = fn(x);
      const double w0 = 1.0 - u;
      const double w1 = u;
      ata[k * nv + k] += w0 * w0;
      ata[k * nv + (k + 1)] += w0 * w1;
      ata[(k + 1) * nv + k] += w0 * w1;
      ata[(k + 1) * nv + (k + 1)] += w1 * w1;
      atb[k] += w0 * y;
      atb[k + 1] += w1 * y;
    }
  }
  const std::vector<double> values = solveDense(std::move(ata), std::move(atb));
  return rebuildConcave(breakpoints, values);
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

std::vector<double> isotonicNonIncreasing(const std::vector<double>& ys,
                                          const std::vector<double>& weights) {
  DSCT_CHECK(ys.size() == weights.size());
  // PAV on the negated sequence solves the non-increasing case via the
  // classic non-decreasing algorithm; we implement non-increasing directly:
  // merge adjacent blocks whenever a later block's mean exceeds an earlier
  // block's mean.
  struct Block {
    double sum;     // weighted sum
    double weight;  // total weight
    std::size_t count;
    double mean() const { return sum / weight; }
  };
  std::vector<Block> blocks;
  blocks.reserve(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    DSCT_CHECK(weights[i] > 0.0);
    blocks.push_back({ys[i] * weights[i], weights[i], 1});
    while (blocks.size() >= 2 &&
           blocks[blocks.size() - 2].mean() < blocks.back().mean()) {
      Block merged{
          blocks[blocks.size() - 2].sum + blocks.back().sum,
          blocks[blocks.size() - 2].weight + blocks.back().weight,
          blocks[blocks.size() - 2].count + blocks.back().count,
      };
      blocks.pop_back();
      blocks.back() = merged;
    }
  }
  std::vector<double> out;
  out.reserve(ys.size());
  for (const Block& b : blocks) {
    for (std::size_t i = 0; i < b.count; ++i) out.push_back(b.mean());
  }
  return out;
}

}  // namespace dsct
