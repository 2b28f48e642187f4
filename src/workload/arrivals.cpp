#include "workload/arrivals.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace dsct {

ArrivalProcess ArrivalProcess::poisson(double ratePerSecond) {
  DSCT_CHECK(ratePerSecond > 0.0);
  return ArrivalProcess(Kind::kPoisson, ratePerSecond, ratePerSecond, 0.0);
}

ArrivalProcess ArrivalProcess::diurnal(double baseRatePerSecond,
                                       double peakRatePerSecond,
                                       double periodSeconds) {
  DSCT_CHECK(baseRatePerSecond >= 0.0);
  DSCT_CHECK(peakRatePerSecond >= baseRatePerSecond);
  DSCT_CHECK(peakRatePerSecond > 0.0);
  DSCT_CHECK(periodSeconds > 0.0);
  return ArrivalProcess(Kind::kDiurnal, baseRatePerSecond, peakRatePerSecond,
                        periodSeconds);
}

ArrivalProcess ArrivalProcess::mmpp(double rateLowPerSecond,
                                    double rateHighPerSecond,
                                    double meanLowDwellSeconds,
                                    double meanHighDwellSeconds) {
  DSCT_CHECK(rateLowPerSecond > 0.0);
  DSCT_CHECK(rateHighPerSecond >= rateLowPerSecond);
  DSCT_CHECK(meanLowDwellSeconds > 0.0);
  DSCT_CHECK(meanHighDwellSeconds > 0.0);
  ArrivalProcess p(Kind::kMmpp, rateLowPerSecond, rateHighPerSecond, 0.0);
  p.dwellLow_ = meanLowDwellSeconds;
  p.dwellHigh_ = meanHighDwellSeconds;
  return p;
}

ArrivalProcess ArrivalProcess::flashCrowd(double baseRatePerSecond,
                                          double burstFactor,
                                          double startSeconds,
                                          double decaySeconds) {
  DSCT_CHECK(baseRatePerSecond > 0.0);
  DSCT_CHECK(burstFactor >= 1.0);
  DSCT_CHECK(startSeconds >= 0.0);
  DSCT_CHECK(decaySeconds > 0.0);
  ArrivalProcess p(Kind::kFlashCrowd, baseRatePerSecond,
                   baseRatePerSecond * burstFactor, 0.0);
  p.startSeconds_ = startSeconds;
  p.decaySeconds_ = decaySeconds;
  return p;
}

double ArrivalProcess::rateAt(double t) const {
  switch (kind_) {
    case Kind::kPoisson:
      return base_;
    case Kind::kDiurnal: {
      const double phase = 2.0 * std::numbers::pi * t / period_;
      return base_ + (peak_ - base_) * (1.0 - std::cos(phase)) / 2.0;
    }
    case Kind::kMmpp:
      // Stationary mean of the alternating chain; the sampled intensity is
      // base_ or peak_ depending on the (random) modulating state.
      return (base_ * dwellLow_ + peak_ * dwellHigh_) /
             (dwellLow_ + dwellHigh_);
    case Kind::kFlashCrowd:
      if (t < startSeconds_) return base_;
      return base_ + (peak_ - base_) *
                         std::exp(-(t - startSeconds_) / decaySeconds_);
  }
  return base_;
}

std::vector<double> ArrivalProcess::sample(double horizonSeconds,
                                           Rng& rng) const {
  DSCT_CHECK_MSG(std::isfinite(horizonSeconds) && horizonSeconds >= 0.0,
                 "arrival horizon must be finite and >= 0, got "
                     << horizonSeconds);
  if (kind_ == Kind::kMmpp) return sampleMmpp(horizonSeconds, rng);
  std::vector<double> arrivals;
  // Thinning: draw a homogeneous Poisson at the max rate and accept each
  // point with probability λ(t)/λ_max. A constant-rate process accepts
  // every point without drawing (bit-compatible with the original
  // Poisson-only sampler).
  double t = 0.0;
  for (;;) {
    t += rng.exponential(peak_);
    if (t >= horizonSeconds) break;
    if (kind_ == Kind::kPoisson ||
        rng.uniform(0.0, 1.0) * peak_ <= rateAt(t)) {
      arrivals.push_back(t);
    }
  }
  return arrivals;
}

std::vector<double> ArrivalProcess::sampleMmpp(double horizonSeconds,
                                               Rng& rng) const {
  std::vector<double> arrivals;
  // Alternate low/high dwell segments; within each segment arrivals are
  // homogeneous Poisson at the segment's rate. Restarting the exponential
  // clock at every state switch is distribution-preserving (memorylessness)
  // and keeps the draw order a simple deterministic alternation:
  // dwell, arrivals…, dwell, arrivals…
  bool high = false;
  double segStart = 0.0;
  while (segStart < horizonSeconds) {
    const double dwell = rng.exponential(1.0 / (high ? dwellHigh_ : dwellLow_));
    const double segEnd = std::min(horizonSeconds, segStart + dwell);
    const double rate = high ? peak_ : base_;
    double t = segStart;
    for (;;) {
      t += rng.exponential(rate);
      if (t >= segEnd) break;
      arrivals.push_back(t);
    }
    segStart += dwell;
    high = !high;
  }
  return arrivals;
}

}  // namespace dsct
