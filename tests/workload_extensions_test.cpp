// Arrival processes.
#include <gtest/gtest.h>

#include <limits>

#include "sim/serving.h"
#include "util/check.h"
#include "workload/arrivals.h"
#include "workload/gpu_catalog.h"

namespace dsct {
namespace {

TEST(Arrivals, PoissonRateIsConstant) {
  const ArrivalProcess p = ArrivalProcess::poisson(5.0);
  EXPECT_DOUBLE_EQ(p.rateAt(0.0), 5.0);
  EXPECT_DOUBLE_EQ(p.rateAt(123.0), 5.0);
}

TEST(Arrivals, PoissonSampleCountMatchesRate) {
  const ArrivalProcess p = ArrivalProcess::poisson(50.0);
  Rng rng(8);
  const auto arrivals = p.sample(100.0, rng);
  // ~5000 expected; 4σ ≈ 280.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 5000.0, 300.0);
  for (std::size_t i = 0; i + 1 < arrivals.size(); ++i) {
    EXPECT_LT(arrivals[i], arrivals[i + 1]);
  }
}

TEST(Arrivals, DiurnalRateOscillates) {
  const ArrivalProcess p = ArrivalProcess::diurnal(10.0, 100.0, 86400.0);
  EXPECT_NEAR(p.rateAt(0.0), 10.0, 1e-9);           // midnight: base
  EXPECT_NEAR(p.rateAt(43200.0), 100.0, 1e-9);      // noon: peak
  EXPECT_NEAR(p.rateAt(86400.0), 10.0, 1e-9);       // wraps
  EXPECT_GT(p.rateAt(21600.0), 10.0);
  EXPECT_LT(p.rateAt(21600.0), 100.0);
}

TEST(Arrivals, DiurnalSamplesFollowTheRate) {
  const ArrivalProcess p = ArrivalProcess::diurnal(1.0, 200.0, 100.0);
  Rng rng(21);
  const auto arrivals = p.sample(100.0, rng);
  // Count arrivals near the trough [0, 20) vs near the peak [40, 60).
  int trough = 0, peak = 0;
  for (double t : arrivals) {
    if (t < 20.0) ++trough;
    if (t >= 40.0 && t < 60.0) ++peak;
  }
  EXPECT_GT(peak, 3 * trough);
}

TEST(Arrivals, ValidatesParameters) {
  EXPECT_THROW(ArrivalProcess::poisson(0.0), CheckError);
  EXPECT_THROW(ArrivalProcess::diurnal(5.0, 4.0, 10.0), CheckError);
  EXPECT_THROW(ArrivalProcess::diurnal(0.0, 1.0, 0.0), CheckError);
}

TEST(Arrivals, EmptyHorizon) {
  const ArrivalProcess p = ArrivalProcess::poisson(10.0);
  Rng rng(1);
  EXPECT_TRUE(p.sample(0.0, rng).empty());
}

TEST(Arrivals, FeedsServingDriver) {
  const ArrivalProcess p = ArrivalProcess::diurnal(5.0, 80.0, 4.0);
  Rng rng(33);
  sim::ServingOptions options;
  options.arrivalTimes = p.sample(4.0, rng);
  options.horizonSeconds = 4.0;
  options.epochSeconds = 0.5;
  options.energyBudgetPerEpoch = 40.0;
  const auto machines = machinesFromCatalog({"T4"});
  const auto stats = sim::runServing(machines, "approx", options);
  EXPECT_EQ(stats.requests, static_cast<int>(options.arrivalTimes.size()));
}

TEST(Arrivals, ServingRejectsUnsortedTimes) {
  sim::ServingOptions options;
  options.arrivalTimes = {1.0, 0.5};
  options.horizonSeconds = 2.0;
  const auto machines = machinesFromCatalog({"T4"});
  EXPECT_THROW(sim::runServing(machines, "approx", options),
               CheckError);
}

TEST(Arrivals, NonFiniteHorizonRejected) {
  // A NaN horizon never ends the epoch loop, and an infinite one grows the
  // arrival stream until allocation fails: the sampler and the serving
  // driver both reject them up front, with or without a request trace.
  const auto machines = machinesFromCatalog({"T4"});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double horizon :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    SCOPED_TRACE(horizon);
    Rng rng(5);
    EXPECT_THROW(ArrivalProcess::poisson(5.0).sample(horizon, rng),
                 CheckError);
    EXPECT_THROW(ArrivalProcess::mmpp(2.0, 20.0, 1.0, 1.0).sample(horizon, rng),
                 CheckError);
    sim::ServingOptions options;
    options.horizonSeconds = horizon;
    EXPECT_THROW(sim::runServing(machines, "edf3", options), CheckError);
    options.requestTrace = {sim::RequestSpec{.arrival = 0.1}};
    EXPECT_THROW(sim::runServing(machines, "edf3", options), CheckError);
  }
}

}  // namespace
}  // namespace dsct
