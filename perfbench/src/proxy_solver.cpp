#include "proxy_solver.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/solver_registry.h"

namespace perfbench {
namespace {

class ProxySolver final : public dsct::Solver {
 public:
  explicit ProxySolver(const dsct::Solver& inner)
      : inner_(inner),
        name_("bench." + inner.name()),
        displayName_(inner.displayName() + " (traced)") {}

  const std::string& name() const override { return name_; }
  const std::string& displayName() const override { return displayName_; }
  dsct::SolverCapabilities capabilities() const override {
    return inner_.capabilities();
  }

 protected:
  dsct::SolveOutcome doSolve(const dsct::Instance& inst,
                             const dsct::SolveContext& context) const override {
    SolveRecorder& recorder = SolveRecorder::instance();
    SolveRecord record = recorder.begin(inner_.name(), context);
    dsct::SolveOutcome outcome = inner_.solve(inst, context);
    recorder.finish(std::move(record), outcome);
    return outcome;
  }

 private:
  const dsct::Solver& inner_;
  std::string name_;
  std::string displayName_;
};

}  // namespace

SolveRecorder& SolveRecorder::instance() {
  static SolveRecorder recorder;
  return recorder;
}

void SolveRecorder::reset(std::string primary, bool shardedCells) {
  const std::lock_guard<std::mutex> lock(mutex_);
  primary_ = std::move(primary);
  shardedCells_ = shardedCells;
  epoch_ = -1;
  epochCells_.clear();
  epochToppedUp_ = false;
  records_.clear();
}

std::vector<SolveRecord> SolveRecorder::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

SolveRecord SolveRecorder::begin(const std::string& solver,
                                 const dsct::SolveContext& context) {
  SolveRecord record;
  record.solver = solver;
  record.thread = threadNumber();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!shardedCells_) {
      if (solver == primary_ || epoch_ < 0) ++epoch_;
    } else if (context.energyPrice >= 0.0) {
      const void* cell = context.lpWarm;
      const bool repeat = std::find(epochCells_.begin(), epochCells_.end(),
                                    cell) != epochCells_.end();
      if (epoch_ < 0 || repeat || epochToppedUp_) {
        ++epoch_;
        epochCells_.clear();
        epochToppedUp_ = false;
      }
      epochCells_.push_back(cell);
    } else {
      epochToppedUp_ = true;
      epoch_ = std::max(epoch_, 0LL);
    }
    record.epoch = epoch_;
  }
  record.time.start = nowSeconds();
  return record;
}

void SolveRecorder::finish(SolveRecord record,
                           const dsct::SolveOutcome& outcome) {
  record.time.end = nowSeconds();
  record.counters = outcome.counters;
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

std::string proxyName(const std::string& name) {
  dsct::SolverRegistry& registry = dsct::SolverRegistry::instance();
  const dsct::Solver& inner = registry.resolve(name);
  std::string proxy = "bench." + inner.name();
  static std::mutex mutex;  // the find-then-add below must not race
  const std::lock_guard<std::mutex> lock(mutex);
  if (registry.find(proxy) == nullptr) {
    registry.add(std::make_unique<ProxySolver>(inner));
  }
  return proxy;
}

}  // namespace perfbench
