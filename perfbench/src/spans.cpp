#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/json.h"
#include "util/stats.h"

namespace perfbench {

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int threadNumber() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  dsct::Json events = dsct::Json::array();
  for (const Span& span : spans) {
    dsct::Json args = dsct::Json::object();
    args.set("id", span.id);
    if (span.parent >= 0) args.set("parent", span.parent);
    dsct::Json event = dsct::Json::object();
    event.set("name", span.name);
    event.set("cat", span.layer);
    event.set("ph", "X");
    event.set("ts", span.time.start * 1e6);
    event.set("dur", span.time.seconds() * 1e6);
    event.set("pid", 1);
    event.set("tid", span.thread);
    event.set("args", std::move(args));
    events.push(std::move(event));
  }
  dsct::Json trace = dsct::Json::object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", "ms");
  return dsct::Json::writeFile(path, trace, 0);
}

double unionSeconds(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  bool open = false;
  Interval covered;
  for (const Interval& interval : intervals) {
    if (interval.end <= interval.start) continue;
    if (open && interval.start <= covered.end) {
      covered.end = std::max(covered.end, interval.end);
      continue;
    }
    if (open) total += covered.seconds();
    covered = interval;
    open = true;
  }
  if (open) total += covered.seconds();
  return total;
}

double tailPercentile(std::size_t n) {
  // Candidates in hundredths of a percent, so "at least ten samples above"
  // is exact integer arithmetic: n · (100% − p) >= 10.
  double best = 50.0;
  for (const long long hundredths : {9000LL, 9500LL, 9900LL, 9990LL, 9999LL}) {
    if (static_cast<long long>(n) * (10000 - hundredths) >= 10 * 10000) {
      best = static_cast<double>(hundredths) / 100.0;
    }
  }
  return best;
}

double percentileOr0(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : dsct::percentile(xs, p);
}

}  // namespace perfbench
