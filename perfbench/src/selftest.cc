// perfbench_selftest: checks the benchmark's own arithmetic.  run.py runs it
// after every build and refuses to measure when it fails.
//
// The rate test encodes the defect of the google-benchmark F6 counters, which
// set a per-iteration pair count with kIsRate: the library divides a rate
// counter by the time of *all* iterations, so the reported pairs/s was the
// true rate divided by the iteration count (834k pairs in 8.7 ms read as
// 1.14 M/s instead of about 96 M/s).  A rate here must not depend on how many
// calls were timed.

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "report_digest.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool close(double a, double b, double rel = 1e-12) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

void rate_is_per_call() {
  const double pairs_per_call = 834e3;
  const double seconds_per_call = 8.7e-3;
  const double truth = pairs_per_call / seconds_per_call;  // ~95.9 M/s
  for (const int calls : {1, 7, 1000}) {
    perfbench::RateMeter m;
    for (int i = 0; i < calls; ++i) m.add(pairs_per_call, seconds_per_call);
    check(close(m.rate(), truth), "rate must equal work per call / seconds per call");
    // What a per-call count over the time of all calls would report.
    const double understated = pairs_per_call / (calls * seconds_per_call);
    check(calls == 1 || !close(m.rate(), understated),
          "rate must not shrink with the number of calls timed");
  }
  perfbench::RateMeter uneven;
  uneven.add(100, 1.0);
  uneven.add(300, 1.0);
  check(close(uneven.rate(), 200.0), "rate over calls of unequal work");
  check(perfbench::RateMeter().rate() == 0.0, "empty rate is 0");
}

void quantiles() {
  using perfbench::quantile;
  check(quantile({}, 0.5) == 0.0, "quantile of nothing is 0");
  check(quantile({3.0}, 0.99) == 3.0, "quantile of one sample");
  check(quantile({4, 1, 3, 2}, 0.5) == 2.5, "median interpolates");
  check(close(quantile({1, 2, 3, 4, 5}, 0.9), 4.6), "p90 interpolates");
  check(quantile({1, 2, 3}, 1.0) == 3.0 && quantile({1, 2, 3}, 0.0) == 1.0, "quantile ends");
}

void self_time_subtracts_children() {
  // A root over [0, 10] s with children over [1, 3] and [4, 8].
  perfbench::SpanBuffer buf(true);
  buf.add({"root", 0.0, 10.0, -1, 0, 0});
  buf.add({"child", 1.0, 3.0, 0, 0, 0});
  buf.add({"child", 4.0, 8.0, 0, 0, 0});
  const perfbench::SelfTimes st = perfbench::self_times({&buf});
  check(st.of("root").size() == 1 && close(st.of("root")[0], 4.0), "root self time");
  check(st.of("child").size() == 2 && close(st.of("child")[1], 4.0), "leaf self time");
  check(perfbench::SpanBuffer(false).open("x", -1, 0) == -1, "disabled buffer records nothing");
}

void digest_is_bitwise() {
  anton::core::PerfReport r;
  r.machine = "anton2";
  r.nodes = 512;
  r.full_step.step_ns = 2815.0;
  r.full_step.exec.phase_busy_ns["pair"] = 1.0;
  anton::core::PerfReport s = r;
  check(perfbench::digest(r) == perfbench::digest(s), "equal reports, equal digests");
  s.full_step.exec.phase_busy_ns["pair"] = std::nextafter(1.0, 2.0);
  check(perfbench::digest(r) != perfbench::digest(s), "one ulp in a phase map differs");
  s = r;
  r.short_step.exec.critical_wait_ns = 0.0;
  s.short_step.exec.critical_wait_ns = -0.0;
  check(perfbench::digest(r) != perfbench::digest(s), "+0 and -0 differ");
}

}  // namespace

int main() {
  rate_is_per_call();
  quantiles();
  self_time_subtracts_children();
  digest_is_bitwise();
  if (failures == 0) std::fprintf(stderr, "perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
