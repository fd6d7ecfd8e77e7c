// Self-tests of the benchmark's own statistics, run before every
// measurement (and alone with --self-test): the percentile choice, self
// time from nested spans, and seed-determinism of the request streams.

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test failed: %s\n", what);
    failures++;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(near(percentile(v, 50), 500), "p50 of 1..1000 is 500");
  expect(near(percentile(v, 99), 990), "p99 of 1..1000 is 990");
  expect(samples_beyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  expect(samples_beyond(999, 99) == 9, "9 samples beyond p99 of 999");
  // The tail percentile is the highest one with >= 10 samples beyond it.
  expect(near(tail_percentile(1000), 99), "1000 samples support p99");
  expect(near(tail_percentile(999), 90), "999 samples support only p90");
  expect(near(tail_percentile(10000), 99.9), "10000 samples support p99.9");
  expect(near(tail_percentile(100), 90), "100 samples support p90");
  expect(near(tail_percentile(19), 0), "19 samples support no percentile");
  expect(near(percentile({}, 99), 0), "empty percentile is 0");
}

void self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [60,70), and a grandchild [12,18) under the first child.
  SpanRecorder rec;
  const auto root = rec.add("root", 0, 100, -1);
  const auto a = rec.add("a", 10, 30, root);
  rec.add("b", 20, 50, root);
  rec.add("c", 60, 70, root);
  rec.add("g", 12, 18, a);
  const std::vector<double> self = rec.self_seconds();
  expect(near(self[0], 50e-9), "root self = 100 - union(10..50, 60..70)");
  expect(near(self[1], 14e-9), "child self excludes its grandchild");
  expect(near(self[4], 6e-9), "leaf self is its duration");
  // Nested RAII scopes link parents.
  SpanRecorder live;
  {
    SpanRecorder::Scope outer(live, "outer", 7);
    SpanRecorder::Scope inner(live, "inner", 7);
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
             live.spans()[1].request == 7,
         "scopes record parent and request id");
  SpanRecorder off(false);
  { SpanRecorder::Scope s(off, "x", 1); }
  expect(off.spans().empty(), "a disabled recorder records nothing");
}

void streams() {
  expect(zipf_stream(7, 512, 1.1, 5000) == zipf_stream(7, 512, 1.1, 5000),
         "Zipf stream identical for a seed");
  expect(zipf_stream(7, 512, 1.1, 5000) != zipf_stream(8, 512, 1.1, 5000),
         "Zipf stream differs across seeds");
  const std::vector<std::uint32_t> z = zipf_stream(3, 512, 1.1, 20000);
  std::size_t top = 0;
  for (const std::uint32_t r : z) top += r == 0 ? 1 : 0;
  // Rank 0 carries 1/H(512, 1.1) ~ 0.18 of the mass.
  expect(top > 3000 && top < 4200, "Zipf rank 0 share near 0.18");
  expect(campaign_stream(5, 8, 32, 1.1, 4000) ==
             campaign_stream(5, 8, 32, 1.1, 4000),
         "campaign stream identical for a seed");
  const std::vector<std::uint32_t> c = campaign_stream(5, 8, 32, 1.1, 40000);
  std::vector<std::size_t> heads(8, 0);
  bool in_range = true;
  for (const std::uint32_t i : c) {
    in_range &= i < 8 * 32;
    if (i % 32 == 0) heads[i / 32]++;
  }
  // Each campaign's rank 0 carries ~1/8 x 1/H(32, 1.1) ~ 0.036 of the mass.
  bool heads_even = true;
  for (const std::size_t h : heads) heads_even &= h > 1100 && h < 1800;
  expect(in_range && heads_even, "campaign heads share the stream evenly");
  expect(poisson_schedule(9, 400, 4) == poisson_schedule(9, 400, 4),
         "rate schedule identical for a seed");
  const std::vector<double> s = poisson_schedule(9, 1000, 10);
  expect(s.size() > 9500 && s.size() < 10500, "Poisson count near rate x time");
  bool ascending = true;
  for (std::size_t i = 1; i < s.size(); ++i) ascending &= s[i] > s[i - 1];
  expect(ascending && s.back() < 10, "schedule ascending within duration");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  percentiles();
  self_time();
  streams();
  return failures;
}

}  // namespace perfbench
