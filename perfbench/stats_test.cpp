// Self-test of stats.hpp: percentiles with their sample counts and the
// median. Exit code 0 when every check holds.
// run.py's spread helper is tested in test_run.py.
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0}) == 3.0, "median of one sample");
  expect(median({4.0, 1.0, 3.0}) == 3.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages");

  const Percentile none = percentile({}, 0.5);
  expect(none.samples == 0 && none.beyond == 0 && none.value == 0.0,
         "percentile of nothing");

  const Percentile p50 = percentile(one_to(100), 0.5);
  expect(p50.value == 50.0, "p50 of 1..100 is 50 (nearest rank)");
  expect(p50.samples == 100 && p50.beyond == 50, "p50 counts");

  const Percentile p99 = percentile(one_to(100), 0.99);
  expect(p99.value == 99.0 && p99.beyond == 1, "p99 of 1..100");

  const Percentile p99k = percentile(one_to(1000), 0.99);
  expect(p99k.value == 990.0 && p99k.beyond == 10 && p99k.samples == 1000,
         "p99 of 1..1000 has ten samples beyond");

  const Percentile top = percentile(one_to(7), 1.0);
  expect(top.value == 7.0 && top.beyond == 0, "p100 is the maximum");

  expect(percentile(one_to(10), 0.01).value == 1.0,
         "a tiny percentile is the minimum");

  if (failures == 0) std::printf("stats self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
