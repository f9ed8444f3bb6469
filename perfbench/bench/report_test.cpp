// Unit checks for the benchmark's summary helper (run with
// `python3 perfbench/run.py --self-test`).  Exits non-zero on the first
// failed expectation.
#include <cmath>
#include <cstdio>
#include <vector>

#include "report.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: summarize must sort
}

}  // namespace

int main() {
  using perfbench::summarize;

  const auto empty = summarize({});
  expect(empty.count == 0 && empty.tail_permille == 0, "empty: no tail");
  expect(std::isnan(empty.at(500)), "empty: p50 unsupported");

  // 19 samples: the median has 9 beyond it, so no tail at all.
  const auto s19 = summarize(one_to(19));
  expect(s19.count == 19 && s19.p50 == 10.0, "19: nearest-rank median");
  expect(s19.tail_permille == 0 && s19.tail_name() == "none", "19: no tail");

  // 20 samples: the median is the highest percentile with 10 beyond it.
  const auto s20 = summarize(one_to(20));
  expect(s20.tail_permille == 500 && s20.tail == 10.0, "20: tail is p50");

  // 100 samples: p90 (value 90) has exactly 10 beyond it.
  const auto s100 = summarize(one_to(100));
  expect(s100.tail_permille == 900 && s100.tail == 90.0, "100: tail is p90");
  expect(std::isnan(s100.at(990)), "100: p99 unsupported");

  // 999 samples: p99 would leave 9 beyond it -> p90.
  expect(summarize(one_to(999)).tail_permille == 900, "999: tail is p90");

  // 1000 samples: p99 (value 990) has 10 beyond it; p99.9 does not.
  const auto s1000 = summarize(one_to(1000));
  expect(s1000.tail_permille == 990 && s1000.tail == 990.0, "1000: tail p99");
  expect(s1000.at(990) == 990.0 && s1000.at(900) == 900.0, "1000: at()");
  expect(std::isnan(s1000.at(999)), "1000: p99.9 unsupported");
  expect(s1000.p50 == 500.0, "1000: median");

  // 10000 samples: p99.9 has 10 beyond it.
  const auto s10k = summarize(one_to(10000));
  expect(s10k.tail_permille == 999 && s10k.tail == 9990.0, "10000: p99.9");
  expect(s10k.tail_name() == "p99.9", "10000: tail name");

  if (failures == 0) std::printf("perfbench_test: all summary checks passed\n");
  return failures == 0 ? 0 : 1;
}
