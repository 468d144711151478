// Percentile and tail-selection rules of the benchmark (src/stats.h).
// Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace hedc::e2e;

  // Nearest rank: the smallest sample with at least p% at or below it.
  Expect(NearestRank(50, 100) == 50, "rank of p50 in 100");
  Expect(NearestRank(99, 100) == 99, "rank of p99 in 100");
  Expect(NearestRank(50, 1) == 1, "rank in a single sample");
  Expect(NearestRank(0, 10) == 1, "rank of p0 clamps to 1");
  Expect(NearestRank(100, 10) == 10, "rank of p100 is the maximum");
  Expect(Percentile(Range(100), 50) == 50, "median of 1..100");
  Expect(Percentile(Range(100), 99) == 99, "p99 of 1..100");
  Expect(Percentile(Range(1000), 99) == 990, "p99 of 1..1000");
  Expect(Percentile({}, 50) == 0, "empty percentile");
  Expect(Percentile({7}, 99) == 7, "single-sample percentile");
  Expect(Median({1, 2, 3, 4}) == 2.5, "even-count median");
  Expect(Median({3, 1, 2}) == 2, "odd-count median");
  Expect(Mean({1, 2, 3}) == 2, "mean");

  // Samples beyond a rank.
  Expect(SamplesBeyond(99, 1000) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(99, 999) == 9, "999 samples leave 9 beyond p99");

  // The >= 10 beyond rule: p99 needs 1000 samples.
  Tail t = TailPercentile(Range(1000), 99);
  Expect(t.percentile == 99 && t.value == 990 && t.beyond == 10,
         "p99 kept at exactly 10 beyond");
  t = TailPercentile(Range(999), 99);
  Expect(t.percentile == 98 && t.beyond >= 10, "999 samples fall back to p98");
  t = TailPercentile(Range(600), 99);
  Expect(t.percentile == 98 && t.beyond == 12, "600 samples give p98");
  t = TailPercentile(Range(400), 99);
  Expect(t.percentile == 95 && t.beyond == 20, "400 samples give p95");
  t = TailPercentile(Range(60), 99);
  Expect(t.percentile == 75 && t.beyond == 15, "60 samples give p75");
  t = TailPercentile(Range(12), 99);
  Expect(t.percentile == 50 && t.samples == 12, "too few samples: median");
  t = TailPercentile(Range(5000), 95);
  Expect(t.percentile == 95 && t.value == 4750, "a lower wanted percentile");
  t = TailPercentile({}, 99);
  Expect(t.value == 0 && t.samples == 0, "no samples");

  // Mix median: size-weighted mean of the group medians.
  Expect(MixMedian({{1, 2, 3}, {10, 20, 30}}) == 11, "two equal groups");
  Expect(MixMedian({{2, 2, 2, 2, 2, 2}, {20, 20, 20}}) == 8,
         "groups weighted by size");
  Expect(MixMedian({}) == 0 && MixMedian({{}}) == 0, "no samples");
  // 51 fast samples against 49 slow ones: the pooled median sits in the
  // fast group; two more slow samples move it into the slow one. The mix
  // median moves by the share of the samples that moved.
  std::vector<double> fast(51, 100), slow(49, 1000);
  Expect(Median([&] {
           std::vector<double> all = fast;
           all.insert(all.end(), slow.begin(), slow.end());
           return all;
         }()) == 100,
         "pooled median of 51 fast and 49 slow");
  Expect(std::fabs(MixMedian({fast, slow}) - 541) < 1e-9,
         "mix median of 51 fast and 49 slow");
  Expect(std::fabs(MixMedian({std::vector<double>(49, 100),
                              std::vector<double>(51, 1000)}) -
                   559) < 1e-9,
         "mix median of 49 fast and 51 slow");

  if (failures == 0) std::printf("stats_test: all expectations hold\n");
  return failures == 0 ? 0 : 1;
}
