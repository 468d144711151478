// Percentiles and tail selection for the benchmark's latency reports.
//
// A percentile p of n samples is the nearest-rank sample: the smallest
// value with at least p% of the samples at or below it (rank
// ceil(p/100 * n), 1-based). A tail percentile is only reported when at
// least `min_beyond` samples lie beyond its rank; otherwise the highest
// percentile of a fixed ladder that has that many is reported instead, and
// the caller records which one was used.
#ifndef HEDC_E2E_STATS_H_
#define HEDC_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hedc::e2e {

// 1-based nearest rank of percentile `p` among `n` samples.
inline size_t NearestRank(double p, size_t n) {
  if (n == 0) return 0;
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

// Percentile of already sorted samples; 0 when empty.
inline double SortedPercentile(const std::vector<double>& sorted, double p) {
  size_t rank = NearestRank(p, sorted.size());
  return rank == 0 ? 0 : sorted[rank - 1];
}

inline double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return SortedPercentile(samples, p);
}

// Samples strictly beyond the nearest rank of `p`.
inline size_t SamplesBeyond(double p, size_t n) {
  return n == 0 ? 0 : n - NearestRank(p, n);
}

struct Tail {
  double percentile = 0;  // the percentile actually reported
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;      // samples beyond the reported rank
};

// The highest percentile <= `want` from the ladder {want, 99, 98, 95, 90,
// 75, 50} with at least `min_beyond` samples beyond it; the median when
// even that has too few.
inline Tail TailPercentile(std::vector<double> samples, double want,
                           size_t min_beyond = 10) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.samples = samples.size();
  t.percentile = 50;
  for (double p : {want, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > want) continue;
    if (SamplesBeyond(p, samples.size()) >= min_beyond) {
      t.percentile = p;
      break;
    }
  }
  t.value = SortedPercentile(samples, t.percentile);
  t.beyond = SamplesBeyond(t.percentile, samples.size());
  return t;
}

// Medians of several sample groups (one per request type), averaged with
// the groups' sizes as weights. When the groups' ranges do not overlap,
// the median of the pooled samples falls between them and follows small
// shifts of the mix from one group to the other; this value does not.
inline double MixMedian(const std::vector<std::vector<double>>& groups) {
  double sum = 0;
  size_t n = 0;
  for (const std::vector<double>& g : groups) {
    sum += Percentile(g, 50) * static_cast<double>(g.size());
    n += g.size();
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace hedc::e2e

#endif  // HEDC_E2E_STATS_H_
