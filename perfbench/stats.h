// The benchmark's own arithmetic: percentiles over raw samples, span self
// time, per-request ratios and the error rate. Kept free of any hynet
// dependency so stats_test.cc can pin every formula down exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A percentile together with the number of samples it was taken over, so a
// report can say how far into the tail the sample actually reaches.
struct Quantile {
  double value = 0;   // same unit as the samples
  uint64_t count = 0; // samples the quantile was computed from
};

// Linear-interpolated quantile (the "type 7" definition numpy and
// statistics.quantiles(method="inclusive") use) over unsorted samples.
// q in [0, 1]; an empty sample gives {0, 0}.
inline Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(lo),
                   samples.end());
  const double lo_v = samples[lo];
  double hi_v = lo_v;
  if (hi != lo) {
    hi_v = *std::min_element(samples.begin() + static_cast<long>(lo) + 1,
                             samples.end());
  }
  out.value = lo_v + (pos - static_cast<double>(lo)) * (hi_v - lo_v);
  return out;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5).value;
}

// Samples strictly beyond quantile q: the tail the quantile rests on. The
// choosing rule is to report the highest percentile with >= 10 of these.
inline uint64_t SamplesBeyond(uint64_t count, double q) {
  if (count == 0) return 0;
  const double beyond = std::floor(static_cast<double>(count) * (1.0 - q));
  return beyond > 0 ? static_cast<uint64_t>(beyond) : 0;
}

// Work per request: `work / requests`, 0 when nothing completed (a ratio
// with no base is reported as absent, never as infinity).
inline double PerRequest(double work, uint64_t requests) {
  return requests ? work / static_cast<double>(requests) : 0.0;
}

// Failed share of attempted operations; 0 attempts → 0.
inline double ErrorRate(uint64_t failed, uint64_t attempted) {
  return attempted ? static_cast<double>(failed) /
                         static_cast<double>(attempted)
                   : 0.0;
}

// The measurement rounds a run reports, by index in order: every round in
// which other guests on the host took less than `limit` of the CPU time
// (`steal` holds each round's share), or, when fewer than half of them did,
// the half of the rounds with the least steal (earlier rounds win ties).
inline std::vector<size_t> RoundsToReport(const std::vector<double>& steal,
                                          double limit) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] < limit) ++keep;
  order.resize(std::max(keep, (steal.size() + 1) / 2));
  std::sort(order.begin(), order.end());
  return order;
}

// A recorded interval. `parent` is the id of the span that caused it (0 for
// a root); spans of one request share `trace`.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t Duration() const { return end_ns - start_ns; }
};

// Self time of `parent`: its duration minus the part of its interval that
// the union of `children` covers. Children may overlap each other and may
// stick out of the parent; only the covered share inside it is removed.
inline int64_t SelfTimeNs(const Span& parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
            });
  int64_t covered = 0;
  int64_t cursor = parent.start_ns;
  for (const Span& c : children) {
    const int64_t s = std::max(c.start_ns, cursor);
    const int64_t e = std::min(c.end_ns, parent.end_ns);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return parent.Duration() - covered;
}

}  // namespace perfbench
