// Order statistics for the benchmark's latency samples.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond the sample it selects; fewer make the tail one or two
/// unlucky requests rather than a property of the system.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the sample at 1-based rank ceil(q/100 * n) of
/// the sorted samples. Returns nullopt when `samples` is empty, when q is
/// outside (0, 100), or when fewer than `min_beyond` samples rank above
/// the selected one.
std::optional<double> Percentile(std::vector<double> samples, double q,
                                 size_t min_beyond = kMinSamplesBeyond);

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty vector. For repeated set-up and in-process timings,
/// where every sample is reported and no tail rule applies.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
