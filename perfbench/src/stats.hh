/**
 * @file
 * Order statistics the benchmark reports timings with.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p values (mean of the middle two for even counts);
 *  0 for an empty vector. */
double median(std::vector<double> values);

/**
 * The tail a sample supports: the highest whole percentile with at
 * least `beyond` samples strictly above its nearest-rank position, so
 * the reported tail never rests on fewer than `beyond` requests.
 */
struct Tail
{
    /** Whole percentile in [0, 100]; 100 when the sample is too small
     *  to leave `beyond` samples above any rank (value is then the
     *  maximum). */
    int percentile = 100;
    /** Nearest-rank sample value at that percentile. */
    double value = 0.0;
    /** Sample count. */
    std::size_t n = 0;
    /** Samples strictly above the chosen rank. */
    std::size_t beyondCount = 0;
};

/** Tail of @p samples with at least @p beyond samples above it. */
Tail tailPercentile(std::vector<double> samples, std::size_t beyond = 10);

/** Nearest-rank value of sorted @p sorted at whole percentile @p p
 *  (rank ceil(p/100 * n), at least 1). @pre !sorted.empty() */
double nearestRank(const std::vector<double> &sorted, int p);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
