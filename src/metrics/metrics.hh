/**
 * @file
 * System-level multiprogramming metrics (Section 4.1), calculated as
 * suggested by Eyerman & Eeckhout, "System-level performance metrics
 * for multiprogram workloads", IEEE Micro 2008:
 *
 *  - NTT_i  = T_multi_i / T_iso_i        (per-process slowdown, >= 1
 *             for work-conserving schedulers);
 *  - ANTT   = arithmetic mean of NTT_i   (lower is better);
 *  - STP    = sum of T_iso_i / T_multi_i (higher is better, <= n);
 *  - Fairness = min_i NTT_i / max_i NTT_i in [0, 1] (the minimum over
 *             process pairs of their relative progress; 1 = perfectly
 *             equal slowdowns, 0 = starvation).
 */

#ifndef GPUMP_METRICS_METRICS_HH
#define GPUMP_METRICS_METRICS_HH

#include <vector>

namespace gpump {
namespace metrics {

/** The Eyerman-Eeckhout metric set for one workload run. */
struct SystemMetrics
{
    /** Per-process normalized turnaround times. */
    std::vector<double> ntt;
    /** Average normalized turnaround time. */
    double antt = 0.0;
    /** System throughput. */
    double stp = 0.0;
    /** Fairness in [0, 1]. */
    double fairness = 0.0;
};

/**
 * Compute the metric set.
 *
 * @param isolated_us per-process isolated execution times.
 * @param multi_us    per-process mean turnaround times inside the
 *                    multiprogrammed workload.
 *
 * Raises fatal() on size mismatch or an empty workload.  A
 * non-positive or non-finite time (a degenerate plan or baseline)
 * does NOT abort: the affected NTT entry — and therefore ANTT, STP
 * and fairness — becomes quiet NaN, which the report writers
 * serialize as JSON null (see harness/report.hh).
 */
SystemMetrics computeMetrics(const std::vector<double> &isolated_us,
                             const std::vector<double> &multi_us);

/** Arithmetic mean of @p values. @pre not empty */
double mean(const std::vector<double> &values);

} // namespace metrics
} // namespace gpump

#endif // GPUMP_METRICS_METRICS_HH
