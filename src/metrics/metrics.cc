#include "metrics/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace gpump {
namespace metrics {

SystemMetrics
computeMetrics(const std::vector<double> &isolated_us,
               const std::vector<double> &multi_us)
{
    if (isolated_us.size() != multi_us.size())
        sim::fatal("metrics: %zu isolated times vs %zu workload times",
                   isolated_us.size(), multi_us.size());
    if (isolated_us.empty())
        sim::fatal("metrics: empty workload");

    // Degenerate inputs — a zero/non-finite isolated baseline (an
    // empty or degenerate plan) or turnaround — must not abort a
    // whole batch over one broken cell.  The affected ratios become
    // quiet NaN and propagate into ANTT/STP/fairness; the report
    // writers serialize every non-finite double as JSON null, so the
    // output stays valid and the breakage stays visible.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();

    SystemMetrics m;
    m.ntt.reserve(isolated_us.size());
    bool degenerate = false;
    for (std::size_t i = 0; i < isolated_us.size(); ++i) {
        double iso = isolated_us[i];
        double mul = multi_us[i];
        if (iso > 0.0 && mul > 0.0 && std::isfinite(iso) &&
            std::isfinite(mul)) {
            m.ntt.push_back(mul / iso);
            m.stp += iso / mul;
        } else {
            m.ntt.push_back(nan);
            m.stp = nan;
            degenerate = true;
        }
    }
    m.antt = mean(m.ntt);

    if (degenerate) {
        m.fairness = nan;
        return m;
    }
    double lo = *std::min_element(m.ntt.begin(), m.ntt.end());
    double hi = *std::max_element(m.ntt.begin(), m.ntt.end());
    m.fairness = hi > 0.0 ? lo / hi : 0.0;
    return m;
}

double
mean(const std::vector<double> &values)
{
    GPUMP_ASSERT(!values.empty(), "mean of nothing");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace metrics
} // namespace gpump
