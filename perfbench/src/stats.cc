#include "stats.hh"

#include <algorithm>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/** 1-based nearest rank of whole percentile @p p over @p n samples.
 *  Integer arithmetic (unlike metrics::percentileSorted's floating
 *  ceil, which can land one rank high when p*n/100 is whole), so the
 *  samples-beyond guarantee of tailPercentile is exact. */
std::size_t
rankOf(int p, std::size_t n)
{
    // ceil(p * n / 100) in integers, clamped to [1, n].
    std::size_t r = (static_cast<std::size_t>(p) * n + 99) / 100;
    return std::clamp<std::size_t>(r, 1, n);
}

} // namespace

double
nearestRank(const std::vector<double> &sorted, int p)
{
    return sorted[rankOf(p, sorted.size()) - 1];
}

Tail
tailPercentile(std::vector<double> samples, std::size_t beyond)
{
    Tail t;
    t.n = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    t.percentile = 100;
    t.value = samples.back();
    t.beyondCount = 0;
    if (t.n <= beyond)
        return t;
    // The highest whole p whose rank leaves `beyond` samples above it:
    // rank(p) <= n - beyond  <=>  p <= 100 (n - beyond) / n.
    int p = static_cast<int>(100 * (t.n - beyond) / t.n);
    t.percentile = p;
    t.value = nearestRank(samples, p);
    t.beyondCount = t.n - rankOf(p, t.n);
    return t;
}

} // namespace perfbench
