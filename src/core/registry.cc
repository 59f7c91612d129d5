#include "core/registry.hh"

#include <algorithm>

namespace gpump {
namespace core {

const char *
tunableTypeName(TunableType t)
{
    switch (t) {
      case TunableType::Int: return "int";
      case TunableType::Double: return "double";
      case TunableType::Bool: return "bool";
    }
    return "?";
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<std::size_t> prev(m + 1);
    std::vector<std::size_t> cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

std::string
nearestOf(const std::string &needle,
          const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t best_dist = 0;
    for (const std::string &c : candidates) {
        std::size_t d = editDistance(needle, c);
        if (best.empty() || d < best_dist) {
            best = c;
            best_dist = d;
        }
    }
    // Only suggest plausible typos; for anything further off the
    // caller should enumerate the valid options instead.
    if (!best.empty() && best_dist > needle.size() / 2)
        best.clear();
    return best;
}

} // namespace core
} // namespace gpump
