#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace gpump {
namespace sim {

Stat::Stat(StatRegistry &registry, std::string name, std::string desc)
    : registry_(&registry), name_(std::move(name)), desc_(std::move(desc))
{
    registry.add(this);
}

Stat::~Stat()
{
    // Unregister so a stat destroyed before its registry cannot leave
    // a dangling pointer behind.
    registry_->remove(this);
}

void
Scalar::dump(std::ostream &os) const
{
    os << name() << " " << value_ << " # " << description() << "\n";
}

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    // Welford's online update.
    double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(count_));
}

void
Distribution::dump(std::ostream &os) const
{
    os << name() << ".count " << count_ << " # " << description() << "\n";
    os << name() << ".mean " << mean() << "\n";
    os << name() << ".stddev " << stddev() << "\n";
    os << name() << ".min " << min() << "\n";
    os << name() << ".max " << max() << "\n";
}

void
StatRegistry::add(Stat *stat)
{
    GPUMP_ASSERT(stat != nullptr, "null stat registered");
    GPUMP_ASSERT(find(stat->name()) == nullptr,
                 "duplicate stat name '%s'", stat->name().c_str());
    stats_.push_back(stat);
}

void
StatRegistry::remove(Stat *stat)
{
    stats_.erase(std::remove(stats_.begin(), stats_.end(), stat),
                 stats_.end());
}

Stat *
StatRegistry::find(const std::string &name) const
{
    for (Stat *s : stats_) {
        if (s->name() == name)
            return s;
    }
    return nullptr;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const Stat *s : stats_)
        s->dump(os);
}

} // namespace sim
} // namespace gpump
