/**
 * @file
 * Lightweight statistics package.
 *
 * Components declare named statistics against a StatRegistry; the
 * harness dumps them as text or CSV at the end of a run.  Two stat
 * kinds cover the simulator's needs:
 *  - Scalar:       a single accumulating value (counts, sums);
 *  - Distribution: streaming moments plus min/max (Welford).
 */

#ifndef GPUMP_SIM_STATS_HH
#define GPUMP_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gpump {
namespace sim {

class StatRegistry;

/** Common base: every stat has a dotted path name and a description. */
class Stat
{
  public:
    /** Registers with @p registry; the registry must outlive the
     *  stat, which unregisters itself on destruction. */
    Stat(StatRegistry &registry, std::string name, std::string desc);
    virtual ~Stat();

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

    /** Render this stat's value(s) into @p os, one line per value. */
    virtual void dump(std::ostream &os) const = 0;

  private:
    StatRegistry *registry_;
    std::string name_;
    std::string desc_;
};

/** A single accumulating double. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }

    void dump(std::ostream &os) const override;

  private:
    double value_ = 0.0;
};

/** Streaming sample statistics: count, sum, min, max, mean, stddev. */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Population standard deviation. */
    double stddev() const;

    void dump(std::ostream &os) const override;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Registry of stats.  Stats register themselves at construction and
 * unregister at destruction; the registry does not own them (they are
 * members of their components) but must outlive every registered
 * stat, since ~Stat calls back into remove().
 */
class StatRegistry
{
  public:
    /** Register @p stat; name collisions are a programming error. */
    void add(Stat *stat);

    /** Remove @p stat (called from Stat's owner on destruction). */
    void remove(Stat *stat);

    /** Look up a stat by full dotted name; nullptr if absent. */
    Stat *find(const std::string &name) const;

    /** All registered stats in registration order. */
    const std::vector<Stat *> &all() const { return stats_; }

    /** Dump every stat as "name value # description" text lines. */
    void dump(std::ostream &os) const;

  private:
    std::vector<Stat *> stats_;
};

} // namespace sim
} // namespace gpump

#endif // GPUMP_SIM_STATS_HH
