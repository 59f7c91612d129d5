/**
 * @file
 * Minimal command-line handling for benches and examples.
 *
 * Every experiment binary accepts:
 *  - "--name=value" flags, each one the binary reads itself (e.g.
 *    --workloads=20); the binary declares them to the Args
 *    constructor, and any other flag is fatal;
 *  - bare "key=value" tokens, forwarded into the simulation Config so
 *    any model parameter can be overridden without recompiling;
 *  - "--list-schemes", handled right here in the Args constructor:
 *    prints every registered scheduling policy and preemption
 *    mechanism with doc strings and declared tunables, then exits —
 *    so every bench and example answers "what schemes exist?" without
 *    per-binary code.
 */

#ifndef GPUMP_HARNESS_ARGS_HH
#define GPUMP_HARNESS_ARGS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace gpump {
namespace harness {

/** Parsed command line. */
class Args
{
  public:
    /** Parse argv; raises fatal() on malformed tokens and on any
     *  flag other than --list-schemes and those named in @p flags
     *  (the message suggests the nearest declared flag).  A
     *  --list-schemes flag is handled immediately: the scheme
     *  registries are printed to stdout and the process exits 0. */
    Args(int argc, char **argv, const std::vector<std::string> &flags = {});

    /** Config overrides collected from bare key=value tokens. */
    const sim::Config &config() const { return config_; }

    /** @name Flag accessors (--name=value), with defaults
     * @{ */
    bool hasFlag(const std::string &name) const;
    std::string flag(const std::string &name,
                     const std::string &def) const;
    /** An integer as sim::parseInt reads it (decimal or 0x hex);
     *  anything else, or a value beyond 64 bits, is fatal. */
    std::int64_t flagInt(const std::string &name, std::int64_t def) const;
    /** flagInt for values held in 32 bits: anything outside the
     *  std::int32_t range is fatal instead of wrapping. */
    std::int32_t flagInt32(const std::string &name,
                           std::int32_t def) const;
    /** flagInt that additionally rejects values outside [1, INT_MAX]
     *  — the validator for parallelism degrees (--jobs). */
    int flagPositiveInt(const std::string &name, int def) const;
    /** A finite number: nan and ±inf are fatal. */
    double flagDouble(const std::string &name, double def) const;
    /** Comma-separated integer list, e.g. --sizes=2,4,6,8; an item
     *  outside the int range is fatal. */
    std::vector<int> flagIntList(const std::string &name,
                                 std::vector<int> def) const;
    /** @} */

  private:
    sim::Config config_;
    std::map<std::string, std::string> flags_;
};

/**
 * Print every registered scheduling policy and preemption mechanism —
 * name, aliases, one-line doc, and declared tunables with types,
 * defaults and docs — to @p os.  The --list-schemes implementation,
 * also usable directly by examples.
 */
void printSchemes(std::ostream &os);

} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_ARGS_HH
