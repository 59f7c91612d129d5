/**
 * @file
 * Key-value configuration store.
 *
 * Every tunable in the simulator reads its value through a Config so
 * that benches and examples can override any parameter from the
 * command line as "key=value" tokens without recompiling.  Typed
 * accessors validate and convert; absent keys fall back to the
 * caller-provided default (the model's published value).  Keys under
 * a config namespace claimed by a registered scheduling scheme
 * ("dss.*", "adaptive.*", ...) are additionally validated against
 * the scheme's declared tunables at construction time (see
 * core/registry.hh), and the getters record every key they look up,
 * so that an assembled workload::Device can reject any other key
 * nothing read: unknown or ill-typed keys are hard errors, not silent
 * no-ops.
 */

#ifndef GPUMP_SIM_CONFIG_HH
#define GPUMP_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace gpump {
namespace sim {

/**
 * @name Strict scalar readers
 * The one spelling of an integer and of a boolean that config values,
 * command-line flags and environment hooks accept.  Each returns
 * nothing unless the whole of @p text is such a value.
 * @{
 */
/** A 64-bit integer: an optional sign, then decimal digits or "0x"
 *  and hex digits.  Leading zeros stay decimal ("010" is ten). */
std::optional<std::int64_t> parseInt(const std::string &text);
/** "true", "1", "yes", "on" or "false", "0", "no", "off". */
std::optional<bool> parseBool(const std::string &text);
/** @} */

/** String-keyed configuration with typed, validated accessors. */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, double value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, bool value);

    /** True when @p key has been set. */
    bool has(const std::string &key) const;

    /**
     * Parse one "key=value" token.
     * @return false (leaving the config untouched) if the token has
     *         no '=' or an empty key.
     */
    bool parse(const std::string &token);

    /** @name Typed getters with defaults
     *  Return the stored value converted to the requested type, or
     *  @p def when the key is absent.  Conversion failures (and
     *  non-finite doubles) raise fatal() naming the offending key.
     *  Each records @p key as read, set or not (readKeys()).
     *  @{
     */
    double getDouble(const std::string &key, double def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    /** getInt for parameters held in 32 bits: a value outside the
     *  std::int32_t range raises fatal() instead of wrapping. */
    std::int32_t getInt32(const std::string &key, std::int32_t def) const;
    bool getBool(const std::string &key, bool def) const;
    /** A duration given in microseconds, as SimTime nanoseconds.  A
     *  negative value, or one whose nanosecond count does not fit
     *  SimTime, raises fatal() instead of reaching the model. */
    SimTime getMicroseconds(const std::string &key, SimTime def) const;
    /** @} */

    /**
     * Overlay @p overrides on top of this config: every key set in
     * @p overrides replaces (or adds to) the current value.  Used by
     * the harness to apply per-request overrides to a base config.
     */
    void merge(const Config &overrides);

    /** All keys in sorted order. */
    std::vector<std::string> keys() const;

    /** Every key a typed getter has looked up, set or not, in sorted
     *  order.  A copy of a Config carries its record along. */
    std::vector<std::string> readKeys() const;

    /**
     * Canonical one-line "k=v;..." rendering of the full config, in
     * sorted key order.  Equal configs have equal fingerprints, so it
     * can key caches of config-dependent results.
     */
    std::string fingerprint() const;

  private:
    /** The value of @p key, or nullptr when unset; records the read. */
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
};

} // namespace sim
} // namespace gpump

#endif // GPUMP_SIM_CONFIG_HH
