/**
 * @file
 * Wire format of the multi-process batch executor.
 *
 * The coordinator and its forked workers exchange newline-delimited
 * JSON records over pipes, and the on-disk result cache stores the
 * same records, so one codec serves both (DESIGN.md §10).  Two parts:
 *
 *  - a minimal strict JSON reader (harness emits JSON everywhere but
 *    until now never had to parse it back).  Numeric tokens keep
 *    their raw spelling so 64-bit integers round-trip exactly;
 *  - encodeResult()/decodeResult(): a *bit-exact* serialization of a
 *    run's outcome.  One field list, walked in both directions, names
 *    every outcome field of harness::RunResult; the request identity
 *    (tag, scheme) is not on the wire, because the receiver already
 *    holds the request.  Doubles travel as hexfloat strings
 *    ("0x1.91eb8p+1", "-nan", "-inf"), which keep every bit but a
 *    NaN's payload — the merge-side output must be byte-identical to
 *    an in-process run, so "close enough" decimal formatting is not
 *    an option.
 */

#ifndef GPUMP_HARNESS_EXEC_WIRE_HH
#define GPUMP_HARNESS_EXEC_WIRE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"

namespace gpump {
namespace harness {
namespace exec {

/** One parsed JSON value.  Numbers keep their raw token in `text` so
 *  integer precision is never laundered through a double. */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    /** String payload, or the raw numeric token for Number. */
    std::string text;
    std::vector<JsonValue> items; ///< Array elements.
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object.

    /** Member lookup; nullptr when absent (Object only). */
    const JsonValue *find(const std::string &key) const;

    /** @name Checked accessors — raise fatal() on a type mismatch,
     *  naming @p what (the field being decoded). @{ */
    const JsonValue &get(const std::string &key,
                         const char *what) const;
    /** Integers out of the type's range are fatal, never clamped;
     *  asUint64() also rejects a leading '-'. */
    std::int64_t asInt64(const char *what) const;
    std::uint64_t asUint64(const char *what) const;
    const std::string &asString(const char *what) const;
    bool asBool(const char *what) const;
    /** @} */
};

/**
 * Parse one JSON document (object, array or scalar).  Strict: raises
 * fatal() on malformed input or trailing garbage.  Depth-limited, so
 * hostile cache files cannot overflow the stack.
 */
JsonValue parseJson(const std::string &text);

/** @name Exact double <-> string
 * Hexfloat spelling ("%a"), with "nan"/"-nan"/"inf"/"-inf" for the
 * non-finite values; parseHexDouble() inverts encodeHexDouble()
 * bit-exactly for every non-NaN binary64 value.  A NaN keeps its sign
 * (x86 arithmetic makes "-nan"), not its payload bits. @{ */
std::string encodeHexDouble(double value);
/** Raises fatal() when @p text is not a number. */
double parseHexDouble(const std::string &text, const char *what);
/** @} */

/** Serialize @p result as one JSON line (no trailing newline): the
 *  index, then everything a bench or report reads out of a run's
 *  outcome — metrics, baselines, the full SystemResult (run records
 *  too), wall time and serving metrics.  Not the tag or the scheme. */
std::string encodeResult(const RunResult &result);

/** Inverse of encodeResult(); raises fatal() on malformed or
 *  version-mismatched input.  The decoded result carries no tag or
 *  scheme: whoever takes it in stamps them from the request. */
RunResult decodeResult(const std::string &line);

/** Decode from an already-parsed document (the coordinator parses
 *  each worker message once to inspect its type, then decodes). */
RunResult decodeResult(const JsonValue &parsed);

/** decodeResult() that reports failure instead of raising — the
 *  result-cache path, where a torn or corrupt entry must degrade to
 *  a cache miss, never to an aborted sweep. */
bool tryDecodeResult(const std::string &line, RunResult &out);

} // namespace exec
} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_EXEC_WIRE_HH
