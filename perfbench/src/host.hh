/**
 * @file
 * Host facts and process memory readings.
 *
 * Every result is stamped with the host it came from, and the
 * benchmark refuses to report from builds whose timings mean nothing
 * (debug, sanitizer or audit builds).
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Where and how a result was produced, as (key, value) strings. */
std::vector<std::pair<std::string, std::string>> hostFacts();

/** Why this build must not report timings, or nullptr when it may. */
const char *unfitBuildReason();

/** Peak resident set of this process, MB (getrusage). */
double peakRssMb();

/** Peak resident set of the largest waited-for child process, MB. */
double childrenPeakRssMb();

/** Current resident set of this process, bytes (/proc/self/statm);
 *  0 when unreadable. */
double currentRssBytes();

/** Return freed heap pages to the system, so a later currentRssBytes()
 *  delta measures memory a new object actually holds. */
void releaseFreeHeap();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
