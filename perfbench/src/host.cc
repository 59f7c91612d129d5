#include "host.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string l;
    while (std::getline(in, l)) {
        if (l.rfind("model name", 0) == 0) {
            std::size_t colon = l.find(':');
            if (colon != std::string::npos)
                return l.substr(l.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string one, five, fifteen;
    if (!(in >> one >> five >> fifteen))
        return "unknown";
    return one + " " + five + " " + fifteen;
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name); // NOLINT(concurrency-mt-unsafe)
    return v && *v ? v : fallback;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
hostFacts()
{
    return {
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu_model", cpuModel()},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"git_commit", envOr("PERFBENCH_GIT_COMMIT", "unknown")},
        {"source_digest", envOr("PERFBENCH_SOURCE_DIGEST", "unknown")},
        {"loadavg_at_start", loadAverage()},
    };
}

const char *
unfitBuildReason()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return "sanitizer build";
#endif
#endif
#if defined(GPUMP_AUDIT_BUILD) && GPUMP_AUDIT_BUILD
    return "audit build (GPUMP_AUDIT_BUILD)";
#endif
#ifndef NDEBUG
    return "assertions enabled (not an optimized release build)";
#endif
    std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type is not Release or RelWithDebInfo";
    return nullptr;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
childrenPeakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
currentRssBytes()
{
    std::ifstream in("/proc/self/statm");
    long size = 0, resident = 0;
    if (!(in >> size >> resident))
        return 0.0;
    return static_cast<double>(resident) *
        static_cast<double>(sysconf(_SC_PAGESIZE));
}

void
releaseFreeHeap()
{
    malloc_trim(0);
}

} // namespace perfbench
