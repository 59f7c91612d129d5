/**
 * @file
 * Application (benchmark) models.
 *
 * The paper traces each benchmark "from the first CUDA call to the
 * last CUDA call, capturing all the memory transfer, kernel execution
 * and CPU execution phases" (Section 4.1).  A BenchmarkSpec is our
 * synthetic equivalent of such a trace: the kernel side is pinned by
 * Table 1 (launch counts, grids, per-TB times, resources), while the
 * CPU phases and transfer sizes are documented estimates chosen so
 * that each application lands in its published duration class
 * (Table 1, "Class 2").
 */

#ifndef GPUMP_TRACE_APP_MODEL_HH
#define GPUMP_TRACE_APP_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "trace/kernel_profile.hh"

namespace gpump {
namespace trace {

/** Duration classes used to group results (Table 1, Classes 1 & 2). */
enum class DurationClass
{
    Short,
    Medium,
    Long,
};

/** Human-readable class name ("SHORT"/"MEDIUM"/"LONG"). */
const char *durationClassName(DurationClass c);

/** One operation of an application trace (one CUDA API call or one
 *  stretch of host execution between calls). */
struct TraceOp
{
    enum class Kind
    {
        CpuPhase,     ///< host computation between API calls
        MemcpyH2D,    ///< blocking host-to-device transfer (cudaMemcpy)
        MemcpyD2H,    ///< blocking device-to-host transfer
        KernelLaunch, ///< asynchronous kernel launch
        DeviceSync,   ///< wait for all outstanding GPU work
    };

    Kind kind = Kind::CpuPhase;
    /** CpuPhase: host time consumed. */
    sim::SimTime duration = 0;
    /** Memcpy*: payload size. */
    std::int64_t bytes = 0;
    /** KernelLaunch: index into BenchmarkSpec::kernels. */
    int kernelIndex = -1;
};

/** A benchmark application: kernels plus its per-execution trace. */
struct BenchmarkSpec
{
    /** Benchmark name, e.g. "lbm". */
    std::string name;
    /** Input set name from Table 1, e.g. "short". */
    std::string dataset;
    /** Grouping by kernel execution time (Table 1, Class 1). */
    DurationClass kernelClass = DurationClass::Medium;
    /** Grouping by application execution time (Table 1, Class 2). */
    DurationClass appClass = DurationClass::Medium;

    /** All kernels this benchmark launches (Table 1 rows). */
    std::vector<KernelProfile> kernels;
    /** The per-execution trace, first CUDA call to last CUDA call. */
    std::vector<TraceOp> ops;

    /** Total kernel launches in one execution (for validation). */
    int totalLaunches() const;

    /** Total bytes transferred each way in one execution. */
    std::int64_t bytesH2D() const;
    std::int64_t bytesD2H() const;

    /** Sum of CPU-phase time in one execution. */
    sim::SimTime cpuTime() const;

    /**
     * Validate internal consistency: every KernelLaunch op references
     * a valid kernel, and per-kernel launch counts in the trace match
     * the Table 1 launch counts.  Raises fatal() on violation.
     */
    void validate() const;
};

} // namespace trace
} // namespace gpump

#endif // GPUMP_TRACE_APP_MODEL_HH
