/**
 * @file
 * Fluent builder for application traces.
 *
 * parboil.cc uses this to express each benchmark's call structure
 * compactly; user applications can use it to describe their own
 * workloads (see examples/).
 */

#ifndef GPUMP_TRACE_TRACE_BUILDER_HH
#define GPUMP_TRACE_TRACE_BUILDER_HH

#include <cstdint>

#include "trace/app_model.hh"

namespace gpump {
namespace trace {

/**
 * Appends TraceOps to a BenchmarkSpec under construction.
 *
 * All methods return *this so call sites read like the traced API
 * stream:  b.cpu(300).h2d(2_MB).launch(0).sync().d2h(256_KB);
 */
class TraceBuilder
{
  public:
    /** Build into @p spec (must outlive the builder). */
    explicit TraceBuilder(BenchmarkSpec &spec) : spec_(&spec) {}

    /** Host compute phase of @p us microseconds. */
    TraceBuilder &cpu(double us);

    /** Blocking host-to-device copy. */
    TraceBuilder &h2d(std::int64_t bytes);

    /** Blocking device-to-host copy. */
    TraceBuilder &d2h(std::int64_t bytes);

    /** Asynchronous kernel launch of spec.kernels[@p kernel_index]. */
    TraceBuilder &launch(int kernel_index);

    /** cudaDeviceSynchronize equivalent. */
    TraceBuilder &sync();

  private:
    BenchmarkSpec *spec_;
};

/** Convenience byte-size helpers for trace definitions. */
constexpr std::int64_t
kib(std::int64_t n)
{
    return n * 1024;
}

constexpr std::int64_t
mib(std::int64_t n)
{
    return n * 1024 * 1024;
}

} // namespace trace
} // namespace gpump

#endif // GPUMP_TRACE_TRACE_BUILDER_HH
