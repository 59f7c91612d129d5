#include "trace/trace_builder.hh"

#include "sim/logging.hh"

namespace gpump {
namespace trace {

TraceBuilder &
TraceBuilder::cpu(double us)
{
    GPUMP_ASSERT(us >= 0.0, "negative CPU phase");
    TraceOp op;
    op.kind = TraceOp::Kind::CpuPhase;
    op.duration = sim::microseconds(us);
    spec_->ops.push_back(op);
    return *this;
}

TraceBuilder &
TraceBuilder::h2d(std::int64_t bytes)
{
    TraceOp op;
    op.kind = TraceOp::Kind::MemcpyH2D;
    op.bytes = bytes;
    spec_->ops.push_back(op);
    return *this;
}

TraceBuilder &
TraceBuilder::d2h(std::int64_t bytes)
{
    TraceOp op;
    op.kind = TraceOp::Kind::MemcpyD2H;
    op.bytes = bytes;
    spec_->ops.push_back(op);
    return *this;
}

TraceBuilder &
TraceBuilder::launch(int kernel_index)
{
    GPUMP_ASSERT(kernel_index >= 0 &&
                 kernel_index < static_cast<int>(spec_->kernels.size()),
                 "launch of unknown kernel index %d", kernel_index);
    TraceOp op;
    op.kind = TraceOp::Kind::KernelLaunch;
    op.kernelIndex = kernel_index;
    spec_->ops.push_back(op);
    return *this;
}

TraceBuilder &
TraceBuilder::sync()
{
    TraceOp op;
    op.kind = TraceOp::Kind::DeviceSync;
    spec_->ops.push_back(op);
    return *this;
}

} // namespace trace
} // namespace gpump
