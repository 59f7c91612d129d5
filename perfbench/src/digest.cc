#include "digest.hh"

#include <algorithm>

#include "harness/exec/cache.hh"
#include "harness/exec/wire.hh"

namespace perfbench {

using gpump::harness::RunResult;
using gpump::harness::exec::encodeHexDouble;

namespace {

void
line(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

std::string
hex(double v)
{
    return encodeHexDouble(v);
}

std::string
hexList(const std::vector<double> &values)
{
    std::string s;
    for (std::size_t i = 0; i < values.size(); ++i)
        s += (i ? "," : "") + encodeHexDouble(values[i]);
    return s;
}

template <typename Int>
std::string
intList(const std::vector<Int> &values)
{
    std::string s;
    for (std::size_t i = 0; i < values.size(); ++i)
        s += (i ? "," : "") + std::to_string(values[i]);
    return s;
}

} // namespace

std::string
canonicalOutcome(const RunResult &r)
{
    std::string out;
    line(out, "ntt", hexList(r.metrics.ntt));
    line(out, "antt", hex(r.metrics.antt));
    line(out, "stp", hex(r.metrics.stp));
    line(out, "fairness", hex(r.metrics.fairness));
    line(out, "isolated_us", hexList(r.isolatedUs));
    line(out, "turnaround_us", hexList(r.sys.meanTurnaroundUs));
    line(out, "latency_us", hexList(r.sys.meanLatencyUs));
    line(out, "dropped", intList(r.sys.droppedRequests));
    for (std::size_t p = 0; p < r.sys.runs.size(); ++p) {
        std::string recs;
        for (const auto &rec : r.sys.runs[p]) {
            recs += std::to_string(rec.start) + ":" +
                std::to_string(rec.end) + ":" +
                std::to_string(rec.release) + ",";
        }
        line(out, ("runs." + std::to_string(p)).c_str(), recs);
    }
    line(out, "end_time", std::to_string(r.sys.endTime));
    line(out, "kernels", std::to_string(r.sys.kernelsCompleted));
    line(out, "preemptions", std::to_string(r.sys.preemptions));
    line(out, "ctx_bytes_saved", hex(r.sys.contextBytesSaved));
    line(out, "max_ptbq_depth", hex(r.sys.maxPtbqDepth));
    if (r.servingRun) {
        for (const auto &c : r.serving.classes) {
            std::string v = c.name + ";" + std::to_string(c.requests) +
                ";" + std::to_string(c.completed) + ";" +
                std::to_string(c.dropped) + ";" +
                std::to_string(c.deadlineMisses) + ";" +
                std::to_string(c.latency.n) + ";" +
                hexList({c.latency.mean, c.latency.p50, c.latency.p99,
                         c.latency.p999, c.latency.max, c.missRate,
                         c.throughputPerSec, c.goodputPerSec});
            line(out, "class", v);
        }
        line(out, "window_fairness", hex(r.serving.windowFairness));
        line(out, "window_us", hex(r.serving.windowUs));
    }
    return out;
}

std::string
outcomeDigest(const RunResult &r)
{
    return gpump::harness::exec::hashKey(canonicalOutcome(r));
}

std::string
combineDigests(const std::vector<std::string> &digests)
{
    std::string all;
    for (const std::string &d : digests)
        all += d + "\n";
    return gpump::harness::exec::hashKey(all);
}

std::size_t
countFailures(const std::vector<std::string> &digests,
              const std::vector<std::string> &reference,
              std::size_t requeues)
{
    std::size_t failed = requeues;
    for (std::size_t i = 0; i < digests.size(); ++i) {
        if (digests[i].empty())
            ++failed;
        else if (!reference.empty() &&
                 (i >= reference.size() || digests[i] != reference[i]))
            ++failed;
    }
    return std::min(failed, digests.size());
}

} // namespace perfbench
