/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans go around the benchmark's calls into each layer's public
 * functions; the simulator itself is not instrumented.  A span's name
 * is "<layer>.<function>", spans of one request share the request
 * index as their identifier, and a span opened while another is open
 * is its child.  Spans stay in memory until the run ends, when they
 * are written as Chrome trace-event JSON (Perfetto opens it).
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span; times in microseconds since the tracer started. */
struct Span
{
    std::string name;
    /** Request index the span belongs to; -1 for set-up spans. */
    std::int64_t id = -1;
    /** Index of the enclosing span in the span list; -1 for roots. */
    int parent = -1;
    double startUs = 0.0;
    double endUs = 0.0;

    double durationUs() const { return endUs - startUs; }
    /** Layer prefix of the name ("sim" for "sim.System::run"). */
    std::string layer() const;
};

class Tracer
{
  public:
    /** A disabled tracer records nothing (scopes cost one branch). */
    explicit Tracer(bool enabled);

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::int64_t id);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    /** Indices of the currently open spans, innermost last. */
    std::vector<int> open_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover (overlapping children are
 * counted once).  Same order as @p spans.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Sum of self times per layer, in microseconds. */
std::map<std::string, double> selfTimeByLayerUs(
    const std::vector<Span> &spans);

/** Sum of durations and count of the spans named @p name. */
struct SpanTotal
{
    double totalUs = 0.0;
    std::size_t count = 0;
    double meanUs() const { return count ? totalUs / count : 0.0; }
};
SpanTotal spanTotal(const std::vector<Span> &spans, const std::string &name);

/**
 * Chrome trace-event JSON ("X" complete events, microsecond
 * timestamps) for @p spans; @p metadata lands in the top-level
 * "metadata" object as strings.  Strict JSON: every number is finite.
 */
std::string chromeTraceJson(
    const std::vector<Span> &spans,
    const std::vector<std::pair<std::string, std::string>> &metadata);

/** Shortest exact decimal for a finite double ("%.17g"). */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
