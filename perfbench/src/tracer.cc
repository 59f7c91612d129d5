#include "tracer.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "harness/report.hh"

namespace perfbench {

using gpump::harness::jsonQuote;

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::int64_t id)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(s));
    tracer_.open_.push_back(index_);
    // Stamp last, so the bookkeeping above is outside the span.
    tracer_.spans_.back().startUs = tracer_.nowUs();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[static_cast<std::size_t>(index_)].endUs =
        tracer_.nowUs();
    tracer_.open_.pop_back();
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startUs, s.endUs);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of the children's intervals, clipped to
        // the parent's own interval.
        double covered = 0.0;
        double reach = p.startUs;
        for (const auto &[start, end] : kids) {
            double lo = std::max(start, reach);
            double hi = std::min(end, p.endUs);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(end, p.endUs));
        }
        self[i] = p.durationUs() - covered;
    }
    return self;
}

std::map<std::string, double>
selfTimeByLayerUs(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer()] += self[i];
    return out;
}

SpanTotal
spanTotal(const std::vector<Span> &spans, const std::string &name)
{
    SpanTotal t;
    for (const Span &s : spans) {
        if (s.name == name) {
            t.totalUs += s.durationUs();
            ++t.count;
        }
    }
    return t;
}

std::string
jsonNumber(double v)
{
    // Strict JSON has no NaN/Infinity; a non-finite value here is a
    // benchmark bug, and it must not produce an unparsable file.
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
chromeTraceJson(
    const std::vector<Span> &spans,
    const std::vector<std::pair<std::string, std::string>> &metadata)
{
    std::string out = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out += i ? ",\n" : "\n";
        out += "{\"name\":" + jsonQuote(s.name) +
            ",\"cat\":" + jsonQuote(s.layer()) +
            ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
            jsonNumber(s.startUs) + ",\"dur\":" +
            jsonNumber(s.durationUs()) + ",\"args\":{\"request\":" +
            std::to_string(s.id) + ",\"parent\":" +
            std::to_string(s.parent) + "}}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{";
    for (std::size_t i = 0; i < metadata.size(); ++i) {
        out += (i ? "," : "") + jsonQuote(metadata[i].first) + ":" +
            jsonQuote(metadata[i].second);
    }
    out += "}}\n";
    return out;
}

} // namespace perfbench
