#include "harness/exec/wire.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "harness/report.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {
namespace exec {

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

namespace {

/** Recursive-descent parser over a string view of the input. */
class Parser
{
  public:
    explicit Parser(const std::string &text)
        : s_(text)
    {
    }

    JsonValue parse()
    {
        JsonValue v = value(0);
        skipWs();
        if (pos_ != s_.size())
            sim::fatal("JSON: trailing garbage at offset %zu", pos_);
        return v;
    }

  private:
    static constexpr int maxDepth = 64;

    const std::string &s_;
    std::size_t pos_ = 0;

    [[noreturn]] void bad(const char *what)
    {
        sim::fatal("JSON: %s at offset %zu", what, pos_);
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= s_.size())
            bad("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            bad("unexpected character");
        ++pos_;
    }

    bool literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                bad("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    bad("unterminated escape");
                char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size())
                        bad("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            bad("bad \\u escape");
                    }
                    // The harness only ever \u-escapes control
                    // characters; emit the code point as UTF-8 for
                    // completeness.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default: bad("unknown escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                bad("raw control character in string");
            } else {
                out += c;
            }
        }
    }

    JsonValue number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.text = s_.substr(start, pos_ - start);
        // Validate the token now, whichever accessor reads it later.
        char *end = nullptr;
        std::strtod(v.text.c_str(), &end);
        if (v.text.empty() || end != v.text.c_str() + v.text.size())
            bad("malformed number");
        return v;
    }

    JsonValue value(int depth)
    {
        if (depth > maxDepth)
            bad("nesting too deep");
        skipWs();
        char c = peek();
        JsonValue v;
        switch (c) {
          case '{': {
            ++pos_;
            v.type = JsonValue::Type::Object;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                skipWs();
                std::string key = string();
                skipWs();
                expect(':');
                v.members.emplace_back(std::move(key),
                                       value(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
          }
          case '[': {
            ++pos_;
            v.type = JsonValue::Type::Array;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.items.push_back(value(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
          }
          case '"':
            v.type = JsonValue::Type::String;
            v.text = string();
            return v;
          case 't':
            if (!literal("true"))
                bad("bad literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
          case 'f':
            if (!literal("false"))
                bad("bad literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return v;
          case 'n':
            if (!literal("null"))
                bad("bad literal");
            v.type = JsonValue::Type::Null;
            return v;
          default:
            return number();
        }
    }
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

const JsonValue &
JsonValue::get(const std::string &key, const char *what) const
{
    const JsonValue *v = find(key);
    if (v == nullptr)
        sim::fatal("wire: missing field '%s' (%s)", key.c_str(), what);
    return *v;
}

std::int64_t
JsonValue::asInt64(const char *what) const
{
    if (type != Type::Number)
        sim::fatal("wire: field %s is not a number", what);
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || errno == ERANGE)
        sim::fatal("wire: field %s is not a 64-bit integer ('%s')", what,
                   text.c_str());
    return static_cast<std::int64_t>(v);
}

std::uint64_t
JsonValue::asUint64(const char *what) const
{
    if (type != Type::Number)
        sim::fatal("wire: field %s is not a number", what);
    // strtoull would negate a leading '-' into a huge value.
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text[0] == '-' || end != text.c_str() + text.size() ||
        errno == ERANGE)
        sim::fatal("wire: field %s is not an unsigned 64-bit integer "
                   "('%s')",
                   what, text.c_str());
    return static_cast<std::uint64_t>(v);
}

const std::string &
JsonValue::asString(const char *what) const
{
    if (type != Type::String)
        sim::fatal("wire: field %s is not a string", what);
    return text;
}

bool
JsonValue::asBool(const char *what) const
{
    if (type != Type::Bool)
        sim::fatal("wire: field %s is not a bool", what);
    return boolean;
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

// ---------------------------------------------------------------------
// Exact doubles
// ---------------------------------------------------------------------

std::string
encodeHexDouble(double value)
{
    if (std::isnan(value))
        return std::signbit(value) ? "-nan" : "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";
    return sim::strformat("%a", value);
}

double
parseHexDouble(const std::string &text, const char *what)
{
    // strtod accepts hexfloat, "nan", "-nan", "inf" and "-inf" —
    // exactly the encodeHexDouble() vocabulary.
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        sim::fatal("wire: field %s is not a hexfloat ('%s')", what,
                   text.c_str());
    return v;
}

// ---------------------------------------------------------------------
// RunResult codec
// ---------------------------------------------------------------------

namespace {

/** Format bump whenever the encoding changes shape: a cache entry
 *  from another version must read as a miss, not misdecode. */
constexpr std::int64_t wireVersion = 2;

/** A run's outcome fields in wire order: everything but the request
 *  identity.  Both codec directions walk this one list, so a field
 *  added here travels both ways.  @p Result is RunResult or
 *  const RunResult. */
template <typename Result, typename Visit>
void
visitOutcome(Result &r, Visit &v)
{
    v("ntt", r.metrics.ntt);
    v("antt", r.metrics.antt);
    v("stp", r.metrics.stp);
    v("fairness", r.metrics.fairness);
    v("isolated_us", r.isolatedUs);
    v("turnaround_us", r.sys.meanTurnaroundUs);
    v("latency_us", r.sys.meanLatencyUs);
    v("dropped", r.sys.droppedRequests);
    v("runs", r.sys.runs);
    v("end_time", r.sys.endTime);
    v("events", r.sys.eventsExecuted);
    v("kernels", r.sys.kernelsCompleted);
    v("preemptions", r.sys.preemptions);
    v("ctx_bytes", r.sys.contextBytesSaved);
    v("max_ptbq", r.sys.maxPtbqDepth);
    v("wall_seconds", r.wallSeconds);
    v("serving", r.servingRun);
    if (r.servingRun) {
        v("classes", r.serving.classes);
        v("window_fairness", r.serving.windowFairness);
        v("window_us", r.serving.windowUs);
    }
}

/** The fields of one serving class, in wire order. */
template <typename Class, typename Visit>
void
visitClass(Class &c, Visit &v)
{
    v("name", c.name);
    v("requests", c.requests);
    v("completed", c.completed);
    v("dropped", c.dropped);
    v("misses", c.deadlineMisses);
    v("n", c.latency.n);
    v("mean", c.latency.mean);
    v("p50", c.latency.p50);
    v("p99", c.latency.p99);
    v("p999", c.latency.p999);
    v("max", c.latency.max);
    v("miss_rate", c.missRate);
    v("tput", c.throughputPerSec);
    v("goodput", c.goodputPerSec);
}

/** Appends each visited field to the JSON object being built in
 *  `out`.  Doubles become hexfloat strings, run records
 *  [start,end,release] triples, classes nested objects. */
struct Writer
{
    std::string &out;

    template <typename T>
    void operator()(const char *key, const T &value)
    {
        comma();
        out += '"';
        out += key;
        out += "\":";
        put(value);
    }

    /** Separates an element from the one before it: every value ends
     *  in a digit, quote, bracket, brace or letter, never in an
     *  opening bracket or brace. */
    void comma()
    {
        if (out.back() != '{' && out.back() != '[')
            out += ',';
    }

    void put(double v) { out += jsonQuote(encodeHexDouble(v)); }
    void put(std::int64_t v) { out += std::to_string(v); }
    void put(std::uint64_t v) { out += std::to_string(v); }
    void put(bool v) { out += v ? "true" : "false"; }
    void put(const std::string &v) { out += jsonQuote(v); }

    void put(const workload::RunRecord &rec)
    {
        put(std::vector<sim::SimTime>{rec.start, rec.end, rec.release});
    }

    void put(const serve::ClassMetrics &c)
    {
        out += '{';
        visitClass(c, *this);
        out += '}';
    }

    template <typename T>
    void put(const std::vector<T> &values)
    {
        out += '[';
        for (const T &v : values) {
            comma();
            put(v);
        }
        out += ']';
    }
};

/** Fills each visited field from the parsed object `obj`; raises
 *  fatal() on a missing field or a value of the wrong type or range. */
struct Reader
{
    const JsonValue &obj;

    template <typename T>
    void operator()(const char *key, T &value) const
    {
        get(obj.get(key, key), value, key);
    }

    static void get(const JsonValue &j, double &v, const char *what)
    {
        v = parseHexDouble(j.asString(what), what);
    }
    static void get(const JsonValue &j, std::int64_t &v, const char *what)
    {
        v = j.asInt64(what);
    }
    static void get(const JsonValue &j, std::uint64_t &v, const char *what)
    {
        v = j.asUint64(what);
    }
    static void get(const JsonValue &j, bool &v, const char *what)
    {
        v = j.asBool(what);
    }
    static void get(const JsonValue &j, std::string &v, const char *what)
    {
        v = j.asString(what);
    }

    static void get(const JsonValue &j, workload::RunRecord &rec,
                    const char *what)
    {
        std::vector<sim::SimTime> t;
        get(j, t, what);
        if (t.size() != 3)
            sim::fatal("wire: field %s: run record is not a triple", what);
        rec = {t[0], t[1], t[2]};
    }

    static void get(const JsonValue &j, serve::ClassMetrics &c,
                    const char *what)
    {
        if (j.type != JsonValue::Type::Object)
            sim::fatal("wire: field %s: class is not an object", what);
        Reader nested{j};
        visitClass(c, nested);
    }

    template <typename T>
    static void get(const JsonValue &j, std::vector<T> &values,
                    const char *what)
    {
        if (j.type != JsonValue::Type::Array)
            sim::fatal("wire: field %s is not an array", what);
        values.resize(j.items.size());
        for (std::size_t i = 0; i < values.size(); ++i)
            get(j.items[i], values[i], what);
    }
};

} // namespace

std::string
encodeResult(const RunResult &r)
{
    std::string out = "{\"v\":" + std::to_string(wireVersion) +
        ",\"index\":" + std::to_string(r.index);
    Writer writer{out};
    visitOutcome(r, writer);
    out += '}';
    return out;
}

RunResult
decodeResult(const std::string &line)
{
    return decodeResult(parseJson(line));
}

RunResult
decodeResult(const JsonValue &v)
{
    if (v.type != JsonValue::Type::Object)
        sim::fatal("wire: result is not an object");
    if (v.get("v", "version").asInt64("version") != wireVersion)
        sim::fatal("wire: result version mismatch");

    RunResult r;
    r.index = static_cast<std::size_t>(
        v.get("index", "index").asUint64("index"));
    Reader reader{v};
    visitOutcome(r, reader);
    return r;
}

bool
tryDecodeResult(const std::string &line, RunResult &out)
{
    try {
        out = decodeResult(line);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace exec
} // namespace harness
} // namespace gpump
