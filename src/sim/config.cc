#include "sim/config.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "sim/logging.hh"

namespace gpump {
namespace sim {

std::optional<std::int64_t>
parseInt(const std::string &text)
{
    // strtoll alone would skip leading blanks, stop at the first
    // stray character and read a leading 0 as octal: check the
    // spelling first, then convert in the base it names.
    std::size_t i =
        !text.empty() && (text[0] == '-' || text[0] == '+') ? 1 : 0;
    int base = 10;
    if (text.compare(i, 2, "0x") == 0 || text.compare(i, 2, "0X") == 0) {
        base = 16;
        i += 2;
    }
    if (i == text.size())
        return std::nullopt;
    for (; i < text.size(); ++i) {
        auto c = static_cast<unsigned char>(text[i]);
        if (base == 16 ? !std::isxdigit(c) : !std::isdigit(c))
            return std::nullopt;
    }
    errno = 0;
    long long v = std::strtoll(text.c_str(), nullptr, base);
    if (errno == ERANGE)
        return std::nullopt;
    return static_cast<std::int64_t>(v);
}

std::optional<bool>
parseBool(const std::string &text)
{
    if (text == "true" || text == "1" || text == "yes" || text == "on")
        return true;
    if (text == "false" || text == "0" || text == "no" || text == "off")
        return false;
    return std::nullopt;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, double value)
{
    values_[key] = strformat("%.17g", value);
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values_[key] = strformat("%lld", static_cast<long long>(value));
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

bool
Config::parse(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    values_[token.substr(0, eq)] = token.substr(eq + 1);
    return true;
}

const std::string *
Config::lookup(const std::string &key) const
{
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

double
Config::getDouble(const std::string &key, double def) const
{
    const std::string *text = lookup(key);
    if (!text)
        return def;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text->c_str(), &end);
    if (errno != 0 || end == text->c_str() || *end != '\0')
        fatal("config key '%s' has non-numeric value '%s'",
              key.c_str(), text->c_str());
    // No model parameter is meaningful as nan or +-inf, and letting
    // one through turns into undefined double->int64 casts downstream.
    if (!std::isfinite(v))
        fatal("config key '%s' has non-finite value '%s'", key.c_str(),
              text->c_str());
    return v;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    const std::string *text = lookup(key);
    if (!text)
        return def;
    std::optional<std::int64_t> v = parseInt(*text);
    if (!v)
        fatal("config key '%s' has value '%s', which is not a 64-bit "
              "integer",
              key.c_str(), text->c_str());
    return *v;
}

std::int32_t
Config::getInt32(const std::string &key, std::int32_t def) const
{
    std::int64_t v = getInt(key, def);
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max())
        fatal("config key '%s' value %lld is outside the 32-bit "
              "integer range",
              key.c_str(), static_cast<long long>(v));
    return static_cast<std::int32_t>(v);
}

SimTime
Config::getMicroseconds(const std::string &key, SimTime def) const
{
    const std::string *text = lookup(key);
    if (!text)
        return def;
    double us = getDouble(key, 0.0);
    if (us < 0)
        fatal("config key '%s' is a duration and must be >= 0 "
              "(got %s us)",
              key.c_str(), text->c_str());
    // microseconds() rounds us * 1e3 + 0.5 down to an int64; 2^63
    // is the first value that cast cannot represent.
    if (us * 1e3 + 0.5 >= 0x1p63)
        fatal("config key '%s' value %s us overflows the simulated "
              "clock (nanoseconds in 64 bits)",
              key.c_str(), text->c_str());
    return microseconds(us);
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *text = lookup(key);
    if (!text)
        return def;
    std::optional<bool> v = parseBool(*text);
    if (!v)
        fatal("config key '%s' has non-boolean value '%s'", key.c_str(),
              text->c_str());
    return *v;
}

void
Config::merge(const Config &overrides)
{
    for (const auto &kv : overrides.values_)
        values_[kv.first] = kv.second;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::vector<std::string>
Config::readKeys() const
{
    return {read_.begin(), read_.end()};
}

std::string
Config::fingerprint() const
{
    // Escape the separators so distinct configs can never render to
    // the same fingerprint (values may contain '=' or ';').
    auto escape = [](const std::string &s, std::string &out) {
        for (char c : s) {
            if (c == '\\' || c == '=' || c == ';')
                out += '\\';
            out += c;
        }
    };
    std::string out;
    for (const auto &kv : values_) {
        escape(kv.first, out);
        out += '=';
        escape(kv.second, out);
        out += ';';
    }
    return out;
}

} // namespace sim
} // namespace gpump
