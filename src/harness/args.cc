#include "harness/args.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>

#include "core/policy.hh"
#include "core/preemption.hh"
#include "core/registry.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {

namespace {

/** Print one registry section ("Scheduling policies", ...). */
template <typename Base>
void
printRegistry(std::ostream &os, const char *title,
              const core::SchemeRegistry<Base> &registry)
{
    os << title << ":\n";
    for (const std::string &name : registry.list()) {
        const auto &d = registry.at(name);
        os << "  " << name;
        if (!d.aliases.empty()) {
            os << " (";
            for (std::size_t i = 0; i < d.aliases.size(); ++i)
                os << (i ? ", " : "") << d.aliases[i];
            os << ")";
        }
        os << "\n      " << d.doc << "\n";
        for (const core::Tunable &t : d.tunables) {
            os << "      " << t.key << "  ("
               << core::tunableTypeName(t.type) << ", default "
               << (t.def.empty() ? "contextual" : t.def) << ")\n"
               << "          " << t.doc << "\n";
        }
    }
    os << "\n";
}

} // namespace

void
printSchemes(std::ostream &os)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    printRegistry(os, "Scheduling policies", core::policyRegistry());
    printRegistry(os, "Preemption mechanisms",
                  core::mechanismRegistry());
    os << "Select with a harness::Scheme{policy, mechanism, "
          "transfer} and tune with bare key=value arguments.\n";
}

Args::Args(int argc, char **argv, const std::vector<std::string> &flags)
{
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) == 0) {
            auto eq = tok.find('=');
            if (eq == std::string::npos) {
                flags_[tok.substr(2)] = "true";
            } else {
                flags_[tok.substr(2, eq - 2)] = tok.substr(eq + 1);
            }
        } else if (!config_.parse(tok)) {
            sim::fatal("malformed argument '%s' (expected --flag[=v] "
                       "or key=value)",
                       tok.c_str());
        }
    }
    for (const auto &kv : flags_) {
        const std::string &name = kv.first;
        if (name == "list-schemes" ||
            std::find(flags.begin(), flags.end(), name) != flags.end())
            continue;
        std::string near = core::nearestOf(name, flags);
        if (!near.empty())
            sim::fatal("unknown flag --%s; did you mean --%s?",
                       name.c_str(), near.c_str());
        std::string known = "--list-schemes";
        for (const std::string &f : flags)
            known += ", --" + f;
        sim::fatal("unknown flag --%s (this program reads %s)",
                   name.c_str(), known.c_str());
    }
    if (hasFlag("list-schemes")) {
        printSchemes(std::cout);
        std::exit(0);
    }
}

bool
Args::hasFlag(const std::string &name) const
{
    return flags_.count(name) != 0;
}

std::string
Args::flag(const std::string &name, const std::string &def) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

std::int64_t
Args::flagInt(const std::string &name, std::int64_t def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    std::optional<std::int64_t> v = sim::parseInt(it->second);
    if (!v)
        sim::fatal("flag --%s expects a 64-bit integer, got '%s'",
                   name.c_str(), it->second.c_str());
    return *v;
}

std::int32_t
Args::flagInt32(const std::string &name, std::int32_t def) const
{
    std::int64_t v = flagInt(name, def);
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max())
        sim::fatal("flag --%s value %lld is outside the 32-bit integer "
                   "range",
                   name.c_str(), static_cast<long long>(v));
    return static_cast<std::int32_t>(v);
}

int
Args::flagPositiveInt(const std::string &name, int def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    std::optional<std::int64_t> v = sim::parseInt(it->second);
    if (!v || *v < 1 || *v > std::numeric_limits<int>::max())
        sim::fatal("flag --%s expects a positive integer up to %d, "
                   "got '%s'",
                   name.c_str(), std::numeric_limits<int>::max(),
                   it->second.c_str());
    return static_cast<int>(*v);
}

std::vector<int>
Args::flagIntList(const std::string &name, std::vector<int> def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    std::vector<int> out;
    const std::string &v = it->second;
    std::size_t pos = 0;
    while (pos <= v.size()) {
        std::size_t comma = v.find(',', pos);
        std::string item = v.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        std::optional<std::int64_t> n = sim::parseInt(item);
        if (!n) {
            sim::fatal("flag --%s expects a comma-separated integer "
                       "list, got '%s'",
                       name.c_str(), v.c_str());
        }
        if (*n < std::numeric_limits<int>::min() ||
            *n > std::numeric_limits<int>::max())
            sim::fatal("flag --%s item '%s' is outside the int range",
                       name.c_str(), item.c_str());
        out.push_back(static_cast<int>(*n));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

double
Args::flagDouble(const std::string &name, double def) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v))
        sim::fatal("flag --%s expects a finite number, got '%s'",
                   name.c_str(), it->second.c_str());
    return v;
}

} // namespace harness
} // namespace gpump
