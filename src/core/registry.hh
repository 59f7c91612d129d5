/**
 * @file
 * The pluggable scheme registry.
 *
 * The paper's central design claim is the separation of preemption
 * *mechanisms* from scheduling *policies* (Section 3).  This header
 * makes that separation an open API: every policy and mechanism
 * registers a descriptor — name, one-line doc, factory, and the
 * config tunables it understands — in a process-wide registry, and
 * the factories (`makePolicy` / `makeMechanism`) become thin lookups.
 * New schemes plug in from any translation unit, including ones
 * outside src/ entirely (see examples/custom_policy.cpp); nothing in
 * core needs editing.
 *
 * Declared tunables are enforced: each registrant claims a config
 * namespace (the DSS policy claims every "dss.*" key), and scheme
 * construction validates the merged sim::Config against the declared
 * keys.  A typo like "dss.tokens_per_kerel" is a hard fatal() naming
 * the nearest declared tunable instead of a silently ignored no-op.
 *
 * The built-in schemes are one explicit list in each registry's
 * accessor (policyRegistry() in policy.cc, mechanismRegistry() in
 * preemption.cc): each built-in is a function returning its
 * descriptor, and the accessor adds them all the first time it is
 * called, however the program links the library.
 */

#ifndef GPUMP_CORE_REGISTRY_HH
#define GPUMP_CORE_REGISTRY_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

/** Value type of a declared tunable. */
enum class TunableType
{
    Int,
    Double,
    Bool,
};

/** Printable type name ("int", "double", "bool"). */
const char *tunableTypeName(TunableType t);

/**
 * One declared config knob of a registered scheme.
 *
 * Every tunable's key must live under the owning descriptor's
 * configPrefix ("dss.tokens_per_kernel" under prefix "dss"): the
 * prefix is what construction-time validation uses to decide which
 * keys the registrant must recognise.
 */
struct Tunable
{
    /** Full config key, e.g. "dss.tokens_per_kernel". */
    std::string key;
    TunableType type;
    /** Default rendered as config text; empty when the default is
     *  contextual (computed at system assembly, e.g. DSS's
     *  floor(NSMs/Nprocs) token budget). */
    std::string def;
    /** One-line description for --list-schemes. */
    std::string doc;
};

/** Levenshtein edit distance (suggestion engine for typo'd keys). */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The candidate closest to @p needle, or empty when none is a
 * plausible typo (closer than half the needle's length) — an
 * arbitrary far-off suggestion would mislead more than it helps.
 */
std::string nearestOf(const std::string &needle,
                      const std::vector<std::string> &candidates);

/**
 * A registry of named scheme constructors for one product kind
 * (scheduling policies or preemption mechanisms).
 *
 * A registry starts with its built-ins; out-of-tree schemes add()
 * themselves, typically from a static registrar object at program
 * start.  Everything runs on the program's one thread.  Descriptors
 * are never removed, so pointers returned by find()/at() stay valid
 * for the life of the process.
 */
template <typename Base>
class SchemeRegistry
{
  public:
    /** Factory signature: tunables arrive through the merged config. */
    using Factory =
        std::function<std::unique_ptr<Base>(const sim::Config &)>;

    /** Everything the registry knows about one scheme. */
    struct Descriptor
    {
        /** Canonical name ("dss", "context_switch"). */
        std::string name;
        /** One-line description for errors and --list-schemes. */
        std::string doc;
        Factory factory;
        /** Config namespace this scheme claims; empty claims nothing.
         *  Every key "<configPrefix>.*" in a construction config must
         *  be one of the declared tunables. */
        std::string configPrefix;
        /** Declared tunables, all under configPrefix. */
        std::vector<Tunable> tunables;
        /**
         * Policies only: true when the scheme triggers preemptions,
         * i.e. the mechanism choice affects its behaviour.  Drives
         * harness::Scheme::label() (non-preemptive policies collapse
         * the mechanism column).
         */
        bool usesMechanism = true;
        /**
         * Policies only: an optional assembly hook that fills
         * contextual defaults into the construction config once the
         * machine size is known.  Called by workload::System with the
         * SM count and process count before the factory runs (this is
         * how DSS computes its equal-share token budget without core
         * knowing about DSS).
         */
        std::function<void(sim::Config &cfg, int numSms,
                           int numProcesses)>
            assemblyDefaults;
    };

    /** @param kind human-readable product name for error messages,
     *         e.g. "scheduling policy".
     *  @param builtins descriptors to add() right away. */
    explicit SchemeRegistry(std::string kind,
                            std::vector<Descriptor> builtins = {})
        : kind_(std::move(kind))
    {
        for (Descriptor &d : builtins)
            add(std::move(d));
    }

    SchemeRegistry(const SchemeRegistry &) = delete;
    SchemeRegistry &operator=(const SchemeRegistry &) = delete;

    /**
     * Register a scheme.  Fails fast (fatal) on an empty name or
     * factory, a duplicate name, or a tunable declared outside the
     * claimed configPrefix.
     */
    void add(Descriptor d)
    {
        if (d.name.empty())
            sim::fatal("cannot register a %s with an empty name",
                       kind_.c_str());
        if (!d.factory)
            sim::fatal("%s '%s' registered without a factory",
                       kind_.c_str(), d.name.c_str());
        // validate() matches a key's first dot-segment against the
        // claimed prefixes, so a dotted prefix could never match and
        // two claimants would shadow each other's declarations.
        if (d.configPrefix.find('.') != std::string::npos) {
            sim::fatal("%s '%s' claims config prefix '%s', which must "
                       "not contain '.'",
                       kind_.c_str(), d.name.c_str(),
                       d.configPrefix.c_str());
        }
        for (const Tunable &t : d.tunables) {
            if (d.configPrefix.empty() ||
                t.key.rfind(d.configPrefix + ".", 0) != 0) {
                sim::fatal("%s '%s' declares tunable '%s' outside its "
                           "config namespace '%s.*'",
                           kind_.c_str(), d.name.c_str(), t.key.c_str(),
                           d.configPrefix.c_str());
            }
        }
        if (byName_.count(d.name)) {
            sim::fatal("duplicate %s registration '%s'", kind_.c_str(),
                       d.name.c_str());
        }
        if (!d.configPrefix.empty()) {
            for (const auto &kv : byName_) {
                if (kv.second.configPrefix == d.configPrefix) {
                    sim::fatal("%s '%s' claims config prefix '%s.*', "
                               "already claimed by '%s'",
                               kind_.c_str(), d.name.c_str(),
                               d.configPrefix.c_str(),
                               kv.first.c_str());
                }
            }
        }
        byName_.emplace(d.name, std::move(d));
    }

    /** Lookup by name; nullptr when unknown. */
    const Descriptor *find(const std::string &name) const
    {
        auto it = byName_.find(name);
        return it == byName_.end() ? nullptr : &it->second;
    }

    /**
     * Lookup that raises fatal() for unknown names, listing every
     * registered entry so the caller can see what exists.
     */
    const Descriptor &at(const std::string &name) const
    {
        const Descriptor *d = find(name);
        if (d == nullptr) {
            sim::fatal("unknown %s '%s'; registered: %s", kind_.c_str(),
                       name.c_str(), joinNames().c_str());
        }
        return *d;
    }

    /** Canonical names in sorted order (stable across calls). */
    std::vector<std::string> list() const
    {
        std::vector<std::string> out;
        out.reserve(byName_.size());
        for (const auto &kv : byName_)
            out.push_back(kv.first);
        return out; // std::map iteration is already sorted
    }

    /** Number of registered schemes. */
    std::size_t size() const
    {
        return byName_.size();
    }

    /**
     * Construct scheme @p name, validating @p cfg first: every key
     * under a namespace claimed by *any* registrant of this registry
     * must be a declared tunable of that registrant, and declared
     * tunables present in @p cfg must convert to their declared type.
     *
     * The scheme's declared non-contextual defaults are merged into
     * the config handed to the factory, so the default a Tunable
     * advertises (--list-schemes) is authoritative — a getter
     * fallback inside the factory can never silently drift from it.
     */
    std::unique_ptr<Base> make(const std::string &name,
                               const sim::Config &cfg) const
    {
        const Descriptor &d = at(name);
        validate(cfg);
        sim::Config effective = cfg;
        for (const Tunable &t : d.tunables) {
            if (!t.def.empty() && !effective.has(t.key))
                effective.set(t.key, t.def);
        }
        return d.factory(effective);
    }

    /** The registrant whose configPrefix is @p key's first
     *  dot-segment; nullptr when no registrant claims the key. */
    const Descriptor *claimant(const std::string &key) const
    {
        auto dot = key.find('.');
        if (dot == std::string::npos)
            return nullptr;
        const std::string prefix = key.substr(0, dot);
        for (const auto &kv : byName_) {
            if (kv.second.configPrefix == prefix)
                return &kv.second;
        }
        return nullptr;
    }

    /**
     * Validate @p cfg against every claimed namespace: a key whose
     * "prefix." matches some registrant's configPrefix but is not one
     * of its declared tunables raises fatal() naming the nearest
     * declared tunable.  Keys under unclaimed namespaces (gpu.*,
     * gmem.*, ...) belong to other subsystems; workload::System
     * rejects those it never reads.
     */
    void validate(const sim::Config &cfg) const
    {
        for (const std::string &key : cfg.keys()) {
            const Descriptor *owner = claimant(key);
            if (owner == nullptr)
                continue;
            const Tunable *match = nullptr;
            std::vector<std::string> declared;
            for (const Tunable &t : owner->tunables) {
                declared.push_back(t.key);
                if (t.key == key)
                    match = &t;
            }
            if (match == nullptr) {
                std::string near = nearestOf(key, declared);
                if (!near.empty()) {
                    sim::fatal("unknown config key '%s' for %s '%s'; "
                               "did you mean '%s'?",
                               key.c_str(), kind_.c_str(),
                               owner->name.c_str(), near.c_str());
                }
                // No plausible typo target: enumerate what exists.
                std::string known;
                for (const std::string &dk : declared)
                    known += (known.empty() ? "" : ", ") + dk;
                sim::fatal("unknown config key '%s': %s '%s' declares "
                           "%s under '%s.*'",
                           key.c_str(), kind_.c_str(),
                           owner->name.c_str(),
                           known.empty() ? "no tunables"
                                         : known.c_str(),
                           owner->configPrefix.c_str());
            }
            // Force a typed conversion so malformed values fail here,
            // with the key named, instead of deep inside a factory.
            switch (match->type) {
              case TunableType::Int:
                cfg.getInt(key, 0);
                break;
              case TunableType::Double:
                cfg.getDouble(key, 0.0);
                break;
              case TunableType::Bool:
                cfg.getBool(key, false);
                break;
            }
        }
    }

  private:
    std::string joinNames() const
    {
        std::string out;
        for (const auto &kv : byName_) {
            if (!out.empty())
                out += ", ";
            out += kv.first;
        }
        return out.empty() ? "(none)" : out;
    }

    std::string kind_;
    std::map<std::string, Descriptor> byName_;
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_REGISTRY_HH
