/**
 * Tests of the pluggable scheme registry (core/registry.hh): fail-fast
 * duplicate registration, sorted stable listings, tunable-default
 * round-trips through Config::merge, construction-time validation of
 * unknown/ill-typed tunables (with nearest-key suggestions), label
 * uniqueness across the registered cross-product, and out-of-tree
 * registration through the public surface only.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/adaptive.hh"
#include "core/policy.hh"
#include "core/timemux.hh"
#include "core/preemption.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using namespace gpump::core;
using test::fatalMessageOf;

namespace {

struct Dummy
{
    virtual ~Dummy() = default;
};

using DummyRegistry = SchemeRegistry<Dummy>;

DummyRegistry::Descriptor
dummyDescriptor(const std::string &name)
{
    DummyRegistry::Descriptor d;
    d.name = name;
    d.doc = "a dummy";
    d.factory = [](const sim::Config &) {
        return std::make_unique<Dummy>();
    };
    return d;
}

} // namespace

TEST(SchemeRegistry, DuplicateRegistrationFailsFast)
{
    DummyRegistry reg("dummy");
    reg.add(dummyDescriptor("alpha"));
    EXPECT_THROW(reg.add(dummyDescriptor("alpha")), sim::FatalError);

    auto aliased = dummyDescriptor("beta");
    aliased.aliases = {"b"};
    reg.add(std::move(aliased));
    // Both the canonical name and the alias are reserved.
    EXPECT_THROW(reg.add(dummyDescriptor("b")), sim::FatalError);
    auto clash = dummyDescriptor("gamma");
    clash.aliases = {"beta"};
    EXPECT_THROW(reg.add(std::move(clash)), sim::FatalError);

    // Self-duplicates fail fast too: an alias equal to the own name,
    // or repeated within the alias list.
    auto self_alias = dummyDescriptor("delta");
    self_alias.aliases = {"delta"};
    EXPECT_THROW(reg.add(std::move(self_alias)), sim::FatalError);
    auto repeated = dummyDescriptor("epsilon");
    repeated.aliases = {"e", "e"};
    EXPECT_THROW(reg.add(std::move(repeated)), sim::FatalError);
}

TEST(SchemeRegistry, RejectsEmptyNameMissingFactoryAndStrayTunable)
{
    DummyRegistry reg("dummy");
    EXPECT_THROW(reg.add(dummyDescriptor("")), sim::FatalError);

    auto no_factory = dummyDescriptor("nf");
    no_factory.factory = nullptr;
    EXPECT_THROW(reg.add(std::move(no_factory)), sim::FatalError);

    // A tunable outside the claimed namespace could never be
    // validated; registration refuses it up front.
    auto stray = dummyDescriptor("stray");
    stray.configPrefix = "stray";
    stray.tunables = {{"other.knob", TunableType::Int, "1", "doc"}};
    EXPECT_THROW(reg.add(std::move(stray)), sim::FatalError);

    // A dotted prefix would never match validate()'s first-segment
    // lookup, silently disabling validation for the registrant.
    auto dotted = dummyDescriptor("dotted");
    dotted.configPrefix = "a.b";
    EXPECT_THROW(reg.add(std::move(dotted)), sim::FatalError);

    // Two registrants cannot claim the same namespace: validation
    // binds a prefix to exactly one owner, so the second claimant's
    // tunables would be rejected as typos of the first's.
    auto first = dummyDescriptor("first");
    first.configPrefix = "shared";
    first.tunables = {{"shared.a", TunableType::Int, "1", "doc"}};
    reg.add(std::move(first));
    auto second = dummyDescriptor("second");
    second.configPrefix = "shared";
    second.tunables = {{"shared.b", TunableType::Int, "2", "doc"}};
    EXPECT_THROW(reg.add(std::move(second)), sim::FatalError);
}

TEST(SchemeRegistry, ListIsSortedStableAndAliasesResolve)
{
    DummyRegistry reg("dummy");
    reg.add(dummyDescriptor("zeta"));
    reg.add(dummyDescriptor("alpha"));
    auto mid = dummyDescriptor("mid");
    mid.aliases = {"m"};
    reg.add(std::move(mid));

    std::vector<std::string> names = reg.list();
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(reg.list(), names); // stable across calls

    ASSERT_NE(reg.find("m"), nullptr);
    EXPECT_EQ(reg.find("m")->name, "mid"); // alias -> canonical
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.size(), 3u); // aliases not counted
}

TEST(SchemeRegistry, UnknownNameErrorListsEveryEntry)
{
    std::string msg = fatalMessageOf(
        [] { makePolicy("lottery", sim::Config()); });
    // The error enumerates the live registry so users see what exists.
    for (const std::string &name : policyRegistry().list())
        EXPECT_NE(msg.find(name), std::string::npos) << msg;

    msg = fatalMessageOf([] { makeMechanism("bogus"); });
    for (const std::string &name : mechanismRegistry().list())
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
}

TEST(SchemeRegistry, BuiltinsAreRegistered)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    std::vector<std::string> policies = policyRegistry().list();
    for (const char *p : {"fcfs", "npq", "ppq_excl", "ppq_shared",
                          "dss", "tmux", "ppq_aging"}) {
        EXPECT_TRUE(std::find(policies.begin(), policies.end(), p) !=
                    policies.end())
            << p;
    }
    EXPECT_GE(policies.size(), 6u);

    std::vector<std::string> mechanisms = mechanismRegistry().list();
    for (const char *m : {"context_switch", "draining", "adaptive"}) {
        EXPECT_TRUE(std::find(mechanisms.begin(), mechanisms.end(),
                              m) != mechanisms.end())
            << m;
    }
    EXPECT_GE(mechanisms.size(), 3u);

    // Every registrant documents itself.
    for (const std::string &p : policies)
        EXPECT_FALSE(policyRegistry().at(p).doc.empty()) << p;
    for (const std::string &m : mechanisms)
        EXPECT_FALSE(mechanismRegistry().at(m).doc.empty()) << m;
}

TEST(SchemeRegistry, TunableDefaultsRoundTripThroughMerge)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    auto check = [](const Tunable &t) {
        if (t.def.empty())
            return; // contextual default, set at assembly
        sim::Config defaults;
        defaults.set(t.key, t.def);
        sim::Config merged;
        merged.set("unrelated.key", static_cast<std::int64_t>(7));
        merged.merge(defaults);
        // The default survives a merge and parses as its declared
        // type; construction-time validation does the same getter
        // calls, so a bad default would also fail every build.
        switch (t.type) {
          case TunableType::Int:
            EXPECT_EQ(merged.getInt(t.key, -1),
                      defaults.getInt(t.key, -2))
                << t.key;
            break;
          case TunableType::Double:
            EXPECT_EQ(merged.getDouble(t.key, -1.0),
                      defaults.getDouble(t.key, -2.0))
                << t.key;
            break;
          case TunableType::Bool:
            EXPECT_EQ(merged.getBool(t.key, false),
                      defaults.getBool(t.key, true))
                << t.key;
            break;
          case TunableType::String:
            EXPECT_EQ(merged.getString(t.key, "a"), t.def) << t.key;
            break;
        }
    };
    for (const std::string &p : policyRegistry().list())
        for (const Tunable &t : policyRegistry().at(p).tunables)
            check(t);
    for (const std::string &m : mechanismRegistry().list())
        for (const Tunable &t : mechanismRegistry().at(m).tunables)
            check(t);
}

TEST(SchemeRegistry, UnknownDssKeyIsRejectedWithSuggestion)
{
    // Regression: unknown keys under a claimed namespace used to be
    // silently ignored (a typo'd ablation ran the default instead).
    sim::Config cfg;
    cfg.set("dss.tokens_per_kerel", static_cast<std::int64_t>(2));
    std::string msg =
        fatalMessageOf([&] { makePolicy("dss", cfg); });
    EXPECT_NE(msg.find("dss.tokens_per_kerel"), std::string::npos)
        << msg;
    // ... and the nearest declared tunable is suggested.
    EXPECT_NE(msg.find("dss.tokens_per_kernel"), std::string::npos)
        << msg;

    // The same config is rejected even when constructing a *different*
    // policy: the namespace is claimed, so the key cannot be a no-op.
    EXPECT_THROW(makePolicy("fcfs", cfg), sim::FatalError);

    // A key nothing like any declared tunable gets no misleading
    // "did you mean"; the error enumerates the declared keys instead.
    sim::Config far_off;
    far_off.set("dss.verbose", std::string("yes"));
    std::string far_msg =
        fatalMessageOf([&] { makePolicy("dss", far_off); });
    EXPECT_EQ(far_msg.find("did you mean"), std::string::npos)
        << far_msg;
    EXPECT_NE(far_msg.find("dss.retarget"), std::string::npos)
        << far_msg;

    // And through the full System assembly path.
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm"};
    spec.policy = "dss";
    EXPECT_THROW(workload::System(spec, cfg), sim::FatalError);
}

TEST(SchemeRegistry, IllTypedTunableValueIsRejected)
{
    sim::Config cfg;
    cfg.set("dss.retarget", std::string("banana"));
    EXPECT_THROW(makePolicy("dss", cfg), sim::FatalError);

    sim::Config mcfg;
    mcfg.set("adaptive.bias", std::string("fast"));
    EXPECT_THROW(makeMechanism("adaptive", mcfg), sim::FatalError);

    // An int tunable beyond the int range is rejected, not wrapped
    // (2^32 + 1 would run as a step of 1).
    sim::Config wide;
    wide.set("ppq_aging.step", std::int64_t{4294967297LL});
    EXPECT_THROW(makePolicy("ppq_aging", wide), sim::FatalError);

    // Unclaimed namespaces stay untouched: other subsystems own them.
    sim::Config other;
    other.set("gpu.num_sms", static_cast<std::int64_t>(4));
    other.set("unclaimed.whatever", "fine");
    EXPECT_NO_THROW(makePolicy("fcfs", other));
}

TEST(SchemeRegistry, DurationTunablesRejectNegativeAndOverflowingValues)
{
    // A negative duration, or one whose nanoseconds overflow the
    // simulated clock, is refused by name at construction instead of
    // surfacing later as an internal panic.
    for (const auto &[policy, key] :
         {std::pair<const char *, const char *>{"ppq_aging",
                                                "ppq_aging.interval_us"},
          {"tmux", "tmux.quantum_us"}}) {
        for (const char *v : {"-1", "1e300", "0"}) {
            sim::Config cfg;
            cfg.set(key, std::string(v));
            std::string msg =
                fatalMessageOf([&] { makePolicy(policy, cfg); });
            EXPECT_NE(msg.find(key), std::string::npos)
                << key << "=" << v << ": " << msg;
        }
        sim::Config ok;
        ok.set(key, std::string("2.5"));
        EXPECT_NO_THROW(makePolicy(policy, ok)) << key;
    }
}

TEST(SchemeRegistry, SchemeLabelsNeverCollideAcrossRegistry)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    std::set<std::string> labels;
    std::size_t combos = 0;
    for (const std::string &p : policyRegistry().list()) {
        const auto &pd = policyRegistry().at(p);
        std::vector<std::string> mechs =
            pd.usesMechanism ? mechanismRegistry().list()
                             : std::vector<std::string>{
                                   "context_switch"};
        for (const std::string &m : mechs) {
            for (const char *xfer : {"fcfs", "priority"}) {
                harness::Scheme s{p, m, xfer};
                EXPECT_TRUE(labels.insert(s.label()).second)
                    << "label collision: " << s.label();
                ++combos;
            }
        }
    }
    EXPECT_EQ(labels.size(), combos);

    // Aliases canonicalize to the same label as the full name, so an
    // aliased spelling is the *same* scheme, not a colliding one.
    harness::Scheme cs{"dss", "context_switch", "fcfs"};
    harness::Scheme cs_alias{"dss", "cs", "fcfs"};
    EXPECT_EQ(cs.label(), cs_alias.label());
}

TEST(SchemeRegistry, OutOfTreeRegistrationConstructsAndRuns)
{
    // The examples/custom_policy.cpp recipe, in miniature: register
    // through the public surface only, then run by name.
    static bool constructed = false;
    PolicyRegistry::Descriptor d;
    d.name = "test_fcfs_clone";
    d.doc = "registered from a test";
    d.usesMechanism = false;
    d.factory = [](const sim::Config &) {
        constructed = true;
        // Reuse a built-in implementation: the registry only needs a
        // working factory, not a new class.
        return policyRegistry().at("fcfs").factory(sim::Config());
    };
    policyRegistry().add(std::move(d));

    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm"};
    spec.policy = "test_fcfs_clone";
    spec.minReplays = 1;
    workload::System system(spec);
    auto result = system.run(sim::seconds(60.0));
    EXPECT_TRUE(constructed);
    EXPECT_EQ(result.runs.size(), 1u);
    EXPECT_GT(result.meanTurnaroundUs.at(0), 0.0);
}

TEST(SchemeRegistry, DeclaredDefaultsReachTheFactory)
{
    // make() merges the declared non-contextual defaults into the
    // factory's config, so the Tunable.def a scheme advertises is the
    // value a default construction actually uses.
    auto policy = makePolicy("tmux", sim::Config());
    auto *tmux = dynamic_cast<core::TimeMuxPolicy *>(policy.get());
    ASSERT_NE(tmux, nullptr);
    EXPECT_EQ(tmux->quantum(), sim::microseconds(200.0));

    auto mech = makeMechanism("adaptive");
    auto *adaptive =
        dynamic_cast<core::AdaptiveMechanism *>(mech.get());
    ASSERT_NE(adaptive, nullptr);
    EXPECT_EQ(adaptive->bias(), 1.0);
}

TEST(SchemeRegistry, AdaptiveMechanismHasDeclaredBias)
{
    const auto &d = mechanismRegistry().at("adaptive");
    ASSERT_EQ(d.tunables.size(), 1u);
    EXPECT_EQ(d.tunables[0].key, "adaptive.bias");
    EXPECT_EQ(d.tunables[0].type, TunableType::Double);
    EXPECT_THROW(
        [] {
            sim::Config cfg;
            cfg.set("adaptive.bias", -1.0);
            makeMechanism("adaptive", cfg);
        }(),
        sim::FatalError);
}
