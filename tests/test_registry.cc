/**
 * @file
 * String-keyed prefetcher registry: every scheme the paper evaluates
 * (plus the extensions) must be registered under its figure-legend
 * name, resolve case-insensitively, and build through
 * makePrefetcher (scheme name + `key=value` options) the same
 * prefetcher the registry builds directly — identical name() and
 * Table III storageBits().
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cbws_prefetcher.hh"
#include "prefetch/composite.hh"
#include "prefetch/registry.hh"
#include "prefetch/stride.hh"
#include "sim/config.hh"

namespace cbws
{
namespace
{

TEST(PrefetcherRegistry, EveryKindRoundTripsThroughTheRegistry)
{
    for (const std::string &name : zooSchemeNames()) {
        ASSERT_TRUE(prefetcherRegistry().contains(name)) << name;

        SystemConfig config;
        config.scheme = name;
        const auto via_config = makePrefetcher(config);
        ASSERT_NE(via_config, nullptr) << name;

        Result<std::unique_ptr<Prefetcher>> via_registry =
            prefetcherRegistry().create(name);
        ASSERT_TRUE(via_registry.ok())
            << name << ": " << via_registry.error().str();
        const auto &direct = via_registry.value();
        EXPECT_EQ(direct->name(), via_config->name()) << name;
        EXPECT_EQ(direct->storageBits(), via_config->storageBits())
            << name;
    }
}

TEST(PrefetcherRegistry, AllNineSchemesAreRegistered)
{
    const char *expected[] = {
        "No-Prefetch", "Stride",   "GHB-PC/DC",
        "GHB-G/DC",    "SMS",      "CBWS",
        "CBWS+SMS",    "AMPM",     "CBWS+AMPM",
    };
    const auto names = prefetcherRegistry().names();
    EXPECT_GE(names.size(), 9u);
    for (const char *name : expected) {
        EXPECT_TRUE(prefetcherRegistry().contains(name)) << name;
        EXPECT_FALSE(prefetcherRegistry().describe(name).empty())
            << name << " needs a --scheme help description";
    }
}

TEST(PrefetcherRegistry, LookupIsCaseInsensitive)
{
    for (const char *spelling :
         {"cbws+sms", "CBWS+SMS", "Cbws+Sms", "ghb-pc/dc",
          "no-prefetch", "stride", "STRIDE"}) {
        EXPECT_TRUE(prefetcherRegistry().contains(spelling))
            << spelling;
        Result<std::unique_ptr<Prefetcher>> r =
            prefetcherRegistry().create(spelling);
        EXPECT_TRUE(r.ok()) << spelling;
    }

    // The instantiated scheme is the same one regardless of case.
    auto lower = prefetcherRegistry().create("cbws+sms");
    auto upper = prefetcherRegistry().create("CBWS+SMS");
    ASSERT_TRUE(lower.ok());
    ASSERT_TRUE(upper.ok());
    EXPECT_EQ(lower.value()->name(), upper.value()->name());
}

TEST(PrefetcherRegistry, UnknownNameListsTheRegisteredSchemes)
{
    Result<std::unique_ptr<Prefetcher>> r =
        prefetcherRegistry().create("markov");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::NotFound);
    // The error is the user's discovery surface: it must name what
    // was asked for and what exists.
    EXPECT_NE(r.error().message.find("markov"), std::string::npos);
    EXPECT_NE(r.error().message.find("CBWS+SMS"), std::string::npos);
    EXPECT_NE(r.error().message.find("Stride"), std::string::npos);
}

TEST(PrefetcherRegistry, ParamsReachTheFactory)
{
    // A non-default table size must change the built prefetcher's
    // hardware budget exactly as the typed parameter struct does.
    SystemConfig config;
    config.scheme = "Stride";
    config.pfOpts = {"table-entries=1024"}; // default is smaller
    const auto via_opts = makePrefetcher(config);

    StrideParams params;
    params.tableEntries = 1024;
    EXPECT_EQ(via_opts->storageBits(),
              StridePrefetcher(params).storageBits());

    // And differs from the Table II default-parameter build.
    auto default_build = prefetcherRegistry().create("Stride");
    ASSERT_TRUE(default_build.ok());
    EXPECT_NE(via_opts->storageBits(),
              default_build.value()->storageBits());

    // Every CBWS key reaches the CBWS engine standalone (`key=v`) and
    // inside CBWS+SMS (`cbws.key=v`), exactly as setting the member
    // of CbwsParams does.
    struct CbwsCase
    {
        std::string key;
        std::string value;
        std::function<void(CbwsParams &)> set;
    };
    const std::vector<CbwsCase> cases = {
        {"max-vector-members", "32",
         [](CbwsParams &p) { p.maxVectorMembers = 32; }},
        {"num-steps", "6", [](CbwsParams &p) { p.numSteps = 6; }},
        {"history-depth", "3",
         [](CbwsParams &p) { p.historyDepth = 3; }},
        {"hash-bits", "8", [](CbwsParams &p) { p.hashBits = 8; }},
        {"table-entries", "64",
         [](CbwsParams &p) { p.tableEntries = 64; }},
        {"tag-bits", "12", [](CbwsParams &p) { p.tagBits = 12; }},
        {"train-on-hits", "false",
         [](CbwsParams &p) { p.trainOnHits = false; }},
        {"member-bits", "24",
         [](CbwsParams &p) { p.memberBits = 24; }},
        {"stride-bits", "8", [](CbwsParams &p) { p.strideBits = 8; }},
        {"table-seed", "7", [](CbwsParams &p) { p.tableSeed = 7; }},
    };
    // One case per schema key, in declaration order.
    const ParamSchema schema = cbwsParamSchema();
    ASSERT_EQ(cases.size(), schema.keys().size());

    auto build = [](const std::string &scheme, const std::string &opt) {
        SystemConfig cfg;
        cfg.scheme = scheme;
        cfg.pfOpts = {opt};
        return makePrefetcher(cfg);
    };

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CbwsCase &c = cases[i];
        EXPECT_EQ(c.key, schema.keys()[i].key);
        CbwsParams expected;
        c.set(expected);
        ASSERT_FALSE(expected == CbwsParams()) << c.key;
        const std::uint64_t bits =
            CbwsPrefetcher(expected).storageBits();

        const auto standalone = build("CBWS", c.key + "=" + c.value);
        const auto *cbws =
            dynamic_cast<const CbwsPrefetcher *>(standalone.get());
        ASSERT_NE(cbws, nullptr) << c.key;
        EXPECT_EQ(cbws->storageBits(), bits) << c.key;
        EXPECT_TRUE(cbws->params() == expected) << c.key;

        const auto hybrid =
            build("CBWS+SMS", "cbws." + c.key + "=" + c.value);
        const auto *composite =
            dynamic_cast<const CbwsSmsPrefetcher *>(hybrid.get());
        ASSERT_NE(composite, nullptr) << c.key;
        EXPECT_EQ(composite->cbws().storageBits(), bits) << c.key;
        EXPECT_TRUE(composite->cbws().params() == expected) << c.key;
    }
}

} // anonymous namespace
} // namespace cbws
