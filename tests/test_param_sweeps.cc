/**
 * @file
 * Additional parameterised sweeps: cache geometries, branch-predictor
 * sizings, hierarchy latency compositions and SMS/GHB configurations
 * — broad invariants over the configuration space.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>

#include "base/random.hh"
#include "cpu/branch_pred.hh"
#include "mem/hierarchy.hh"
#include "prefetch/ghb.hh"
#include "prefetch/sms.hh"
#include "test_util.hh"

namespace cbws
{
namespace
{

using test::MockSink;
using test::memCtx;

// ---- Cache geometry sweep ----

struct CacheGeom
{
    unsigned assoc;
    std::uint64_t sets;
    ReplPolicy repl;
};

/**
 * gtest's default printer dumps CacheGeom's raw bytes, padding
 * included, so the ctest IDs (which embed GetParam()) changed from
 * build to build. Print the same "N-byte object <..>" dump over a
 * zero-padded copy: the IDs stay as they were, minus the noise.
 */
void
PrintTo(const CacheGeom &geom, std::ostream *os)
{
    unsigned char bytes[sizeof(CacheGeom)] = {};
    std::memcpy(bytes + offsetof(CacheGeom, assoc), &geom.assoc,
                sizeof(geom.assoc));
    std::memcpy(bytes + offsetof(CacheGeom, sets), &geom.sets,
                sizeof(geom.sets));
    std::memcpy(bytes + offsetof(CacheGeom, repl), &geom.repl,
                sizeof(geom.repl));
    static const char hex[] = "0123456789ABCDEF";
    *os << sizeof(bytes) << "-byte object <";
    for (std::size_t i = 0; i < sizeof(bytes); ++i)
        *os << (i == 0 ? "" : i % 2 ? "-" : " ") << hex[bytes[i] >> 4]
            << hex[bytes[i] & 0xf];
    *os << ">";
}

class CacheGeometryTest : public testing::TestWithParam<CacheGeom>
{
};

TEST_P(CacheGeometryTest, ContentsMatchReferenceSet)
{
    const auto geom = GetParam();
    CacheParams params;
    params.assoc = geom.assoc;
    params.sizeBytes = geom.sets * geom.assoc * LineBytes;
    params.repl = geom.repl;
    Cache cache(params);

    // Insert a random line stream; at every step, a line reported
    // present must have been inserted and not yet reported evicted.
    Random rng(77);
    std::set<LineAddr> resident;
    for (int i = 0; i < 2000; ++i) {
        const LineAddr line = rng.below(4 * geom.sets * geom.assoc);
        if (cache.contains(line)) {
            EXPECT_TRUE(resident.count(line))
                << "cache invented line " << line;
        }
        const auto victim = cache.insert(line, i, false);
        resident.insert(line);
        if (victim.valid)
            resident.erase(victim.line);
        EXPECT_TRUE(cache.contains(line));
    }
    // Occupancy never exceeds capacity.
    EXPECT_LE(resident.size(), geom.sets * geom.assoc);
}

TEST_P(CacheGeometryTest, LruNeverEvictsMostRecent)
{
    const auto geom = GetParam();
    if (geom.repl != ReplPolicy::LRU)
        GTEST_SKIP() << "LRU-specific property";
    CacheParams params;
    params.assoc = geom.assoc;
    params.sizeBytes = geom.sets * geom.assoc * LineBytes;
    params.repl = geom.repl;
    Cache cache(params);
    Random rng(5);
    LineAddr last = 0;
    for (int i = 0; i < 1000; ++i) {
        const LineAddr line = rng.below(8 * geom.sets * geom.assoc);
        const auto victim = cache.insert(line, i, false);
        if (victim.valid && geom.assoc > 1) {
            EXPECT_NE(victim.line, last);
        }
        last = line;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    testing::Values(CacheGeom{1, 8, ReplPolicy::LRU},
                    CacheGeom{2, 4, ReplPolicy::LRU},
                    CacheGeom{4, 16, ReplPolicy::LRU},
                    CacheGeom{8, 64, ReplPolicy::LRU},
                    CacheGeom{2, 4, ReplPolicy::RandomRepl},
                    CacheGeom{4, 8, ReplPolicy::RandomRepl}),
    [](const testing::TestParamInfo<CacheGeom> &param_info) {
        return "a" + std::to_string(param_info.param.assoc) + "_s" +
               std::to_string(param_info.param.sets) +
               (param_info.param.repl == ReplPolicy::LRU ? "_lru"
                                                   : "_rand");
    });

// ---- Branch predictor sizing sweep ----

class BranchPredSizeTest : public testing::TestWithParam<unsigned>
{
};

TEST_P(BranchPredSizeTest, LoopBranchesConvergeAtAnySize)
{
    BranchPredParams params;
    params.globalEntries = GetParam();
    params.choiceEntries = GetParam();
    params.localCtrEntries = GetParam() / 2;
    params.localHistEntries = GetParam() / 4;
    params.btbEntries = GetParam();
    TournamentBP bp(params);
    unsigned late = 0;
    for (int i = 0; i < 600; ++i) {
        auto r = bp.predictAndTrain(0x400100, i % 100 != 99,
                                    0x400000);
        if (i >= 300 && r.dirMispredict)
            ++late;
    }
    // Late mispredicts only at the periodic exit (3 of 300).
    EXPECT_LE(late, 6u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BranchPredSizeTest,
                         testing::Values(64u, 256u, 1024u, 4096u));

// ---- Hierarchy latency composition sweep ----

struct LatencyConfig
{
    Cycle l1;
    Cycle l2;
    Cycle dram;
};

class HierarchyLatencyTest
    : public testing::TestWithParam<LatencyConfig>
{
};

TEST_P(HierarchyLatencyTest, ColdMissComposesExactly)
{
    const auto lat = GetParam();
    HierarchyParams params;
    params.l1d.latency = lat.l1;
    params.l2.latency = lat.l2;
    params.dramLatency = lat.dram;
    Hierarchy mem(params);
    auto out = mem.load(0x123400, 0);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.readyAt, lat.l1 + lat.l2 + lat.dram + lat.l1);
}

INSTANTIATE_TEST_SUITE_P(
    Latencies, HierarchyLatencyTest,
    testing::Values(LatencyConfig{1, 10, 100},
                    LatencyConfig{2, 30, 300},
                    LatencyConfig{4, 40, 200},
                    LatencyConfig{3, 12, 500}));

// ---- SMS region-size sweep ----

class SmsRegionTest : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SmsRegionTest, PatternReplayAtAnyRegionSize)
{
    SmsParams params;
    params.regionBytes = GetParam();
    params.agtEntries = 1;
    SmsPrefetcher pf(params);
    MockSink sink;
    const Addr r1 = 10 * GetParam(), r2 = 20 * GetParam(),
               probe = 77 * GetParam();
    // Pattern {0, last-line} in region r1; evict via region r2.
    pf.observeAccess(memCtx(0xAAA, r1), sink);
    pf.observeAccess(
        memCtx(0xAAB, r1 + GetParam() - LineBytes), sink);
    pf.observeAccess(memCtx(0xBBB, r2), sink);
    pf.observeAccess(memCtx(0xBBC, r2 + LineBytes), sink);
    sink.issued.clear();
    pf.observeAccess(memCtx(0xAAA, probe), sink);
    EXPECT_TRUE(
        sink.wasIssued(lineOf(probe + GetParam() - LineBytes)));
}

INSTANTIATE_TEST_SUITE_P(Regions, SmsRegionTest,
                         testing::Values(512u, 1024u, 2048u, 4096u));

// ---- GHB depth/degree sweep ----

struct GhbGeom
{
    unsigned history;
    unsigned degree;
};

class GhbGeomTest : public testing::TestWithParam<GhbGeom>
{
};

TEST_P(GhbGeomTest, ConstantStreamAlwaysPredicted)
{
    GhbParams params;
    params.historyLength = GetParam().history;
    params.degree = GetParam().degree;
    GhbPrefetcher pf(GhbPrefetcher::Mode::PcDC, params);
    MockSink sink;
    for (int i = 0; i < 24; ++i)
        pf.observeAccess(memCtx(0x400, i * 192ull), sink);
    EXPECT_FALSE(sink.issued.empty());
    // Every issue continues the stride-3 stream.
    for (LineAddr l : sink.issued)
        EXPECT_EQ(l % 3, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GhbGeomTest,
    testing::Values(GhbGeom{2, 1}, GhbGeom{3, 3}, GhbGeom{4, 2},
                    GhbGeom{6, 4}),
    [](const testing::TestParamInfo<GhbGeom> &param_info) {
        return "h" + std::to_string(param_info.param.history) + "_d" +
               std::to_string(param_info.param.degree);
    });

} // anonymous namespace
} // namespace cbws
