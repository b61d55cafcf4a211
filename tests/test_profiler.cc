/**
 * @file
 * Tests of the host-side self-profiler (base/profiler.hh): the
 * disabled path must record nothing, the enabled path's per-phase
 * exclusive times must partition the profiled wall window, nesting
 * must charge inner scopes exclusively, pool-worker stats must
 * fold into the report at pool teardown, and the simulator's replay
 * loop must be visible to it on every driver. The wall-clock bound
 * on the disabled path's cost is in perf_profiler.cc, outside ctest.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "base/json.hh"
#include "base/jsonparse.hh"
#include "base/profiler.hh"
#include "base/threadpool.hh"
#include "sim/simulator.hh"

namespace cbws
{
namespace
{

/** Busy-wait for @p seconds of wall time (sleep would not accrue
 *  meaningfully distinct TSC deltas under coarse schedulers). */
void
spinFor(double seconds)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
    volatile std::uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < until)
        sink = sink + 1;
}

/** Every test starts and ends with the profiler off and empty. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void SetUp() override { prof::resetForTest(); }
    void TearDown() override { prof::resetForTest(); }
};

TEST_F(ProfilerTest, DisabledByDefaultAndReportSaysSo)
{
    EXPECT_FALSE(prof::enabled());
    {
        PROF_SCOPE(prof::Phase::Decode); // must be a no-op
        PROF_SCOPE(prof::Phase::Dram);
    }
    const prof::Report rep = prof::report();
    EXPECT_FALSE(rep.enabled);
    for (unsigned p = 0; p < prof::NumPhases; ++p) {
        EXPECT_EQ(rep.phaseEntries[p], 0u);
        EXPECT_EQ(rep.phaseSeconds[p], 0.0);
    }
}

TEST_F(ProfilerTest, PhasesPartitionTheWallWindow)
{
    prof::enable();
    {
        PROF_SCOPE(prof::Phase::TraceSynthesis);
        spinFor(0.02);
    }
    {
        PROF_SCOPE(prof::Phase::Decode);
        spinFor(0.02);
    }
    const prof::Report rep = prof::report();
    ASSERT_TRUE(rep.enabled);
    EXPECT_GT(rep.wallSeconds, 0.03);
    // Acceptance criterion: the per-phase exclusive times of the main
    // thread sum to its wall time within 10% (unattributed time lands
    // in Phase::Other, so the partition is exact up to calibration).
    EXPECT_NEAR(rep.mainThreadSeconds, rep.wallSeconds,
                0.1 * rep.wallSeconds);
    const unsigned ts =
        static_cast<unsigned>(prof::Phase::TraceSynthesis);
    const unsigned de = static_cast<unsigned>(prof::Phase::Decode);
    EXPECT_EQ(rep.phaseEntries[ts], 1u);
    EXPECT_EQ(rep.phaseEntries[de], 1u);
    EXPECT_GT(rep.phaseSeconds[ts], 0.01);
    EXPECT_GT(rep.phaseSeconds[de], 0.01);
}

TEST_F(ProfilerTest, NestedScopesChargeTheInnerPhaseExclusively)
{
    prof::enable();
    {
        PROF_SCOPE(prof::Phase::Decode);
        spinFor(0.005);
        {
            PROF_SCOPE(prof::Phase::Dram);
            spinFor(0.02);
        }
        spinFor(0.005);
    }
    const prof::Report rep = prof::report();
    const double decode =
        rep.phaseSeconds[static_cast<unsigned>(prof::Phase::Decode)];
    const double dram =
        rep.phaseSeconds[static_cast<unsigned>(prof::Phase::Dram)];
    // The 20 ms inner window must be attributed to Dram, not Decode:
    // Decode keeps only its ~10 ms of exclusive time.
    EXPECT_GT(dram, 0.015);
    EXPECT_LT(decode, dram);
    EXPECT_GT(decode, 0.005);
}

TEST_F(ProfilerTest, SampledScopesExtrapolateAndStayZeroSum)
{
    // A hand-advanced clock drives every profiler clock, so the
    // attribution is asserted exactly, not within a tolerance.
    std::uint64_t clock_ns = 1'000'000'000;
    prof::setTestClock(&clock_ns);
    prof::enable();
    // 64 identical work chunks; with mask 3 only one in four is
    // timed, the rest are merely counted. Inline extrapolation must
    // still attribute all 64 chunks to the phase, stolen zero-sum
    // from the enclosing phase (Other here).
    constexpr int kChunks = 64;
    constexpr std::uint64_t kChunkNs = 500'000;
    for (int i = 0; i < kChunks; ++i) {
        PROF_SCOPE_SAMPLED(prof::Phase::PfObserve, 3);
        clock_ns += kChunkNs;
    }
    const prof::Report rep = prof::report();
    const unsigned p = static_cast<unsigned>(prof::Phase::PfObserve);
    EXPECT_EQ(rep.phaseEntries[p],
              static_cast<std::uint64_t>(kChunks));
    const double expect = kChunks * (kChunkNs * 1e-9);
    EXPECT_DOUBLE_EQ(rep.wallSeconds, expect);
    EXPECT_DOUBLE_EQ(rep.phaseSeconds[p], expect);
    // Zero-sum: the untimed chunks Other absorbed are taken back in
    // full, and the thread's phases still partition the window.
    EXPECT_EQ(rep.phaseSeconds[static_cast<unsigned>(prof::Phase::Other)],
              0.0);
    EXPECT_DOUBLE_EQ(rep.mainThreadSeconds, rep.wallSeconds);
}

TEST_F(ProfilerTest, EnableIsIdempotentAndSticky)
{
    prof::enable();
    ASSERT_TRUE(prof::enabled());
    const auto t0 = std::chrono::steady_clock::now();
    spinFor(0.005);
    prof::enable(); // must not re-anchor the calibration epoch
    const prof::Report rep = prof::report();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    EXPECT_GE(rep.wallSeconds, elapsed * 0.5);
}

TEST_F(ProfilerTest, PoolWorkerStatsFoldInAtTeardown)
{
    prof::enable();
    {
        ThreadPool pool(2);
        ASSERT_EQ(pool.workers(), 2u);
        for (int i = 0; i < 8; ++i)
            pool.submit([] { spinFor(0.002); });
        pool.wait();
    } // ~ThreadPool folds worker stats into the profiler registry
    const prof::Report rep = prof::report();
    ASSERT_EQ(rep.poolsObserved, 1u);
    ASSERT_EQ(rep.workers.size(), 2u);
    std::uint64_t jobs = 0;
    double busy = 0.0;
    for (const auto &w : rep.workers) {
        jobs += w.jobs;
        busy += w.busySeconds;
    }
    EXPECT_EQ(jobs, 8u);
    EXPECT_GT(busy, 0.008);
    EXPECT_EQ(rep.jobMicros.total(), 8u);
}

TEST_F(ProfilerTest, DisabledPoolRecordsNothing)
{
    ASSERT_FALSE(prof::enabled());
    {
        ThreadPool pool(2);
        for (int i = 0; i < 4; ++i)
            pool.submit([] {});
        pool.wait();
    }
    prof::enable(); // report() returns data only when enabled
    const prof::Report rep = prof::report();
    EXPECT_EQ(rep.poolsObserved, 0u);
    EXPECT_TRUE(rep.workers.empty());
}

TEST_F(ProfilerTest, WriteJsonFileEmitsProvenanceStampedArtifact)
{
    prof::enable();
    {
        PROF_SCOPE(prof::Phase::CacheLookup);
        spinFor(0.002);
    }
    const std::string path =
        testing::TempDir() + "cbws_profile_test.json";
    ASSERT_TRUE(prof::writeJsonFile(path, prof::report()));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    Result<JsonValue> doc = parseJson(buf.str());
    ASSERT_TRUE(doc.ok()) << doc.error().str();
    EXPECT_EQ(doc.value().strOr("format"), "cbws-profile");
    EXPECT_EQ(doc.value().uintOr("schema_version"), 1u);
    const JsonValue *prov = doc.value().find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_FALSE(prov->strOr("git_sha").empty());
    EXPECT_FALSE(prov->strOr("compiler").empty());
    const JsonValue *profile = doc.value().find("profile");
    ASSERT_NE(profile, nullptr);
    const JsonValue *phases = profile->find("phases");
    ASSERT_NE(phases, nullptr);
    const JsonValue *cache = phases->find("cache_lookup");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->uintOr("entries"), 1u);
    std::remove(path.c_str());
}

TEST_F(ProfilerTest, RenderTableSharesAreOfAttributedSeconds)
{
    // A --jobs N run: the phases sum over every thread, so they
    // exceed the main thread's wall window.
    prof::Report rep;
    rep.enabled = true;
    rep.wallSeconds = 1.0;
    rep.mainThreadSeconds = 1.0;
    rep.workerThreadSeconds = 2.3;
    const auto set = [&rep](prof::Phase phase, double seconds) {
        rep.phaseSeconds[static_cast<unsigned>(phase)] = seconds;
        rep.phaseEntries[static_cast<unsigned>(phase)] = 1;
    };
    set(prof::Phase::Other, 0.1);
    set(prof::Phase::Decode, 2.2);
    set(prof::Phase::CacheLookup, 0.7);
    set(prof::Phase::Dram, 0.3);

    std::istringstream table(prof::renderTable(rep));
    std::string line;
    ASSERT_TRUE(std::getline(table, line));
    EXPECT_NE(line.find("%attr"), std::string::npos) << line;
    ASSERT_TRUE(std::getline(table, line)); // ---- rule
    double sum = 0.0;
    unsigned rows = 0;
    while (std::getline(table, line) && !line.empty()) {
        std::istringstream cols(line);
        std::string phase;
        double seconds = 0.0;
        double share = -1.0;
        cols >> phase >> seconds >> share;
        EXPECT_GE(share, 0.0) << line;
        EXPECT_LE(share, 100.0) << line;
        sum += share;
        ++rows;
    }
    EXPECT_EQ(rows, 4u);
    // Each share is rounded to one decimal.
    EXPECT_NEAR(sum, 100.0, 0.05 * rows);
}

TEST_F(ProfilerTest, CoreWorkCountersAreExactAndReported)
{
    // A dependent chain with loads and same-line stores: every work
    // counter moves, and two identical runs count identical work.
    Trace trace;
    for (unsigned i = 0; i < 400; ++i) {
        const Addr a = 0x1000000 + 64 * (i % 32);
        trace.append(TraceRecord::store(0x400, a, 1 + i % 4));
        trace.append(TraceRecord::load(0x404, a + 8, 1 + (i + 1) % 4));
        trace.append(TraceRecord::alu(0x408, 5, 1 + (i + 1) % 4, 5));
    }
    const auto work = [&trace] {
        prof::resetForTest();
        prof::enable();
        simulate(trace, SystemConfig(), trace.size());
        return prof::report().work;
    };
    const prof::WorkCounters a = work();
    const prof::WorkCounters b = work();
    EXPECT_EQ(a.committed, trace.size());
    EXPECT_GT(a.steppedCycles, 0u);
    EXPECT_GT(a.issueCandidates, 0u);
    EXPECT_GT(a.producerChecks, 0u);
    EXPECT_GT(a.storeFwdWalkSteps, 0u);
    // Producers are looked up once per in-flight operand, at dispatch.
    EXPECT_LE(a.producerChecks, 2 * a.committed);
    EXPECT_EQ(a.steppedCycles, b.steppedCycles);
    EXPECT_EQ(a.issueCandidates, b.issueCandidates);
    EXPECT_EQ(a.producerChecks, b.producerChecks);
    EXPECT_EQ(a.storeFwdWalkSteps, b.storeFwdWalkSteps);
    EXPECT_EQ(a.mshrRetries, b.mshrRetries);

    prof::Report rep = prof::report();
    const std::string table = prof::renderTable(rep);
    EXPECT_NE(table.find("issue_candidates"), std::string::npos);
    EXPECT_NE(table.find("per inst"), std::string::npos);
    JsonWriter w;
    prof::writeJson(w, rep);
    EXPECT_NE(w.str().find("\"work\":{\"committed\":1200"),
              std::string::npos)
        << w.str();
}

TEST_F(ProfilerTest, DisabledProfilerCountsNoWork)
{
    Trace trace;
    for (unsigned i = 0; i < 100; ++i)
        trace.append(TraceRecord::alu(0x400, 1, 1));
    simulate(trace, SystemConfig(), trace.size());
    prof::enable();
    EXPECT_EQ(prof::report().work.committed, 0u);
}

TEST_F(ProfilerTest, MultiCoreReplayLoopIsProfiled)
{
    Trace trace;
    for (unsigned i = 0; i < 200; ++i)
        trace.append(TraceRecord::alu(0x400 + 4 * (i % 16), 1 + i % 8,
                                      1 + (i + 3) % 8));
    prof::enable();
    const SimResult r = simulateMulti({&trace, &trace}, {"a", "b"},
                                      SystemConfig(), 200);
    ASSERT_EQ(r.perCore.size(), 2u);
    const prof::Report rep = prof::report();
    // One scope around the shared cycle loop, not one per core.
    EXPECT_EQ(rep.phaseEntries[static_cast<unsigned>(prof::Phase::Decode)],
              1u);
}

} // anonymous namespace
} // namespace cbws
