/**
 * @file
 * Wall-clock bound on the disabled profiler's cost: one PROF_SCOPE
 * must vanish into tick-sized work. A timing bound cannot be
 * deterministic on a shared machine, so this binary is not part of
 * ctest; CI's "Profiler perf smoke" step runs it and passes when any
 * of several runs does:
 *
 *     ./build/tests/cbws_perf_tests
 *
 * Skipped under sanitizers, whose instrumentation multiplies the cost
 * of exactly the code under test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "base/profiler.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CBWS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CBWS_SANITIZED 1
#endif
#endif
#ifndef CBWS_SANITIZED
#define CBWS_SANITIZED 0
#endif

namespace cbws
{
namespace
{

/** Starts and ends with the profiler off and empty. */
class ProfilerPerf : public ::testing::Test
{
  protected:
    void SetUp() override { prof::resetForTest(); }
    void TearDown() override { prof::resetForTest(); }
};

TEST_F(ProfilerPerf, DisabledScopeCostIsNegligible)
{
#if CBWS_SANITIZED
    GTEST_SKIP() << "timing bounds do not hold under sanitizers";
#endif
    ASSERT_FALSE(prof::enabled());

    // Representative work chunk: a few hundred ns of arithmetic, the
    // scale of one hierarchy tick. One predicted branch on top of it
    // must stay in the noise. Min-of-N suppresses scheduler jitter.
    constexpr int kIters = 20000;
    constexpr int kInner = 256;
    constexpr int kRepeats = 7;
    auto work = [](volatile std::uint64_t &acc) {
        std::uint64_t x = acc + 0x9E3779B97F4A7C15ull;
        for (int i = 0; i < kInner; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        acc = x;
    };
    auto timeLoop = [&](bool scoped) {
        double best = 1e30;
        for (int r = 0; r < kRepeats; ++r) {
            volatile std::uint64_t acc = 1;
            const auto t0 = std::chrono::steady_clock::now();
            for (int i = 0; i < kIters; ++i) {
                if (scoped) {
                    PROF_SCOPE(prof::Phase::Decode);
                    work(acc);
                } else {
                    work(acc);
                }
            }
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(
                best, std::chrono::duration<double>(t1 - t0).count());
        }
        return best;
    };

    const double plain = timeLoop(false);
    const double scoped = timeLoop(true);
    const double per_scope_ns =
        (scoped - plain) / static_cast<double>(kIters) * 1e9;
    // Either bound proves "negligible": under 2% relative overhead on
    // tick-sized work, or under 3 ns absolute per disabled scope.
    EXPECT_TRUE(scoped <= plain * 1.02 || per_scope_ns < 3.0)
        << "disabled PROF_SCOPE costs " << per_scope_ns
        << " ns (plain " << plain << " s, scoped " << scoped << " s)";
}

} // anonymous namespace
} // namespace cbws
