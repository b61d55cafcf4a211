/**
 * @file
 * Exact issue-timing pins for the out-of-order core: hand-built
 * micro-traces whose every CoreStats field is fixed. Each trace aims
 * at one scheduling corner (wake-up of dependents, a producer feeding
 * both operands, store-to-load forwarding on the cycle the store
 * issues, a forwarding store that commits first, the issue-window
 * edge, ROB wrap-around at a non-power-of-two size), so a change to
 * how issue finds ready instructions that moves any cycle fails here
 * with the field that moved.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "mem/hierarchy.hh"

namespace cbws
{
namespace
{

constexpr Addr kPc = 0x400000;
constexpr Addr kData = 0x10000000;

CoreStats
runTrace(const Trace &t, const CoreParams &cp = CoreParams())
{
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(cp, mem);
    return core.run(t, t.size());
}

/** Field-by-field, so a failure names the statistic that moved. */
void
expectStats(const CoreStats &got, const CoreStats &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.memInstructions, want.memInstructions);
    EXPECT_EQ(got.branches, want.branches);
    EXPECT_EQ(got.branchMispredicts, want.branchMispredicts);
    EXPECT_EQ(got.loopCycles, want.loopCycles);
    EXPECT_EQ(got.robFullStalls, want.robFullStalls);
    EXPECT_EQ(got.lsqFullStalls, want.lsqFullStalls);
}

CoreStats
stats(std::uint64_t cycles, std::uint64_t insts, std::uint64_t mem,
      std::uint64_t branches, std::uint64_t mispredicts,
      std::uint64_t loop_cycles, std::uint64_t rob_full,
      std::uint64_t lsq_full)
{
    CoreStats s;
    s.cycles = cycles;
    s.instructions = insts;
    s.memInstructions = mem;
    s.branches = branches;
    s.branchMispredicts = mispredicts;
    s.loopCycles = loop_cycles;
    s.robFullStalls = rob_full;
    s.lsqFullStalls = lsq_full;
    return s;
}

TEST(IssueTiming, DependentChainWakesEachConsumer)
{
    // A serial chain through r5 with mixed 1/3-cycle latencies and a
    // load in the middle of each link, inside an annotated block.
    Trace t;
    for (int i = 0; i < 60; ++i) {
        t.append(TraceRecord::blockBegin(kPc, 1));
        t.append(TraceRecord::alu(kPc + 4, 5, 5));
        t.append(TraceRecord::fp(kPc + 8, 5, 5));
        t.append(TraceRecord::load(kPc + 12, kData + i * 8, 5, 5));
        t.append(TraceRecord::alu(kPc + 16, 6, 5, 6));
        t.append(TraceRecord::blockEnd(kPc + 20, 1));
    }
    expectStats(runTrace(t), stats(3353, 360, 60, 0, 0, 3353, 1825, 0));
}

TEST(IssueTiming, BothOperandsFromOneProducer)
{
    // Each consumer reads the same in-flight producer twice, so it
    // has two pending operands that the one producer's issue must
    // both resolve.
    Trace t;
    for (int i = 0; i < 100; ++i) {
        t.append(TraceRecord::fp(kPc, 5, 6, 6));
        t.append(TraceRecord::alu(kPc + 4, 6, 5, 5));
        t.append(TraceRecord::alu(kPc + 8, 7, 6, 5));
    }
    expectStats(runTrace(t), stats(734, 300, 0, 0, 0, 0, 190, 0));
}

TEST(IssueTiming, LoadForwardsOnTheCycleItsStoreIssues)
{
    // The store's data comes from a 3-deep FP chain, so it issues
    // late; the younger load to the same line has its address ready
    // and waits on the store, then forwards in the very cycle the
    // store issues (data ready one cycle after the store's).
    Trace t;
    for (int i = 0; i < 40; ++i) {
        const Addr line = kData + static_cast<Addr>(i) * 64;
        t.append(TraceRecord::fp(kPc, 5, 5));
        t.append(TraceRecord::fp(kPc + 4, 5, 5));
        t.append(TraceRecord::fp(kPc + 8, 5, 5));
        t.append(TraceRecord::store(kPc + 12, line, 5));
        t.append(TraceRecord::load(kPc + 16, line + 8, 7));
        t.append(TraceRecord::alu(kPc + 20, 8, 7, 8));
    }
    expectStats(runTrace(t), stats(696, 240, 80, 0, 0, 0, 132, 0));
}

TEST(IssueTiming, ForwardingStoreCommitsBeforeTheLoadIssues)
{
    // The load's address comes from a DRAM miss, so by the time it
    // can issue, the older same-line store (data ready at once) has
    // committed: the load must go to memory, not forward.
    Trace t;
    for (int i = 0; i < 12; ++i) {
        const Addr far = kData + 0x100000 + static_cast<Addr>(i) * 4096;
        const Addr line = kData + static_cast<Addr>(i) * 64;
        t.append(TraceRecord::load(kPc, far, 3));
        t.append(TraceRecord::alu(kPc + 4, 4));
        t.append(TraceRecord::store(kPc + 8, line, 4));
        t.append(TraceRecord::load(kPc + 12, line, 7, 3));
        t.append(TraceRecord::alu(kPc + 16, 8, 7, 8));
    }
    expectStats(runTrace(t), stats(1679, 60, 36, 0, 0, 0, 0, 0));
}

/** After a prologue that absorbs the cold I-cache miss: a
 *  DRAM-missing load, @p blocked instructions that depend on it, then
 *  an independent DRAM-missing load. Inside the 48-entry issue window
 *  the second miss overlaps the first; just past it, it cannot. */
Trace
windowEdgeTrace(int blocked)
{
    Trace t;
    for (int i = 0; i < 4; ++i)
        t.append(TraceRecord::alu(kPc + 48 + i * 4, 11));
    t.append(TraceRecord::load(kPc, kData, 3));
    for (int i = 0; i < blocked; ++i)
        t.append(TraceRecord::alu(kPc + 4 + (i % 8) * 4, 4, 3));
    t.append(TraceRecord::load(kPc + 40, kData + 0x200000, 9));
    t.append(TraceRecord::alu(kPc + 44, 10, 9));
    return t;
}

TEST(IssueTiming, ReadyLoadJustInsideTheIssueWindow)
{
    const CoreParams cp;
    ASSERT_EQ(cp.issueWindow, 48u);
    expectStats(runTrace(windowEdgeTrace(47)),
                stats(683, 54, 2, 0, 0, 0, 0, 0));
}

TEST(IssueTiming, ReadyLoadJustPastTheIssueWindow)
{
    expectStats(runTrace(windowEdgeTrace(48)),
                stats(1013, 55, 2, 0, 0, 0, 0, 0));
}

TEST(IssueTiming, RobWrapsAtNonPowerOfTwoSize)
{
    // Strided misses with dependents, independent filler, same-line
    // store/load pairs and loop branches: the ROB fills before the
    // load queue does, and its 200-slot ring (with a partial last
    // 64-bit mask word) wraps many times.
    CoreParams cp;
    cp.robSize = 200;
    Trace t;
    for (int i = 0; i < 300; ++i) {
        const Addr a = kData + static_cast<Addr>(i) * 192;
        t.append(TraceRecord::load(kPc, a, 3));
        t.append(TraceRecord::alu(kPc + 4, 4, 3, 4));
        for (int k = 0; k < 10; ++k) {
            t.append(TraceRecord::alu(kPc + 8 + k * 4,
                                      static_cast<RegIndex>(16 + k)));
        }
        t.append(TraceRecord::store(kPc + 48, a + 0x400000, 4));
        t.append(TraceRecord::load(kPc + 52, a + 0x400008, 5));
        t.append(TraceRecord::fp(kPc + 56, 6, 5, 6));
        t.append(TraceRecord::branch(kPc + 60, i % 7 != 6, kPc, 6));
    }
    expectStats(runTrace(t, cp),
                stats(32516, 4800, 900, 300, 3, 0, 27915, 0));
}

} // anonymous namespace
} // namespace cbws
