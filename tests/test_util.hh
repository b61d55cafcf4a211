/**
 * @file
 * Shared helpers for the unit and integration tests.
 */

#ifndef CBWS_TESTS_TEST_UTIL_HH
#define CBWS_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "sim/experiment.hh"
#include "trace/trace.hh"

namespace cbws
{
namespace test
{

/**
 * PrefetchSink that records every issued line and serves isCached()
 * from a configurable set.
 */
class MockSink : public PrefetchSink
{
  public:
    void
    issuePrefetch(LineAddr line, PfSource src) override
    {
        issued.push_back(line);
        sources.push_back(src);
    }

    bool
    isCached(LineAddr line) const override
    {
        return cached.count(line) > 0;
    }

    bool
    wasIssued(LineAddr line) const
    {
        for (LineAddr l : issued)
            if (l == line)
                return true;
        return false;
    }

    std::vector<LineAddr> issued;
    std::vector<PfSource> sources;
    std::set<LineAddr> cached;
};

/** Feed a memory access (as a committed op) into a prefetcher. */
inline PrefetchContext
memCtx(Addr pc, Addr addr, bool is_write = false, bool l1_hit = false,
       bool l2_miss = true)
{
    PrefetchContext ctx;
    ctx.pc = pc;
    ctx.addr = addr;
    ctx.line = lineOf(addr);
    ctx.isWrite = is_write;
    ctx.l1Hit = l1_hit;
    ctx.l2Miss = l2_miss;
    return ctx;
}

/**
 * Replay a trace's memory records and block markers straight into a
 * prefetcher (no core, no hierarchy) using @p sink.
 */
inline void
replayTrace(const Trace &trace, Prefetcher &pf, PrefetchSink &sink)
{
    for (const auto &rec : trace) {
        switch (rec.cls) {
          case InstClass::BlockBegin:
            pf.blockBegin(rec.blockId, sink);
            break;
          case InstClass::BlockEnd:
            pf.blockEnd(rec.blockId, sink);
            break;
          case InstClass::Load:
          case InstClass::Store: {
            PrefetchContext ctx =
                memCtx(rec.pc, rec.effAddr,
                       rec.cls == InstClass::Store);
            pf.observeAccess(ctx, sink);
            pf.observeCommit(ctx, sink);
            break;
          }
          default:
            break;
        }
    }
}

/**
 * Exact equality of two cells (SimResult::operator==). A mismatch
 * names the cell and the first differing group: identity (names,
 * core count, DRAM backend, storage bits), core, mem or perCore.
 */
inline ::testing::AssertionResult
cellsIdentical(const SimResult &a, const SimResult &b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
    const char *group = "perCore";
    if (a.workload != b.workload || a.prefetcher != b.prefetcher ||
        a.dramBackend != b.dramBackend || a.cores != b.cores ||
        a.prefetcherStorageBits != b.prefetcherStorageBits)
        group = "identity";
    else if (!(a.core == b.core))
        group = "core";
    else if (!(a.mem == b.mem))
        group = "mem";
    return ::testing::AssertionFailure()
           << a.workload << "/" << a.prefetcher << ": " << group
           << " differs";
}

/** cellsIdentical over every cell of two matrices of one shape. */
inline ::testing::AssertionResult
matricesIdentical(const ExperimentMatrix &a, const ExperimentMatrix &b)
{
    if (a.rows.size() != b.rows.size())
        return ::testing::AssertionFailure() << "row counts differ";
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        if (a.rows[r].byPrefetcher.size() !=
            b.rows[r].byPrefetcher.size())
            return ::testing::AssertionFailure() << "cell counts differ";
        for (std::size_t k = 0; k < a.rows[r].byPrefetcher.size();
             ++k) {
            auto cell = cellsIdentical(a.rows[r].byPrefetcher[k],
                                       b.rows[r].byPrefetcher[k]);
            if (!cell)
                return cell;
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace test
} // namespace cbws

#endif // CBWS_TESTS_TEST_UTIL_HH
