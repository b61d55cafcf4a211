/**
 * @file
 * Scalar in-order core model — an alternative substrate to the OoO
 * core (the paper's related work discusses prefetching for in-order
 * processors, e.g., B-Fetch).
 *
 * Stall-on-use semantics: instructions issue strictly in order; a
 * consumer waits for its producers, loads access the hierarchy at
 * issue and can overlap (bounded by the L1 MSHRs) until a dependent
 * instruction needs the value. Branches pay the mispredict penalty at
 * issue. Commit equals issue order, so both prefetcher hooks fire in
 * program order.
 *
 * An in-order core cannot hide memory latency with independent work
 * beyond the stall-on-use window, so prefetching matters *more* here
 * — the extension bench quantifies that.
 */

#ifndef CBWS_CPU_INORDER_HH
#define CBWS_CPU_INORDER_HH

#include "cpu/core.hh"

namespace cbws
{

/**
 * The in-order core. Reuses CoreParams (width is ignored: scalar)
 * and CoreStats.
 */
class InOrderCore
{
  public:
    InOrderCore(const CoreParams &params, Hierarchy &mem);

    /** Same contract as OooCore::run(). */
    CoreStats run(const Trace &trace, std::uint64_t max_insts,
                  const OooCore::CommitHook &on_commit = nullptr,
                  const OooCore::AccessHook &on_access = nullptr,
                  std::uint64_t warmup_insts = 0,
                  const std::function<void(Cycle)> &on_warmup =
                      nullptr);

    /** Attach a timeline-event sink (nullptr detaches). */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

  private:
    CoreParams params_;
    Hierarchy &mem_;
    TournamentBP bp_;
    TraceSink *trace_ = nullptr;
};

} // namespace cbws

#endif // CBWS_CPU_INORDER_HH
