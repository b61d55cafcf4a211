/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * The core consumes a TraceRecord stream and models a 4-wide OoO
 * pipeline per Table II: 128-entry ROB, 32/32 LDQ/STQ, 6 functional
 * units, a tournament branch predictor, and fetch through the L1I.
 * Scheduling is dependency-driven: each architectural register carries
 * the cycle its value becomes available (ready-cycle scoreboard, which
 * is equivalent to perfect renaming — WAR/WAW hazards do not stall).
 *
 * Traces contain only correct-path instructions, so branch
 * mispredictions are modelled as fetch stalls: fetch is suspended from
 * the mispredicted branch until it executes, plus a fixed redirect
 * penalty — the standard trace-driven approximation.
 *
 * Memory instructions observe the hierarchy at execute (issue) time;
 * *committed* memory operations are handed to the prefetcher in
 * program order, exactly as the paper requires ("the prefetcher
 * obtains the address sequence from the in-order commit stage").
 *
 * One cycle loop drives every core: runLockstep() steps one or more
 * cores (begin() armed) through a shared global clock over their
 * shared hierarchy. run() is begin() + runLockstep() over this core
 * alone + finish(); the multi-core driver (sim/simulator.cc) hands it
 * all of its cores, so both execute identical pipeline and
 * fast-forward code.
 *
 * Replay-speed machinery (all architecturally invisible; see
 * PERFORMANCE.md):
 *  - ROB entries hold a trace *index* instead of a record copy; a
 *    record's sequence number equals its trace index because every
 *    record dispatches exactly once, in program order.
 *  - Replay reads the trace's SoA pre-decode (trace/decoded.hh):
 *    dispatch takes precomputed source producers and block
 *    membership instead of re-deriving them.
 *  - Issue is wake-up driven: dispatch links each operand to its
 *    unissued producer and each load to its forwarding store, so the
 *    issue scan examines only entries whose producers have all
 *    issued and decides each with one compare (no producer walk, no
 *    backward store search).
 *  - Issued completion times feed a min-heap so nextLocalEvent() is
 *    O(log n) instead of an O(ROB) scan per idle query.
 *  - All ring-buffer walks use wrap-around index arithmetic; the
 *    hot loops contain no division.
 */

#ifndef CBWS_CPU_CORE_HH
#define CBWS_CPU_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "base/counters.hh"
#include "base/profiler.hh"
#include "cpu/branch_pred.hh"
#include "mem/hierarchy.hh"
#include "trace/decoded.hh"
#include "trace/trace.hh"

namespace cbws
{

/** Core configuration (Table II defaults). */
struct CoreParams
{
    unsigned width = 4;          ///< fetch/dispatch/issue/commit width
    unsigned robSize = 128;
    unsigned ldqSize = 32;
    unsigned stqSize = 32;
    unsigned numFUs = 6;
    unsigned memPortsPerCycle = 2;
    unsigned fetchQueueSize = 16;
    unsigned issueWindow = 48;   ///< how deep issue scans into the ROB
    Cycle mispredictPenalty = 10;///< redirect cycles after resolution
    Cycle intAluLatency = 1;
    Cycle intMulLatency = 4;
    Cycle fpLatency = 3;
    BranchPredParams branchPred;
};

/** Statistics reported by one core run. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0; ///< committed (markers included)
    std::uint64_t memInstructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t loopCycles = 0;   ///< cycles attributed to annotated
                                    ///< blocks (drives Fig. 1)
    std::uint64_t robFullStalls = 0;
    std::uint64_t lsqFullStalls = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                      : 0.0;
    }

    double loopFraction() const
    {
        return cycles ? static_cast<double>(loopCycles) /
                        static_cast<double>(cycles)
                      : 0.0;
    }

    /** The counters in declaration order (base/counters.hh). */
    static constexpr auto
    counters()
    {
        using C = CoreStats;
        return std::array{
            &C::cycles, &C::instructions, &C::memInstructions,
            &C::branches, &C::branchMispredicts, &C::loopCycles,
            &C::robFullStalls, &C::lsqFullStalls,
        };
    }

    /** Fold core @p o of a multi-core run into this aggregate: every
     *  counter sums except cycles, which takes the max (the run lasts
     *  as long as its slowest core). */
    void
    addCore(const CoreStats &o)
    {
        const std::uint64_t slowest = std::max(cycles, o.cycles);
        addCounters(*this, o);
        cycles = slowest;
    }

    bool operator==(const CoreStats &) const = default;
};
static_assert(countersCoverStruct<CoreStats>());

/**
 * The out-of-order core.
 */
class OooCore
{
  public:
    /**
     * Observer invoked for every committed instruction, in program
     * order. Memory records carry the execute-time access outcome
     * (for L1-hit/miss-filtered prefetcher training). The cycle of
     * the commit is passed for observability consumers (periodic
     * snapshots, timeline traces).
     */
    using CommitHook = std::function<void(
        const TraceRecord &, const AccessOutcome &, Cycle)>;

    /**
     * Observer invoked when a memory operation accesses the cache:
     * loads at execute (possibly out of program order), stores at
     * commit. Forwarded loads never reach the cache and are not
     * reported. This is where cache-attached prefetchers train.
     */
    using AccessHook = CommitHook;

    /**
     * @param core_id index of this core in a multi-core system; every
     *        memory access is tagged with it (private L1 selection and
     *        interference attribution in the shared hierarchy). 0 for
     *        the historic single-core system.
     */
    OooCore(const CoreParams &params, Hierarchy &mem,
            unsigned core_id = 0);

    /**
     * Simulate @p trace until @p max_insts instructions commit or the
     * trace is exhausted.
     *
     * @param warmup_insts statistics are discarded for the first this
     *        many committed instructions (cache/predictor state is
     *        kept warm); @p on_warmup fires once at the boundary, with
     *        the boundary cycle, so the caller can reset external
     *        stats (e.g., the hierarchy's).
     */
    CoreStats run(const Trace &trace, std::uint64_t max_insts,
                  const CommitHook &on_commit = nullptr,
                  const AccessHook &on_access = nullptr,
                  std::uint64_t warmup_insts = 0,
                  const std::function<void(Cycle)> &on_warmup =
                      nullptr);

    /** Bit for @p cls in a commit-hook class mask. */
    static constexpr std::uint32_t
    classBit(InstClass cls)
    {
        return 1u << static_cast<unsigned>(cls);
    }

    /**
     * Restrict the commit hook to instruction classes whose classBit()
     * is set in @p mask (default: all classes). Callers whose hook
     * ignores plain ALU/branch retires — i.e. the common
     * prefetcher-training hook — set a Load/Store/marker mask so the
     * bulk of the commit stream skips the std::function dispatch
     * entirely. Purely a speed knob: the hook's *behaviour* for masked
     * classes must already be a no-op.
     */
    void setCommitHookMask(std::uint32_t mask) { commitHookMask_ = mask; }

    /**
     * @name Lockstep API
     * A driver arms each core with begin(), hands them all to
     * runLockstep(), then collects each core's finish(). run() is
     * this sequence for a single core.
     */
    ///@{

    /** Arm the pipeline for a run (resets all per-run state). */
    void begin(const Trace &trace, std::uint64_t max_insts,
               const CommitHook &on_commit = nullptr,
               const AccessHook &on_access = nullptr,
               std::uint64_t warmup_insts = 0,
               const std::function<void(Cycle)> &on_warmup = nullptr);

    /**
     * Step @p cores, all armed by begin() and sharing @p mem, through
     * one global clock until every core is done or the livelock
     * guard trips. Each cycle ticks the hierarchy once, then steps
     * the cores in index order, so shared-L2 arbitration and
     * prefetch-queue interleaving are deterministic. Idle cycles
     * fast-forward (Tuning::skipAhead) only when *no* core made
     * progress and no prefetch work is pending.
     *
     * @param on_done invoked as each core finishes, with its index
     *        in @p cores and the cycle.
     */
    static void runLockstep(
        Hierarchy &mem, std::span<OooCore> cores,
        const std::function<void(unsigned, Cycle)> &on_done = nullptr);

    /** Close the run at the cycle it ended and return the
     *  (warmup-adjusted) statistics. */
    CoreStats finish();

    ///@}

    /** Attach a timeline-event sink (nullptr detaches). */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

  private:
    /**
     * Advance this core's pipeline through global cycle @p now. The
     * caller must have ticked the shared hierarchy to @p now first.
     * @return true when any stage made progress this cycle (used by
     *         the driver's idle fast-forward).
     */
    bool step(Cycle now);

    /**
     * Earliest core-local future event (an issued instruction
     * completing or the post-mispredict fetch restart); a huge
     * sentinel when none is pending. Combined with the hierarchy's
     * nextEventCycle() to bound idle fast-forwards. May
     * conservatively report an already-dead event (the driver then
     * finds nothing to do there and asks again); it never skips over
     * a live one.
     */
    Cycle nextLocalEvent(Cycle now) const;

    /**
     * Account @p skipped idle cycles jumped over by the driver's
     * fast-forward: extends the annotated-block cycle attribution of
     * the last stepped cycle, and replays the per-cycle stall
     * counters (robFullStalls/lsqFullStalls) the skipped repeats of
     * that frozen cycle would have accumulated — a skip-eligible
     * cycle changes no pipeline state, so every skipped cycle
     * increments exactly what the last stepped cycle incremented.
     */
    void addSkippedCycles(Cycle skipped);

    /**
     * One in-flight instruction. Identified by its trace index (==
     * sequence number); the record itself is read from the trace's
     * contiguous record array on demand.
     */
    struct RobEntry
    {
        AccessOutcome mem;
        /** Loads only: sequence number (== trace index) of the
         *  nearest older store to the same line that was in flight
         *  at dispatch, or NoProducer. Every store older than the
         *  load dispatched before it and commit is in order, so
         *  while that store is uncommitted it is still the nearest
         *  such store, and once it commits none is left. */
        std::uint32_t fwdStoreSeq = ~std::uint32_t(0);
        std::uint32_t idx = 0; ///< trace index == sequence number
        bool mispredicted = false;
        bool inBlock = false; ///< fetched inside an annotated block
    };

    /** Fetched-but-not-dispatched instruction (ring fetch queue). */
    struct FetchEntry
    {
        std::uint32_t idx = 0;
        bool mispredicted = false;
        bool inBlock = false;
    };

    static constexpr Cycle Never = ~Cycle(0);
    static constexpr std::uint32_t NoProducer = ~std::uint32_t(0);
    static constexpr std::uint32_t NoLink = ~std::uint32_t(0);

    /** Physical ROB slot of the entry at logical @p offset from the
     *  head. Valid for offset <= robSize (single conditional wrap,
     *  no division). */
    std::size_t
    physIndex(std::size_t offset) const
    {
        std::size_t p = robHead_ + offset;
        if (p >= params_.robSize)
            p -= params_.robSize;
        return p;
    }

    void noteStore(LineAddr line);
    void retireStore(LineAddr line);
    void pushEvent(Cycle at);

    /**
     * @name Slot bitmasks
     * One bit per physical ROB slot. unissued_ is set from dispatch
     * until issue (markers never set it; unoccupied slots are
     * clear), so a producer's "already issued?" test is one bit
     * probe. waiting_ is set while the slot still has a producer
     * that has not issued. The issue scan walks the bits of
     * unissued_ & ~waiting_ instead of touching every RobEntry.
     */
    ///@{
    static void setBit(std::vector<std::uint64_t> &m, std::size_t p)
    {
        m[p >> 6] |= std::uint64_t(1) << (p & 63);
    }
    static void clearBit(std::vector<std::uint64_t> &m, std::size_t p)
    {
        m[p >> 6] &= ~(std::uint64_t(1) << (p & 63));
    }
    bool isUnissued(std::size_t p) const
    {
        return (unissued_[p >> 6] >> (p & 63)) & 1;
    }
    /** Write the physical indices of issue candidates (unissued, not
     *  waiting) in [begin, begin+len) (no wrap) to scanBuf_ starting
     *  at @p n; returns the new count. */
    std::size_t appendCandidates(std::size_t begin, std::size_t len,
                                 std::size_t n);
    ///@}

    /** Link the operands of the instruction just placed in slot
     *  @p phys to their producers (waiting_/pending_/opReady_). */
    void linkProducers(std::size_t phys, std::uint32_t idx);

    /** Nearest older in-flight store to @p line from ROB offset
     *  @p offset, as a sequence number (NoProducer when none). */
    std::uint32_t findForwardingStore(std::size_t offset,
                                      LineAddr line);

    /** Slot @p p just issued: wake its dependents. */
    void wakeDependents(std::size_t p);

    unsigned commitStage(Cycle now);
    unsigned issueStage(Cycle now);
    unsigned dispatchStage(Cycle now);
    unsigned fetchStage(Cycle now);

    CoreParams params_;
    Hierarchy &mem_;
    TournamentBP bp_;
    TraceSink *trace_ = nullptr;
    unsigned coreId_ = 0;
    /** Counter-track labels ("core.commit" on core 0, "coreN.commit"
     *  otherwise, so single-core traces are unchanged). */
    std::string commitLabel_;
    std::string robLabel_;

    // ---- Per-run pipeline state (valid between begin/finish) ----
    /** Contiguous record array of the running trace. */
    const TraceRecord *records_ = nullptr;
    std::size_t traceSize_ = 0;
    /** SoA pre-decode of the running trace. */
    const DecodedTrace *decoded_ = nullptr;
    std::uint64_t maxInsts_ = 0;
    std::uint64_t warmupInsts_ = 0;
    CommitHook onCommit_;
    AccessHook onAccess_;
    std::uint32_t commitHookMask_ = ~std::uint32_t(0);
    std::function<void(Cycle)> onWarmup_;
    CoreStats stats_;
    CoreStats warmSnapshot_;
    bool warmed_ = true;
    bool done_ = false;
    /** Cycle the run ended (set by step() or the livelock guard). */
    Cycle endCycle_ = 0;
    /** ROB as a ring buffer so entry offsets stay stable across
     *  pops. */
    std::vector<RobEntry> rob_;
    std::size_t robHead_ = 0;
    std::size_t robCount_ = 0;
    /** Per-slot completion cycle (valid once the slot issued) and
     *  operand-ready cycle, split out of RobEntry so the per-cycle
     *  issue scan touches dense arrays instead of scattered structs.
     *  opReady_ is the max readyAt over the slot's producers, raised
     *  at dispatch for producers that already issued and at wake-up
     *  for the rest; once the slot stops waiting, it is ready to
     *  issue exactly when opReady_ <= now. An issued producer's
     *  readyAt never changes, so the bound is exact. */
    std::vector<Cycle> readyAt_;
    std::vector<Cycle> opReady_;
    std::vector<std::uint64_t> unissued_;
    std::vector<std::uint64_t> waiting_;
    /** Producers of the slot that have not issued yet (0..2). */
    std::vector<std::uint8_t> pending_;
    /**
     * Wake-up lists: depHead_[p] is the first link of the consumers
     * waiting on slot p; link l names operand (l & 1) of consumer
     * slot (l >> 1), and depNext_[l] the next link (NoLink ends the
     * list). A list is consumed when its producer issues.
     */
    std::vector<std::uint32_t> depHead_;
    std::vector<std::uint32_t> depNext_;
    /** Scratch list of candidate slots for the current issue scan. */
    std::vector<std::uint32_t> scanBuf_;
    /** Host-work counters of this run (prof::addWork at finish()). */
    prof::WorkCounters work_;
    /** Fetch queue as a fixed ring (fetchQueueSize entries). */
    std::vector<FetchEntry> fetchQueue_;
    std::size_t fqHead_ = 0;
    std::size_t fqCount_ = 0;
    std::uint64_t headSeq_ = 0; ///< sequence number of the ROB head
    std::size_t traceIdx_ = 0;
    Cycle fetchAllowedAt_ = 0;
    LineAddr lastFetchLine_ = ~LineAddr(0);
    unsigned ldqCount_ = 0;
    unsigned stqCount_ = 0;
    /** Counting filter over the lines of in-flight (dispatched,
     *  uncommitted) stores: lets a load's dispatch skip the O(ROB)
     *  backward walk for its forwarding store in the common case of
     *  no matching store — without changing which loads forward (the
     *  walk still decides; a bucket collision merely runs a walk
     *  that finds nothing). Counts cannot saturate: at most stqSize
     *  (32) stores are in flight. */
    static constexpr std::size_t StoreFilterBuckets = 128;
    std::uint8_t storeLineFilter_[StoreFilterBuckets];
    static std::size_t
    storeFilterBucket(LineAddr line)
    {
        return (line * 0x9E3779B97F4A7C15ull) >> 57;
    }
    bool lastCommittedInBlock_ = false;
    /** First offset in the ROB that may hold an unissued entry; issue
     *  never needs to look before it. */
    std::size_t firstUnissued_ = 0;
    /**
     * Min-heap of known future wake-up cycles (issued completions,
     * fetch restarts). Completions due in <= 1 cycle are not pushed:
     * they are only ever queried from a strictly later cycle, by
     * which point they are already in the past. Entries are popped
     * lazily, so the heap may hold cycles where nothing happens —
     * nextLocalEvent() is conservative, never late. Mutable: lazy
     * cleanup happens inside the const query.
     */
    mutable std::vector<Cycle> events_;
    /** Whether the last stepped cycle was attributed to an annotated
     *  block (extends to skipped idle cycles). */
    bool lastCycleInBlock_ = false;
    /** Stall-counter increments of the last stepped cycle, replayed
     *  by addSkippedCycles() for each skipped idle repeat. */
    std::uint64_t cycleRobFullStalls_ = 0;
    std::uint64_t cycleLsqFullStalls_ = 0;
    Cycle cycleLimit_ = 0;
};

} // namespace cbws

#endif // CBWS_CPU_CORE_HH
