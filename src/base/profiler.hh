/**
 * @file
 * Host-side self-profiler: where does the *simulator's* wall time go?
 *
 * Everything else in the observability stack (debug flags, snapshots,
 * Chrome traces) looks at the simulated machine; this looks at the
 * simulating process. Components bracket their work with PROF_SCOPE
 * phase markers; the profiler attributes host time between markers to
 * the innermost active phase ("switch-point" accounting), so the
 * per-phase exclusive times of a thread partition its wall time
 * exactly — whatever no scope claims lands in Phase::Other.
 *
 * Cost model:
 *  - Disabled (the default): one predictable branch on a plain bool
 *    per scope — no clock is read, nothing is written. Verified to
 *    stay under a few ns/scope by tests/test_profiler.cc.
 *  - Enabled: one TSC read per phase transition (two per scope) plus
 *    a handful of thread-local adds; calibrated against
 *    steady_clock over the whole profiled window at report time.
 *    Sites hot enough that the TSC reads would rival the bracketed
 *    work use PROF_SCOPE_SAMPLED (1-in-N timed, inline-extrapolated,
 *    zero-sum against the enclosing phase).
 *
 * Thread model: every thread accumulates into its own heap-allocated
 * slab (registered once, never freed, so slabs of joined pool workers
 * survive until report()). enable() is sticky for the process;
 * report() aggregates all slabs. resetForTest() exists for unit tests
 * only.
 */

#ifndef CBWS_BASE_PROFILER_HH
#define CBWS_BASE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "base/stats.hh"

namespace cbws
{

class JsonWriter;

namespace prof
{

/** Host-time phases the simulator attributes its wall clock to. */
enum class Phase : unsigned
{
    Other = 0,      ///< unattributed (driver loops, setup, teardown)
    TraceSynthesis, ///< workload kernels emitting trace records
    Decode,         ///< core fetch/decode/dispatch of trace records
    CacheLookup,    ///< L1-miss/L2 demand processing (hits: decode)
    PfObserve,      ///< prefetcher training (observe/blockBegin/End)
    PfIssue,        ///< prefetch-queue drain into the memory system
    Dram,           ///< MSHR/DRAM fill-drain processing
    SnapshotIO,     ///< JSONL stats-snapshot serialisation + write
    CheckpointIO,   ///< checkpoint open/append (seal, write, flush)
    TraceCacheIO,   ///< on-disk trace-cache load/store
    DecodeBatch,    ///< SoA batch pre-decode of trace records
    NumPhases
};

constexpr unsigned NumPhases =
    static_cast<unsigned>(Phase::NumPhases);

/** Stable snake_case identifier (JSON keys, table rows). */
const char *toString(Phase phase);

/** One-line human description of what a phase covers. */
const char *describe(Phase phase);

/**
 * Deterministic host-work counters of the OoO core's cycle loop: how
 * much scheduling work the replay did, as opposed to how long it
 * took. They are exact for a given trace, configuration and seed
 * (no clock is read), so a speed change can show its mechanism
 * without wall-clock noise. Each core counts into plain members and
 * folds them in once per run (addWork); they never reach CoreStats
 * or SimResult, so no simulated output can move.
 */
struct WorkCounters
{
    /** Committed instructions (warmup included). */
    std::uint64_t committed = 0;
    /** Cycles a core stepped (fast-forwarded ones excluded). */
    std::uint64_t steppedCycles = 0;
    /** Window entries the issue scan examined. */
    std::uint64_t issueCandidates = 0;
    /** Operand-producer lookups. */
    std::uint64_t producerChecks = 0;
    /** Older ROB entries visited looking for a forwarding store. */
    std::uint64_t storeFwdWalkSteps = 0;
    /** Loads refused by a full L1 MSHR file, retried next cycle. */
    std::uint64_t mshrRetries = 0;

    WorkCounters &
    operator+=(const WorkCounters &o)
    {
        committed += o.committed;
        steppedCycles += o.steppedCycles;
        issueCandidates += o.issueCandidates;
        producerChecks += o.producerChecks;
        storeFwdWalkSteps += o.storeFwdWalkSteps;
        mshrRetries += o.mshrRetries;
        return *this;
    }
};

namespace detail
{

extern bool enabledFlag;

/**
 * Test-only clock seam: while non-null, every profiler clock (the
 * tick counter and the wall-clock calibration epoch) reads this
 * nanosecond count instead of the hardware, so tests can assert
 * attribution exactly. Consulted only on the enabled path.
 */
extern const std::uint64_t *testClockNs;

/** This thread's accumulator slab (created on first use). */
struct ThreadSlab
{
    std::array<std::uint64_t, NumPhases> ticks{}; ///< exclusive TSC
    std::array<std::uint64_t, NumPhases> entries{};
    /**
     * Zero-sum extrapolation corrections from SampledScope: a timed
     * sample adds delta*(weight-1) to its phase and subtracts the
     * same from the enclosing phase, so per-thread phase totals keep
     * partitioning wall time exactly. Signed (and applied at report
     * time) because the subtraction can transiently exceed what the
     * parent has accrued so far.
     */
    std::array<std::int64_t, NumPhases> adjust{};
    /** Per-phase invocation counters driving SampledScope's 1-in-N. */
    std::array<std::uint32_t, NumPhases> sampleCtr{};
    Phase current = Phase::Other;
    std::uint64_t lastTsc = 0;
    /** Enclosing phases of the active scope chain. */
    std::array<Phase, 64> stack;
    unsigned depth = 0;
    bool worker = false; ///< slab belongs to a pool worker thread
    WorkCounters work;
};

/** Cached pointer to this thread's slab (set by slabSlow()). */
extern thread_local ThreadSlab *tlsSlab;

/** Cold path: allocate + register this thread's slab once. */
ThreadSlab &slabSlow();

inline ThreadSlab &
slab()
{
    ThreadSlab *s = tlsSlab;
    return s ? *s : slabSlow();
}

/**
 * Cheapest monotonic-enough counter available. The absolute rate is
 * irrelevant: report() calibrates ticks against steady_clock over
 * the whole profiled window.
 */
inline std::uint64_t
readTsc()
{
    if (testClockNs) [[unlikely]]
        return *testClockNs;
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    // Portable fallback: nanoseconds (calibration then yields ~1e9).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/* enter/exit are inline: they run on simulator hot paths (per
 * demand access, per commit) where an out-of-line call plus a fresh
 * TLS lookup each time would dominate the rdtsc itself. */

inline void
enterPhase(Phase phase)
{
    ThreadSlab &s = slab();
    const std::uint64_t now = readTsc();
    if (s.lastTsc != 0)
        s.ticks[static_cast<unsigned>(s.current)] += now - s.lastTsc;
    s.lastTsc = now;
    if (s.depth < s.stack.size())
        s.stack[s.depth] = s.current;
    ++s.depth;
    s.current = phase;
    ++s.entries[static_cast<unsigned>(phase)];
}

inline void
exitPhase()
{
    ThreadSlab &s = slab();
    const std::uint64_t now = readTsc();
    if (s.lastTsc != 0)
        s.ticks[static_cast<unsigned>(s.current)] += now - s.lastTsc;
    s.lastTsc = now;
    if (s.depth > 0) {
        --s.depth;
        s.current = s.depth < s.stack.size() ? s.stack[s.depth]
                                             : Phase::Other;
    } else {
        s.current = Phase::Other;
    }
}

} // namespace detail

/** Is profiling live? (checked on every scope; keep it branchy-cheap) */
inline bool
enabled()
{
    return detail::enabledFlag;
}

/**
 * Turn profiling on for the rest of the process (idempotent). Records
 * the calibration epoch; call before the work you want attributed.
 */
void enable();

/** Honour CBWS_PROFILE=1/true/yes (idempotent convenience). */
void enableFromEnv();

/**
 * Test-only: disable profiling and drop every slab's contents. Not
 * thread-safe — call only with no worker threads running.
 */
void resetForTest();

/**
 * Test-only: drive the profiler's clocks from @p ns (a nanosecond
 * count the test advances by hand); nullptr restores the hardware
 * clocks. Set it before enable() so the epoch is read from it too.
 */
void setTestClock(const std::uint64_t *ns);

/** Fold one core run's work counters into this thread's totals
 *  (no-op while profiling is off). */
inline void
addWork(const WorkCounters &work)
{
    if (enabled())
        detail::slab().work += work;
}

/**
 * RAII phase marker. Disabled cost: one branch. Scopes nest; time
 * spent in an inner scope is *not* charged to the outer phase.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase phase)
    {
        if (enabled()) {
            active_ = true;
            detail::enterPhase(phase);
        }
    }

    ~ScopedPhase()
    {
        if (active_)
            detail::exitPhase();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    bool active_ = false;
};

/**
 * Sampled RAII phase marker for very hot sites (hundreds of
 * thousands of scopes per second) where two TSC reads per scope would
 * cost more than the work they bracket — on this class of machine a
 * timed scope is ~35 ns while e.g. one prefetcher observe() is ~60 ns.
 *
 * Every invocation counts an entry, but only one in (mask+1) is
 * timed. The measured exclusive time is extrapolated inline: the
 * phase gains delta*mask extra ticks and the *enclosing* phase loses
 * the same amount (it absorbed the untimed siblings), so per-thread
 * phase totals still partition wall time exactly. Attribution is
 * statistical — use only where invocations do similar work, e.g.
 * per-access prefetcher training.
 */
class SampledScope
{
  public:
    SampledScope(Phase phase, std::uint32_t mask)
    {
        if (enabled()) {
            detail::ThreadSlab &s = detail::slab();
            const unsigned p = static_cast<unsigned>(phase);
            if ((++s.sampleCtr[p] & mask) == 0) {
                weight_ = mask + 1;
                phase_ = p;
                parent_ = static_cast<unsigned>(s.current);
                ticks0_ = s.ticks[p];
                detail::enterPhase(phase);
            } else {
                ++s.entries[p];
            }
        }
    }

    ~SampledScope()
    {
        if (weight_ != 0) {
            detail::exitPhase();
            detail::ThreadSlab &s = detail::slab();
            const std::int64_t extra =
                static_cast<std::int64_t>(s.ticks[phase_] - ticks0_) *
                (weight_ - 1);
            s.adjust[phase_] += extra;
            s.adjust[parent_] -= extra;
        }
    }

    SampledScope(const SampledScope &) = delete;
    SampledScope &operator=(const SampledScope &) = delete;

  private:
    std::uint64_t ticks0_ = 0;
    std::uint32_t weight_ = 0;
    unsigned phase_ = 0;
    unsigned parent_ = 0;
};

#define CBWS_PROF_CONCAT2(a, b) a##b
#define CBWS_PROF_CONCAT(a, b) CBWS_PROF_CONCAT2(a, b)
/** Attribute the rest of the enclosing block to @p phase. */
#define PROF_SCOPE(phase)                                             \
    ::cbws::prof::ScopedPhase CBWS_PROF_CONCAT(prof_scope_,          \
                                               __LINE__)(phase)
/**
 * Sampled variant for hot sites: counts every entry, times one
 * invocation in (mask+1) and extrapolates. @p mask must be 2^k - 1.
 */
#define PROF_SCOPE_SAMPLED(phase, mask)                               \
    ::cbws::prof::SampledScope CBWS_PROF_CONCAT(prof_scope_,         \
                                                __LINE__)(phase, mask)

/** Per-thread-pool-worker time split (base/threadpool.cc reports). */
struct WorkerTotals
{
    double busySeconds = 0.0;      ///< executing submitted tasks
    double queueWaitSeconds = 0.0; ///< blocked on the work condvar
    double lockWaitSeconds = 0.0;  ///< acquiring the pool mutex
    std::uint64_t jobs = 0;        ///< tasks executed
};

/** Aggregated view of everything profiled so far. */
struct Report
{
    double wallSeconds = 0.0; ///< enable() -> report() wall time
    double cpuSeconds = 0.0;  ///< process CPU time over the window
    /** Exclusive per-phase seconds summed over every thread. */
    std::array<double, NumPhases> phaseSeconds{};
    std::array<std::uint64_t, NumPhases> phaseEntries{};
    /** Sum of phaseSeconds for the *calling* (main) thread only —
     *  equals wallSeconds up to calibration error, which is what the
     *  "phases sum to wall time" acceptance check keys on. */
    double mainThreadSeconds = 0.0;
    /** Exclusive seconds of worker-thread slabs (scopes run inside
     *  pool jobs; busy time is also in workers[].busySeconds). */
    double workerThreadSeconds = 0.0;
    /** Per worker-index totals, aggregated across every pool. */
    std::vector<WorkerTotals> workers;
    std::uint64_t poolsObserved = 0;
    /** Pool job durations, microseconds (64 x 50us buckets). */
    Histogram jobMicros{64, 50.0};
    /** Core work counters summed over every thread. */
    WorkCounters work;
    bool enabled = false;
};

/** Aggregate all slabs + worker stats. Call with workers quiescent. */
Report report();

/** Pool teardown hook: fold one pool's per-worker stats in. */
void addPoolStats(const std::vector<WorkerTotals> &workers,
                  const Histogram &job_micros);

/** Render the phase/worker breakdown as an aligned text table. */
std::string renderTable(const Report &report);

/** Write the "profile" JSON object (no surrounding artifact). */
void writeJson(JsonWriter &w, const Report &report);

/**
 * Write a standalone profile artifact (provenance-stamped) to
 * @p path, e.g. BENCH_profile.json. Returns false on I/O failure.
 */
bool writeJsonFile(const std::string &path, const Report &report);

} // namespace prof
} // namespace cbws

#endif // CBWS_BASE_PROFILER_HH
