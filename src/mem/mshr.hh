/**
 * @file
 * Miss status holding registers (MSHRs) with merge semantics.
 *
 * Each cache level owns an MshrFile. A miss allocates an entry with the
 * cycle at which its fill completes; later misses to the same line merge
 * into the existing entry (secondary misses) instead of generating new
 * downstream traffic. A full MSHR file back-pressures the core: loads
 * that cannot allocate retry the following cycle, which is what limits
 * memory-level parallelism to the 4 L1 / 32 L2 MSHRs of Table II.
 */

#ifndef CBWS_MEM_MSHR_HH
#define CBWS_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace cbws
{

/**
 * Fixed-capacity MSHR file for one cache level.
 */
class MshrFile
{
  public:
    struct Entry
    {
        LineAddr line = 0;
        Cycle readyAt = 0;
        bool valid = false;
        bool isPrefetch = false; ///< fill initiated by the prefetcher
        bool isWrite = false;    ///< any merged request was a store
        bool demanded = false;   ///< a demand access merged into this
                                 ///< entry while it was in flight
        /** Lifecycle attribution of prefetch-initiated fills. */
        PfSource pfSource = PfSource::Unknown;
        /** Unique id assigned to the prefetch request (0 = none). */
        std::uint64_t pfId = 0;
        /** Cycle the first demand merged in (lateness accounting). */
        Cycle firstDemandAt = 0;
        /** Requesting core (fill ownership; 0 in single-core). */
        std::uint8_t core = 0;
    };

    explicit MshrFile(unsigned capacity)
        : entries_(capacity), tags_(capacity, NoLine)
    {}

    /** Find the in-flight entry for @p line, if any. One compare per
     *  slot over the dense tag array. */
    Entry *
    find(LineAddr line)
    {
        const std::size_t i = slotOf(line);
        return i < tags_.size() ? &entries_[i] : nullptr;
    }
    const Entry *
    find(LineAddr line) const
    {
        const std::size_t i = slotOf(line);
        return i < tags_.size() ? &entries_[i] : nullptr;
    }

    /**
     * True when no entry can be allocated. O(1): the valid count is
     * maintained at allocate/drain/clear, because full() guards every
     * demand miss and inFlight() every prefetch issue — the two
     * hottest queries in the hierarchy.
     */
    bool full() const { return numValid_ == entries_.size(); }

    /** Number of valid (in-flight) entries. O(1). */
    unsigned inFlight() const { return numValid_; }

    /**
     * Allocate an entry; the caller must have checked full() and
     * find() first. Returns the new entry.
     */
    Entry &allocate(LineAddr line, Cycle ready_at, bool is_prefetch,
                    bool is_write);

    /**
     * Retire every entry whose fill completed at or before @p now,
     * invoking @p on_fill for each (used by the hierarchy to install
     * lines into the tag arrays at fill time). Entries retire in
     * entry-array order (allocation-slot order), which callers'
     * replacement state depends on — do not reorder.
     *
     * Templated so the idle early-out (by far the most frequent
     * outcome: the hierarchy probes every MSHR file every simulated
     * cycle) inlines to a single compare at the call site, and so the
     * callback lambdas are invoked directly instead of being wrapped
     * in a std::function per call.
     */
    template <typename OnFill>
    void
    drain(Cycle now, OnFill &&on_fill)
    {
        if (now < nextReady_)
            return;
        Cycle next = NoEvent;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (!e.valid)
                continue;
            if (e.readyAt <= now) {
                on_fill(static_cast<const Entry &>(e));
                e.valid = false;
                tags_[i] = NoLine;
                --numValid_;
            } else if (e.readyAt < next) {
                next = e.readyAt;
            }
        }
        nextReady_ = next;
    }

    /** Drop all entries (end of simulation). */
    void clear();

    /** Raw entry array (end-of-run lifecycle accounting only). */
    const std::vector<Entry> &entries() const { return entries_; }

    /**
     * Cycle of the earliest pending fill, or a huge sentinel when the
     * file is idle; lets the hierarchy skip drain scans on idle cycles.
     */
    Cycle nextReady() const { return nextReady_; }

  private:
    /**
     * Tag sentinel of free slots. Real line addresses are byte
     * addresses shifted right by LineShift, so ~0 never collides
     * (the Cache tag array uses the same trick).
     */
    static constexpr LineAddr NoLine = ~LineAddr(0);
    static constexpr Cycle NoEvent = ~Cycle(0);

    /** Slot holding @p line (a free slot for NoLine); the capacity
     *  when there is none. */
    std::size_t
    slotOf(LineAddr line) const
    {
        std::size_t i = 0;
        while (i < tags_.size() && tags_[i] != line)
            ++i;
        return i;
    }

    std::vector<Entry> entries_;
    /** Line of each slot's in-flight entry, NoLine when the slot is
     *  free: find() scans this dense array instead of the entries. */
    std::vector<LineAddr> tags_;
    unsigned numValid_ = 0;
    Cycle nextReady_ = NoEvent;
};

} // namespace cbws

#endif // CBWS_MEM_MSHR_HH
