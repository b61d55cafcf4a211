/**
 * @file
 * Counter tables. Each result-statistics struct lists its scalar
 * counters once, in declaration order, as a `static constexpr
 * counters()` array of member pointers. Code that visits every
 * counter (checkpoint encode/decode, sums, warm-up deltas) walks that
 * list instead of naming the fields (docs/ARCHITECTURE.md "Result
 * counters").
 */

#ifndef CBWS_BASE_COUNTERS_HH
#define CBWS_BASE_COUNTERS_HH

#include <cstdint>

namespace cbws
{

template <typename S>
void
addCounters(S &into, const S &from)
{
    for (const auto member : S::counters())
        into.*member += from.*member;
}

template <typename S>
void
subtractCounters(S &into, const S &from)
{
    for (const auto member : S::counters())
        into.*member -= from.*member;
}

/** True when @p S holds nothing but its listed counters, so a member
 *  added without a list row fails a static_assert. */
template <typename S>
constexpr bool
countersCoverStruct()
{
    return sizeof(S) == S::counters().size() * sizeof(std::uint64_t);
}

} // namespace cbws

#endif // CBWS_BASE_COUNTERS_HH
