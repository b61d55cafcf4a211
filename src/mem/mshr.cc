#include "mem/mshr.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cbws
{

MshrFile::Entry &
MshrFile::allocate(LineAddr line, Cycle ready_at, bool is_prefetch,
                   bool is_write)
{
    panic_if(find(line) != nullptr,
             "MSHR double-allocation for line %llx",
             static_cast<unsigned long long>(line));
    const std::size_t slot = slotOf(NoLine);
    panic_if(slot == tags_.size(), "MSHR allocation with a full file");
    tags_[slot] = line;
    Entry &e = entries_[slot];
    e.valid = true;
    e.line = line;
    e.readyAt = ready_at;
    e.isPrefetch = is_prefetch;
    e.isWrite = is_write;
    e.demanded = false;
    e.pfSource = PfSource::Unknown;
    e.pfId = 0;
    e.firstDemandAt = 0;
    ++numValid_;
    if (ready_at < nextReady_)
        nextReady_ = ready_at;
    return e;
}

void
MshrFile::clear()
{
    for (auto &e : entries_)
        e.valid = false;
    std::fill(tags_.begin(), tags_.end(), NoLine);
    numValid_ = 0;
    nextReady_ = NoEvent;
}

} // namespace cbws
